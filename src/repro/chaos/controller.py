"""The chaos controller: arms a :class:`FaultPlan` against a deployment.

The controller schedules every event of a plan on the deployment's
simulator and applies it to the matching layer:

* ``instance_down`` / ``instance_up`` — controller-instance crash
  (mastership failover moves every mastered switch to a live standby)
  and rejoin-as-standby;
* ``shard_down`` / ``shard_up`` / ``replica_lag`` — database shard loss,
  rejoin, and injected replication lag;
* ``link_down`` / ``link_up`` / ``link_flap`` / ``partition`` —
  data-plane link faults (ports flip too, so PortStatus reaches the
  controller);
* ``worker_crash`` — the next tasks on a compute worker raise, driving
  the compute cluster's retry-on-another-worker path;
* ``sb_drop`` / ``sb_delay`` / ``sb_dup`` — probabilistic southbound
  channel faults on one instance, drawn from a :class:`SeededRng` stream
  per fault event.

Everything — fault times, recovery times, per-message coin flips — lives
on the simulated clock and a named RNG tree, so a (plan, seed) pair
replays to a byte-identical deterministic telemetry snapshot.  The
deployment is duck-typed (``cluster``, ``database``, ``compute``
attributes) to keep this module import-free of :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.chaos.plan import FaultEvent, FaultPlan
from repro.controller.events import MessageDirection
from repro.errors import ChaosError
from repro.simkernel.rng import SeededRng
from repro.telemetry import get_telemetry

_DIRECTION_NAMES = {
    MessageDirection.TO_SWITCH: "to_switch",
    MessageDirection.FROM_SWITCH: "from_switch",
}


class _SouthboundFault:
    """One active probabilistic channel fault on a controller instance."""

    __slots__ = ("kind", "rate", "delay", "direction", "until", "rng")

    def __init__(
        self,
        kind: str,
        rate: float,
        delay: float,
        direction: str,
        until: Optional[float],
        rng: SeededRng,
    ) -> None:
        self.kind = kind
        self.rate = rate
        self.delay = delay
        self.direction = direction
        self.until = until
        self.rng = rng


class ChaosController:
    """Arms a fault plan against a running Athena deployment."""

    def __init__(self, deployment, plan: FaultPlan, seed: Optional[int] = None) -> None:
        self.deployment = deployment
        self.plan = plan
        root_seed = seed if seed is not None else (plan.seed or 0)
        self.rng = SeededRng(root_seed, "chaos")
        self.sim = deployment.cluster.sim
        self.faults_injected = 0
        self.faults_skipped = 0
        self.recoveries = 0
        #: Deterministic action log: ``(sim_time, kind, note)`` per action.
        self.log: List[str] = []
        self._armed = False
        self._sb_faults: Dict[int, List[_SouthboundFault]] = {}
        registry = get_telemetry().registry
        self._metric_faults = registry.counter(
            "athena_chaos_faults_total",
            "Fault events applied by the chaos controller, by kind.",
            labelnames=("kind",),
        )
        self._metric_skipped = registry.counter(
            "athena_chaos_skipped_total",
            "Fault events skipped as inapplicable, by kind.",
            labelnames=("kind",),
        )
        self._metric_recoveries = registry.counter(
            "athena_chaos_recoveries_total",
            "Recovery actions applied (target back in service), by kind.",
        )

    # -- arming ------------------------------------------------------------

    def arm(self) -> int:
        """Validate the plan against the deployment and schedule it.

        Returns the number of scheduled fault events.  Raises
        :class:`ChaosError` if any event targets something that does not
        exist, *before* anything is scheduled.
        """
        if self._armed:
            raise ChaosError("chaos controller is already armed")
        for event in self.plan:
            self._validate_target(event)
        for index, event in enumerate(self.plan):
            when = max(self.sim.now, event.at)
            self.sim.at(when, lambda e=event, i=index: self._fire(e, i))
        self._armed = True
        return len(self.plan)

    def _validate_target(self, event: FaultEvent) -> None:
        params = event.params
        cluster = self.deployment.cluster
        if "instance" in params:
            instance_id = int(params["instance"])
            if not any(
                i.instance_id == instance_id for i in cluster.instances
            ):
                raise ChaosError(f"{event.kind}: no instance {instance_id}")
        if "shard" in params:
            shard = int(params["shard"])
            if not 0 <= shard < len(self.deployment.database.shards):
                raise ChaosError(f"{event.kind}: no shard {shard}")
        if "worker" in params:
            worker = int(params["worker"])
            if not 0 <= worker < len(self.deployment.compute.workers):
                raise ChaosError(f"{event.kind}: no worker {worker}")
        if "a" in params:
            a, b = int(params["a"]), int(params["b"])
            if cluster.network.link_between(a, b) is None:
                raise ChaosError(f"{event.kind}: no link between {a} and {b}")
        if "groups" in params:
            groups = params["groups"]
            if len(groups) != 2 or not all(groups):
                raise ChaosError(
                    f"{event.kind}: groups must be two non-empty dpid lists"
                )
            for dpid in (d for group in groups for d in group):
                if dpid not in cluster.network.switches:
                    raise ChaosError(f"{event.kind}: unknown dpid {dpid}")

    # -- dispatch ----------------------------------------------------------

    def _fire(self, event: FaultEvent, index: int) -> None:
        getattr(self, f"_apply_{event.kind}")(event, index)

    def _record(self, event: FaultEvent, note: str = "") -> None:
        self.faults_injected += 1
        self._metric_faults.labels(kind=event.kind).inc()
        self.log.append(f"{self.sim.now:.3f} {event.kind} {note}".rstrip())

    def _skip(self, event: FaultEvent, why: str) -> None:
        self.faults_skipped += 1
        self._metric_skipped.labels(kind=event.kind).inc()
        self.log.append(f"{self.sim.now:.3f} {event.kind} skipped: {why}")

    def _recovered(self, kind: str, note: str = "") -> None:
        self.recoveries += 1
        self._metric_recoveries.inc()
        self.log.append(f"{self.sim.now:.3f} {kind} recovered {note}".rstrip())

    # -- controller instances ----------------------------------------------

    def _apply_instance_down(self, event: FaultEvent, index: int) -> None:
        instance_id = int(event.params["instance"])
        cluster = self.deployment.cluster
        if instance_id in cluster.down_instances:
            self._skip(event, f"instance {instance_id} already down")
            return
        survivors = [
            i.instance_id
            for i in cluster.instances
            if i.instance_id != instance_id
            and i.instance_id not in cluster.down_instances
        ]
        if not survivors:
            self._skip(event, "last live instance")
            return
        moved = cluster.fail_instance(instance_id)
        self._record(event, f"instance {instance_id}, moved dpids {moved}")

    def _apply_instance_up(self, event: FaultEvent, index: int) -> None:
        instance_id = int(event.params["instance"])
        cluster = self.deployment.cluster
        if instance_id not in cluster.down_instances:
            self._skip(event, f"instance {instance_id} not down")
            return
        cluster.recover_instance(instance_id)
        self._record(event, f"instance {instance_id} rejoined as standby")
        self._recovered(event.kind, f"instance {instance_id}")

    # -- database shards ----------------------------------------------------

    def _apply_shard_down(self, event: FaultEvent, index: int) -> None:
        shard = int(event.params["shard"])
        database = self.deployment.database
        if not database.shards[shard].up:
            self._skip(event, f"shard {shard} already down")
            return
        database.fail_shard(shard)
        self._record(event, f"shard {shard}")
        duration = event.params.get("duration")
        if duration is not None:
            self.sim.after(duration, lambda: self._shard_back_up(shard))

    def _shard_back_up(self, shard: int) -> None:
        database = self.deployment.database
        if not database.shards[shard].up:
            database.recover_shard(shard)
            self._recovered("shard_down", f"shard {shard}")

    def _apply_shard_up(self, event: FaultEvent, index: int) -> None:
        shard = int(event.params["shard"])
        if self.deployment.database.shards[shard].up:
            self._skip(event, f"shard {shard} already up")
            return
        self.deployment.database.recover_shard(shard)
        self._record(event, f"shard {shard}")
        self._recovered(event.kind, f"shard {shard}")

    def _apply_replica_lag(self, event: FaultEvent, index: int) -> None:
        shard = int(event.params["shard"])
        duration = float(event.params["duration"])
        database = self.deployment.database
        database.begin_replica_lag(shard)
        self._record(event, f"shard {shard} for {duration}s")

        def catch_up() -> None:
            applied = database.end_replica_lag(shard)
            self._recovered(
                "replica_lag", f"shard {shard}, {applied} writes applied"
            )

        self.sim.after(duration, catch_up)

    # -- data-plane links ----------------------------------------------------

    def _set_link(self, a: int, b: int, up: bool) -> None:
        network = self.deployment.cluster.network
        link = network.link_between(a, b)
        if link is None or link.up == up:
            return
        link.up = up
        for end in link.endpoints():
            point = end.switch_point
            network.switches[point.dpid].set_port_state(point.port, up)

    def _apply_link_down(self, event: FaultEvent, index: int) -> None:
        a, b = int(event.params["a"]), int(event.params["b"])
        self._set_link(a, b, False)
        self._record(event, f"link {a}-{b}")
        duration = event.params.get("duration")
        if duration is not None:
            self.sim.after(duration, lambda: self._link_back_up(a, b))

    def _link_back_up(self, a: int, b: int) -> None:
        link = self.deployment.cluster.network.link_between(a, b)
        if link is not None and not link.up:
            self._set_link(a, b, True)
            self._recovered("link_down", f"link {a}-{b}")

    def _apply_link_up(self, event: FaultEvent, index: int) -> None:
        a, b = int(event.params["a"]), int(event.params["b"])
        self._set_link(a, b, True)
        self._record(event, f"link {a}-{b}")
        self._recovered(event.kind, f"link {a}-{b}")

    def _apply_link_flap(self, event: FaultEvent, index: int) -> None:
        a, b = int(event.params["a"]), int(event.params["b"])
        down_for = float(event.params.get("down_for", 0.5))
        times = max(1, int(event.params.get("times", 1)))
        period = float(event.params.get("period", down_for * 2 or 1.0))
        self._record(event, f"link {a}-{b} x{times}")
        for i in range(times):
            start = i * period
            if start <= 0:
                self._set_link(a, b, False)
            else:
                self.sim.after(start, lambda: self._set_link(a, b, False))
            self.sim.after(
                start + down_for, lambda: self._link_back_up(a, b)
            )

    def _apply_partition(self, event: FaultEvent, index: int) -> None:
        left, right = (set(g) for g in event.params["groups"])
        network = self.deployment.cluster.network
        cut: List[Any] = []
        for point_a, point_b in network.switch_links():
            pair = {point_a.dpid, point_b.dpid}
            if pair & left and pair & right:
                cut.append((point_a.dpid, point_b.dpid))
        for a, b in cut:
            self._set_link(a, b, False)
        self._record(event, f"{len(cut)} links cut")
        duration = event.params.get("duration")
        if duration is not None:

            def heal() -> None:
                for a, b in cut:
                    self._link_back_up(a, b)

            self.sim.after(duration, heal)

    # -- compute workers -----------------------------------------------------

    def _apply_worker_crash(self, event: FaultEvent, index: int) -> None:
        worker = int(event.params["worker"])
        count = int(event.params.get("count", 1))
        self.deployment.compute.workers[worker].inject_crashes(count)
        self._record(event, f"worker {worker} x{count}")

    # -- southbound channel faults -------------------------------------------

    def _apply_sb_drop(self, event: FaultEvent, index: int) -> None:
        self._add_sb_fault(event, index)

    def _apply_sb_delay(self, event: FaultEvent, index: int) -> None:
        self._add_sb_fault(event, index)

    def _apply_sb_dup(self, event: FaultEvent, index: int) -> None:
        self._add_sb_fault(event, index)

    def _add_sb_fault(self, event: FaultEvent, index: int) -> None:
        instance_id = int(event.params["instance"])
        duration = event.params.get("duration")
        fault = _SouthboundFault(
            kind=event.kind,
            rate=float(event.params["rate"]),
            delay=float(event.params.get("delay", 0.0)),
            direction=str(event.params.get("direction", "both")),
            until=None if duration is None else self.sim.now + duration,
            rng=self.rng.child(f"sb/{index}"),
        )
        self._sb_faults.setdefault(instance_id, []).append(fault)
        self._ensure_filter(instance_id)
        self._record(event, f"instance {instance_id} rate={fault.rate}")
        if duration is not None:
            self.sim.after(
                duration,
                lambda: self._recovered(event.kind, f"instance {instance_id}"),
            )

    def _ensure_filter(self, instance_id: int) -> None:
        controller = self.deployment.cluster.instance(instance_id)
        if getattr(controller, "_fault_filter", None) is not None:
            return
        faults = self._sb_faults[instance_id]

        def channel_filter(dpid, msg, direction):
            name = _DIRECTION_NAMES[direction]
            verdict = None
            for fault in faults:
                if fault.until is not None and self.sim.now >= fault.until:
                    continue
                if fault.direction not in ("both", name):
                    continue
                if float(fault.rng.random()) >= fault.rate:
                    continue
                if fault.kind == "sb_drop":
                    return []
                if fault.kind == "sb_delay":
                    verdict = [fault.delay]
                elif fault.kind == "sb_dup":
                    verdict = [0.0, 0.0]
            return verdict

        controller.set_fault_filter(channel_filter)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "plan": self.plan.name,
            "events": len(self.plan),
            "applied": self.faults_injected,
            "skipped": self.faults_skipped,
            "recoveries": self.recoveries,
        }
