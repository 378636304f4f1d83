"""``live_ddos`` — the live detection loop, closed loop on the sim clock.

The paper's 18-switch / 3-instance enterprise topology with reactive
forwarding and Athena polling every simulated second.  Seeded benign
flows (10 pps, 8 s, half bidirectional, staggered over the run) carry
the background; from mid-run one host floods another.  A ``threshold``
model on ``FLOW_PACKET_COUNT`` is registered with ``AddOnlineValidator``;
the first positive verdict per source calls ``Reactor`` with a
``BlockReaction``.

Why it exists: the only workload that drives packet -> ``dataplane`` ->
``controller`` -> ``core.southbound`` -> ``core.generator`` ->
``core.feature_manager.publish`` -> ``distdb.insert_one`` -> delivery
table -> ``validate_one`` -> ``core.reaction_manager``.  ML training and
batch fetch do almost nothing, so a ``batch_ddos`` win that taxes the
per-feature write path shows as a loss here.

Timed unit: one whole ``sim.run`` of a freshly built stack.  The same
seed gives the same traffic, so feature and event counts must repeat
exactly unit to unit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.controller import ControllerCluster, ReactiveForwarding
from repro.core import AthenaDeployment, BlockReaction, GenerateQuery
from repro.core.algorithm import GenerateAlgorithm
from repro.core.preprocessor import GeneratePreprocessor
from repro.dataplane.topologies import enterprise_topology
from repro.openflow.actions import ActionDrop
from repro.simkernel.rng import SeededRng
from repro.telemetry.clocks import Stopwatch, wall_now
from repro.workloads.flows import FlowSpec, TrafficSchedule

from harness import Checks, WorkloadResult, median, unit_timer

#: Benign flows send 80 packets; every attack flow passes this within 1 s.
PACKET_COUNT_THRESHOLD = 120.0


@dataclass(frozen=True)
class Size:
    benign_flows: int = 160
    horizon: float = 24.0  # sim-s
    attack_flows: int = 40
    attack_pps: float = 150.0
    min_units: int = 2

    @property
    def attack_start(self) -> float:
        return self.horizon / 2


def make_inputs(seed: int, size: Size) -> Dict[str, object]:
    """Attacker, victim and the benign flow specs.

    The seed draws when each benign flow starts and its source port.
    Who talks to whom is fixed (flow ``i`` runs between two hosts a fixed
    stride apart), so path lengths — and with them the work one run does
    — do not change with the seed, only the interleaving of the traffic.
    """
    hosts = [f"h{i}" for i in range(1, 25)]  # enterprise_topology's 24 hosts
    rng = SeededRng(seed, "live_ddos")
    attacker, victim = hosts[1], hosts[22]
    benign = [h for h in hosts if h != attacker]
    flows: List[FlowSpec] = []
    stagger = max(0.0, size.horizon - 10.0)
    for i in range(size.benign_flows):
        src = benign[i % len(benign)]
        dst = benign[(i + 5 + 3 * (i // len(benign))) % len(benign)]
        flows.append(
            FlowSpec(
                src_host=src,
                dst_host=dst,
                sport=10_000 + int(rng.integers(0, 30_000)),
                dport=80,
                rate_pps=10.0,
                start=1.0 + float(rng.uniform(0.0, stagger)),
                duration=8.0,
                bidirectional=(i % 2 == 0),
            )
        )
    for j in range(size.attack_flows):
        flows.append(
            FlowSpec(
                src_host=attacker,
                dst_host=victim,
                sport=50_000 + j,
                dport=80,
                packet_size=64,
                rate_pps=size.attack_pps,
                start=size.attack_start,
                duration=size.horizon - size.attack_start - 1.0,
            )
        )
    return {"attacker": attacker, "victim": victim, "flows": flows}


def inputs_digest(inputs: Dict[str, object]) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


class Stack:
    """One freshly built network + controllers + Athena + scheduled traffic."""

    def __init__(self, inputs: Dict[str, object], size: Size) -> None:
        self.size = size
        topo = enterprise_topology()
        self.network = topo.network
        self.sim = topo.network.sim
        self.cluster = ControllerCluster(topo.network, n_instances=3)
        self.cluster.adopt_domains(topo.domains)
        self.cluster.start(poll=False)
        ReactiveForwarding().activate(self.cluster)
        self.athena = AthenaDeployment(self.cluster, athena_poll_interval=1.0)
        self.athena.start()
        schedule = TrafficSchedule(topo.network)
        schedule.prime_arp()
        self.sim.run(until=0.5)
        schedule.add_flows(inputs["flows"])
        self.attacker_ip = topo.network.hosts[inputs["attacker"]].ip
        #: source ip -> (sim time, wall time) of its first positive verdict.
        self.alerts: Dict[str, tuple] = {}
        self.attack_wall: Optional[float] = None
        preprocessor = GeneratePreprocessor(
            normalization=None, features=["FLOW_PACKET_COUNT"]
        )
        model = self.athena.northbound.GenerateDetectionModel(
            GenerateQuery(),
            preprocessor,
            GenerateAlgorithm("threshold", column=0, threshold=PACKET_COUNT_THRESHOLD),
            documents=[{"FLOW_PACKET_COUNT": 0.0}],
        )
        self.athena.northbound.AddOnlineValidator(
            model.preprocessor,
            model,
            self._on_verdict,
            query=GenerateQuery("feature_scope == flow && FLOW_PACKET_COUNT > 0"),
        )
        self.sim.at(size.attack_start, self._stamp_attack_start)

    def _stamp_attack_start(self) -> None:
        self.attack_wall = wall_now()

    def _on_verdict(self, feature, verdict: bool) -> None:
        if not verdict:
            return
        ip = feature.indicators.get("ip_src")
        if ip in self.alerts:
            return
        # The alert is stamped before the reaction is enforced.
        self.alerts[ip] = (self.sim.now, wall_now())
        self.athena.northbound.Reactor(None, BlockReaction([ip]))

    def drop_rule_packets(self) -> int:
        """Packet counter of the attacker's drop rule on its edge switch."""
        location = self.cluster.hosts.locate_ip(self.attacker_ip)
        if location is None:
            return -1
        for entry in self.network.switches[location.point.dpid].table:
            if entry.match.ip_src == self.attacker_ip and any(
                isinstance(action, ActionDrop) for action in entry.actions
            ):
                return entry.stats.packet_count
        return -1


class State:
    def __init__(self, seed: int, size: Size) -> None:
        self.size = size
        self.inputs = make_inputs(seed, size)
        self.reference: Optional[Dict[str, object]] = None

    def unit(self, checks: Checks, timed) -> Dict[str, float]:
        """Build a stack (untimed), run the whole simulated horizon (timed)."""
        stack = Stack(self.inputs, self.size)
        _, wall = timed(lambda: stack.sim.run(until=self.size.horizon))
        manager = stack.athena.feature_manager
        published = manager.features_published
        alert = stack.alerts.get(stack.attacker_ip)
        checks.check(
            manager.count_features() == published,
            "live_ddos: features stored != features published",
        )
        checks.check(manager.pending_writes == 0, "live_ddos: pending writes at end")
        checks.check(alert is not None, "live_ddos: attacker not flagged")
        checks.check(
            set(stack.alerts) <= {stack.attacker_ip},
            f"live_ddos: benign host flagged: {sorted(stack.alerts)}",
        )
        checks.check(
            stack.athena.reaction_manager.reactions_enforced == 1,
            "live_ddos: expected exactly one block reaction",
        )
        checks.check(
            stack.drop_rule_packets() > 0,
            "live_ddos: no drop rule with traffic on the attacker's edge switch",
        )
        counts = {
            "features": published,
            "sim_events": stack.sim.processed,
            "alert_delay_sim_s": (
                alert[0] - self.size.attack_start if alert else None
            ),
        }
        if self.reference is None:
            self.reference = counts
        checks.check(
            counts == self.reference,
            f"live_ddos: counts differ between units: {counts} vs {self.reference}",
        )
        stats = stack.athena.database.op_stats()
        return {
            "wall_s": wall,
            "features": published,
            "alert_delay_wall_s": alert[1] - stack.attack_wall if alert else 0.0,
            "bytes_written": stats.get("bytes_written", 0),
            "bytes_read": stats.get("bytes_read", 0),
            "poll_retries": sum(i.southbound.polls_retried for i in stack.athena.instances),
            "features_generated": stack.athena.total_features_generated(),
            "features_delivered": manager.features_delivered,
            "pending_writes_end": manager.pending_writes,
        }


def setup(seed: int, size: Size) -> State:
    """Traffic spec from the seed and one warm-up unit (build + run)."""
    state = State(seed, size)
    state.unit(Checks(), unit_timer())
    return state


def measure(state: State, seconds: float, tracer=None) -> WorkloadResult:
    checks = Checks()
    units: List[Dict[str, float]] = []
    timed = unit_timer(tracer)
    phase = Stopwatch()
    while len(units) < state.size.min_units or phase.elapsed() < seconds:
        units.append(state.unit(checks, timed))
    reference = state.reference
    last = units[-1]
    feature_rates = [u["features"] / u["wall_s"] for u in units]
    return WorkloadResult(
        throughput_samples=feature_rates,
        latency_p50_ms=median([u["alert_delay_wall_s"] for u in units]) * 1e3,
        timed_wall_s=sum(u["wall_s"] for u in units),
        checks=checks,
        exact={
            "features": reference["features"],
            "sim_events": reference["sim_events"],
            "alert_delay_sim_s": reference["alert_delay_sim_s"],
        },
        named={
            "live_features_per_s": median(feature_rates),
            "alert_delay_sim_s": reference["alert_delay_sim_s"] or 0.0,
            "alert_delay_wall_s": median([u["alert_delay_wall_s"] for u in units]),
        },
        extras={
            "sim_events": reference["sim_events"] * len(units),
            "bytes_written": sum(u["bytes_written"] for u in units),
            "bytes_read": sum(u["bytes_read"] for u in units),
            "poll_retries": sum(u["poll_retries"] for u in units),
            "features_generated": sum(u["features_generated"] for u in units),
            "features_delivered": sum(u["features_delivered"] for u in units),
            "pending_writes_end": last["pending_writes_end"],
        },
        series={
            "run_wall_s": [u["wall_s"] for u in units],
            "alert_delay_wall_s": [u["alert_delay_wall_s"] for u in units],
        },
    )
