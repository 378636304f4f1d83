"""The Cbench-equivalent harness.

Cbench's *throughput mode* emulates switches that flood PACKET_IN messages
at the controller and counts flow-install responses per second.  The
harness does the same against a :class:`ControllerInstance`: synthetic
PACKET_INs with rotating source addresses are pushed through the real
switch→controller path, a minimal responder app answers each with a
FLOW_MOD, and the measured quantity is *responses per wall-clock second*.

Three configurations reproduce Table IX:

* ``without``   — bare controller + responder;
* ``with``      — Athena attached, features published to the database;
* ``with_no_db``— Athena attached, database writes disabled.

Figure 11's CPU-usage experiment derives from the same event loop: the
measured per-event CPU cost maps an offered flow-event rate to a CPU
utilisation (capped at saturation), with and without Athena.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.controller.cluster import ControllerCluster
from repro.controller.events import PacketInEvent
from repro.core.deployment import AthenaDeployment
from repro.dataplane.network import Network
from repro.distdb import DatabaseCluster
from repro.openflow.actions import ActionOutput
from repro.openflow.constants import FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketIn
from repro.telemetry import MetricsRegistry
from repro.telemetry.clocks import Stopwatch, cpu_now
from repro.types import mac_from_int


@dataclass
class CbenchResult:
    """Outcome of one throughput round."""

    mode: str
    responses: int
    elapsed_seconds: float

    @property
    def responses_per_second(self) -> float:
        return self.responses / self.elapsed_seconds if self.elapsed_seconds else 0.0


class _Responder:
    """The minimal learning-switch responder Cbench assumes."""

    def __init__(self, cluster: ControllerCluster, match_pool: int = 256) -> None:
        self.cluster = cluster
        self.match_pool = match_pool
        self.responses = 0
        cluster.bus.subscribe(PacketInEvent, self._on_packet_in)

    def _on_packet_in(self, event: PacketInEvent) -> None:
        headers = event.message.headers
        match = Match(
            eth_src=headers.get("eth_src"),
            eth_dst=headers.get("eth_dst"),
        )
        self.cluster.send(
            event.dpid,
            FlowMod(
                command=FlowModCommand.ADD,
                match=match,
                priority=10,
                actions=[ActionOutput(port=2)],
            ),
        )
        self.responses += 1


class CbenchHarness:
    """Builds the bench environment and runs throughput rounds."""

    def __init__(
        self,
        n_switches: int = 16,
        match_pool: int = 64,
        db_shards: int = 3,
        db_backend: str = "mongo",
    ) -> None:
        if db_backend not in ("mongo", "cassandra"):
            raise ValueError(f"unknown db backend {db_backend!r}")
        self.n_switches = n_switches
        self.match_pool = match_pool
        self.db_shards = db_shards
        #: 'mongo' = the document store the paper used; 'cassandra' = the
        #: write-optimised column store Section VII-C proposes.
        self.db_backend = db_backend
        #: Measurement registry — always enabled and private to the
        #: harness, so bench numbers are read from the same metric
        #: primitives the runtime exposes (one code path for benches
        #: and ``athena metrics``), independent of ATHENA_TELEMETRY.
        self.metrics = MetricsRegistry(enabled=True)
        self._metric_responses = self.metrics.counter(
            "athena_cbench_responses_total",
            "Flow-install responses counted across throughput rounds.",
            labelnames=("mode",),
        )
        self._metric_round_seconds = self.metrics.gauge(
            "athena_cbench_round_seconds",
            "Wall seconds of the most recent throughput round.",
            labelnames=("mode",),
        )
        self._metric_event_cpu = self.metrics.histogram(
            "athena_cbench_event_cpu_seconds",
            "Mean CPU seconds per flow event, one observation per "
            "measurement run.",
            labelnames=("mode",),
        )

    def snapshot(self) -> List[Dict[str, Any]]:
        """The harness's metric state (what the benches read)."""
        return self.metrics.snapshot()

    def event_cost_mean(self, mode: str) -> float:
        """Mean of every per-event CPU cost measured for ``mode``."""
        return self._metric_event_cpu.labels(mode=mode).mean

    def _make_database(self):
        if self.db_backend == "cassandra":
            from repro.distdb.columnstore import ColumnStoreCluster

            return ColumnStoreCluster(n_nodes=self.db_shards)
        return DatabaseCluster(n_shards=self.db_shards)

    def _build(self, mode: str):
        network = Network()
        for dpid in range(1, self.n_switches + 1):
            switch = network.add_switch(dpid, name=f"cb{dpid}")
            switch.add_port(1)
            switch.add_port(2)
        cluster = ControllerCluster(network, n_instances=1)
        cluster.adopt_all()
        responder = _Responder(cluster, self.match_pool)
        athena: Optional[AthenaDeployment] = None
        if mode in ("with", "with_no_db"):
            athena = AthenaDeployment(
                cluster,
                database=self._make_database(),
                store_features=(mode == "with"),
            )
            athena.start(poll=False)
        return network, cluster, responder, athena

    def _packet_in(self, dpid: int, sequence: int) -> PacketIn:
        src = mac_from_int(0x0C0000000000 + (sequence % self.match_pool))
        dst = mac_from_int(0x0C0000FF0000 + ((sequence // 7) % self.match_pool))
        return PacketIn(
            dpid=dpid,
            buffer_id=-1,
            in_port=1,
            headers={
                "eth_src": src,
                "eth_dst": dst,
                "eth_type": 0x0800,
                "ip_src": f"10.1.{(sequence >> 8) % 250}.{sequence % 250}",
                "ip_dst": "10.2.0.1",
                "ip_proto": 6,
                "tcp_src": 1024 + (sequence % 60000),
                "tcp_dst": 80,
            },
            total_len=64,
        )

    def run_throughput(
        self,
        mode: str = "without",
        duration_seconds: float = 1.0,
        batch: int = 512,
    ) -> CbenchResult:
        """One throughput round: flood PACKET_INs for ``duration_seconds``."""
        network, cluster, responder, _athena = self._build(mode)
        instance = cluster.instances[0]
        switches = list(network.switches)
        # Warm-up: populate code paths and steady-state tables.
        for sequence in range(self.match_pool):
            instance._on_switch_message(
                self._packet_in(switches[sequence % len(switches)], sequence)
            )
        responder.responses = 0
        sequence = self.match_pool
        response_counter = self._metric_responses.labels(mode=mode)
        responses_before = response_counter.value
        watch = Stopwatch()
        while watch.elapsed() < duration_seconds:
            for _ in range(batch):
                instance._on_switch_message(
                    self._packet_in(switches[sequence % len(switches)], sequence)
                )
                sequence += 1
        elapsed = watch.elapsed()
        response_counter.inc(responder.responses)
        self._metric_round_seconds.labels(mode=mode).set(elapsed)
        # The result is derived from the registry, not the raw counter on
        # the responder — benches and runtime metrics share one source.
        return CbenchResult(
            mode=mode,
            responses=int(response_counter.value - responses_before),
            elapsed_seconds=elapsed,
        )

    def run_rounds(
        self,
        mode: str,
        rounds: int = 10,
        duration_seconds: float = 0.5,
    ) -> List[CbenchResult]:
        """Multiple rounds (the paper runs 50), fresh environment each."""
        return [
            self.run_throughput(mode, duration_seconds=duration_seconds)
            for _ in range(rounds)
        ]

    def measure_event_cost(
        self, mode: str, n_events: int = 20000
    ) -> float:
        """Mean CPU seconds per flow event (Figure 11's service demand)."""
        network, cluster, responder, _athena = self._build(mode)
        instance = cluster.instances[0]
        switches = list(network.switches)
        for sequence in range(self.match_pool):
            instance._on_switch_message(
                self._packet_in(switches[sequence % len(switches)], sequence)
            )
        # Garbage left by whatever ran before is not this mode's cost: a
        # full collection of it inside the loop would be booked per event.
        gc.collect()
        started = cpu_now()
        for sequence in range(self.match_pool, self.match_pool + n_events):
            instance._on_switch_message(
                self._packet_in(switches[sequence % len(switches)], sequence)
            )
        per_event = (cpu_now() - started) / n_events
        self._metric_event_cpu.labels(mode=mode).observe(per_event)
        return per_event


def cpu_usage_curve(
    rates_per_second: List[float],
    event_cost_seconds: float,
    n_cores: int = 6,
) -> List[Tuple[float, float]]:
    """Map offered flow-event rates to CPU utilisation (Figure 11).

    Utilisation is ``rate * per-event CPU cost`` spread over ``n_cores``
    (the paper's hexa-core Xeon), capped at 100% — the saturation point.
    """
    curve = []
    for rate in rates_per_second:
        utilisation = min(100.0, rate * event_cost_seconds / n_cores * 100.0)
        curve.append((rate, utilisation))
    return curve


def saturation_rate(event_cost_seconds: float, n_cores: int = 6) -> float:
    """The offered rate at which the controller saturates (util = 100%)."""
    return n_cores / event_cost_seconds if event_cost_seconds > 0 else float("inf")
