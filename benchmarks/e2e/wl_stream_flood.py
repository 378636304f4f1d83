"""``stream_flood`` — the streaming detection path under a flood.

A standalone ``StreamingPipeline`` + ``StreamingDetectorManager`` (a
``SlidingWindowDetector`` on ``SRC_FLOW_FANOUT`` and a frozen,
pre-warmed ``OnlineGaussianNB``) fed through a private ``EventBus``.
The seeded stream is 80 % PacketIn, 15 % flow-stats, 5 % FlowRemoved;
benign sources are Zipf-skewed, and every block carries a burst of
spoofed-source packets toward one victim plus one flood source opening
flows on one switch.  Nearly every PacketIn is a new flow, so the state
tables hold hundreds of thousands of flows; ``detectors.refresh()`` and
``pipeline.collect_garbage()`` fire on event time every 5 / 30 sim-s as
``AthenaDeployment.enable_streaming`` arms them.

Why it exists: the only workload where ``streaming`` + ``ml.online`` do
the work; state size and key skew are what a single feature-state
engine must be judged on.

Phase A, closed loop, one client: blocks of events, each generated
before and freed after its timed loop; ``throughput_per_s`` is the upper
quartile of the block rates.  Phase B, open loop at a fixed event rate:
latency is counted from each event's *due* time, so a refresh/GC stall
shows as delay on the events queued behind it, which a closed loop
hides.  So does every time slice the host takes from a shared VM, which
is why ``latency_p50_ms`` is the median *service* time of phase B's
events (processing start to ``bus.publish`` return), taken per chunk and
then as the lower quartile of the chunks (``quiet_quartile`` says why),
and the due-time p50 / p99 are recorded under their own names.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.controller.events import (
    EventBus,
    FlowRemovedEvent,
    PacketInEvent,
    StatsEvent,
)
from repro.ml.online import OnlineGaussianNB, SlidingWindowDetector
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    PacketIn,
)
from repro.simkernel.rng import SeededRng
from repro.streaming import StreamingDetectorManager, StreamingPipeline
from repro.telemetry.clocks import Stopwatch, wall_now
from repro.types import ip_from_int
from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec

from harness import Checks, WorkloadResult, median, percentile, unit_timer

N_DPIDS = 6
N_SOURCES = 20_000
N_SERVERS = 2_000
#: Benign source popularity ~ 1 / (rank + ZIPF_SHIFT): skewed, but the
#: busiest benign source stays under the fan-out threshold per switch.
ZIPF_SHIFT = 100
FLOOD_SOURCE = "203.0.113.7"
FLOOD_DPID = 1
VICTIM = "10.9.0.1"
#: Event-time maintenance periods, as ``enable_streaming`` arms them.
REFRESH_EVERY = 5.0
GC_EVERY = 30.0
NB_FEATURES = [
    "FLOW_PACKET_COUNT",
    "FLOW_BYTE_PER_PACKET",
    "FLOW_PACKET_PER_DURATION",
    "PAIR_FLOW",
]


@dataclass(frozen=True)
class Size:
    block_events: int = 25_000
    #: Staleness horizon of the pipeline's state tables (sim-s).  Flows
    #: live 150-180 sim-s before GC evicts them, so resident state levels
    #: off near 110 000 flows after six blocks.
    stale_after: float = 150.0
    #: Blocks fed in set-up after the first, so that timing starts on the
    #: plateau.  While state still grows the block rate falls from block
    #: to block (34 000 to 29 000 events/s), and a median over a run that
    #: is half growth and half plateau sits on the edge between the two.
    warm_blocks: int = 5
    #: Phase B: fixed schedule (about a third of the closed-loop rate on
    #: the 2-core host class), and its share of the measuring time.
    open_rate: float = 10_000.0
    open_share: float = 0.4
    min_blocks: int = 8
    min_open_events: int = 10_000
    #: Phase B's service times are summarised as one median per chunk of
    #: this many events (see ``quiet_quartile``).
    chunk_events: int = 1_000
    #: Scale of the labelled dataset the frozen NB learner is warmed on.
    nb_scale: float = 0.0005
    #: Live flows of one source on one switch that count as a flood; the
    #: flood source passes it inside the first block's burst.
    fanout_threshold: float = 300.0

    @property
    def events_per_sim_s(self) -> float:
        """Event-time density: one block spans exactly one GC period.

        Every block then pays for one state GC and six model refreshes.
        With GC falling into some blocks and not others, block times are
        bimodal and their median jumps between the two modes.
        """
        return self.block_events / GC_EVERY


class EventSource:
    """The seeded event stream; ``block(n)`` continues where it left off."""

    def __init__(self, seed: int, size: Size) -> None:
        self.size = size
        self._rng = SeededRng(seed, "stream_flood").generator
        weights = 1.0 / (np.arange(N_SOURCES) + ZIPF_SHIFT)
        self._source_p = weights / weights.sum()
        self._sources = [ip_from_int((172 << 24) + (16 << 16) + i) for i in range(N_SOURCES)]
        self._servers = [ip_from_int((10 << 24) + (1 << 16) + i) for i in range(N_SERVERS)]
        self.index = 0
        #: Ring of recent flows that stats / removals refer to.
        self._recent: List[Tuple[int, Dict[str, Any]]] = []

    def block(self, n: int) -> List[Any]:
        rng = self._rng
        kinds = rng.random(n)
        sources = rng.choice(N_SOURCES, size=n, p=self._source_p)
        servers = rng.integers(0, N_SERVERS, size=n)
        ports = rng.integers(1024, 65_536, size=n)
        dpids = rng.integers(1, N_DPIDS + 1, size=n)
        spoofed = rng.integers(1 << 24, 1 << 31, size=n)
        picks = rng.random(n)
        packets = rng.integers(8, 60, size=n)
        # The burst: the second quarter of every block.
        burst_from, burst_to = n // 4, n // 2
        recent = self._recent
        events: List[Any] = []
        for i in range(n):
            time = (self.index + i) / self.size.events_per_sim_s
            kind = kinds[i]
            if kind < 0.80 or not recent:
                dpid = int(dpids[i])
                headers = {
                    "ip_src": self._sources[sources[i]],
                    "ip_dst": self._servers[servers[i]],
                    "ip_proto": 6,
                    "tcp_src": int(ports[i]),
                    "tcp_dst": 80,
                }
                if burst_from <= i < burst_to:
                    if picks[i] < 0.10:
                        # Spoofed-source flood: fresh source, one victim.
                        headers["ip_src"] = ip_from_int(int(spoofed[i]))
                        headers["ip_dst"] = VICTIM
                    elif picks[i] < 0.20:
                        # The flood source fans out on one switch.
                        dpid = FLOOD_DPID
                        headers["ip_src"] = FLOOD_SOURCE
                        headers["ip_dst"] = VICTIM
                recent.append((dpid, headers))
                events.append(
                    PacketInEvent(
                        instance_id=0, dpid=dpid, time=time,
                        message=PacketIn(dpid=dpid, headers=headers, total_len=120),
                    )
                )
                continue
            dpid, headers = recent[int(picks[i] * len(recent))]
            count = int(packets[i])
            if kind < 0.95:
                entry = FlowStatsEntry(
                    match=Match(**headers), priority=10, duration_sec=4.0,
                    packet_count=count, byte_count=count * 900,
                )
                events.append(
                    StatsEvent(
                        instance_id=0, dpid=dpid, time=time, athena_marked=True,
                        message=FlowStatsReply(dpid=dpid, entries=[entry]),
                    )
                )
            else:
                events.append(
                    FlowRemovedEvent(
                        instance_id=0, dpid=dpid, time=time,
                        message=FlowRemoved(
                            dpid=dpid, match=Match(**headers), priority=10,
                            duration_sec=6.0, packet_count=count,
                            byte_count=count * 900,
                        ),
                    )
                )
        if len(recent) > 4096:
            del recent[:-4096]
        self.index += n
        return events


def make_inputs(seed: int, size: Size) -> List[Any]:
    """The first block of the stream (what the self-test fingerprints)."""
    return EventSource(seed, size).block(size.block_events)


def inputs_digest(events: List[Any]) -> str:
    digest = hashlib.sha256()
    for event in events:
        message = event.message
        body = (
            message.headers if isinstance(message, PacketIn)
            else message.entries if isinstance(message, FlowStatsReply)
            else (message.match, message.packet_count)
        )
        digest.update(repr((type(event).__name__, event.dpid, event.time, body)).encode())
    return digest.hexdigest()


def warm_learner(seed: int, size: Size) -> OnlineGaussianNB:
    learner = OnlineGaussianNB()
    spec = DDoSDatasetSpec(scale=size.nb_scale, seed=seed)
    for doc in DDoSDatasetGenerator(spec).generate():
        learner.partial_fit(
            [doc.get(name, 0.0) for name in NB_FEATURES], doc.get("label", 0)
        )
    return learner


class Pipeline:
    """Bus + pipeline + detectors, with event-time maintenance."""

    def __init__(self, learner: OnlineGaussianNB, size: Size) -> None:
        self.bus = EventBus()
        self.pipeline = StreamingPipeline(stale_after=size.stale_after)
        self.detectors = StreamingDetectorManager()
        self.detectors.register_detector(
            "fanout",
            SlidingWindowDetector(
                column=0, threshold=size.fanout_threshold, window=16, min_hits=4
            ),
            features=["SRC_FLOW_FANOUT"],
            cooldown=1.0,
        )
        self.detectors.register_detector(
            "online_nb", learner, features=NB_FEATURES, cooldown=1.0,
            absorb=False, kinds=("flow_stats", "flow_removed"),
        )
        self.pipeline.add_sink(self.detectors.on_event)
        self.pipeline.attach_instance(0, self.bus)
        self.next_refresh = REFRESH_EVERY
        self.next_gc = GC_EVERY
        self.next_due = min(self.next_refresh, self.next_gc)
        self.sent = 0

    def maintain(self, now: float) -> None:
        """Fire the periodic refresh / GC that fell due by event time."""
        while now >= self.next_refresh:
            self.detectors.refresh()
            self.next_refresh += REFRESH_EVERY
        while now >= self.next_gc:
            self.pipeline.collect_garbage(now)
            self.next_gc += GC_EVERY
        self.next_due = min(self.next_refresh, self.next_gc)

    def feed(self, events: List[Any]) -> None:
        """Closed loop: publish every event, maintenance on event time."""
        publish = self.bus.publish
        for event in events:
            if event.time >= self.next_due:
                self.maintain(event.time)
            publish(event)
        self.sent += len(events)

    def feed_on_schedule(self, events: List[Any], rate: float) -> Dict[str, Any]:
        """Open loop: event ``i`` is due at ``start + i / rate``.

        ``latencies`` count from the due time, so they include the wait
        behind a stall; ``service`` counts from when processing began.
        """
        publish = self.bus.publish
        interval = 1.0 / rate
        latencies: List[float] = []
        service: List[float] = []
        late = 0
        idle_s = 0.0
        start = wall_now()
        for i, event in enumerate(events):
            due = start + i * interval
            arrived = now = wall_now()
            if now > due + interval:
                late += 1
            while now < due:
                now = wall_now()
            idle_s += now - arrived
            if event.time >= self.next_due:
                self.maintain(event.time)
            publish(event)
            done = wall_now()
            latencies.append(done - due)
            service.append(done - now)
        self.sent += len(events)
        schedule_end = start + len(events) * interval
        return {
            "latencies": latencies,
            "service": service,
            "late_frac": late / len(events),
            "backlog_end": max(0, int((wall_now() - schedule_end) * rate)),
            "idle_s": idle_s,
        }

    def state_flows(self) -> int:
        return sum(
            s.flow_state.tracked_flow_count() for s in self.pipeline.states.values()
        )


class State:
    def __init__(self, seed: int, size: Size) -> None:
        self.size = size
        self.source = EventSource(seed, size)
        learner = warm_learner(seed, size)
        first = self.source.block(size.block_events)
        # Warm-up doubles as the determinism check: a scratch pipeline and
        # the measured one are fed the same first block.
        scratch = Pipeline(learner, size)
        scratch.feed(first)
        self.scratch_digest = scratch.detectors.alert_stream_digest()
        self.live = Pipeline(learner, size)
        self.live.feed(first)
        self.first_digest = self.live.detectors.alert_stream_digest()
        self.first_alerts = len(self.live.detectors.alerts)
        for _ in range(size.warm_blocks):
            self.live.feed(self.source.block(size.block_events))


def quiet_quartile(samples: List[float], better: str) -> float:
    """The quartile of ``samples`` on the better side of their median.

    A shared host runs slow for seconds at a time (a neighbour's load, a
    time-sliced vCPU): the chunk medians of one run's service times sit at
    22 us with stretches at 30 us, its block rates at 29 000 events/s with
    blocks at 22 000, and a median over the run reads how much of the run
    the host disturbed.  The host only ever adds time, so the quartile on
    the better side is what the program reaches on the quiet part of the
    run, and a change in the program shifts every sample and the quartile
    with them.  Not a further percentile: the two chunks after each state
    GC are faster than the rest (smaller tables), and the best tenth of
    the chunks would sit on the edge of exactly those.
    """
    return percentile(sorted(samples), 0.25 if better == "lower" else 0.75)


def setup(seed: int, size: Size) -> State:
    """Warm the NB learner, build the pipeline, feed the first block
    twice, then the warm-up blocks that bring state to its plateau."""
    return State(seed, size)


def measure(state: State, seconds: float, tracer=None) -> WorkloadResult:
    size = state.size
    live = state.live
    checks = Checks()
    timed = unit_timer(tracer)
    checks.check(
        state.first_digest == state.scratch_digest,
        "stream_flood: two fresh pipelines disagree on the first block's alerts",
    )
    # Phase A — closed loop.
    closed_budget = seconds * (1.0 - size.open_share)
    block_s: List[float] = []
    phase = Stopwatch()
    while len(block_s) < size.min_blocks or phase.elapsed() < closed_budget:
        events = state.source.block(size.block_events)
        block_s.append(timed(lambda: live.feed(events))[1])
        del events
    # Phase B — open loop.
    n_open = max(size.min_open_events, int(size.open_rate * size.open_share * seconds))
    events = state.source.block(n_open)
    opened, open_s = timed(lambda: live.feed_on_schedule(events, size.open_rate))
    del events
    latencies = sorted(opened["latencies"])
    service = opened["service"]
    chunk = min(size.chunk_events, len(service))
    service_chunk_s = [
        median(service[i:i + chunk]) for i in range(0, len(service) - chunk + 1, chunk)
    ]

    checks.check(
        live.pipeline.events_processed == live.sent,
        f"stream_flood: {live.pipeline.events_processed} events processed, "
        f"{live.sent} sent",
    )
    flagged = live.detectors.flagged_sources("fanout")
    checks.check(FLOOD_SOURCE in flagged, "stream_flood: flood source not alerted")
    checks.check(
        set(flagged) <= {FLOOD_SOURCE},
        f"stream_flood: benign sources alerted on fan-out: {flagged[:5]}",
    )
    checks.check(
        opened["backlog_end"] < 0.05 * n_open,
        f"stream_flood: schedule not sustained, backlog {opened['backlog_end']} "
        f"of {n_open} events at the end ({opened['late_frac']:.0%} sent late)",
    )
    block_rates = [size.block_events / s for s in block_s]
    events_per_s = quiet_quartile(block_rates, "higher")
    return WorkloadResult(
        throughput_samples=block_rates,
        throughput_value=events_per_s,
        latency_p50_ms=quiet_quartile(service_chunk_s, "lower") * 1e3,
        timed_wall_s=sum(block_s) + open_s,
        checks=checks,
        exact={
            "first_block_digest": state.first_digest,
            "first_block_alerts": state.first_alerts,
        },
        extras={
            "stream_events_in": size.block_events * len(block_s) + n_open,
            "stream_alerts": len(live.detectors.alerts),
            "stream_state_flows": live.state_flows(),
            "open_loop_idle_s": opened["idle_s"],
        },
        named={"stream_events_per_s": events_per_s},
        timings={
            "stream_latency_p50_us": percentile(latencies, 0.50) * 1e6,
            "stream_latency_p99_us": percentile(latencies, 0.99) * 1e6,
            "generator_late_frac": opened["late_frac"],
            "backlog_end": opened["backlog_end"],
        },
        series={"block_s": block_s, "service_chunk_s": service_chunk_s},
    )
