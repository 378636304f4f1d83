"""``cbench_storm`` — Table IX's method, closed loop, one emulated client.

A PacketIn storm against one controller through the public
``CbenchHarness.run_throughput``, in modes ``without`` (bare controller),
``with_no_db`` (Athena attached, store writes off) and ``with`` (Athena +
store), interleaved mode by mode so host drift hits every mode equally.

Why it exists: the smallest-message, no-application-work case.  It
isolates the per-PacketIn cost of the southbound tap + generator
(``with_no_db`` vs ``without``) from the store write (``with`` vs
``with_no_db``), which ``live_ddos`` dilutes with simulator time.
``ml``, ``core.preprocessor`` and ``streaming`` do nothing here.

Timed unit: one throughput round of one mode.  The harness sends
PacketIns in whole batches and counts one FlowMod response each, so a
round's response count must be a positive multiple of the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cbench.harness import CbenchHarness
from repro.telemetry.clocks import Stopwatch

from harness import Checks, WorkloadResult, median, unit_timer

MODES = ("without", "with_no_db", "with")
#: ``run_throughput``'s default send batch.
BATCH = 512


@dataclass(frozen=True)
class Size:
    round_seconds: float = 0.5
    n_switches: int = 8
    match_pool: int = 128
    min_units: int = 3  # rounds per mode


def make_inputs(seed: int, size: Size) -> Dict[str, int]:
    """The storm is fixed by the harness (rotating MACs by sequence number);
    the seed only picks which mode goes first in each interleaved round."""
    return {"first_mode": seed % len(MODES)}


def inputs_digest(inputs: Dict[str, int]) -> str:
    return repr(inputs)


class State:
    def __init__(self, seed: int, size: Size) -> None:
        self.size = size
        first = make_inputs(seed, size)["first_mode"]
        self.order = MODES[first:] + MODES[:first]
        self.harness = CbenchHarness(
            n_switches=size.n_switches, match_pool=size.match_pool
        )

    def round(self, mode: str, checks: Checks, timed) -> Dict[str, float]:
        result, wall = timed(
            lambda: self.harness.run_throughput(
                mode, duration_seconds=self.size.round_seconds
            )
        )
        checks.check(
            result.responses > 0 and result.responses % BATCH == 0,
            f"cbench_storm[{mode}]: {result.responses} responses is not one "
            f"per PacketIn of whole {BATCH}-message batches",
        )
        return {"rate": result.responses_per_second, "wall_s": wall,
                "responses": result.responses}


def setup(seed: int, size: Size) -> State:
    """The harness and one warm-up round per mode."""
    state = State(seed, size)
    for mode in state.order:
        state.round(mode, Checks(), unit_timer())
    return state


def measure(state: State, seconds: float, tracer=None) -> WorkloadResult:
    checks = Checks()
    rounds: Dict[str, List[Dict[str, float]]] = {mode: [] for mode in MODES}
    timed = unit_timer(tracer)
    phase = Stopwatch()
    while len(rounds["with"]) < state.size.min_units or phase.elapsed() < seconds:
        for mode in state.order:
            rounds[mode].append(state.round(mode, checks, timed))
    if tracer is not None:
        received = tracer.stat("controller.on_switch_message")[0]
        answered = tracer.stat("controller.send")[0]
        checks.check(
            received == answered,
            f"cbench_storm: {received} PacketIns but {answered} responses sent",
        )
    rate = {mode: median([r["rate"] for r in rounds[mode]]) for mode in MODES}
    # Athena's added time per PacketIn response (Table IX's overhead as an
    # absolute delay): 1/with - 1/without, paired within each interleaved
    # round so host drift cancels, then the median over rounds.
    added_ms = [
        (1.0 / w["rate"] - 1.0 / b["rate"]) * 1e3
        for w, b in zip(rounds["with"], rounds["without"])
    ]
    return WorkloadResult(
        throughput_samples=[r["rate"] for r in rounds["with"]],
        latency_p50_ms=median(added_ms),
        timed_wall_s=sum(r["wall_s"] for mode in MODES for r in rounds[mode]),
        checks=checks,
        named={
            "cbench_responses_per_s": rate["with"],
            "athena_overhead_pct": 100.0 * (1.0 - rate["with"] / rate["without"]),
            "athena_overhead_nodb_pct": 100.0
            * (1.0 - rate["with_no_db"] / rate["without"]),
        },
        timings={
            "cbench_without_per_s": rate["without"],
            "cbench_nodb_per_s": rate["with_no_db"],
        },
        series={
            "added_ms": added_ms,
            **{f"rate_{mode}": [r["rate"] for r in rounds[mode]] for mode in MODES},
        },
    )
