"""The benchmark-regression harness behind the ``BENCH_*.json`` gates.

A two-path comparison is only done when three things hold: one path is
*faster*, it is *equivalent* (same outputs as the other), and both facts
are *recorded* so the next PR can see whether it regressed them.  This
module packages those three steps:

* :func:`measure_throughput` — time a callable over a known operation
  count with the sanctioned telemetry clocks, taking the median of
  several rounds so one scheduler hiccup does not decide the number;
* :class:`BenchResult` — one named comparison (fast vs slow ops/sec,
  speedup, and an equivalence verdict);
* :class:`HotpathReport` — collects results, evaluates pass/fail gates,
  and writes the ``BENCH_<bench>.json`` artifact CI uploads.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.clocks import Stopwatch


def measure_throughput(
    fn: Callable[[], Any],
    n_ops: int,
    rounds: int = 3,
    warmup: bool = True,
) -> float:
    """Median operations/second of ``fn`` (which performs ``n_ops`` ops).

    ``fn`` is invoked once unmeasured when ``warmup`` is set (priming
    allocators, caches, and lazily-built indexes), then ``rounds`` times
    under the stopwatch.
    """
    if warmup:
        fn()
    rates: List[float] = []
    for _ in range(max(1, rounds)):
        watch = Stopwatch()
        fn()
        elapsed = watch.elapsed()
        rates.append(n_ops / elapsed if elapsed > 0 else float("inf"))
    rates.sort()
    return rates[len(rates) // 2]


@dataclass
class BenchResult:
    """One fast-vs-slow comparison."""

    name: str
    fast_ops_per_sec: float
    slow_ops_per_sec: float
    n_ops: int
    equivalent: bool
    unit: str = "ops/s"
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.slow_ops_per_sec <= 0:
            return float("inf")
        return self.fast_ops_per_sec / self.slow_ops_per_sec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "unit": self.unit,
            "n_ops": self.n_ops,
            "fast_ops_per_sec": round(self.fast_ops_per_sec, 2),
            "slow_ops_per_sec": round(self.slow_ops_per_sec, 2),
            "speedup": round(self.speedup, 3),
            "equivalent": self.equivalent,
            **({"detail": self.detail} if self.detail else {}),
        }


class HotpathReport:
    """Collects bench results and persists the regression artifact."""

    def __init__(self, bench: str, quick: bool = False) -> None:
        self.quick = quick
        #: Artifact label ("scale", "sketch", ...) recorded in the JSON.
        self.bench = bench
        self.results: List[BenchResult] = []
        #: name -> minimum required speedup; a result below its gate (or
        #: any non-equivalent result) fails the report.
        self.gates: Dict[str, float] = {}

    def add(self, result: BenchResult, min_speedup: Optional[float] = None) -> None:
        self.results.append(result)
        if min_speedup is not None:
            self.gates[result.name] = min_speedup

    def failures(self) -> List[str]:
        """Human-readable gate violations (empty means the report passes)."""
        problems: List[str] = []
        by_name = {r.name: r for r in self.results}
        for result in self.results:
            if not result.equivalent:
                problems.append(
                    f"{result.name}: fast and slow paths returned different results"
                )
        for name, floor in self.gates.items():
            result = by_name.get(name)
            if result is None:
                problems.append(f"{name}: gated but never measured")
            elif result.speedup < floor:
                problems.append(
                    f"{name}: speedup {result.speedup:.2f}x below the "
                    f"{floor:.2f}x gate"
                )
        return problems

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.bench,
            "quick": self.quick,
            "python": platform.python_version(),
            "results": [r.to_dict() for r in self.results],
            "gates": {k: v for k, v in sorted(self.gates.items())},
            "failures": self.failures(),
            "passed": self.passed,
        }

    def write(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path

    def print_summary(self) -> None:
        print(f"\n=== {self.bench} bench ({'quick' if self.quick else 'full'}) ===")
        for result in self.results:
            gate = self.gates.get(result.name)
            gate_text = f"  (gate >= {gate:.1f}x)" if gate else ""
            print(
                f"  {result.name:28s} fast {result.fast_ops_per_sec:>12,.0f} "
                f"{result.unit}  slow {result.slow_ops_per_sec:>12,.0f} "
                f"{result.unit}  speedup {result.speedup:6.2f}x"
                f"  equivalent={result.equivalent}{gate_text}"
            )
        for problem in self.failures():
            print(f"  FAIL: {problem}")
        print(f"  overall: {'PASS' if self.passed else 'FAIL'}")
