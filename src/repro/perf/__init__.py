"""repro.perf — the measurement harness behind the ``BENCH_*.json`` gates.

:mod:`repro.perf.harness` times a workload on two paths, checks the
results are identical, computes throughput and speedup, and persists a
``BENCH_*.json`` artifact so successive PRs accumulate a perf
trajectory; ``benchmarks/bench_scale.py`` and
``benchmarks/bench_sketch.py`` are built on it (docs/PERF.md).  The
runtime switches those benches flip live in :mod:`repro.config`.
"""

from __future__ import annotations

from repro.perf.harness import BenchResult, HotpathReport, measure_throughput

__all__ = ["BenchResult", "HotpathReport", "measure_throughput"]
