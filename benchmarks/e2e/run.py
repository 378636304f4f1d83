"""The end-to-end benchmark of the detection loop (see README.md here).

One run of one workload (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 benchmarks/e2e/run.py --workload live_ddos --seed 7 --seconds 24 --trace 0

prints the metrics by name and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.

A recorded set of runs (every workload, each run in a fresh subprocess;
host facts, sample counts, medians and quartiles in one result file)::

    python3 benchmarks/e2e/run.py --seed 7 [--workload W] [--traced] [--out FILE]

Comparing two result files (exit 1 on any metric worse than its bound)::

    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(REPO_ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from harness import (  # noqa: E402
    END_TO_END,
    WORKLOADS,
    BenchmarkRefused,
    guard_environment,
    host_facts,
    peak_rss_mb,
    summarize,
)

#: Runs per workload in a recorded set.  Variance comes from the repeated
#: units inside a run, so four long runs are enough (ISSUE 11).
REPEATS = 4
#: Share of a traced run's measuring time spent untraced, for the
#: reference rate behind ``harness.trace_overhead_pct``.
UNTRACED_SHARE = 1.0 / 3.0


def load_manifest() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def ledger_metrics(manifest: dict, workload: str):
    """``(name, unit, better, bound)`` of every end-to-end metric a
    recorded set summarises for ``workload``: ISSUE 11's own
    (``harness.END_TO_END``), then the declared role metrics that are
    not among them, at ``BENCHMARK.json``'s bounds."""
    rows = [
        (name, unit, better, bound)
        for name, unit, better, bound, workloads in END_TO_END
        if workload in workloads
    ]
    named = {row[0] for row in rows}
    rows += [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"] if m["name"] not in named
    ]
    return rows


def _clocks():
    """``repro.telemetry.clocks``, loaded by file path.

    Importing it as a package member imports the whole program first, and
    that import is part of what ``setup_s`` has to time.
    """
    spec = importlib.util.spec_from_file_location(
        "e2e_clocks", os.path.join(REPO_ROOT, "src", "repro", "telemetry", "clocks.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None,
                 span_path=None):
    """Set up and measure one workload in this process.

    Returns ``(metrics, checks, detail)``; ``metrics`` holds the declared
    end-to-end metrics (untraced) or the per-layer metrics (traced), and
    an untraced ``detail["named"]`` the workload's ``END_TO_END`` metrics.
    """
    # Everything before the first timed unit is set-up: importing the
    # program under test (and numpy), inputs, topology, deployment, warm-up.
    watch = _clocks().Stopwatch()
    module = importlib.import_module(f"wl_{name}")
    size = size or module.Size()
    state = module.setup(seed, size)
    setup_s = watch.elapsed()

    if not trace:
        result = module.measure(state, seconds)
        checks = result.checks
        rss = peak_rss_mb()
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_per_s": {"value": result.throughput_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": result.latency_p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        detail = _detail(result)
        detail["named"] = {
            "setup_s": setup_s,
            **result.named,
            "peak_rss_mb": rss,
            "failed_share": checks.failed / max(1, checks.attempted),
        }
        return metrics, checks, detail

    import layers
    from tracing import Tracer

    reference = module.measure(state, seconds * UNTRACED_SHARE)
    state = None  # one stack at a time
    tracer = Tracer()
    layers.install(tracer)
    try:
        # The stack is rebuilt with the wrappers in place: bound methods
        # captured at construction must come from the patched classes.
        state = module.setup(seed, size)
        result = module.measure(state, seconds * (1.0 - UNTRACED_SHARE), tracer)
    finally:
        tracer.uninstall()
    extras = {**result.extras, **reference.timings, **reference.named}
    extras["timed_wall_s"] = result.timed_wall_s
    extras["trace_overhead_pct"] = 100.0 * (
        1.0 - result.throughput_per_s / reference.throughput_per_s
    )
    extras["spans_recorded"] = tracer.write(span_path) if span_path else 0
    result.checks.attempted += reference.checks.attempted
    result.checks.failed += reference.checks.failed
    result.checks.failures.extend(reference.checks.failures)
    detail = _detail(result)
    detail["self_time_by_layer_s"] = layers.self_time_by_layer(tracer)
    detail["timed_wall_s"] = result.timed_wall_s
    detail["open_loop_idle_s"] = result.extras.get("open_loop_idle_s", 0.0)
    return layers.collect(tracer, extras), result.checks, detail


def _detail(result) -> dict:
    return {
        "samples": {
            "throughput_per_s": summarize(result.throughput_samples),
            **{name: summarize(values) for name, values in result.series.items()},
        },
        "exact": result.exact,
        "failures": result.checks.failures,
    }


def _print_table(rows) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:{width}s} {value!r:>24} {unit}")


def cmd_single(args) -> int:
    """The contract's one run: metrics by name, then the result line."""
    span_path = None
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        span_path = os.path.join(out_dir, f"spans_{args.workload}_{args.seed}.npz")
    metrics, checks, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), span_path=span_path
    )
    print(f"workload {args.workload}: {checks.attempted} checks, {checks.failed} failed")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    _print_table([(name, e["value"], e["unit"]) for name, e in metrics.items()])
    if span_path:
        print(f"  spans written to {os.path.relpath(span_path, REPO_ROOT)}")
    else:
        units = {name: unit for name, unit, _, _, _ in END_TO_END}
        print(" by ISSUE 11's names:")
        _print_table([(name, v, units[name]) for name, v in detail["named"].items()])
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(detail, handle)
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": max(1, checks.attempted),
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# -- recorded run sets ---------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: int, trace: int, detail_path: str):
    """One workload run in a fresh subprocess; returns (result line, detail)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--detail", detail_path,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} run failed ({done.returncode}):\n{done.stderr[-2000:]}"
        )
    with open(detail_path) as handle:
        detail = json.load(handle)
    os.remove(detail_path)
    return json.loads(done.stdout.strip().splitlines()[-1]), detail


def _dump(obj, depth: int = 0) -> str:
    """JSON with small leaf containers on one line, so that the result
    file reads as a table: one line per metric."""
    if isinstance(obj, dict) and (
        len(obj) > 8 or any(isinstance(v, dict) for v in obj.values())
    ):
        pad = " " * (depth + 1)
        body = ",\n".join(
            f"{pad}{json.dumps(k)}: {_dump(v, depth + 1)}" for k, v in obj.items()
        )
        return "{\n" + body + "\n" + " " * depth + "}"
    return json.dumps(obj)


def cmd_record(args, thread_caps) -> int:
    manifest = load_manifest()
    seconds = args.seconds or manifest["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    record = {
        "host": host_facts(args.seed, thread_caps),
        "run_seconds": seconds,
        "workloads": {},
    }
    out = args.out or os.path.join(HERE, "out", f"results_seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    detail_path = os.path.abspath(out) + ".detail.tmp"
    for name in names:
        runs = []
        for repeat in range(REPEATS):
            line, detail = _spawn(name, args.seed, seconds, 0, detail_path)
            values = {m: e["value"] for m, e in line["metrics"].items()}
            values.update(detail["named"])
            runs.append({"line": line, "detail": detail, "values": values})
            print(f"{name} run {repeat + 1}/{REPEATS}: "
                  + ", ".join(f"{m}={v:.6g}" for m, v in values.items())
                  + f", failed {line['failed']}/{line['attempted']}")
        # One more check per workload: the same seed repeats the exact counts.
        exact = runs[0]["detail"]["exact"]
        drifted = any(r["detail"]["exact"] != exact for r in runs)
        if drifted:
            print(f"{name}: FAILED exact counts differ between runs of one seed")
        entry = {
            "attempted": 1 + sum(r["line"]["attempted"] for r in runs),
            "failed": int(drifted) + sum(r["line"]["failed"] for r in runs),
            "failures": [f for r in runs for f in r["detail"]["failures"]],
            "exact": exact,
            "metrics": {},
            # Per-unit samples inside one run (the first).
            "unit_samples": runs[0]["detail"]["samples"],
        }
        for metric, unit, better, bound in ledger_metrics(manifest, name):
            values = [r["values"][metric] for r in runs]
            entry["metrics"][metric] = {
                "unit": unit, "better": better, "bound": bound,
                "values": values, **summarize(values),
            }
        if args.traced:
            line, detail = _spawn(name, args.seed, seconds, 1, detail_path)
            entry["attempted"] += line["attempted"]
            entry["failed"] += line["failed"]
            entry["failures"] += detail["failures"]
            entry["traced"] = {
                "timed_wall_s": detail["timed_wall_s"],
                "open_loop_idle_s": detail["open_loop_idle_s"],
                "self_time_by_layer_s": detail["self_time_by_layer_s"],
                "per_layer": {m: e["value"] for m, e in line["metrics"].items()},
            }
            _print_self_time_table(name, entry["traced"])
        record["workloads"][name] = entry
    with open(out, "w") as handle:
        handle.write(_dump(record) + "\n")
    print(f"wrote {out}")
    failed = sum(w["failed"] for w in record["workloads"].values())
    return 1 if failed else 0


def _print_self_time_table(name: str, traced: dict) -> None:
    """Self-time share per layer of the timed units, less the time the
    open-loop generator spent waiting for its schedule."""
    idle = traced["open_loop_idle_s"]
    wall = traced["timed_wall_s"] - idle
    shares = dict(traced["self_time_by_layer_s"])
    if idle:
        shares["loadgen"] -= idle
    print(f"{name}: self time per layer over {wall:.2f} s of timed units (traced"
          + (f"; {idle:.2f} s of open-loop waiting left out)" if idle else ")"))
    for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        if seconds > 0:
            print(f"  {layer:28s} {seconds:9.3f} s {100.0 * seconds / wall:6.1f} %")


# -- comparison ----------------------------------------------------------------


def _stats(metric: dict) -> str:
    """Median, quartiles and sample count of one metric of one run set."""
    quartiles = metric["quartiles"]
    return (f"{metric['median']:.5g} [{quartiles[0]:.5g}, {quartiles[2]:.5g}] "
            f"n={metric['n']}")


def _interleave(a, b) -> bool:
    return not (max(a) < min(b) or max(b) < min(a))


def compare(base: dict, change: dict, manifest: dict):
    """Rows of (workload, metric, verdict, text) per choosing-metrics 6.5.

    A metric is *worse* when the change's median is worse than the base's
    by more than the bound, *unresolved* when the run-to-run spread is
    wider than the bound and the two sets of runs interleave, and
    otherwise *better* (every change run beats every base run) or
    *within bound*.  A bound of 0 marks a metric that repeats exactly: it
    admits no worsening of the median and has no spread to be lost in.
    """
    rows = []
    for name in WORKLOADS:
        a_wl = base["workloads"].get(name)
        b_wl = change["workloads"].get(name)
        if not a_wl or not b_wl:
            continue
        for metric, unit, better, bound in ledger_metrics(manifest, name):
            a = a_wl["metrics"][metric]
            b = b_wl["metrics"][metric]
            sign = 1.0 if better == "lower" else -1.0
            # Worsening and spread as shares of the base's median
            # (absolute where that is 0, as for failed_share).
            scale = abs(a["median"]) or 1.0
            worsening = sign * (b["median"] - a["median"]) / scale
            spread = max(
                (m["quartiles"][2] - m["quartiles"][0]) / scale
                for m in (a, b)
            )
            a_signed = [sign * v for v in a["values"]]
            b_signed = [sign * v for v in b["values"]]
            if max(b_signed) < min(a_signed):
                verdict = "better"
            elif bound and spread > bound and _interleave(a_signed, b_signed):
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            ratio = f"{b['median'] / a['median']:.4f}" if a["median"] else "n/a"
            text = (
                f"{name:13s} {metric:24s} "
                f"base {_stats(a)}  change {_stats(b)}  "
                f"ratio {ratio} of base {a['median']:.5g} {unit}  "
                f"bound {bound}  spread {spread:.4f}  -> {verdict}"
            )
            rows.append((name, metric, verdict, text))
        if a_wl["exact"] != b_wl["exact"] and base["host"]["seed"] == change["host"]["seed"]:
            rows.append((name, "exact", "worse",
                         f"{name:13s} exact counts differ for the same seed: "
                         f"{a_wl['exact']} vs {b_wl['exact']}  -> worse"))
    return rows


def cmd_compare(args) -> int:
    with open(args.compare[0]) as handle:
        base = json.load(handle)
    with open(args.compare[1]) as handle:
        change = json.load(handle)
    rows = compare(base, change, load_manifest())
    for _name, _metric, _verdict, text in rows:
        print(text)
    worse = [r for r in rows if r[2] == "worse"]
    print(f"{len(rows)} comparisons, {len(worse)} worse, "
          f"{sum(1 for r in rows if r[2] == 'unresolved')} unresolved")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--detail", help="one run: also write sample detail here")
    parser.add_argument("--out", help="recorded set: the result file "
                        "(default benchmarks/e2e/out/results_seed<S>.json)")
    parser.add_argument("--traced", action="store_true",
                        help="recorded set: one more, traced, run per workload")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return cmd_compare(args)
    try:
        thread_caps = guard_environment()
    except BenchmarkRefused as refusal:
        print(refusal, file=sys.stderr)
        return 2
    if args.trace is None:
        return cmd_record(args, thread_caps)
    if not args.workload or args.seconds is None:
        parser.error("one run (--trace given) needs --workload and --seconds")
    return cmd_single(args)


if __name__ == "__main__":
    sys.exit(main())
