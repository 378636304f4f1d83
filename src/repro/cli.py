"""Operator command-line interface.

The paper gives operators a GUI/CLI to receive alerts and manage Athena
applications.  This module is the CLI half: a small argparse front-end over
the reproduction's main entry points.

    python -m repro.cli info                 # stack inventory
    python -m repro.cli features             # the feature catalog
    python -m repro.cli ddos --scale 0.001   # Scenario 1 end-to-end
    python -m repro.cli cbench --rounds 3    # the Table IX experiment
    python -m repro.cli serve --port 8080    # northbound HTTP API + /metrics
    python -m repro.cli lint src/repro       # athena-lint static analysis
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core.features.catalog import FEATURE_CATALOG
    from repro.core.northbound import AthenaNorthbound
    from repro.core.utility import utility_api_count
    from repro.ml.registry import list_algorithms

    print("Athena reproduction (DSN 2017)")
    print(f"  features in catalog : {len(FEATURE_CATALOG)}")
    print(f"  core NB APIs        : {len(AthenaNorthbound.core_api_names())}")
    print(f"  utility APIs        : {utility_api_count()}")
    print(f"  ML algorithms       : {len(list_algorithms())} "
          f"({', '.join(list_algorithms())})")
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    from repro.core.features.catalog import FEATURE_CATALOG

    for name in sorted(FEATURE_CATALOG):
        definition = FEATURE_CATALOG[name]
        if args.category and definition.category.value != args.category:
            continue
        print(f"{name:32s} {definition.category.value:16s} "
              f"{definition.scope.value:8s} {definition.description}")
    return 0


def _cmd_ddos(args: argparse.Namespace) -> int:
    from repro.apps.ddos import DDoSDetectorApp
    from repro.compute import ComputeCluster
    from repro.controller import ControllerCluster
    from repro.core import AthenaDeployment
    from repro.dataplane.topologies import enterprise_topology
    from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec

    generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=args.scale))
    documents = generator.generate()
    train, test = generator.train_test_split(documents)
    print(f"dataset: {len(documents):,} entries at scale {args.scale}")
    topo = enterprise_topology()
    cluster = ControllerCluster(topo.network, n_instances=3)
    cluster.adopt_domains(topo.domains)
    compute = ComputeCluster(n_workers=args.workers)
    athena = AthenaDeployment(
        cluster,
        compute=compute,
        distributed_threshold=args.distributed_threshold,
    )
    app = DDoSDetectorApp(algorithm=args.algorithm)
    athena.register_app(app)
    # Load the train split into the feature store so the training fetch
    # goes through the Feature Manager's batch path (docs/PERF.md).
    athena.feature_manager.publish_documents(train)
    summary = app.run_batch(test_documents=test)
    print(summary.render())
    report = getattr(athena.detector_manager, "last_job_report", None)
    if report is not None:
        print(f"compute: backend={report.backend} workers={report.n_workers} "
              f"wall={report.wall_seconds:.3f}s "
              f"modeled_makespan={report.makespan_seconds:.3f}s")
    return 0


def _cmd_cbench(args: argparse.Namespace) -> int:
    import statistics

    from repro.cbench.harness import CbenchHarness

    harness = CbenchHarness(n_switches=8, match_pool=128,
                            db_backend=args.backend)
    print(f"{'mode':12s} {'min':>12s} {'max':>12s} {'avg':>12s}")
    baselines = {}
    for mode in ("without", "with_no_db", "with"):
        rates = [
            harness.run_throughput(mode, duration_seconds=args.seconds)
            .responses_per_second
            for _ in range(args.rounds)
        ]
        baselines[mode] = statistics.mean(rates)
        print(f"{mode:12s} {min(rates):>12,.0f} {max(rates):>12,.0f} "
              f"{statistics.mean(rates):>12,.0f}")
    overhead = 1 - baselines["with"] / baselines["without"]
    print(f"overhead with Athena+DB: {overhead:.1%} (paper: 53.1%)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro import telemetry

    if args.snapshot:
        with open(args.snapshot) as handle:
            snapshot = json.load(handle)
        _render_metrics(args, snapshot)
        return 0

    # Live mini-scenario: enable telemetry *before* building anything so
    # every component binds real instruments, then exercise each layer —
    # southbound traffic, feature extraction, database writes, a
    # distributed training job, and a mitigation.
    tel = telemetry.configure(enabled=True)

    from repro.compute import ComputeCluster
    from repro.controller import ControllerCluster, ReactiveForwarding
    from repro.core import AthenaDeployment, BlockReaction, GenerateQuery
    from repro.core.algorithm import GenerateAlgorithm
    from repro.core.preprocessor import GeneratePreprocessor
    from repro.dataplane.topologies import linear_topology
    from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec
    from repro.workloads.flows import FlowSpec, TrafficSchedule

    topo = linear_topology(n_switches=3, hosts_per_switch=2)
    cluster = ControllerCluster(topo.network, n_instances=1)
    cluster.adopt_all()
    cluster.start(poll=False)
    forwarding = ReactiveForwarding()
    forwarding.activate(cluster)
    athena = AthenaDeployment(
        cluster,
        compute=ComputeCluster(n_workers=2),
        athena_poll_interval=1.0,
        distributed_threshold=200,
    )
    athena.start()
    schedule = TrafficSchedule(topo.network)
    schedule.prime_arp()
    schedule.add_flow(
        FlowSpec(src_host="h1", dst_host="h5", rate_pps=20.0,
                 start=0.5, duration=3.0, bidirectional=True)
    )
    topo.network.sim.run(until=5.0)

    documents = DDoSDatasetGenerator(
        DDoSDatasetSpec(scale=args.scale)
    ).generate()
    preprocessor = GeneratePreprocessor(
        normalization="minmax",
        marking="label",
        features=[
            "FLOW_PACKET_COUNT",
            "FLOW_BYTE_PER_PACKET",
            "FLOW_PACKET_PER_DURATION",
            "PAIR_FLOW",
        ],
    )
    model = athena.detector_manager.generate_detection_model(
        GenerateQuery(),
        preprocessor,
        GenerateAlgorithm("kmeans", k=4, max_iterations=10, runs=1, seed=1),
        documents=documents,
    )
    athena.detector_manager.validate_features(
        GenerateQuery(), preprocessor, model, documents=documents
    )
    athena.northbound.reactor(
        None, BlockReaction(target_ips=[topo.network.hosts["h2"].ip])
    )
    _render_metrics(args, tel.snapshot(deterministic_only=args.deterministic))
    return 0


def _render_metrics(args: argparse.Namespace, snapshot) -> int:
    from repro import telemetry

    if args.json:
        print(telemetry.to_json(snapshot))
    elif args.table:
        from repro.core.ui_manager import UIManager

        print(UIManager().show_metrics(snapshot))
    else:
        print(telemetry.to_prometheus_text(snapshot), end="")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import FaultPlan, canned_plan, canned_plan_names
    from repro.chaos.scenarios import RECALL_TOLERANCE, run_scenario

    if args.list_plans:
        for name in canned_plan_names():
            plan = canned_plan(name)
            print(f"{name:20s} {len(plan)} events, horizon {plan.horizon():.1f}s")
        return 0
    if args.plan_file:
        plan = FaultPlan.load(args.plan_file)
    elif args.plan:
        plan = canned_plan(args.plan)
    else:
        plan = None
    result = run_scenario(
        args.scenario, plan=plan, seed=args.seed, duration=args.duration
    )
    print(f"scenario : {result.scenario}")
    print(f"plan     : {result.plan or '(none)'}  seed={result.seed}")
    print(f"detected : {result.detected}  recall={result.recall:.3f}  "
          f"(tolerance {RECALL_TOLERANCE})")
    print(f"faults   : applied={result.faults_applied} "
          f"skipped={result.faults_skipped} recoveries={result.recoveries}")
    print(f"degraded : rounds={result.degraded_rounds} "
          f"recovered={result.rounds_recovered} "
          f"pending_writes={result.pending_writes}")
    for line in result.chaos_log:
        print(f"  {line}")
    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as handle:
            handle.write(result.snapshot_json)
        print(f"snapshot : {args.snapshot} ({len(result.snapshot_json)} bytes)")
    return 0 if result.detected else 1


def _cmd_sketch(args: argparse.Namespace) -> int:
    from repro.sketch.scenarios import (
        SKETCH_RECALL_TOLERANCE,
        run_sketch_scenario,
    )
    from repro.workloads.sketchscale import SketchScaleSpec

    spec = SketchScaleSpec(
        scenario=args.scenario,
        n_flows=args.flows,
        n_hosts=args.hosts,
        n_switches=args.switches,
        n_windows=args.windows,
        seed=args.seed,
    )
    sketch = run_sketch_scenario(spec, use_sketch=True)
    print(f"scenario : {sketch.scenario}  seed={sketch.seed}")
    print(f"stream   : {args.flows} flows over {args.hosts} hosts, "
          f"{args.switches} switches x {args.windows} windows")
    print(f"sketch   : recall={sketch.recall:.3f} "
          f"far={sketch.false_alarm_rate:.3f} "
          f"threshold={sketch.threshold:.1f} "
          f"resident={sketch.state_nbytes / 1e6:.2f}MB")
    print(f"alerts   : {len(sketch.alerts)} cells, "
          f"digest {sketch.alert_digest[:16]}")
    print(f"state    : digest {sketch.state_digest[:16]}")
    if args.compare_exact:
        exact = run_sketch_scenario(spec, use_sketch=False)
        drift = abs(sketch.recall - exact.recall)
        print(f"exact    : recall={exact.recall:.3f} "
              f"resident={exact.state_nbytes / 1e6:.2f}MB")
        print(f"drift    : {drift:.3f} (tolerance {SKETCH_RECALL_TOLERANCE})")
        return 0 if drift <= SKETCH_RECALL_TOLERANCE else 1
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.streaming.scenarios import (
        STREAMING_RECALL_TOLERANCE,
        run_streaming_scenario,
    )

    result = run_streaming_scenario(
        args.scenario, seed=args.seed, duration=args.duration
    )
    print(f"scenario  : {result.scenario}  seed={result.seed}")
    print(f"events    : {result.events_processed} folded, "
          f"{result.alerts_emitted} alert(s)")
    print(f"batch     : detected={result.batch_detected}  "
          f"recall={result.batch_recall:.3f}")
    print(f"streaming : detected={result.streaming_detected}  "
          f"recall={result.streaming_recall:.3f}  "
          f"(tolerance {STREAMING_RECALL_TOLERANCE})")
    print(f"flagged   : {', '.join(result.streaming_flagged) or '(none)'}")
    for summary in result.detector_summaries:
        print(f"  detector {summary['name']}: {summary['algorithm']} over "
              f"{', '.join(summary['features'])} — "
              f"{summary['events_seen']} events, "
              f"{summary['alerts_emitted']} alerts")
    if args.alerts:
        with open(args.alerts, "w", encoding="utf-8") as handle:
            handle.write(result.alert_stream_json)
        print(f"alerts    : {args.alerts} "
              f"(sha256 {result.alert_stream_digest[:16]}…)")
    parity = result.streaming_recall >= result.batch_recall - STREAMING_RECALL_TOLERANCE
    return 0 if result.streaming_detected and parity else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import telemetry

    # Telemetry first: instruments bind at construction time, and the API's
    # request/cache counters are part of what /metrics exposes.
    telemetry.configure(enabled=True)

    from repro.northbound import NorthboundAPI, build_demo_stack, make_api_server

    stack = build_demo_stack(scale=args.scale, horizon=args.duration,
                             seed=args.seed)
    print(f"running demo scenario to t={args.duration:.1f}s ...")
    stack.run(until=args.duration)
    stack.enforce_block()
    summary = stack.athena.summary()
    print(f"deployment ready: {summary['features_stored']} features stored, "
          f"{summary['models_generated']} model(s), "
          f"{summary['reactions_enforced']} reaction(s)")
    app = NorthboundAPI(stack.athena)
    server = make_api_server(app, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}/  (routes at /, scrape /metrics)")
    try:
        if args.once:
            server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        JsonReporter,
        LintEngine,
        TextReporter,
        default_checkers,
        find_pyproject,
        load_config,
    )

    engine = LintEngine(
        checkers=default_checkers(),
        config=None if args.no_config else load_config(
            args.config or find_pyproject()
        ),
    )
    if args.list_rules:
        for rule, description in engine.rule_catalog().items():
            print(f"{rule}  {description}")
        return 0
    report = engine.run(args.paths)
    reporter = JsonReporter() if args.format == "json" else TextReporter()
    reporter.report(report)
    return 1 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Athena reproduction operator CLI"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="stack inventory").set_defaults(
        handler=_cmd_info
    )

    features = commands.add_parser("features", help="list the feature catalog")
    features.add_argument(
        "--category",
        choices=["protocol-centric", "combination", "stateful", "variation"],
        help="restrict to one Table I category",
    )
    features.set_defaults(handler=_cmd_features)

    ddos = commands.add_parser("ddos", help="run the Scenario 1 detector")
    ddos.add_argument("--scale", type=float, default=0.001,
                      help="fraction of the paper's 37.37M entries")
    ddos.add_argument("--algorithm", default="kmeans",
                      help="any registered algorithm name")
    ddos.add_argument("--workers", type=int, default=4,
                      help="compute cluster worker count")
    ddos.add_argument("--distributed-threshold", type=int, default=50_000,
                      help="dataset rows above which jobs run distributed")
    ddos.set_defaults(handler=_cmd_ddos)

    cbench = commands.add_parser("cbench", help="run the Table IX experiment")
    cbench.add_argument("--rounds", type=int, default=3)
    cbench.add_argument("--seconds", type=float, default=0.4,
                        help="duration of each round")
    cbench.add_argument("--backend", choices=["mongo", "cassandra"],
                        default="mongo")
    cbench.set_defaults(handler=_cmd_cbench)

    metrics = commands.add_parser(
        "metrics", help="run a live scenario and expose its telemetry"
    )
    metrics.add_argument("--json", action="store_true",
                         help="emit the JSON snapshot instead of "
                              "Prometheus text")
    metrics.add_argument("--table", action="store_true",
                         help="emit the UI Manager summary table")
    metrics.add_argument("--snapshot", default=None,
                         help="render a previously dumped JSON snapshot "
                              "instead of running the live scenario")
    metrics.add_argument("--scale", type=float, default=0.0005,
                         help="DDoS dataset scale for the live scenario")
    metrics.add_argument("--deterministic", action="store_true",
                         help="drop wall-time metrics from the snapshot")
    metrics.set_defaults(handler=_cmd_metrics)

    chaos = commands.add_parser(
        "chaos", help="run a detection scenario under a fault plan"
    )
    chaos.add_argument("--scenario", choices=["portscan", "ddos"],
                       default="ddos", help="detection scenario to run")
    chaos.add_argument("--plan", default=None,
                       help="canned fault plan name (see --list-plans)")
    chaos.add_argument("--plan-file", default=None,
                       help="JSON fault-plan file (FaultPlan.save format)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="chaos RNG seed (same plan + seed replays "
                            "byte-identically)")
    chaos.add_argument("--duration", type=float, default=None,
                       help="sim horizon override in seconds")
    chaos.add_argument("--snapshot", default=None,
                       help="write the deterministic telemetry snapshot "
                            "JSON to this path")
    chaos.add_argument("--list-plans", action="store_true",
                       help="list canned fault plans and exit")
    chaos.set_defaults(handler=_cmd_chaos)

    stream = commands.add_parser(
        "stream", help="run a scenario through the event-driven streaming "
                       "detection pipeline"
    )
    stream.add_argument("--scenario", choices=["portscan", "ddos"],
                        default="ddos", help="detection scenario to run")
    stream.add_argument("--seed", type=int, default=0,
                        help="run seed (same seed replays the alert stream "
                             "byte-identically)")
    stream.add_argument("--duration", type=float, default=12.0,
                        help="sim horizon in seconds")
    stream.add_argument("--alerts", default=None,
                        help="write the canonical alert-stream JSON to "
                             "this path")
    stream.set_defaults(handler=_cmd_stream)

    serve = commands.add_parser(
        "serve", help="serve the northbound HTTP API over a demo deployment"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 picks a free port)")
    serve.add_argument("--scale", type=float, default=0.0005,
                       help="DDoS dataset scale for the demo scenario")
    serve.add_argument("--duration", type=float, default=8.0,
                       help="sim seconds of traffic to run before serving")
    serve.add_argument("--seed", type=int, default=1,
                       help="training seed for the demo model")
    serve.add_argument("--once", action="store_true",
                       help="handle exactly one request, then exit "
                            "(smoke-test mode)")
    serve.set_defaults(handler=_cmd_serve)

    sketch = commands.add_parser(
        "sketch", help="run a detection scenario on sketch features"
    )
    sketch.add_argument("--scenario", choices=["ddos", "portscan"],
                        default="ddos", help="attack mixed into the stream")
    sketch.add_argument("--flows", type=int, default=100_000,
                        help="distinct flows across the run")
    sketch.add_argument("--hosts", type=int, default=10_000,
                        help="benign source-host pool size")
    sketch.add_argument("--switches", type=int, default=8,
                        help="switches sharing the stream")
    sketch.add_argument("--windows", type=int, default=8,
                        help="sampling windows")
    sketch.add_argument("--seed", type=int, default=7,
                        help="workload seed (same seed replays "
                             "byte-identically)")
    sketch.add_argument("--compare-exact", action="store_true",
                        help="also run the exact path and check the "
                             "recall drift tolerance")
    sketch.set_defaults(handler=_cmd_sketch)

    lint = commands.add_parser(
        "lint", help="athena-lint: framework-aware static analysis"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--config", default=None,
                      help="pyproject.toml carrying [tool.athena-lint] "
                           "(default: nearest upward from the cwd)")
    lint.add_argument("--no-config", action="store_true",
                      help="ignore any [tool.athena-lint] configuration")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every rule id and exit")
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
