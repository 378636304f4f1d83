"""The frame-path scale sweep behind ``BENCH_scale.json``.

Exercises the batch feature path (docs/PERF.md) — numpy
frames from store to model — on the DDoS flow-record dataset at paper
scale, each claim fast-vs-reference on identical stores with
equivalence asserted before a speedup is reported:

* ``batch_extraction`` — rows/sec from the sharded store to a
  model-ready (matrix, marks) pair: ``request_frame`` +
  ``transform_frame`` (a slice of the store's columns) vs
  ``request_features`` + ``transform`` (documents copied out, then
  coerced to a frame), byte-identical outputs (gate: >= 5x full mode,
  >= 1x quick/CI mode);
* ``memory_ceiling`` — rows per MB of tracemalloc peak for one
  extraction: column arrays over shared document references vs the
  copied-document path (gate: frame path >= 2x denser, full mode);
* ``insert_many_batch`` — docs/sec into the column store, one routed
  batch vs a per-document insert loop (ungated context; stores must end
  identical);
* ``detection_equivalence`` — the full DDoS batch detection run twice on
  one frozen store: fed the training documents ``RequestFeatures``
  returns through ``documents=`` (fetch included in its time), then by
  its own default fetch (frames).  Predictions, confusion counts, and
  cluster reports must be byte-identical (gate: the default path >= 1x
  in quick/CI mode; recorded in full mode).

Runs standalone (``python benchmarks/bench_scale.py [--quick]
[--output PATH]``, exit 1 on gate failure) and under pytest (quick
workload).  The standalone run writes the ``BENCH_scale.json`` artifact
CI uploads; a full run's output is committed at the repo root.
"""

import argparse
import gc
import sys
import tracemalloc

import numpy as np

from repro.compute import ComputeCluster
from repro.controller import ControllerCluster
from repro.core import AthenaDeployment
from repro.core.feature_manager import FEATURE_COLLECTION, FeatureManager
from repro.core.preprocessor import GeneratePreprocessor
from repro.core.query import GenerateQuery
from repro.dataplane.topologies import linear_topology
from repro.distdb import ColumnStoreCluster, DatabaseCluster
from repro.perf import BenchResult, HotpathReport, measure_throughput
from repro.telemetry.clocks import Stopwatch
from repro.workloads.ddos import DDOS_FEATURES, DDoSDatasetGenerator, DDoSDatasetSpec

# Paper dataset: 37,370,466 flow entries.  The full sweep replays a
# 0.054 slice (~2.02M entries, the multi-million tier the frame path is
# for); quick/CI mode replays 0.004 (~150k).
FULL_SCALE = 0.054
QUICK_SCALE = 0.004

# The dual-path detection run retrains K-Means twice, so it uses the
# Fig-10 validation scale rather than the extraction-sweep scale.
FULL_DETECT_SCALE = 0.01
QUICK_DETECT_SCALE = 0.002

N_SHARDS = 4


def _train_query():
    return GenerateQuery("feature_scope == flow").time_window(0.0, 1800.0)


def _preprocessor():
    return GeneratePreprocessor(
        normalization="minmax",
        weights={"PAIR_FLOW": 1.5, "PAIR_FLOW_RATIO": 1.5},
        marking="label",
        features=DDOS_FEATURES,
    )


def _build_store(scale):
    """One sharded store holding the replayed dataset; built exactly once.

    Feature documents carry no ``_id``, so shard routing falls back to
    object identity — every comparison below therefore runs both paths
    over this single frozen store rather than re-populating.
    """
    generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=scale))
    documents = generator.generate()
    database = DatabaseCluster(n_shards=N_SHARDS, shard_key="switch_id")
    manager = FeatureManager(database, store_features=True)
    manager.publish_documents(documents)
    return database, manager, len(documents)


# -- batch extraction: store -> model-ready (matrix, marks) ------------------


def _bench_batch_extraction(manager, quick):
    query = _train_query()
    preprocessor = _preprocessor()
    preprocessor.fit(manager.request_features(query))

    slow_docs = manager.request_features(query)
    slow_matrix, slow_marks, _ = preprocessor.transform(slow_docs)
    frame = manager.request_frame(query, columns=preprocessor.frame_columns())
    fast_matrix, fast_marks, kept = preprocessor.transform_frame(frame)
    equivalent = (
        fast_matrix.tobytes() == slow_matrix.tobytes()
        and fast_marks.tobytes() == slow_marks.tobytes()
        and kept.copy_documents() == slow_docs
    )
    n_rows = len(slow_docs)

    def run_fast():
        preprocessor.transform_frame(
            manager.request_frame(query, columns=preprocessor.frame_columns())
        )

    def run_slow():
        preprocessor.transform(manager.request_features(query))

    rounds = 2 if quick else 3
    return BenchResult(
        name="batch_extraction",
        fast_ops_per_sec=measure_throughput(run_fast, n_rows, rounds=rounds),
        slow_ops_per_sec=measure_throughput(run_slow, n_rows, rounds=rounds),
        n_ops=n_rows,
        equivalent=equivalent,
        unit="rows/s",
        detail={"features": len(DDOS_FEATURES), "shards": N_SHARDS},
    )


# -- memory ceiling ----------------------------------------------------------


def _bench_memory_ceiling(database, manager, quick):
    query = _train_query()
    filter_ = query.to_db_filter() or None
    preprocessor = _preprocessor()
    preprocessor.fit(manager.request_features(query))
    columns = tuple(DDOS_FEATURES) + ("label",)

    tracemalloc.start()
    frame = database.find_frame(FEATURE_COLLECTION, filter_, columns=columns)
    fast_out = preprocessor.transform_frame(frame)
    _, fast_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    fast_bytes = fast_out[0].tobytes()
    n_rows = frame.n_rows
    del frame, fast_out

    tracemalloc.start()
    docs = database.find(FEATURE_COLLECTION, filter_)
    slow_out = preprocessor.transform(docs)
    _, slow_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    equivalent = slow_out[0].tobytes() == fast_bytes
    del docs, slow_out

    mb = 1024 * 1024
    return BenchResult(
        name="memory_ceiling",
        fast_ops_per_sec=n_rows / (fast_peak / mb),
        slow_ops_per_sec=n_rows / (slow_peak / mb),
        n_ops=n_rows,
        equivalent=equivalent,
        unit="rows/MB",
        detail={
            "fast_peak_mb": round(fast_peak / mb, 1),
            "slow_peak_mb": round(slow_peak / mb, 1),
            "fast_bytes_per_row": round(fast_peak / n_rows, 1),
            "slow_bytes_per_row": round(slow_peak / n_rows, 1),
        },
    )


# -- batched column-store ingest ---------------------------------------------


def _bench_insert_many(quick):
    n_docs = 10_000 if quick else 100_000
    generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=0.0003 if quick else 0.003))
    docs = generator.generate()[:n_docs]
    n_docs = len(docs)

    batch_store = ColumnStoreCluster(n_nodes=3)
    batch_store.insert_many("features", [dict(d) for d in docs])
    loop_store = ColumnStoreCluster(n_nodes=3)
    for doc in docs:
        loop_store.insert_one("features", dict(doc))
    equivalent = (
        batch_store.writes == loop_store.writes
        and batch_store.find("features", None) == loop_store.find("features", None)
    )

    def run_batch():
        ColumnStoreCluster(n_nodes=3).insert_many(
            "features", [dict(d) for d in docs]
        )

    def run_loop():
        store = ColumnStoreCluster(n_nodes=3)
        for doc in docs:
            store.insert_one("features", dict(doc))

    rounds = 2 if quick else 3
    return BenchResult(
        name="insert_many_batch",
        fast_ops_per_sec=measure_throughput(run_batch, n_docs, rounds=rounds),
        slow_ops_per_sec=measure_throughput(run_loop, n_docs, rounds=rounds),
        n_ops=n_docs,
        equivalent=equivalent,
        unit="docs/s",
        detail={"nodes": 3, "replication": 2},
    )


# -- dual-path detection on one frozen store ---------------------------------


def _timed_detection(app, nb, test_documents, from_documents):
    """One train+validate pass; the document-fed pass pays for its fetch.

    Each pass starts from a collected heap: the passes now differ by one
    fetch only, less than the second pass would pay for the first one's
    garbage.
    """
    gc.collect()
    watch = Stopwatch()
    train_documents = nb.RequestFeatures(_train_query()) if from_documents else None
    summary = app.run_batch(
        train_documents=train_documents, test_documents=test_documents
    )
    return summary, watch.elapsed()


def _bench_detection_equivalence(quick):
    scale = QUICK_DETECT_SCALE if quick else FULL_DETECT_SCALE
    generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=scale))
    train, test = generator.train_test_split(generator.generate())

    topo = linear_topology(n_switches=2)
    controller = ControllerCluster(topo.network, n_instances=1)
    controller.adopt_all()
    athena = AthenaDeployment(
        controller,
        database=DatabaseCluster(n_shards=N_SHARDS, shard_key="switch_id"),
        compute=ComputeCluster(4),
        distributed_threshold=1000,
    )
    from repro.apps.ddos import DDoSDetectorApp

    app = DDoSDetectorApp(params={"k": 8, "max_iterations": 10, "runs": 1, "seed": 1})
    athena.register_app(app)
    # Freeze the store once; training reads it as documents or by the
    # default fetch, validation consumes the same pre-fetched test split.
    athena.feature_manager.publish_documents(train)

    nb = athena.northbound
    doc_summary, doc_elapsed = _timed_detection(app, nb, test, from_documents=True)
    col_summary, col_elapsed = _timed_detection(app, nb, test, from_documents=False)
    equivalent = (
        np.array_equal(doc_summary.predictions, col_summary.predictions)
        and doc_summary.to_dict() == col_summary.to_dict()
        and doc_summary.clusters == col_summary.clusters
    )
    n_rows = doc_summary.total_entries
    return BenchResult(
        name="detection_equivalence",
        fast_ops_per_sec=n_rows / col_elapsed if col_elapsed > 0 else float("inf"),
        slow_ops_per_sec=n_rows / doc_elapsed if doc_elapsed > 0 else float("inf"),
        n_ops=n_rows,
        equivalent=equivalent,
        unit="entries/s",
        detail={
            "scale": scale,
            "train_entries": len(train),
            "detection_rate": round(doc_summary.detection_rate, 4),
            "false_alarm_rate": round(doc_summary.false_alarm_rate, 4),
        },
    )


# -- assembly ----------------------------------------------------------------


def run_report(quick=False):
    scale = QUICK_SCALE if quick else FULL_SCALE
    report = HotpathReport(quick=quick, bench="scale")
    database, manager, n_rows = _build_store(scale)
    report.add(
        _bench_batch_extraction(manager, quick),
        min_speedup=1.0 if quick else 5.0,
    )
    report.add(
        _bench_memory_ceiling(database, manager, quick),
        # Measured on the committed run: ~456 B/row frame-path peak vs
        # ~720 B/row for the document path (~1.6x more rows per MB); the
        # gate sits under that with headroom for allocator noise.
        min_speedup=None if quick else 1.4,
    )
    del database, manager
    report.add(_bench_insert_many(quick))
    report.add(
        _bench_detection_equivalence(quick), min_speedup=1.0 if quick else None
    )
    for result in report.results:
        result.detail.setdefault("dataset_rows", n_rows)
    return report


# -- pytest entry points -----------------------------------------------------


def test_scale_quick(recorder):
    report = run_report(quick=True)
    recorder.set_meta(quick=True)
    for result in report.results:
        recorder.add_row(
            name=result.name,
            unit=result.unit,
            fast_ops_per_sec=round(result.fast_ops_per_sec, 1),
            slow_ops_per_sec=round(result.slow_ops_per_sec, 1),
            speedup=round(result.speedup, 2),
            equivalent=result.equivalent,
        )
    recorder.print_table("frame-path scale sweep (quick)")
    assert report.passed, report.failures()


# -- standalone entry point --------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads + relaxed gates (CI smoke mode)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_scale.json",
        help="where to write the JSON artifact (default: ./BENCH_scale.json)",
    )
    args = parser.parse_args(argv)
    report = run_report(quick=args.quick)
    report.write(args.output)
    report.print_summary()
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
