"""Figure 10 — DDoS validation time vs number of compute nodes.

Paper: total testing time over the 37.37M-entry (50GB) dataset decreases
linearly as compute nodes are added; with six nodes the total test time is
~27.6% of the single-node time, and the Athena-hosted application stays
within ~10% of the same job written directly on Spark.

The bench validates a 1/100-scale dataset on compute clusters of 1..6
workers.  Per-task execution is measured for real; the cluster's makespan
model multiplies measured task time by ``work_scale = 1/scale`` so each
worker is occupied as long as it would be on the full-size dataset, while
scheduling/broadcast/collection costs stay constant — exactly the
composition that produces the paper's curve.
"""

import pytest

from repro.apps.ddos import DDoSDetectorApp
from repro.baselines.raw_ddos import RawDDoSKMeansJob
from repro.compute import ClusterConfig, ComputeCluster
from repro.controller import ControllerCluster
from repro.core import AthenaDeployment
from repro.dataplane.topologies import linear_topology
from repro.distdb import DatabaseCluster
from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec

SCALE = 0.01
NODE_COUNTS = (1, 2, 3, 4, 5, 6)
PAPER_T6_OVER_T1 = 0.276


@pytest.fixture(scope="module")
def dataset():
    generator = DDoSDatasetGenerator(DDoSDatasetSpec(scale=SCALE))
    documents = generator.generate()
    return generator.train_test_split(documents)


def _cluster_config() -> ClusterConfig:
    """Distribution-cost constants calibrated to the paper's Spark 1.6 job.

    The paper's T(6)/T(1) = 27.6% implies fixed job costs of roughly 13% of
    the single-node work; these constants (documented in DESIGN.md and
    ablated in bench_ablations) put the fixed part in that regime for the
    measured per-task times of this dataset.
    """
    return ClusterConfig(
        t_setup=0.12,
        t_broadcast=0.02,
        t_collect=0.002,
        work_scale=1.0 / SCALE,
    )


#: Runs per configuration; the minimum filters scheduler/GC jitter, which
#: the work_scale multiplier would otherwise amplify.
RUNS_PER_POINT = 3


def _athena_total_time(train, test, n_workers: int) -> float:
    topo = linear_topology(n_switches=2)
    controller = ControllerCluster(topo.network, n_instances=1)
    controller.adopt_all()
    compute = ComputeCluster(n_workers, config=_cluster_config())
    athena = AthenaDeployment(
        controller, compute=compute, distributed_threshold=1000
    )
    app = DDoSDetectorApp(params={"k": 8, "max_iterations": 10, "runs": 1, "seed": 1})
    athena.register_app(app)
    best = None
    for _attempt in range(RUNS_PER_POINT):
        summary = app.run_batch(train_documents=train, test_documents=test)
        report = athena.detector_manager.last_job_report
        assert report is not None, "validation must run distributed"
        assert summary.total_entries == len(test)
        if best is None or report.makespan_seconds < best:
            best = report.makespan_seconds
    return best


def _raw_total_time(train, test, n_workers: int) -> float:
    compute = ComputeCluster(n_workers, config=_cluster_config())
    job = RawDDoSKMeansJob(
        DatabaseCluster(n_shards=1, replication=1),
        compute,
        k=8,
        max_iterations=10,
        seed=1,
    )
    job.train(0.0, 1800.0, documents=train)
    best = None
    for _attempt in range(RUNS_PER_POINT):
        report = job.validate(1800.0, 3600.0, documents=test)
        if best is None or report.makespan_seconds < best:
            best = report.makespan_seconds
    return best


def test_fig10_scalability(benchmark, dataset, recorder):
    train, test = dataset
    athena_times = {}
    raw_times = {}
    # Warm-up: fault in numpy kernels and allocator pools before timing.
    _athena_total_time(train, test, 2)
    for n_workers in NODE_COUNTS:
        if n_workers == 6:
            athena_times[n_workers] = benchmark.pedantic(
                lambda: _athena_total_time(train, test, 6),
                rounds=1,
                iterations=1,
            )
        else:
            athena_times[n_workers] = _athena_total_time(train, test, n_workers)
        raw_times[n_workers] = _raw_total_time(train, test, n_workers)

    for n_workers in NODE_COUNTS:
        overhead = athena_times[n_workers] / raw_times[n_workers] - 1.0
        recorder.add_row(
            compute_nodes=n_workers,
            athena_makespan_s=athena_times[n_workers],
            raw_spark_style_s=raw_times[n_workers],
            athena_overhead=f"{overhead:+.1%}",
            t_over_t1=f"{athena_times[n_workers] / athena_times[1]:.1%}",
        )
    ratio = athena_times[6] / athena_times[1]
    recorder.set_meta(
        scale=SCALE,
        test_entries=len(test),
        paper_t6_over_t1=f"{PAPER_T6_OVER_T1:.1%}",
        measured_t6_over_t1=f"{ratio:.1%}",
    )
    recorder.print_table("Figure 10: total test time vs compute nodes")

    times = [athena_times[n] for n in NODE_COUNTS]
    # Monotone decrease (the paper's 'linear decrease'), with 5% jitter
    # tolerance at the flat end of the curve.
    assert all(b < a * 1.05 for a, b in zip(times, times[1:]))
    assert times[2] < times[0]
    # Six nodes land near the paper's 27.6% of single-node time.
    assert 0.15 < ratio < 0.45
    # Athena stays close to the raw implementation (paper: under 10%).
    for n_workers in NODE_COUNTS:
        assert athena_times[n_workers] / raw_times[n_workers] < 1.25

