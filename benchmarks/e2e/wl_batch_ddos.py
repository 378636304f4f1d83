"""``batch_ddos`` — paper Scenario 1 / Fig. 10, closed loop, one client.

The labelled DDoS dataset is replayed into a 3-controller enterprise
deployment through ``FeatureManager.publish_documents`` (the store's bulk
write path), then Application 1 runs from the store: K-Means model
generation, validation and ``ShowResults`` to a null stream.

Why it exists: ``distdb`` bulk write + scan, ``core.preprocessor``,
``compute``, ``ml`` and ``core.detector_manager`` do nearly all the work;
``dataplane``, ``controller``, ``core.generator`` and ``streaming`` do
none.  A fetch/preprocess/train optimisation shows here and must not
move the other three workloads.

Timed unit: clear the store, ingest the whole dataset (one ingest
sample), run one detection job (one job sample).  Units repeat until the
measuring time is used up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.apps.ddos import ddos_detector_application
from repro.controller import ControllerCluster
from repro.core import AthenaDeployment, GenerateQuery
from repro.dataplane.topologies import enterprise_topology
from repro.telemetry.clocks import Stopwatch
from repro.workloads.ddos import DDoSDatasetGenerator, DDoSDatasetSpec

from harness import Checks, WorkloadResult, median, unit_timer

#: Fixed model seed: two jobs on one store state predict byte-identically.
MODEL_PARAMS = {"k": 8, "max_iterations": 20, "runs": 5, "seed": 11}
#: Paper: detection rate 0.9924, false-alarm rate 0.0447.
MIN_DETECTION_RATE = 0.97
MAX_FALSE_ALARM_RATE = 0.08


@dataclass(frozen=True)
class Size:
    #: Dataset scale (1.0 = the paper's 37.4 M entries); 0.002 = 74 741.
    scale: float = 0.002
    #: The paper-scale deployment distributes jobs over 50 000 rows; the
    #: threshold shrinks with the dataset so ``compute`` still runs.
    distributed_threshold: int = 20_000
    min_units: int = 2


def make_inputs(seed: int, size: Size) -> List[Dict[str, Any]]:
    return DDoSDatasetGenerator(DDoSDatasetSpec(scale=size.scale, seed=seed)).generate()


def inputs_digest(docs: List[Dict[str, Any]]) -> str:
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(repr(sorted(doc.items())).encode())
    return digest.hexdigest()


class _NullStream:
    """Where ``ShowResults`` renders to: rendered, written nowhere."""

    def write(self, text: str) -> int:
        return len(text)


class State:
    def __init__(self, seed: int, size: Size) -> None:
        self.size = size
        self.docs = make_inputs(seed, size)
        topo = enterprise_topology()
        cluster = ControllerCluster(topo.network, n_instances=3)
        cluster.adopt_domains(topo.domains)
        self.athena = AthenaDeployment(
            cluster, distributed_threshold=size.distributed_threshold
        )
        self.athena.ui_manager.stream = _NullStream()
        #: Confusion counts of the first job; every later job must repeat them.
        self.reference: Optional[tuple] = None
        self.warmup_checks = Checks()
        self.model = None
        self.summary = None
        self.first_job_s = 0.0

    def ingest(self, timed) -> float:
        """Clear the store (untimed), bulk-load the dataset (timed)."""
        manager = self.athena.feature_manager
        manager.clear_features()
        _, elapsed = timed(lambda: manager.publish_documents(self.docs))
        return elapsed

    def job(self, checks: Checks, timed) -> float:
        """One Application 1 run from the store; returns its wall seconds."""
        (self.model, summary), elapsed = timed(
            lambda: ddos_detector_application(
                self.athena.northbound, params=dict(MODEL_PARAMS)
            )
        )
        confusion = (
            summary.true_positives, summary.false_positives,
            summary.true_negatives, summary.false_negatives,
        )
        if self.reference is None:
            self.reference = confusion
        checks.check(
            self.athena.feature_manager.count_features() == len(self.docs),
            "batch_ddos: store does not hold every ingested document",
        )
        checks.check(
            self.model.trained_entries + summary.total_entries == len(self.docs),
            "batch_ddos: train + test entries != dataset entries",
        )
        checks.check(
            summary.detection_rate >= MIN_DETECTION_RATE,
            f"batch_ddos: detection rate {summary.detection_rate:.4f}",
        )
        checks.check(
            summary.false_alarm_rate <= MAX_FALSE_ALARM_RATE,
            f"batch_ddos: false-alarm rate {summary.false_alarm_rate:.4f}",
        )
        checks.check(
            confusion == self.reference,
            f"batch_ddos: confusion counts {confusion} differ from the first "
            f"job's {self.reference}",
        )
        self.summary = summary
        return elapsed


def setup(seed: int, size: Size) -> State:
    """Dataset, topology, deployment and one warm-up unit with two jobs.

    The two warm-up jobs read one store state, so their predictions must
    be byte-identical.  Across re-ingests only the confusion counts
    repeat: the store routes documents without an ``_id`` by ``id(doc)``,
    so a fetch returns the same rows in another order after a re-ingest.
    """
    state = State(seed, size)
    timed = unit_timer()
    state.ingest(timed)
    state.first_job_s = state.job(state.warmup_checks, timed)
    first = state.summary.predictions.tobytes()
    state.job(state.warmup_checks, timed)
    state.warmup_checks.check(
        state.summary.predictions.tobytes() == first,
        "batch_ddos: two jobs on one store state predict differently",
    )
    return state


def measure(state: State, seconds: float, tracer=None) -> WorkloadResult:
    checks = state.warmup_checks
    n_docs = len(state.docs)
    ingest_s: List[float] = []
    job_s: List[float] = []
    phase = Stopwatch()
    timed = unit_timer(tracer)
    while len(job_s) < state.size.min_units or phase.elapsed() < seconds:
        ingest_s.append(state.ingest(timed))
        job_s.append(state.job(checks, timed))
    twins_s = _time_columnar_twins(state, timed) if tracer is not None else 0.0
    summary = state.summary
    stats = state.athena.database.op_stats()
    ingest_rates = [n_docs / s for s in ingest_s]
    return WorkloadResult(
        throughput_samples=ingest_rates,
        latency_p50_ms=median(job_s) * 1e3,
        timed_wall_s=sum(ingest_s) + sum(job_s) + twins_s,
        checks=checks,
        exact={
            "docs": n_docs,
            "test_entries": summary.total_entries,
            "true_positives": summary.true_positives,
            "false_positives": summary.false_positives,
        },
        named={
            "ingest_docs_per_s": median(ingest_rates),
            "detect_entries_per_s": n_docs / median(job_s),
        },
        timings={"first_job_s": state.first_job_s},
        extras={
            "bytes_written": stats.get("bytes_written", 0),
            "bytes_read": stats.get("bytes_read", 0),
            "pending_writes_end": state.athena.feature_manager.pending_writes,
        },
        series={"ingest_s": ingest_s, "job_s": job_s},
    )


def _time_columnar_twins(state: State, timed) -> float:
    """Traced run only: the frame-path twins of fetch and transform.

    ``request_frame`` + ``transform_frame`` run on the same store beside
    the document path the jobs took, so their spans answer "which stage
    eats the columnar gain" per stage without a flag flip in the
    measured run.  One extra unit after the measured ones; it feeds no
    end-to-end metric.
    """
    query = GenerateQuery("feature_scope == flow").time_window(1800.0, 3600.0)
    _, elapsed = timed(
        lambda: state.model.preprocessor.transform_frame(
            state.athena.feature_manager.request_frame(query)
        )
    )
    return elapsed
