"""The compute cluster: scheduling, execution backends, and the makespan model.

**Execution.**  Every job runs for real through a pluggable
:class:`~repro.compute.backends.ExecutionBackend`: serially in the driver
process (default, bit-for-bit deterministic) or across genuine worker
processes (``backend="process"``), with each task's wall time measured
either way.  ``JobReport.wall_seconds`` is the job's real elapsed time —
the number the measured Figure 10 curve plots.

**Cost model.**  The paper measures total test time of a distributed
validation job as compute nodes are added (Figure 10) over a 37M-entry
dataset this reproduction scales down.  So alongside the measured wall
time, the cluster derives a *modeled* makespan from per-task measurements
plus an explicit model of distribution costs::

    makespan = t_setup                     # job submission / scheduling
             + rounds * t_broadcast        # model broadcast per round
             + sum over rounds of          # per-round critical path:
                 max_over_workers(round_busy_seconds) * work_scale
             + t_collect * n_tasks         # result collection at driver
             + t_reduce                    # measured driver-side reduce

Each round ends at a barrier (the driver-side reduce), so the parallel
term is the busiest worker *per round*, summed over rounds — not the
busiest worker's total across the job.  The formula is asserted term by
term in ``tests/test_compute.py::TestMakespanModel``.

Tasks are placed with longest-processing-time-first onto the currently
least-loaded worker, the classic greedy bound within 4/3 of optimal, which
matches how Spark's scheduler balances skewed partitions well enough for
this experiment's shape.  Every constant is configurable and ablated in the
Figure 10 bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.compute.backends import ExecutionBackend, create_backend, lpt_assignment
from repro.compute.partition import PartitionedDataset
from repro.compute.worker import Worker
from repro.errors import ComputeError
from repro.telemetry import Stopwatch, get_telemetry


@dataclass
class ClusterConfig:
    """Distribution-cost constants (seconds) and execution limits."""

    #: One-off job submission and DAG scheduling cost.
    t_setup: float = 0.9
    #: Broadcast of the model / closure to every worker, per round.
    t_broadcast: float = 0.12
    #: Result collection cost per task (serialized partial results).
    t_collect: float = 0.02
    #: Calibration multiplier applied to measured task time, so scaled-down
    #: datasets occupy workers the way the paper's 37M-entry dataset did.
    work_scale: float = 1.0
    #: Times a failed task is re-executed before the job aborts (Spark's
    #: ``spark.task.maxFailures`` analogue).  The process backend restarts
    #: its pool this many times before falling back to serial execution.
    task_retries: int = 2
    #: Per-task wall-clock limit on the process backend (None = unlimited).
    #: A timed-out chunk counts as a failed attempt.
    task_timeout: Optional[float] = None
    #: Maximum tasks per dispatch chunk on the process backend (None = one
    #: chunk per scheduled worker).
    chunk_size: Optional[int] = None


@dataclass
class JobReport:
    """What one job cost — measured, modeled, and accounted."""

    n_workers: int
    n_tasks: int
    rounds: int
    measured_task_seconds: float
    measured_reduce_seconds: float
    makespan_seconds: float
    #: Real elapsed time of the whole job (the measured Fig. 10 number).
    wall_seconds: float = 0.0
    #: Which execution backend ran the tasks.
    backend: str = "serial"
    #: Approximate bytes moved across process boundaries (process backend).
    bytes_shuffled: int = 0
    #: Failed task attempts that were retried during this job.
    tasks_retried: int = 0
    #: Tasks that fell back to in-process execution (process backend only).
    fallback_tasks: int = 0
    per_worker_busy: List[float] = field(default_factory=list)
    #: Per-round, per-worker busy seconds — the makespan model's input.
    per_round_busy: List[List[float]] = field(default_factory=list)
    result: Any = None


class ComputeCluster:
    """A fixed-size pool of workers executing partitioned jobs.

    ``backend`` selects how tasks execute: ``"serial"`` (default),
    ``"process"``, an :class:`ExecutionBackend` instance, or ``None`` to
    defer to the runtime config (``ATHENA_COMPUTE_BACKEND``).  Every
    job method also takes a per-job ``backend`` override, which is how the
    northbound API selects a backend per detection task.
    """

    def __init__(
        self,
        n_workers: int = 4,
        config: Optional[ClusterConfig] = None,
        backend: Any = None,
    ) -> None:
        if n_workers < 1:
            raise ComputeError("cluster needs at least one worker")
        self.workers = [Worker(i) for i in range(n_workers)]
        self.config = config or ClusterConfig()
        self.backend = create_backend(backend)
        self.jobs_run = 0
        self.tasks_retried = 0
        self.tasks_fallback = 0
        # Telemetry: JobReport fields fold into these after every job.
        registry = get_telemetry().registry
        self._metric_jobs = registry.counter(
            "athena_compute_jobs_total",
            "Compute jobs run, by execution backend.",
            labelnames=("backend",),
        )
        self._metric_tasks = registry.counter(
            "athena_compute_tasks_total",
            "Tasks dispatched across all compute jobs.",
        )
        self._metric_retried = registry.counter(
            "athena_compute_tasks_retried_total",
            "Failed task attempts that were retried.",
        )
        self._metric_fallback = registry.counter(
            "athena_compute_fallback_tasks_total",
            "Tasks that fell back to in-process execution.",
        )
        self._metric_shuffle_bytes = registry.counter(
            "athena_compute_shuffle_bytes_total",
            "Bytes moved across process boundaries.",
        )
        self._metric_job_wall = registry.histogram(
            "athena_compute_job_wall_seconds",
            "Real elapsed seconds per compute job.",
            labelnames=("backend",),
        )

    def _record_job(self, report: "JobReport") -> "JobReport":
        """Fold one job's report into the cluster's telemetry."""
        self._metric_jobs.labels(backend=report.backend).inc()
        self._metric_tasks.inc(report.n_tasks)
        self._metric_retried.inc(report.tasks_retried)
        self._metric_fallback.inc(report.fallback_tasks)
        self._metric_shuffle_bytes.inc(report.bytes_shuffled)
        self._metric_job_wall.labels(backend=report.backend).observe(
            report.wall_seconds
        )
        return report

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def backend_name(self) -> str:
        return self.backend.name

    def _backend_for(self, backend: Any) -> ExecutionBackend:
        """Per-job backend override; ``None`` keeps the cluster default."""
        return self.backend if backend is None else create_backend(backend)

    def _schedule(self, costs: Sequence[float]) -> List[int]:
        """LPT assignment: task index -> worker index."""
        return lpt_assignment(costs, self.n_workers)

    def run_map(
        self,
        dataset: PartitionedDataset,
        map_fn: Callable[[Any], Any],
        reduce_fn: Optional[Callable[[List[Any]], Any]] = None,
        backend: Any = None,
    ) -> JobReport:
        """One map round over every partition plus a driver-side reduce."""
        return self.run_iterative(
            dataset,
            _StatelessTask(map_fn),
            lambda partials, _state: (
                reduce_fn(partials) if reduce_fn else partials
            ),
            initial_state=None,
            rounds=1,
            backend=backend,
        )

    def run_iterative(
        self,
        dataset: PartitionedDataset,
        map_fn: Callable[[Any, Any], Any],
        reduce_fn: Callable[[List[Any], Any], Any],
        initial_state: Any,
        rounds: int,
        converged: Optional[Callable[[Any, Any], bool]] = None,
        backend: Any = None,
    ) -> JobReport:
        """Iterative map/reduce (the K-Means / gradient-descent shape).

        Each round maps ``map_fn(partition, state)`` over all partitions and
        folds the partial results with ``reduce_fn(partials, state)`` into
        the next state.  ``converged(old, new)`` may stop the loop early.
        The reduce always sees partials in partition order, whichever
        backend (and completion order) produced them.
        """
        if rounds < 1:
            raise ComputeError(f"invalid round count {rounds}")
        for worker in self.workers:
            worker.reset()
        self.jobs_run += 1
        engine = self._backend_for(backend)
        wall_watch = Stopwatch()
        state = initial_state
        total_task_seconds = 0.0
        total_reduce_seconds = 0.0
        bytes_shuffled = 0
        job_retried = 0
        job_fallback = 0
        n_tasks = 0
        rounds_run = 0
        per_round_busy: List[List[float]] = []
        engine.open(dataset.partitions, self.workers, self.config)
        try:
            for _round in range(rounds):
                rounds_run += 1
                stats = engine.run_round(map_fn, state)
                per_round_busy.append(stats.busy)
                total_task_seconds += stats.task_seconds
                bytes_shuffled += stats.bytes_shuffled
                job_retried += stats.retried
                job_fallback += stats.fallback_tasks
                n_tasks += len(stats.results)
                reduce_watch = Stopwatch()
                new_state = reduce_fn(stats.results, state)
                total_reduce_seconds += reduce_watch.elapsed()
                if converged is not None and converged(state, new_state):
                    state = new_state
                    break
                state = new_state
        finally:
            engine.close()
        self.tasks_retried += job_retried
        self.tasks_fallback += job_fallback
        cfg = self.config
        # Makespan: per-round critical path is the busiest worker that
        # round (rounds end at the driver-side reduce barrier).
        parallel_seconds = sum(
            max(busy) if busy else 0.0 for busy in per_round_busy
        ) * cfg.work_scale
        makespan = (
            cfg.t_setup
            + rounds_run * cfg.t_broadcast
            + parallel_seconds
            + cfg.t_collect * n_tasks
            + total_reduce_seconds
        )
        return self._record_job(JobReport(
            n_workers=self.n_workers,
            n_tasks=n_tasks,
            rounds=rounds_run,
            measured_task_seconds=total_task_seconds,
            measured_reduce_seconds=total_reduce_seconds,
            makespan_seconds=makespan,
            wall_seconds=wall_watch.elapsed(),
            backend=engine.name,
            bytes_shuffled=bytes_shuffled,
            tasks_retried=job_retried,
            fallback_tasks=job_fallback,
            per_worker_busy=[w.busy_seconds for w in self.workers],
            per_round_busy=per_round_busy,
            result=state,
        ))

    def run_local(
        self,
        dataset: PartitionedDataset,
        map_fn: Callable[[Any], Any],
        reduce_fn: Optional[Callable[[List[Any]], Any]] = None,
    ) -> JobReport:
        """Single-instance execution: no distribution costs at all.

        The Attack Detector uses this path for small datasets, where the
        paper notes handling the request on a single instance avoids the
        communication overhead.
        """
        watch = Stopwatch()
        partials = [map_fn(part) for part in dataset.partitions]
        result = reduce_fn(partials) if reduce_fn else partials
        elapsed = watch.elapsed()
        self.jobs_run += 1
        return self._record_job(JobReport(
            n_workers=1,
            n_tasks=dataset.n_partitions,
            rounds=1,
            measured_task_seconds=elapsed,
            measured_reduce_seconds=0.0,
            makespan_seconds=elapsed,
            wall_seconds=elapsed,
            backend="local",
            per_worker_busy=[elapsed],
            result=result,
        ))


class _StatelessTask:
    """Adapts a one-argument map function to the (partition, state) task
    shape without capturing a closure, so it stays picklable whenever the
    wrapped function is."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, part: Any, _state: Any) -> Any:
        return self.fn(part)
