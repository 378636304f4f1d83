"""The compute cluster: scheduling, task execution, and the makespan model.

**Execution.**  Every job runs for real in the driver process: tasks are
placed on :class:`~repro.compute.worker.Worker` records, run one at a time
in task-index order, and each task's wall time is measured and credited to
the worker that spent it.  ``JobReport.wall_seconds`` is the job's real
elapsed time.  A process pool was measured against this path and lost at
every size a 2-vCPU host can run (``docs/COMPUTE.md``), so this is the only
one.

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
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.compute.partition import PartitionedDataset
from repro.compute.worker import Worker
from repro.errors import ComputeError
from repro.telemetry import Stopwatch, get_telemetry


@dataclass
class ClusterConfig:
    """Distribution-cost constants (seconds) and the retry budget."""

    #: One-off job submission and DAG scheduling cost.
    t_setup: float = 0.9
    #: Broadcast of the model / closure to every worker, per round.
    t_broadcast: float = 0.12
    #: Result collection cost per task (serialized partial results).
    t_collect: float = 0.02
    #: Calibration multiplier applied to measured task time, so scaled-down
    #: datasets occupy workers the way the paper's 37M-entry dataset did.
    work_scale: float = 1.0
    #: Times a failed task is re-executed on the next worker before the
    #: job aborts (Spark's ``spark.task.maxFailures`` analogue).
    task_retries: int = 2


@dataclass
class JobReport:
    """What one job cost — measured, modeled, and accounted."""

    n_workers: int
    n_tasks: int
    rounds: int
    measured_task_seconds: float
    measured_reduce_seconds: float
    makespan_seconds: float
    #: Real elapsed time of the whole job.
    wall_seconds: float = 0.0
    #: ``"serial"`` for a cluster job, ``"local"`` for :meth:`run_local`.
    backend: str = "serial"
    #: Bytes moved between processes; every task runs in the driver, so 0.
    bytes_shuffled: int = 0
    #: Failed task attempts that were retried during this job.
    tasks_retried: int = 0
    per_worker_busy: List[float] = field(default_factory=list)
    #: Per-round, per-worker busy seconds — the makespan model's input.
    per_round_busy: List[List[float]] = field(default_factory=list)
    result: Any = None


class ComputeCluster:
    """A fixed-size pool of workers executing partitioned jobs."""

    def __init__(
        self, n_workers: int = 4, config: Optional[ClusterConfig] = None
    ) -> None:
        if n_workers < 1:
            raise ComputeError("cluster needs at least one worker")
        self.workers = [Worker(i) for i in range(n_workers)]
        self.config = config or ClusterConfig()
        self.jobs_run = 0
        self.tasks_retried = 0
        # Telemetry: JobReport fields fold into these after every job.  The
        # fallback and shuffle counters stay registered (always 0) so the
        # exported metric set is stable.
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
        registry.counter(
            "athena_compute_fallback_tasks_total",
            "Tasks that fell back to in-process execution.",
        )
        registry.counter(
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
        self._metric_job_wall.labels(backend=report.backend).observe(
            report.wall_seconds
        )
        return report

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def _schedule(self, costs: Sequence[float]) -> List[int]:
        """Longest-processing-time-first: task index -> worker index."""
        order = sorted(range(len(costs)), key=lambda i: -costs[i])
        loads = [0.0] * self.n_workers
        assignment = [0] * len(costs)
        for task_idx in order:
            worker_idx = loads.index(min(loads))
            assignment[task_idx] = worker_idx
            loads[worker_idx] += costs[task_idx]
        return assignment

    def run_map(
        self,
        dataset: PartitionedDataset,
        map_fn: Callable[[Any], Any],
        reduce_fn: Optional[Callable[[List[Any]], Any]] = None,
    ) -> JobReport:
        """One map round over every partition plus a driver-side reduce."""
        return self.run_iterative(
            dataset,
            lambda part, _state: map_fn(part),
            lambda partials, _state: (
                reduce_fn(partials) if reduce_fn else partials
            ),
            initial_state=None,
            rounds=1,
        )

    def run_iterative(
        self,
        dataset: PartitionedDataset,
        map_fn: Callable[[Any, Any], Any],
        reduce_fn: Callable[[List[Any], Any], Any],
        initial_state: Any,
        rounds: int,
        converged: Optional[Callable[[Any, Any], bool]] = None,
    ) -> JobReport:
        """Iterative map/reduce (the K-Means / gradient-descent shape).

        Each round maps ``map_fn(partition, state)`` over all partitions and
        folds the partial results with ``reduce_fn(partials, state)`` into
        the next state.  ``converged(old, new)`` may stop the loop early.
        The reduce always sees partials in partition order.
        """
        if rounds < 1:
            raise ComputeError(f"invalid round count {rounds}")
        for worker in self.workers:
            worker.reset()
        self.jobs_run += 1
        partitions = dataset.partitions
        # A task's scheduling cost is its partition's record count.
        assignment = self._schedule([
            float(len(p[0]) if isinstance(p, tuple) else len(p))
            for p in partitions
        ])
        wall_watch = Stopwatch()
        state = initial_state
        total_task_seconds = 0.0
        total_reduce_seconds = 0.0
        job_retried = 0
        rounds_run = 0
        per_round_busy: List[List[float]] = []
        for _round in range(rounds):
            rounds_run += 1
            busy = [0.0] * self.n_workers
            results = []
            for part, worker_idx in zip(partitions, assignment):
                result, attempts = self._execute_with_retries(
                    worker_idx, map_fn, part, state
                )
                for worker_id, elapsed in attempts:
                    busy[worker_id] += elapsed
                    total_task_seconds += elapsed
                job_retried += len(attempts) - 1
                results.append(result)
            per_round_busy.append(busy)
            reduce_watch = Stopwatch()
            new_state = reduce_fn(results, state)
            total_reduce_seconds += reduce_watch.elapsed()
            if converged is not None and converged(state, new_state):
                state = new_state
                break
            state = new_state
        self.tasks_retried += job_retried
        n_tasks = rounds_run * len(partitions)
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
            tasks_retried=job_retried,
            per_worker_busy=[w.busy_seconds for w in self.workers],
            per_round_busy=per_round_busy,
            result=state,
        ))

    def _execute_with_retries(
        self, worker_idx: int, map_fn, payload, state
    ) -> Tuple[Any, List[Tuple[int, float]]]:
        """Run a task, retrying on the next worker after a failure.

        Returns (result, [(worker_idx, elapsed), ...]) so every attempt's
        time lands on the worker that spent it — failed attempts cost real
        makespan, as they do on Spark.  A :class:`ComputeError` from the
        task aborts the job at once; any other exception is retried up to
        ``config.task_retries`` times.
        """
        attempts = []
        last_error: Optional[BaseException] = None
        for attempt in range(self.config.task_retries + 1):
            worker = self.workers[(worker_idx + attempt) % self.n_workers]
            started_busy = worker.busy_seconds
            try:
                result, elapsed = worker.execute(
                    lambda part: map_fn(part, state), payload
                )
                attempts.append((worker.worker_id, elapsed))
                return result, attempts
            except ComputeError:
                raise
            except Exception as exc:  # noqa: BLE001 - task code is arbitrary
                attempts.append(
                    (worker.worker_id, worker.busy_seconds - started_busy)
                )
                last_error = exc
        raise ComputeError(
            f"task failed after {self.config.task_retries + 1} attempts: "
            f"{last_error}"
        ) from last_error

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
