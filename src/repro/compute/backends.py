"""Pluggable execution backends for the compute cluster.

The paper trains and validates detection models on a Spark/MLlib cluster;
Figure 10 sweeps compute nodes and reads total test time off the wall
clock.  The :class:`~repro.compute.cluster.ComputeCluster` keeps its
explicit distribution-cost *model* (so scaled-down datasets still produce
the paper's curve), but task execution itself is now a strategy:

* :class:`SerialBackend` — every task runs in the driver process, one at
  a time, on the LPT-assigned :class:`~repro.compute.worker.Worker`.
  Fully deterministic, zero IPC; the default.
* :class:`ProcessBackend` — tasks run on a real
  ``concurrent.futures.ProcessPoolExecutor``.  Partitions are cached in
  each pool process once per job (zero-copy under ``fork``), tasks are
  dispatched in scheduler-aligned chunks, and each round ships only the
  map function + broadcast state out and the partial results back.  Worker
  crashes and timeouts are retried a bounded number of times
  (``ClusterConfig.task_retries``) by restarting the pool, after which the
  surviving tasks fall back to in-process serial execution — a job never
  fails because parallelism did.

**Determinism.**  Both backends run the same map function over the same
partitions and return results in task-index order, so a deterministic map
function produces *bit-identical* job results on either backend (asserted
in ``tests/test_compute_backends.py``).  Map functions that need
randomness must derive it per task with :func:`task_rng`, which depends
only on ``(seed, task_index)`` — never on worker identity, scheduling
order, or process boundaries.

Backend selection: pass ``backend="serial" | "process"`` (or an
:class:`ExecutionBackend` instance) to :class:`ComputeCluster` or to a
single job; with neither, the runtime config's ``compute_backend``
(``ATHENA_COMPUTE_BACKEND``, :mod:`repro.config`) decides, defaulting to
serial.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import config as _config
from repro.compute import worker as worker_module
from repro.compute.worker import (
    Worker,
    execute_task_chunk,
    initialize_pool_worker,
)
from repro.errors import ComputeError

TaskFn = Callable[[Any, Any], Any]


def task_rng(seed: int, task_index: int) -> np.random.Generator:
    """Derive the RNG for one task, identically on every backend.

    The stream depends only on the job seed and the task's partition
    index, so a stochastic map function draws the same numbers whether it
    runs in the driver, in a pool process, or after a crash-triggered
    retry on a different worker.  ``seed`` must be non-negative.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(int(seed), int(task_index)))
    )


def partition_costs(partitions: Sequence[Any]) -> List[float]:
    """Scheduling cost estimate per partition: its record count."""
    return [
        float(len(p[0]) if isinstance(p, tuple) else len(p)) for p in partitions
    ]


def lpt_assignment(costs: Sequence[float], n_workers: int) -> List[int]:
    """Longest-processing-time-first: task index -> worker index.

    The classic greedy bound within 4/3 of the optimal makespan, which
    matches how Spark's scheduler balances skewed partitions well enough
    for the Figure 10 experiment's shape.
    """
    order = sorted(range(len(costs)), key=lambda i: -costs[i])
    loads = [0.0] * n_workers
    assignment = [0] * len(costs)
    for task_idx in order:
        worker_idx = loads.index(min(loads))
        assignment[task_idx] = worker_idx
        loads[worker_idx] += costs[task_idx]
    return assignment


@dataclass
class RoundStats:
    """Execution accounting for one map round.

    ``results`` is ordered by task index regardless of completion order —
    the reduce step must see partials in partition order on every backend
    for results to stay bit-identical.
    """

    results: List[Any]
    #: Seconds of task time attributed to each worker slot this round.
    busy: List[float]
    task_seconds: float = 0.0
    retried: int = 0
    #: Tasks that ended up executing in-process after the parallel path
    #: was exhausted (crash/timeout beyond retries, unpicklable closure).
    fallback_tasks: int = 0
    #: Approximate bytes moved across the process boundary this round.
    bytes_shuffled: int = 0


class ExecutionBackend:
    """Strategy interface: how one round of map tasks is executed.

    Lifecycle: ``open(partitions, workers, config)`` once per job, then
    ``run_round(map_fn, state)`` per round, then ``close()``.  The map
    function always has the two-argument task shape
    ``map_fn(partition, state)``.
    """

    name = "abstract"

    def open(
        self,
        partitions: List[Any],
        workers: List[Worker],
        config: Any,
    ) -> None:
        self.partitions = partitions
        self.workers = workers
        self.config = config
        self.costs = partition_costs(partitions)
        self.assignment = lpt_assignment(self.costs, len(workers))

    def run_round(self, map_fn: TaskFn, state: Any) -> RoundStats:
        raise NotImplementedError

    def close(self) -> None:
        """Release per-job resources; open() may be called again after."""


class SerialBackend(ExecutionBackend):
    """In-process execution on the LPT-assigned workers (the default).

    Behaviour is identical to the pre-backend compute cluster: tasks run
    one at a time in the driver, failures are retried on the next worker
    up to ``config.task_retries`` times, and every attempt's measured
    time lands on the worker that spent it.
    """

    name = "serial"

    def run_round(self, map_fn: TaskFn, state: Any) -> RoundStats:
        stats = RoundStats(
            results=[None] * len(self.partitions),
            busy=[0.0] * len(self.workers),
        )
        self._run_serial(map_fn, state, range(len(self.partitions)), stats)
        return stats

    def _run_serial(
        self,
        map_fn: TaskFn,
        state: Any,
        indices: Sequence[int],
        stats: RoundStats,
    ) -> None:
        """Execute the listed tasks in-process, with retry accounting."""
        for index in indices:
            result, attempts = self._execute_with_retries(
                self.assignment[index], map_fn, self.partitions[index], state
            )
            for worker_id, elapsed in attempts:
                stats.busy[worker_id] += elapsed
                stats.task_seconds += elapsed
            stats.retried += len(attempts) - 1
            stats.results[index] = result

    def _execute_with_retries(self, worker_idx: int, map_fn, payload, state):
        """Run a task, retrying on another worker after a failure.

        Returns (result, [(worker_idx, elapsed), ...]) so every attempt's
        time lands on the worker that spent it — failed attempts cost real
        makespan, as they do on Spark.
        """
        attempts = []
        last_error: Optional[BaseException] = None
        n_workers = len(self.workers)
        for attempt in range(self.config.task_retries + 1):
            worker = self.workers[(worker_idx + attempt) % n_workers]
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


def _pickled_size(obj: Any) -> int:
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - size accounting is best-effort
        return 0


class ProcessBackend(SerialBackend):
    """Real parallel execution on a process pool.

    Inherits the serial task runner as its graceful-degradation path: any
    task the pool cannot execute (unpicklable closure, crash or timeout
    beyond the retry budget) runs in-process instead, and the job's
    :class:`RoundStats` records how many tasks fell back.

    Known limitation: a task that blocks forever cannot be killed through
    the executor API — the timed-out pool is abandoned (its futures
    cancelled) and replaced, but the stuck OS process exits only when its
    task returns.
    """

    name = "process"

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pid_slots: Dict[int, int] = {}
        self.pool_restarts = 0

    # -- pool lifecycle --------------------------------------------------------

    def open(self, partitions, workers, config) -> None:
        super().open(partitions, workers, config)
        self._pid_slots = {}
        self._start_pool()

    def _start_pool(self) -> None:
        # Parent-side cache first: fork-started children inherit it
        # copy-on-write and the initializer ships nothing.
        worker_module.set_cached_partitions(self.partitions)
        initargs = (
            (None,)
            if multiprocessing.get_start_method() == "fork"
            else (self.partitions,)
        )
        self._pool = ProcessPoolExecutor(
            max_workers=len(self.workers),
            initializer=initialize_pool_worker,
            initargs=initargs,
        )

    def _restart_pool(self) -> None:
        # The old pool may be broken or wedged on a stuck task — abandon
        # it without waiting rather than block the retry.
        self.pool_restarts += 1
        self._shutdown_pool(wait=False)
        self._start_pool()

    def _shutdown_pool(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        # A healthy pool is drained synchronously; abandoning it
        # (wait=False) races the interpreter's own executor atexit handler.
        self._shutdown_pool(wait=True)
        worker_module.set_cached_partitions(None)

    # -- dispatch --------------------------------------------------------------

    def _chunks(self) -> List[List[int]]:
        """Scheduler-aligned task chunks.

        Tasks grouped by their LPT worker form one chunk each (balanced
        dispatch, one IPC round-trip per worker); ``config.chunk_size``
        splits groups further when finer-grained work stealing matters.
        """
        groups: List[List[int]] = [[] for _ in self.workers]
        for index, worker_idx in enumerate(self.assignment):
            groups[worker_idx].append(index)
        chunk_size = getattr(self.config, "chunk_size", None)
        chunks: List[List[int]] = []
        for group in groups:
            if not group:
                continue
            size = chunk_size or len(group)
            for start in range(0, len(group), size):
                chunks.append(group[start : start + size])
        return chunks

    def run_round(self, map_fn: TaskFn, state: Any) -> RoundStats:
        n_tasks = len(self.partitions)
        stats = RoundStats(
            results=[None] * n_tasks, busy=[0.0] * len(self.workers)
        )
        # Pre-flight: closures and lambdas cannot cross a process boundary.
        # Run the whole round in-process rather than failing the job.
        try:
            dispatch_bytes = len(
                pickle.dumps((map_fn, state), protocol=pickle.HIGHEST_PROTOCOL)
            )
        except Exception:
            stats.fallback_tasks = n_tasks
            self._run_serial(map_fn, state, range(n_tasks), stats)
            return stats

        pending = self._chunks()
        for attempt in range(self.config.task_retries + 1):
            if not pending:
                break
            failed = self._dispatch(pending, map_fn, state, dispatch_bytes, stats)
            if failed:
                if attempt < self.config.task_retries:
                    stats.retried += sum(len(chunk) for chunk in failed)
                # Restart even on the last attempt: a broken or stuck pool
                # must not poison the next round.
                self._restart_pool()
            pending = failed
        if pending:
            remaining = [index for chunk in pending for index in chunk]
            stats.fallback_tasks += len(remaining)
            self._run_serial(map_fn, state, remaining, stats)
        return stats

    def _dispatch(
        self,
        chunks: List[List[int]],
        map_fn: TaskFn,
        state: Any,
        dispatch_bytes: int,
        stats: RoundStats,
    ) -> List[List[int]]:
        """Submit every chunk; harvest results; return the failed chunks."""
        futures = [
            (chunk, self._pool.submit(execute_task_chunk, chunk, map_fn, state))
            for chunk in chunks
        ]
        task_timeout = getattr(self.config, "task_timeout", None)
        failed: List[List[int]] = []
        for chunk, future in futures:
            timeout = None if task_timeout is None else task_timeout * len(chunk)
            try:
                pid, task_results = future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - crash, timeout, or task error
                failed.append(chunk)
                continue
            slot = self._slot_for(pid)
            stats.bytes_shuffled += dispatch_bytes + _pickled_size(task_results)
            for index, result, elapsed in task_results:
                stats.results[index] = result
                stats.busy[slot] += elapsed
                stats.task_seconds += elapsed
                self.workers[slot].credit(elapsed)
        return failed

    def _slot_for(self, pid: int) -> int:
        """Map a pool process to a driver-side worker accounting slot."""
        if pid not in self._pid_slots:
            self._pid_slots[pid] = len(self._pid_slots) % len(self.workers)
        return self._pid_slots[pid]


_BACKENDS = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
}


def available_backends() -> List[str]:
    """Names accepted by :func:`create_backend` (and the CLI/env var)."""
    return sorted(_BACKENDS)


def create_backend(backend: Any = None) -> ExecutionBackend:
    """Resolve a backend choice to an :class:`ExecutionBackend` instance.

    ``backend`` may be an instance (returned as-is), a name, or ``None`` —
    in which case the current runtime config's ``compute_backend``
    (``ATHENA_COMPUTE_BACKEND``, default ``"serial"``) decides.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = _config.current().compute_backend
    key = str(backend).strip().lower()
    if key not in _BACKENDS:
        raise ComputeError(
            f"unknown compute backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        )
    return _BACKENDS[key]()
