"""Compute workers: the executor records tasks run on.

A :class:`Worker` runs a task in the driver process, measures its wall
time, and keeps the per-job busy time and task count the makespan model
reads.  Chaos plans arm injected crashes on it to drive the cluster's
retry-on-another-worker path.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.telemetry.clocks import Stopwatch


class InjectedWorkerCrash(RuntimeError):
    """A chaos-injected worker crash.

    Deliberately *not* a :class:`~repro.errors.ComputeError`: the cluster
    treats ComputeError as fatal but retries arbitrary task exceptions on
    another worker, which is exactly the failover path a crash should
    exercise.
    """


class Worker:
    """One executor node (driver-side accounting record)."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.busy_seconds = 0.0
        self.tasks_run = 0
        self.injected_crashes = 0
        self.crashes_fired = 0

    def inject_crashes(self, count: int = 1) -> None:
        """Arm the next ``count`` tasks on this worker to crash."""
        self.injected_crashes += int(count)

    def execute(self, fn: Callable[[Any], Any], payload: Any) -> Tuple[Any, float]:
        """Run a task, returning (result, measured seconds).

        Failed tasks still consume the worker's time (accounted in
        ``busy_seconds``) before the exception propagates to the scheduler.
        """
        watch = Stopwatch()
        try:
            if self.injected_crashes > 0:
                self.injected_crashes -= 1
                self.crashes_fired += 1
                raise InjectedWorkerCrash(
                    f"worker {self.worker_id} crashed (injected fault)"
                )
            result = fn(payload)
        finally:
            elapsed = watch.elapsed()
            self.busy_seconds += elapsed
            self.tasks_run += 1
        return result, elapsed

    def reset(self) -> None:
        """Per-job accounting reset; armed chaos crashes survive it."""
        self.busy_seconds = 0.0
        self.tasks_run = 0
