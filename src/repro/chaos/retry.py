"""Sim-clock retry with bounded exponential backoff.

Two pieces:

* :class:`RetryPolicy` — the backoff schedule (attempt → delay, capped);
* :class:`RetryQueue` — a never-dropping buffer of failed operations that
  re-tries them on the simulator clock.

The queue implements the "no lost acknowledged writes" guarantee the chaos
property suite checks: once an operation is submitted it either commits or
stays buffered — exhausting the attempt budget flags the operation through
telemetry (``athena_retry_exhausted_total``) and slows retries to the
policy's ``max_delay``, but never discards it.  All scheduling happens on
the deterministic sim clock, so retry timing replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple, Type

from repro.errors import DatabaseError
from repro.telemetry import get_telemetry


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base_delay * multiplier**(attempt-1)``, capped."""

    max_attempts: int = 5
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 2.0

    def delay_for(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            attempt = 1
        return min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )


class _PendingOp:
    __slots__ = ("op", "args", "attempts")

    def __init__(self, op: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self.op, self.args = op, args
        self.attempts = 1  # the failed initial attempt counts


class RetryQueue:
    """Failed operations, retried on the sim clock until they commit."""

    def __init__(
        self,
        sim,
        policy: RetryPolicy = RetryPolicy(),
        name: str = "default",
        retryable: Tuple[Type[BaseException], ...] = (DatabaseError,),
    ) -> None:
        self.sim = sim
        self.policy = policy
        self.name = name
        self.retryable = retryable
        self._pending: List[_PendingOp] = []
        self._timer_armed = False
        registry = get_telemetry().registry
        self._telemetry_on = registry.enabled
        labels = {"queue": name}
        self._metric_attempts = registry.counter(
            "athena_retry_attempts_total",
            "Operation attempts made through a retry queue.",
            labelnames=("queue",),
        ).labels(**labels)
        self._metric_committed = registry.counter(
            "athena_retry_committed_total",
            "Operations that eventually committed.",
            labelnames=("queue",),
        ).labels(**labels)
        self._metric_buffered = registry.counter(
            "athena_retry_buffered_total",
            "Operations buffered after a retryable failure.",
            labelnames=("queue",),
        ).labels(**labels)
        self._metric_exhausted = registry.counter(
            "athena_retry_exhausted_total",
            "Operations that exceeded the attempt budget (still buffered).",
            labelnames=("queue",),
        ).labels(**labels)
        self.committed = 0
        self.exhausted = 0

    @property
    def pending(self) -> int:
        """Operations currently buffered awaiting retry."""
        return len(self._pending)

    def submit(self, op: Callable[..., None], *args: Any) -> bool:
        """Run ``op(*args)`` now; buffer it for retry on a retryable failure.

        Returns ``True`` when the operation committed immediately.  The
        operation is *acknowledged* either way — it will never be dropped.
        """
        if self._telemetry_on:
            self._metric_attempts.inc()
        try:
            op(*args)
        except self.retryable:
            self._metric_buffered.inc()
            self._pending.append(_PendingOp(op, args))
            self._arm()
            return False
        self.committed += 1
        if self._telemetry_on:
            self._metric_committed.inc()
        return True

    def flush(self) -> int:
        """Retry everything pending right now; returns commits achieved."""
        return self._drain(rearm=False)

    # -- internals ---------------------------------------------------------

    def _arm(self) -> None:
        if self._timer_armed or self.sim is None:
            return
        self._timer_armed = True
        attempt = min(p.attempts for p in self._pending)
        self.sim.after(self.policy.delay_for(attempt), self._on_timer)

    def _on_timer(self) -> None:
        self._timer_armed = False
        self._drain(rearm=True)

    def _drain(self, rearm: bool) -> int:
        pending, self._pending = self._pending, []
        committed = 0
        for entry in pending:
            self._metric_attempts.inc()
            try:
                entry.op(*entry.args)
            except self.retryable:
                entry.attempts += 1
                if entry.attempts == self.policy.max_attempts:
                    # Flagged, not dropped: the budget overrun is visible
                    # in telemetry while the write stays acknowledged.
                    self.exhausted += 1
                    self._metric_exhausted.inc()
                self._pending.append(entry)
            else:
                committed += 1
                self.committed += 1
                self._metric_committed.inc()
        if rearm and self._pending:
            self._arm()
        return committed
