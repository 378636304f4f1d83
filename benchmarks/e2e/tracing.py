"""Span tracing from outside the program, for the traced benchmark run.

A :class:`Tracer` replaces the layers' public entry points (the table in
``layers.SPANS``) with timing wrappers *at class level*, so it must be
installed before the stack under test is built: bound methods captured
at construction (bus subscriptions, generator sinks, pipeline sinks) are
looked up on the patched classes.  Nothing under ``src/repro`` changes;
spans inside the program are a later issue.

Each call records one span — name, start, end, parent — in compact
in-memory arrays, written out once at the end (:meth:`Tracer.write`).
Aggregates are maintained on the fly: per span name the call count,
total time and *self* time (duration minus the part covered by child
spans), so self times of all names sum to the wall time under the root
spans without post-processing millions of records.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry.clocks import wall_now

#: Called with (args, kwargs, result); returns counter increments.
CounterFn = Callable[[tuple, dict, Any], Dict[str, float]]

#: Spans kept for the span file; aggregates keep counting past it.
MAX_RECORDED_SPANS = 3_000_000


class Tracer:
    """Class-level timing wrappers with on-the-fly self-time accounting."""

    def __init__(self, max_spans: int = MAX_RECORDED_SPANS) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        self.counters: Dict[str, float] = {}
        self.max_spans = max_spans
        self.spans_dropped = 0
        #: Spans are recorded only while a timed unit runs (see run_unit).
        self.enabled = False
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        # Open-span stack: record index and child time accumulated so far.
        self._open: List[int] = [-1]
        self._child_s: List[float] = [0.0]
        self._patched: List[Tuple[type, str, Any]] = []

    # -- installation -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        counters: Optional[CounterFn] = None,
    ) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by a span."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._traced(original, name, counters))

    def run_unit(self, fn: Callable[[], Any]) -> Any:
        """Run one timed unit under the root span ``harness.unit``.

        Tracing is on only inside units, so set-up and the untimed work
        between units leave no spans and the self times of all span
        names sum to the time spent inside units.
        """
        self.enabled = True
        try:
            return self._traced(fn, "harness.unit", None)()
        finally:
            self.enabled = False

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _traced(self, original, name: str, counters: Optional[CounterFn]):
        nid = self._name_id(name)
        tracer = self
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        open_, child_s = self._open, self._child_s
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end = self._span_start, self._span_end
        bump = self.count

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = len(span_name)
            if index < tracer.max_spans:
                span_name.append(nid)
                span_parent.append(open_[-1])
                span_start.append(0.0)
                span_end.append(0.0)
            else:
                tracer.spans_dropped += 1
                index = -2  # open, but not recorded
            open_.append(index)
            child_s.append(0.0)
            start = wall_now()
            try:
                result = original(*args, **kwargs)
                if counters is not None:
                    for key, value in counters(args, kwargs, result).items():
                        bump(key, value)
                return result
            finally:
                end = wall_now()
                duration = end - start
                open_.pop()
                covered = child_s.pop()
                child_s[-1] += duration
                calls[nid] += 1
                total_s[nid] += duration
                self_s[nid] += duration - covered
                if index >= 0:
                    span_start[index] = start
                    span_end[index] = end

        traced.__wrapped__ = original
        return traced

    # -- reading ------------------------------------------------------------

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def stat(self, name: str) -> Tuple[int, float, float]:
        """``(calls, total seconds, self seconds)`` of one span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    def write(self, path: str) -> int:
        """Write the span file (``numpy.load``-able); returns spans written.

        Arrays ``name_id``, ``parent`` (index of the causing span, -1 for
        a root, -2 when the parent fell past the recording cap),
        ``start`` and ``end`` (``wall_now`` seconds) are row-aligned;
        ``names[name_id]`` is the span name.
        """
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self._span_name, dtype=np.intc),
            parent=np.frombuffer(self._span_parent, dtype=np.intc),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
            dropped=np.array([self.spans_dropped]),
        )
        return len(self._span_name)
