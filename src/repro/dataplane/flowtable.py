"""Priority-ordered flow tables.

Lookup semantics follow the OpenFlow specification: the highest-priority
entry whose match covers the packet wins; among equal priorities the more
specific match wins, and among equal specificity the earlier arrival (a
deterministic tie-break the spec leaves undefined).  The table also
implements strict/non-strict modify and delete, and timeout scanning that
yields evicted entries so the switch can emit FLOW_REMOVED.

Lookups go through a tuple-space classifier (Srinivasan, Suri & Varghese,
SIGCOMM '99; the Open vSwitch classifier, docs/PERF.md): entries are
grouped by mask — the names of their set fields — and, per mask, hashed
on the values of those fields.  A packet costs one ``dict.get`` per
distinct mask in the table, and the best ``(sort_key, arrival)`` among
the hits wins.  Masks that hold ``in_port`` are kept apart, keyed by
their other fields: the switch passes the ingress port as an argument
and the lookup puts it in front of those fields' values, so the
packet's header dict is read as it is.  Beside the classifier the table
keeps its precedence-sorted entry list (inserts bisect instead of
re-sorting) and a lazy min-heap of expiry deadlines so an idle table
costs O(1) per timeout tick.  Evictions and stats selections are
reported in precedence order; ``tests/oracles.py`` holds the
sorted-list oracle the stateful property test compares all of this
against.
"""

# athena-lint: hot-path

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, insort_right
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import DataPlaneError
from repro.openflow.constants import FlowRemovedReason
from repro.openflow.flow import FlowEntry
from repro.openflow.match import Match

#: One classifier slot: the entry's precedence, its arrival number (the
#: tie-break among equal precedence) and the entry.
_Ranked = Tuple[Tuple[int, int], int, FlowEntry]


class FlowTable:
    """One flow table of a switch."""

    def __init__(self, table_id: int = 0, max_entries: int = 65536) -> None:
        self.table_id = table_id
        self.max_entries = max_entries
        #: Every entry, precedence-sorted (FlowEntry.sort_key).
        self._entries: List[FlowEntry] = []
        self.lookup_count = 0
        self.matched_count = 0
        #: Tuple space: mask -> set-field values -> the entries with exactly
        #: that match, best first.  ``(mask, values)`` identifies a Match.
        self._classifier: Dict[Tuple[str, ...], Dict[Tuple[Any, ...], List[_Ranked]]] = {}
        #: The same for masks holding ``in_port``, which leads them
        #: (MATCH_FIELDS order): keyed by the mask's remaining fields.
        self._ported: Dict[Tuple[str, ...], Dict[Tuple[Any, ...], List[_Ranked]]] = {}
        #: Lazy expiry heap of (deadline, seq, entry); stale items are
        #: dropped on pop by checking the entry is still live.
        self._heap: List[Tuple[float, int, FlowEntry]] = []
        self._live: Dict[int, FlowEntry] = {}
        #: Arrival numbers and heap sequence numbers, one increasing count.
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(list(self._entries))

    @property
    def entries(self) -> List[FlowEntry]:
        """Entries in match-precedence order (copy)."""
        return list(self._entries)

    # -- index maintenance --------------------------------------------------

    def _slot(self, match: Match):
        """``(tuple space, mask key, values)`` of ``match`` in the classifier."""
        mask, values = match.classifier_key()
        if mask[:1] == ("in_port",):
            return self._ported, mask[1:], values
        return self._classifier, mask, values

    def _index_insert(self, entry: FlowEntry) -> None:
        insort_right(self._entries, entry, key=FlowEntry.sort_key)
        space, mask, values = self._slot(entry.match)
        bucket = space.setdefault(mask, {}).setdefault(values, [])
        insort_right(bucket, (entry.sort_key(), next(self._seq), entry))
        self._live[id(entry)] = entry
        self._schedule(entry)

    def _index_remove(self, entry: FlowEntry) -> None:
        self._remove_from_sorted(self._entries, entry)
        space, mask, values = self._slot(entry.match)
        buckets = space[mask]
        bucket = [item for item in buckets[values] if item[2] is not entry]
        if bucket:
            buckets[values] = bucket
        elif len(buckets) > 1:
            del buckets[values]
        else:
            del space[mask]
        self._live.pop(id(entry), None)
        # Any heap item for the entry goes stale and is skipped on pop.

    @staticmethod
    def _remove_from_sorted(entries: List[FlowEntry], entry: FlowEntry) -> None:
        """Remove ``entry`` (by identity) from a precedence-sorted list."""
        position = bisect_left(entries, entry.sort_key(), key=FlowEntry.sort_key)
        for index in range(position, len(entries)):
            if entries[index] is entry:
                del entries[index]
                return
        # Defensive: identity not found at its sort position (should not
        # happen); fall back to a full identity scan.
        for index, existing in enumerate(entries):
            if existing is entry:
                del entries[index]
                return

    def _schedule(self, entry: FlowEntry) -> None:
        """Push the earliest instant the entry could expire, if mortal."""
        deadline: Optional[float] = None
        if entry.hard_timeout > 0:
            deadline = entry.stats.install_time + entry.hard_timeout
        if entry.idle_timeout > 0:
            reference = max(entry.stats.last_packet_time, entry.stats.install_time)
            idle_deadline = reference + entry.idle_timeout
            if deadline is None or idle_deadline < deadline:
                deadline = idle_deadline
        if deadline is not None:
            heapq.heappush(self._heap, (deadline, next(self._seq), entry))

    # -- writes ------------------------------------------------------------

    def insert(self, entry: FlowEntry, now: float) -> FlowEntry:
        """Add an entry; an identical (match, priority) pair is replaced,
        preserving OpenFlow overlap semantics for ADD."""
        if len(self._entries) >= self.max_entries:
            raise DataPlaneError(
                f"flow table {self.table_id} full ({self.max_entries} entries)"
            )
        for existing in self._covered(entry.match, entry.priority, strict=True):
            self._index_remove(existing)
        entry.table_id = self.table_id
        entry.stats.install_time = now
        entry.stats.last_packet_time = now
        self._index_insert(entry)
        return entry

    # -- lookup ------------------------------------------------------------

    def lookup(
        self, headers: Dict[str, Any], in_port: Optional[int] = None
    ) -> Optional[FlowEntry]:
        """Find the winning entry for a packet-header dict.

        ``in_port``, when given, is the packet's ingress port and overrides
        any ``in_port`` header; ``headers`` is only read, never copied.
        """
        self.lookup_count += 1
        get = headers.get
        best: Optional[_Ranked] = None
        # An unhashable header value under a mask raises TypeError: no
        # entry of the mask can equal it, so the mask cannot match.
        for mask, buckets in self._classifier.items():
            try:
                bucket = buckets.get(tuple(map(get, mask)))
            except TypeError:
                continue
            if bucket is not None and (best is None or bucket[0] < best):
                best = bucket[0]
        if self._ported:
            if in_port is None:
                in_port = get("in_port")
            for rest, buckets in self._ported.items():
                try:
                    bucket = buckets.get((in_port, *map(get, rest)))
                except TypeError:
                    continue
                if bucket is not None and (best is None or bucket[0] < best):
                    best = bucket[0]
        if best is None:
            return None
        self.matched_count += 1
        return best[2]

    # -- modify / delete ----------------------------------------------------

    def _covered(
        self, match: Match, priority: Optional[int], strict: bool
    ) -> List[FlowEntry]:
        """Entries a flow-mod addresses, in precedence order.

        Strict requires an exact (match, priority) pair, resolved through
        the classifier slot of ``match``; non-strict covers every entry
        whose match is a subset of ``match``.
        """
        if strict:
            space, mask, values = self._slot(match)
            bucket = space.get(mask, {}).get(values, ())
            return [
                entry
                for _key, _arrival, entry in bucket
                if priority is None or entry.priority == priority
            ]
        return [e for e in self._entries if e.match.is_subset_of(match)]

    def modify(
        self,
        match: Match,
        actions,
        priority: Optional[int] = None,
        strict: bool = False,
    ) -> int:
        """MODIFY / MODIFY_STRICT: update actions of covered entries.

        Returns the number of entries touched.
        """
        covered = self._covered(match, priority, strict)
        for entry in covered:
            entry.actions = list(actions)
        return len(covered)

    def delete(
        self,
        match: Match,
        priority: Optional[int] = None,
        strict: bool = False,
        out_port: Optional[int] = None,
    ) -> List[FlowEntry]:
        """DELETE / DELETE_STRICT: remove covered entries and return them."""
        removed = self._covered(match, priority, strict)
        if out_port is not None:
            # Management path (flow-mod, not per-packet); the dynamic
            # port probe across action kinds is fine here.
            removed = [
                entry
                for entry in removed
                if any(
                    getattr(action, "port", None) == out_port  # athena-lint: disable=ATH602
                    for action in entry.actions
                )
            ]
        for entry in removed:
            self._index_remove(entry)
        return removed

    # -- expiry --------------------------------------------------------------

    def expire(self, now: float) -> List[Tuple[FlowEntry, FlowRemovedReason]]:
        """Evict timed-out entries, returning them with the eviction reason.

        Evictions are reported in precedence order.  The deadline heap is
        consulted first, so a tick with nothing to evict costs O(1)
        regardless of table size.
        """
        heap = self._heap
        doomed: Dict[int, FlowRemovedReason] = {}
        while heap and heap[0][0] <= now:
            _deadline, _seq, entry = heapq.heappop(heap)
            if self._live.get(id(entry)) is not entry:
                continue  # removed or replaced since scheduling
            if entry.is_hard_expired(now):
                doomed[id(entry)] = FlowRemovedReason.HARD_TIMEOUT
            elif entry.is_idle_expired(now):
                doomed[id(entry)] = FlowRemovedReason.IDLE_TIMEOUT
            else:
                # Traffic pushed the idle deadline out; reschedule.  The
                # new deadline is strictly in the future, so this loop
                # always terminates.
                self._schedule(entry)
        if not doomed:
            return []
        expired = [
            (entry, doomed[id(entry)])
            for entry in self._entries
            if id(entry) in doomed
        ]
        for entry, _reason in expired:
            self._index_remove(entry)
        return expired

    # -- queries -------------------------------------------------------------

    def find(self, match: Match, priority: Optional[int] = None) -> Optional[FlowEntry]:
        """Exact (match, priority) lookup, for tests and the controller."""
        return next(iter(self._covered(match, priority, strict=True)), None)

    def select(self, match: Match) -> Iterable[FlowEntry]:
        """Entries whose match is a subset of ``match`` (stats filtering)."""
        return self._covered(match, None, strict=False)
