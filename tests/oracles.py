"""List-based oracles the property tests hold the real structures to.

Deliberately naive — one plain list, linear scans, no index, no cache, no
heap — so that what they compute is obviously the specification.  They
took over the equivalence duty of the linear-scan, per-call and copy-first
reference implementations that used to ship in ``src/`` behind a switch.
"""

import numpy as np

from repro.distdb.query import matches_filter, sort_documents
from repro.openflow.constants import FlowRemovedReason
from repro.openflow.flow import FlowEntry
from repro.openflow.match import MATCH_FIELDS


def oracle_matches(match, headers):
    """Field by field: every set field of ``match`` equals the header."""
    return all(
        headers.get(name) == getattr(match, name)
        for name in MATCH_FIELDS
        if getattr(match, name) is not None
    )


def oracle_approx_size(doc):
    """The BSON-like size formula, one isinstance chain per value."""
    size = 8
    for key, value in doc.items():
        size += len(key) + 2
        if isinstance(value, str):
            size += len(value) + 5
        elif isinstance(value, (int, float, bool)) or value is None:
            size += 9
        elif isinstance(value, dict):
            size += oracle_approx_size(value)
        elif isinstance(value, (list, tuple)):
            size += 5 + 9 * len(value)
        else:
            size += 16
    return size


def list_find(docs, filter_=None, sort=None, limit=None, projection=None):
    """Copy, filter, sort, limit, project; returns (results, bytes read)."""
    results = [dict(doc) for doc in docs if matches_filter(doc, filter_)]
    bytes_read = sum(oracle_approx_size(doc) for doc in results)
    if sort:
        sort_documents(results, sort)
    if limit is not None:
        results = results[: max(0, limit)]
    if projection:
        keep = set(projection) | {"_id"}
        results = [{k: v for k, v in doc.items() if k in keep} for doc in results]
    return results, bytes_read


def oracle_matrix(docs, features):
    """The feature matrix, one document and one feature at a time: a plain
    int or float lands as a float, anything else (absent, None, bool,
    string, list) is 0.0."""
    matrix = np.zeros((len(docs), len(features)))
    for row, doc in enumerate(docs):
        for col, feature in enumerate(features):
            value = doc.get(feature)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                matrix[row, col] = float(value)
    return matrix


HARD, IDLE = FlowRemovedReason.HARD_TIMEOUT, FlowRemovedReason.IDLE_TIMEOUT


class ListFlowTable:
    """``FlowTable`` semantics on one precedence-sorted list."""

    def __init__(self, table_id=0):
        self.table_id, self.entries = table_id, []
        self.lookup_count = self.matched_count = 0

    def __len__(self):
        return len(self.entries)

    def select(self, match, priority=None, strict=False, out_port=None):
        """Entries a flow-mod (or a stats request) addresses, best first."""

        def covered(e):
            if strict:
                return e.match == match and priority in (None, e.priority)
            return oracle_matches(match, vars(e.match))  # e.match within match

        def ports(e):
            return [getattr(action, "port", None) for action in e.actions]

        return [e for e in self.entries if covered(e) and out_port in (None, *ports(e))]

    def find(self, match, priority=None):
        return next(iter(self.select(match, priority, strict=True)), None)

    def _remove(self, doomed):
        self.entries = [e for e in self.entries if all(e is not d for d in doomed)]
        return doomed

    def delete(self, match, priority=None, strict=False, out_port=None):
        return self._remove(self.select(match, priority, strict, out_port))

    def insert(self, entry, now):
        self.delete(entry.match, entry.priority, strict=True)
        entry.table_id = self.table_id
        entry.stats.install_time = entry.stats.last_packet_time = now
        # sorted() is stable: equal precedence keeps arrival order.
        self.entries = sorted(self.entries + [entry], key=FlowEntry.sort_key)
        return entry

    def modify(self, match, actions, priority=None, strict=False):
        covered = self.select(match, priority, strict)
        for entry in covered:
            entry.actions = list(actions)
        return len(covered)

    def lookup(self, headers):
        winner = next((e for e in self.entries if oracle_matches(e.match, headers)), None)
        self.lookup_count += 1
        self.matched_count += winner is not None
        return winner

    def expire(self, now):
        due = [e for e in self.entries if e.is_hard_expired(now) or e.is_idle_expired(now)]
        return [(e, HARD if e.is_hard_expired(now) else IDLE) for e in self._remove(due)]
