"""Columnar feature frames: numpy columns over shared stored documents.

A :class:`FeatureFrame` is the batch-path representation of a query
result (docs/PERF.md): a dict of column-name → numpy array plus the row
index — the *shared* stored document dicts, in result order, never
copied.  Numeric columns (the FEATURE_CATALOG namespace plus numeric
index keys) are ``float64`` arrays with an explicit missing mask;
columns holding any non-numeric value fall back to ``object`` arrays so
comparison semantics stay exactly those of the document path.

The module also compiles the Mongo-style filter language of
:mod:`repro.distdb.query` to boolean masks (:func:`filter_mask`) and
reproduces :func:`~repro.distdb.query.sort_documents` ordering with
stable argsorts (:meth:`FeatureFrame.sort`).  The contract, enforced by
property tests and ``benchmarks/bench_scale.py``: for any documents and
any valid filter/sort/limit, the frame path selects exactly the rows
``matches_filter`` would, in exactly the order the document path
returns them.
"""

# athena-lint: hot-path columnar

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distdb.query import _compare, get_path, matches_filter
from repro.errors import QueryError


def _is_plain_number(value: Any) -> bool:
    """Numeric for column-typing purposes: int/float but not bool.

    Bools are excluded so boolean-valued columns take the object path,
    where row-wise evaluation preserves the document path's semantics
    (:meth:`FeatureFrame.to_matrix` treats bools as non-numeric).
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Exact value types of a numeric column; any other type is numeric only
#: as a non-bool subclass of one of them.
_NUMERIC_TYPES = frozenset((int, float, type(None)))


def _build_column(docs: Sequence[Dict[str, Any]], name: str) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One typed column over ``docs``: (values, missing-mask).

    Numeric columns return ``float64`` values (missing slots hold NaN —
    which makes ordered/equality masks correct with no extra masking)
    plus a bool missing mask distinguishing absent values from stored
    NaNs.  Mixed or non-numeric columns return an ``object`` array with
    ``missing is None`` (the values themselves carry ``None``).
    """
    raw = [doc.get(name) for doc in docs]
    kinds = set(map(type, raw))
    for kind in kinds - _NUMERIC_TYPES:
        if issubclass(kind, bool) or not issubclass(kind, (int, float)):
            # fromiter keeps a list- or tuple-valued field one value per row.
            return np.fromiter(raw, dtype=object, count=len(raw)), None
    values = np.array(raw, dtype=np.float64)
    if type(None) in kinds:
        missing = np.fromiter((v is None for v in raw), dtype=bool, count=len(raw))
    else:
        missing = np.zeros(len(raw), dtype=bool)
    return values, missing


class FeatureFrame:
    """A columnar view over shared stored documents."""

    __slots__ = ("_values", "_missing", "_docs")

    def __init__(
        self,
        values: Dict[str, np.ndarray],
        missing: Dict[str, Optional[np.ndarray]],
        docs: List[Dict[str, Any]],
    ) -> None:
        self._values = values
        self._missing = missing
        self._docs = docs

    # -- construction ------------------------------------------------------

    @classmethod
    def from_documents(
        cls,
        docs: Sequence[Dict[str, Any]],
        columns: Optional[Iterable[str]] = None,
    ) -> "FeatureFrame":
        """Materialise typed columns straight from stored documents.

        The documents are *referenced*, never copied: ``docs`` becomes the
        frame's row index, so callers must treat the rows as read-only.
        With ``columns=None`` the union of document keys (first-use order)
        is materialised.
        """
        docs = docs if isinstance(docs, list) else list(docs)
        if columns is None:
            seen: Dict[str, None] = {}
            for doc in docs:
                for key in doc:
                    if key not in seen:
                        seen[key] = None
            columns = list(seen)
        values: Dict[str, np.ndarray] = {}
        missing: Dict[str, Optional[np.ndarray]] = {}
        for name in columns:
            if name in values:
                continue
            values[name], missing[name] = _build_column(docs, name)
        return cls(values, missing, docs)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    @property
    def column_names(self) -> List[str]:
        return list(self._values)

    def values(self, name: str) -> np.ndarray:
        """Column values, materialised lazily from the row documents.

        A frame built with a restricted column set still resolves any
        other field correctly — the column is scanned out of ``_docs`` on
        first use — so filters, sorts, and markings never see a phantom
        all-missing column just because the caller trimmed the scan.
        """
        column = self._values.get(name)
        if column is None:
            column, self._missing[name] = _build_column(self._docs, name)
            self._values[name] = column
        return column

    def is_missing(self, name: str) -> np.ndarray:
        """Bool mask: True where the value is absent / ``None``."""
        self.values(name)
        mask = self._missing.get(name)
        if mask is None:
            column = self._values[name]
            mask = np.fromiter((v is None for v in column), dtype=bool, count=len(column))
            self._missing[name] = mask
        return mask

    def documents(self) -> List[Dict[str, Any]]:
        """The shared stored documents, in row order (zero copy).

        Read-only by contract: these are the store's own dicts.  Use
        :meth:`copy_documents` when the caller needs to mutate rows.
        """
        return self._docs

    def copy_documents(self) -> List[Dict[str, Any]]:
        """Copies of the row documents (the document path's contract)."""
        return [dict(doc) for doc in self._docs]  # athena-lint: disable=ATH603

    # -- row selection -----------------------------------------------------

    def take(self, indices: np.ndarray) -> "FeatureFrame":
        """New frame holding ``indices``' rows (fancy-indexed columns)."""
        indices = np.asarray(indices)
        values = {name: column[indices] for name, column in self._values.items()}
        missing = {
            name: (mask[indices] if mask is not None else None)
            for name, mask in self._missing.items()
        }
        docs = [self._docs[i] for i in indices.tolist()]
        return FeatureFrame(values, missing, docs)

    def mask(self, keep: np.ndarray) -> "FeatureFrame":
        """Rows where the boolean ``keep`` mask is True, order preserved."""
        return self.take(np.nonzero(np.asarray(keep, dtype=bool))[0])

    def head(self, limit: Optional[int]) -> "FeatureFrame":
        if limit is None or self.n_rows <= max(0, limit):
            return self
        return self.take(np.arange(max(0, limit)))

    def select(self, columns: Iterable[str]) -> "FeatureFrame":
        """Frame restricted to (and materialising) ``columns``."""
        values: Dict[str, np.ndarray] = {}
        missing: Dict[str, Optional[np.ndarray]] = {}
        for name in columns:
            values[name] = self.values(name)
            missing[name] = self._missing[name]
        return FeatureFrame(values, missing, self._docs)

    # -- sort (reproduces distdb.query.sort_documents exactly) -------------

    def sort(self, sort: Optional[List[Tuple[str, int]]]) -> "FeatureFrame":
        """Stable Mongo-style sort, bit-compatible with ``sort_documents``.

        Per field (applied in reverse, each pass stable — equivalent to
        the document path's composite key): ascending orders by
        ``(value is None, value)``; descending is Python's stable
        ``reverse=True``.  Numeric NaN-free columns use ``np.lexsort``;
        anything else falls back to Python's sort with the identical key
        (including raising TypeError on cross-type values, as the
        document path does).
        """
        if not sort:
            return self
        order = np.arange(self.n_rows)
        for name, direction in reversed(sort):
            order = order[self._argsort_field(name, order, direction < 0)]
        if (order == np.arange(self.n_rows)).all():
            return self
        return self.take(order)

    def _argsort_field(
        self, name: str, order: np.ndarray, descending: bool
    ) -> np.ndarray:
        # Dotted keys reach into sub-documents the columns don't hold;
        # they sort through get_path like the document path does.
        column = None if "." in name else self.values(name)
        if column is not None and column.dtype != object:
            miss = self.is_missing(name)[order]
            vals = column[order]
            present = vals[~miss]
            if not (len(present) and np.isnan(present).any()):
                vals = np.where(miss, 0.0, vals)
                if descending:
                    # Python's reverse=True: (missing, value) tuples compare
                    # descending, ties keep original order → stable lexsort
                    # on negated keys, missing (flag False after inversion)
                    # first.
                    return np.lexsort((-vals, ~miss))
                return np.lexsort((vals, miss))
        raw = [get_path(self._docs[i], name) for i in order.tolist()]
        ranked = sorted(
            range(len(raw)),
            key=lambda i: (raw[i] is None, raw[i]),
            reverse=descending,
        )
        return np.asarray(ranked, dtype=np.intp)

    # -- matrix handoff ----------------------------------------------------

    def to_matrix(self, features: Sequence[str]) -> np.ndarray:
        """The ML feature matrix, one column per name in ``features``.

        Numeric values land as float64; missing and non-numeric values
        (including bools) become 0.0 — byte for byte what a per-row loop
        over the documents gives (``tests/oracles.oracle_matrix``).
        """
        matrix = np.zeros((self.n_rows, len(features)), dtype=np.float64)
        for col, name in enumerate(features):
            column = self.values(name)
            if column.dtype == object:
                matrix[:, col] = np.fromiter(
                    (
                        float(v) if _is_plain_number(v) else 0.0
                        for v in column
                    ),
                    dtype=np.float64,
                    count=len(column),
                )
            else:
                miss = self.is_missing(name)
                if miss.any():
                    matrix[:, col] = np.where(miss, 0.0, column)
                else:
                    matrix[:, col] = column
        return matrix

    def __repr__(self) -> str:
        return f"FeatureFrame(rows={self.n_rows}, columns={len(self._values)})"


# ---------------------------------------------------------------------------
# Filter → mask compilation
# ---------------------------------------------------------------------------


def _rowwise_mask(frame: FeatureFrame, sub_filter: Dict[str, Any]) -> np.ndarray:
    docs = frame.documents()
    return np.fromiter(
        (matches_filter(doc, sub_filter) for doc in docs),
        dtype=bool,
        count=len(docs),
    )


def _numeric_operand(operand: Any) -> bool:
    return isinstance(operand, (int, float)) and not (
        isinstance(operand, float) and np.isnan(operand)
    )


def _compare_mask(frame: FeatureFrame, key: str, op: str, operand: Any) -> np.ndarray:
    """Mask for one ``{key: {op: operand}}`` comparison."""
    n = frame.n_rows
    column = frame.values(key)
    if column.dtype == object:
        # Row-wise evaluation reuses the document path's _compare, so
        # object columns (strings, bools, mixed types) match by
        # construction.
        return np.fromiter(
            (_compare(v, op, operand) for v in column), dtype=bool, count=n
        )
    missing = frame.is_missing(key)
    if op == "$eq":
        if operand is None:
            return missing.copy()
        if _numeric_operand(operand):
            return column == operand
        # No numeric value equals a non-numeric operand; NaN slots
        # (missing) compare unequal too.
        return np.zeros(n, dtype=bool)
    if op == "$ne":
        if operand is None:
            return ~missing
        if _numeric_operand(operand):
            return column != operand
        return np.ones(n, dtype=bool)
    if op == "$exists":
        return ~missing if operand else missing.copy()
    if op in ("$in", "$nin"):
        members = np.isin(
            column,
            [e for e in operand if _numeric_operand(e)],
        )
        if any(e is None for e in operand):
            members |= missing
        return members if op == "$in" else ~members
    if op in ("$gt", "$gte", "$lt", "$lte"):
        if not _numeric_operand(operand):
            # Ordered comparison against a non-numeric operand raises
            # TypeError row-wise, which the document path maps to False.
            return np.zeros(n, dtype=bool)
        with np.errstate(invalid="ignore"):
            if op == "$gt":
                return column > operand
            if op == "$gte":
                return column >= operand
            if op == "$lt":
                return column < operand
            return column <= operand
    raise QueryError(f"unknown comparison operator {op!r}")


def _condition_mask(frame: FeatureFrame, key: str, condition: Any) -> np.ndarray:
    if "." in key:
        # Dotted paths reach into sub-documents the columns don't hold;
        # evaluate those rows through the reference matcher.
        return _rowwise_mask(frame, {key: condition})
    if isinstance(condition, dict) and any(k.startswith("$") for k in condition):
        mask = np.ones(frame.n_rows, dtype=bool)
        for op, operand in condition.items():
            if op == "$not":
                mask &= ~_condition_mask(frame, key, operand)
                continue
            mask &= _compare_mask(frame, key, op, operand)
        return mask
    if isinstance(condition, (dict, list, tuple, set)):
        # Plain equality against a container: elementwise numpy comparison
        # would broadcast, so keep it row-wise.
        return _rowwise_mask(frame, {key: condition})
    return _compare_mask(frame, key, "$eq", condition)


def filter_mask(
    frame: FeatureFrame, filter_: Optional[Dict[str, Any]]
) -> np.ndarray:
    """Boolean row mask equivalent to ``matches_filter`` per document.

    Supports the full filter language (``$eq $ne $gt $gte $lt $lte $in
    $nin $exists``, ``$and $or $nor $not``); numeric columns evaluate
    vectorised, everything else row-wise through the reference matcher —
    so results are identical either way (property-tested in
    ``tests/test_frame.py``).
    """
    n = frame.n_rows
    if not filter_:
        return np.ones(n, dtype=bool)
    mask = np.ones(n, dtype=bool)
    for key, condition in filter_.items():
        if key == "$and":
            for sub in condition:
                mask &= filter_mask(frame, sub)
        elif key == "$or":
            any_mask = np.zeros(n, dtype=bool)
            for sub in condition:
                any_mask |= filter_mask(frame, sub)
            mask &= any_mask
        elif key == "$nor":
            any_mask = np.zeros(n, dtype=bool)
            for sub in condition:
                any_mask |= filter_mask(frame, sub)
            mask &= ~any_mask
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator {key!r}")
        else:
            mask &= _condition_mask(frame, key, condition)
    return mask


# ---------------------------------------------------------------------------
# The columns a read touches
# ---------------------------------------------------------------------------


def _collect_filter_fields(
    filter_: Optional[Dict[str, Any]], out: Dict[str, None]
) -> None:
    if not filter_:
        return
    for key, condition in filter_.items():
        if key in ("$and", "$or", "$nor"):
            for sub in condition:
                _collect_filter_fields(sub, out)
        elif key.startswith("$") or "." in key:
            # Dotted paths evaluate row-wise over the documents; no
            # column needs materialising for them.
            continue
        else:
            out.setdefault(key, None)


def scan_fields(
    columns: Optional[Sequence[str]],
    filter_: Optional[Dict[str, Any]] = None,
    sort: Optional[List[Tuple[str, int]]] = None,
) -> Optional[Tuple[str, ...]]:
    """The columns a masked scan touches, or None for 'all of them'.

    The requested set plus every top-level field the filter or sort
    evaluates, so a column-restricted extraction still materialises what
    the mask compiler and argsort read (anything else falls back to a
    per-row document scan).
    """
    if columns is None:
        return None
    needed = dict.fromkeys(columns)
    _collect_filter_fields(filter_, needed)
    for name, _direction in sort or []:
        if "." not in name:
            needed.setdefault(name, None)
    return tuple(needed)
