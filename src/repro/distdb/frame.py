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

import itertools
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distdb.query import _compare, matches_filter, sort_key
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


#: Rows per extraction block (docs/PERF.md, "The batch path").
_BLOCK_ROWS = 4096


def read_rows(docs: Sequence[Dict[str, Any]], names: Sequence[str]) -> List[Any]:
    """Each row's ``.get`` of ``names`` (a tuple, or the bare value for one name)
    by one ``itemgetter`` pass; a row lacking a name or not an exact dict
    (``defaultdict`` and ``Counter`` default on ``[]``) reads by ``.get``."""
    get, wanted = itemgetter(*names), set(names)
    if set(map(type, docs)) <= {dict}:
        try:
            return list(map(get, docs))
        except KeyError:
            pass
    return [get(doc) if type(doc) is dict and wanted <= doc.keys()
            else tuple(map(doc.get, names)) if len(names) > 1 else doc.get(names[0])
            for doc in docs]


def _build_columns(docs: Sequence[Dict[str, Any]], names: Sequence[str]) -> Tuple[dict, dict]:
    """Typed columns over ``docs``, read block by block: ({name: values},
    {name: missing-mask}).  Numeric columns are ``float64`` (missing slots
    NaN, so ordered/equality masks need no extra masking) with a bool mask
    telling absent values from stored NaNs; mixed or non-numeric columns
    are ``object`` arrays (the values carry ``None``) with mask ``None``."""
    n, width = len(docs), len(names)
    values = {name: np.empty(n) for name in names}
    missing = {name: np.zeros(n, dtype=bool) for name in names}
    for start in range(0, n if width else 0, _BLOCK_ROWS):
        rows = read_rows(docs[start : start + _BLOCK_ROWS], names)
        stop = start + len(rows)
        flat = itertools.chain.from_iterable(rows) if width > 1 else rows
        block = np.fromiter(flat, dtype=object, count=len(rows) * width)
        for name, cells in zip(names, block.reshape(-1, width).T):
            column = values[name]
            if column.dtype != object and any(
                issubclass(kind, bool) or not issubclass(kind, (int, float))
                for kind in set(map(type, cells)) - _NUMERIC_TYPES
            ):
                # The column is object after all: earlier rows are re-read.
                column = values[name] = np.empty(n, dtype=object)
                column[:start] = np.fromiter(read_rows(docs[:start], [name]), object, start)
                missing[name] = None
            column[start:stop] = cells
            if column.dtype != object:
                nan = np.flatnonzero(np.isnan(column[start:stop]))
                missing[name][start + nan] = [v is None for v in cells[nan]]
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
            columns = itertools.chain.from_iterable(docs)  # every key, first use first
        return cls(*_build_columns(docs, list(dict.fromkeys(columns))), docs)

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
        if name not in self._values:
            self.select((name,))
        return self._values[name]

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
        """Frame restricted to (and materialising) ``columns``; the ones not
        yet held are built in one pass over the rows."""
        columns = list(dict.fromkeys(columns))
        built = _build_columns(self._docs, [n for n in columns if n not in self._values])
        self._values.update(built[0])
        self._missing.update(built[1])
        values = {name: self._values[name] for name in columns}
        return FeatureFrame(values, {name: self._missing[name] for name in columns}, self._docs)

    # -- sort (reproduces distdb.query.sort_documents exactly) -------------

    def sort(self, sort: Optional[List[Tuple[str, int]]]) -> "FeatureFrame":
        """Stable Mongo-style sort, bit-compatible with ``sort_documents``.

        Fields that share one direction sort as ``sort_documents`` sorts
        them, in one pass on the composite key.  Numeric NaN-free columns
        give the same order by per-field ``np.lexsort`` passes; any other
        column makes the one pass run in Python on the identical key,
        which also raises TypeError exactly where the document path does.
        Mixed directions are per-field stable passes on both paths.
        """
        if not sort:
            return self
        names = [name for name, _direction in sort]
        directions = {direction for _name, direction in sort}
        if len(directions) == 1 and not all(map(self._lexsortable, names)):
            order = self._ranked(names, np.arange(self.n_rows), directions.pop() < 0)
        else:
            order = np.arange(self.n_rows)
            for name, direction in reversed(sort):
                order = order[self._argsort_field(name, order, direction < 0)]
        if (order == np.arange(self.n_rows)).all():
            return self
        return self.take(order)

    def _lexsortable(self, name: str) -> bool:
        """A numeric, NaN-free column: ``np.lexsort`` orders it.

        Dotted keys reach into sub-documents the columns don't hold, so
        they sort through ``get_path`` like the document path does.
        """
        if "." in name:
            return False
        column = self.values(name)
        if column.dtype == object:
            return False
        return not np.isnan(column[~self.is_missing(name)]).any()

    def _ranked(
        self, names: List[str], rows: np.ndarray, descending: bool
    ) -> np.ndarray:
        """Positions of ``rows`` after Python's stable sort on the
        document path's key over ``names``."""
        key, docs, rows = sort_key(names), self._docs, rows.tolist()
        ranked = sorted(
            range(len(rows)), key=lambda i: key(docs[rows[i]]), reverse=descending
        )
        return np.asarray(ranked, dtype=np.intp)

    def _argsort_field(
        self, name: str, order: np.ndarray, descending: bool
    ) -> np.ndarray:
        if not self._lexsortable(name):
            return self._ranked([name], order, descending)
        miss = self.is_missing(name)[order]
        vals = np.where(miss, 0.0, self.values(name)[order])
        if descending:
            # Python's reverse=True: (missing, value) tuples compare
            # descending, ties keep original order → stable lexsort on
            # negated keys, missing (flag False after inversion) first.
            return np.lexsort((-vals, ~miss))
        return np.lexsort((vals, miss))

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
