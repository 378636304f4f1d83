"""The filter language of the document store.

A filter is a dict in the MongoDB style::

    {"switch_id": 3}                          # equality
    {"packet_count": {"$gt": 100, "$lte": 500}}
    {"$or": [{"proto": 6}, {"proto": 17}]}
    {"meta.app_id": "fwd"}                    # dotted path into sub-documents

Supported comparison operators: ``$eq $ne $gt $gte $lt $lte $in $nin
$exists``; logical: ``$and $or $nor $not``.
"""

# athena-lint: hot-path

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import QueryError

COMPARISON_OPS = {"$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$nin", "$exists"}
LOGICAL_OPS = {"$and", "$or", "$nor"}


def get_path(doc: Dict[str, Any], path: str) -> Any:
    """Resolve a dotted path inside a document; missing keys give ``None``."""
    current: Any = doc
    for part in path.split("."):
        if not isinstance(current, dict):
            return None
        current = current.get(part)
    return current


def _compare(value: Any, op: str, operand: Any) -> bool:
    if op == "$eq":
        return value == operand
    if op == "$ne":
        return value != operand
    if op == "$exists":
        return (value is not None) == bool(operand)
    if op == "$in":
        return value in operand
    if op == "$nin":
        return value not in operand
    # Ordered comparisons never match missing or cross-type values.
    if value is None:
        return False
    try:
        if op == "$gt":
            return value > operand
        if op == "$gte":
            return value >= operand
        if op == "$lt":
            return value < operand
        if op == "$lte":
            return value <= operand
    except TypeError:
        return False
    raise QueryError(f"unknown comparison operator {op!r}")


def matches_filter(doc: Dict[str, Any], filter_: Optional[Dict[str, Any]]) -> bool:
    """Evaluate ``filter_`` against ``doc``."""
    if not filter_:
        return True
    for key, condition in filter_.items():
        if key == "$and":
            if not all(matches_filter(doc, sub) for sub in condition):
                return False
        elif key == "$or":
            if not any(matches_filter(doc, sub) for sub in condition):
                return False
        elif key == "$nor":
            if any(matches_filter(doc, sub) for sub in condition):
                return False
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator {key!r}")
        else:
            value = get_path(doc, key)
            if isinstance(condition, dict) and any(
                k.startswith("$") for k in condition
            ):
                for op, operand in condition.items():
                    if op == "$not":
                        if matches_filter(doc, {key: operand}):
                            return False
                        continue
                    if op not in COMPARISON_OPS:
                        raise QueryError(f"unknown operator {op!r}")
                    if not _compare(value, op, operand):
                        return False
            else:
                if value != condition:
                    return False
    return True


def validate_filter(filter_: Optional[Dict[str, Any]]) -> None:
    """Raise :class:`QueryError` on any malformed construct in ``filter_``."""
    if filter_ is None:
        return
    if not isinstance(filter_, dict):
        raise QueryError(f"filter must be a dict, got {type(filter_).__name__}")
    for key, condition in filter_.items():
        if key in LOGICAL_OPS:
            if not isinstance(condition, (list, tuple)):
                raise QueryError(f"{key} expects a list of sub-filters")
            for sub in condition:
                validate_filter(sub)
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator {key!r}")
        elif isinstance(condition, dict) and any(
            k.startswith("$") for k in condition
        ):
            for op, operand in condition.items():
                if op == "$not":
                    validate_filter({key: operand})
                elif op not in COMPARISON_OPS:
                    raise QueryError(f"unknown operator {op!r}")
                elif op in ("$in", "$nin") and not isinstance(
                    operand, (list, tuple, set)
                ):
                    raise QueryError(f"{op} expects a sequence")


def equality_value(filter_: Optional[Dict[str, Any]], field: str) -> Optional[Any]:
    """If the filter pins ``field`` to one value, return it (shard routing).

    ``None`` is ambiguous here — it means both "not pinned" and "pinned to
    None".  Shard routing treats the two the same (scatter-gather), but
    index selection must not; use :func:`equality_pin` there.
    """
    value = equality_pin(filter_, field)
    return None if value is MISSING else value


#: Sentinel distinguishing "field not pinned" from "pinned to None".
MISSING = object()


def equality_pin(filter_: Optional[Dict[str, Any]], field: str) -> Any:
    """The value ``filter_`` pins ``field`` to, or :data:`MISSING`.

    A field counts as pinned by a top-level direct equality
    (``{"k": v}``) or an explicit ``$eq`` inside an operator dict
    (``{"k": {"$eq": v, ...}}``); ``None`` is a legitimate pinned value.
    """
    if not filter_ or field not in filter_:
        return MISSING
    condition = filter_[field]
    if isinstance(condition, dict) and any(k.startswith("$") for k in condition):
        return condition.get("$eq", MISSING)
    return condition


def collect_equality_pins(filter_: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Every field the filter pins to a single value (index selection).

    Besides top-level pins, descends into ``$and`` conjuncts: a document
    matching ``{"$and": [...]}`` must satisfy every conjunct, so each
    conjunct's pins narrow the candidate set soundly.  ``$or`` / ``$nor``
    / ``$not`` never contribute pins.
    """
    pins: Dict[str, Any] = {}
    if not filter_:
        return pins
    for key, condition in filter_.items():
        if key == "$and" and isinstance(condition, (list, tuple)):
            for sub in condition:
                pins.update(collect_equality_pins(sub))
        elif not key.startswith("$"):
            value = equality_pin(filter_, key)
            if value is not MISSING:
                pins[key] = value
    return pins


def sort_key(names: Sequence[str]) -> Callable[[Dict[str, Any]], Tuple[Any, ...]]:
    """The key of one stable sort pass over ``names``.

    Each field contributes ``(value is None, value)``, so missing values
    order first ascending and last descending.
    """
    if len(names) == 1:
        name = names[0]

        def single_key(doc: Dict[str, Any]) -> Tuple[bool, Any]:
            value = get_path(doc, name)
            return (value is None, value)

        return single_key

    def composite_key(doc: Dict[str, Any]) -> Tuple[Any, ...]:
        key: List[Any] = []
        for name in names:
            value = get_path(doc, name)
            key.append((value is None, value))
        return tuple(key)

    return composite_key


def sort_documents(
    docs: List[Dict[str, Any]], sort: Optional[List[Tuple[str, int]]]
) -> List[Dict[str, Any]]:
    """Sort ``docs`` in place by a Mongo-style ``[(field, +1/-1)]`` spec.

    When every field shares one direction the list is sorted once with a
    composite key; mixed directions fall back to stable per-field passes
    (still computing each key once per document — Python's sort calls
    ``key`` once per element).
    """
    if not sort:
        return docs
    directions = {direction for _field, direction in sort}
    if len(directions) == 1:
        names = [name for name, _direction in sort]
        docs.sort(key=sort_key(names), reverse=directions.pop() < 0)
        return docs
    for name, direction in reversed(sort):
        docs.sort(key=sort_key([name]), reverse=direction < 0)
    return docs


def filter_documents(
    docs: Iterable[Dict[str, Any]], filter_: Optional[Dict[str, Any]]
) -> Iterable[Dict[str, Any]]:
    """Lazily yield the documents matching ``filter_``."""
    for doc in docs:
        if matches_filter(doc, filter_):
            yield doc


def copy_out(
    matched: List[Dict[str, Any]],
    sort: Optional[List[Tuple[str, int]]],
    limit: Optional[int],
    projection: Optional[List[str]],
) -> List[Dict[str, Any]]:
    """The tail of a zero-copy read: sort and trim the stored *references*,
    then copy (and project) only the post-limit survivors out."""
    if sort:
        sort_documents(matched, sort)
    if limit is not None:
        matched = matched[: max(0, limit)]
    if projection:
        keep = set(projection) | {"_id"}
        return [{k: v for k, v in doc.items() if k in keep} for doc in matched]
    return [dict(doc) for doc in matched]
