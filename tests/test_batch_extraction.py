"""The batch detection job's fetch and training loop touch each row once.

* ``FeatureFrame`` columns — built by one block-wise row read for every
  column — equal the per-column ``.get`` builder
  (``tests.oracles.oracle_column``) in values, dtype and missing mask,
  through ``from_documents``, ``select`` and lazy ``values``, on both
  sides of a block boundary, and never default or insert a key in a
  ``defaultdict`` or ``Counter`` row;
* ``read_rows`` gives each document's ``.get`` tuple;
* ``partial_sums`` is bit-equal to the scatter-add
  (``tests.oracles.oracle_partial_sums``), empty clusters included.
"""

from collections import Counter, defaultdict
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distdb import FeatureFrame
from repro.distdb import frame as frame_module
from repro.distdb.frame import read_rows
from repro.ml.kmeans import partial_sums

from tests.oracles import oracle_column, oracle_partial_sums

NAMES = ("a", "b", "c")

_NUMBERS = st.one_of(
    st.none(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**53 + 1, -(2**63) - 1, 0, -0.0, float("nan"), float("inf")]),
    st.floats(allow_nan=True),
)
_ANY = st.one_of(
    _NUMBERS,
    st.booleans(),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
    st.tuples(st.integers(0, 3)),
    st.dictionaries(st.sampled_from("xy"), st.integers(0, 3), max_size=1),
)


def _row_type(kind, fields):
    if kind == "defaultdict":
        row = defaultdict(int)
        row.update(fields)
        return row
    return Counter(fields) if kind == "Counter" else dict(fields)


@st.composite
def _documents(draw):
    """Rows over ``NAMES``: each column draws numbers only, or anything; any
    key may be absent; a few rows are a ``defaultdict`` or ``Counter``."""
    kinds = {name: draw(st.sampled_from([_NUMBERS, _ANY])) for name in NAMES}
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        present = draw(st.lists(st.sampled_from(NAMES), unique=True))
        fields = {name: draw(kinds[name]) for name in present}
        row_type = draw(st.sampled_from(["dict"] * 4 + ["defaultdict", "Counter"]))
        rows.append(_row_type(row_type, fields))
    return rows


def _assert_column(frame, docs, name):
    values, missing = oracle_column(docs, name)
    got = frame.values(name)
    assert got.dtype == values.dtype
    if values.dtype == object:
        assert all(x is y for x, y in zip(got, values)) and len(got) == len(values)
        assert frame._missing[name] is None
    else:
        assert got.tobytes() == values.tobytes()
        assert frame.is_missing(name).tolist() == missing.tolist()


@settings(max_examples=70, deadline=None)
@given(
    docs=_documents(),
    names=st.lists(st.sampled_from(NAMES + ("absent",)), max_size=4),
    block=st.integers(1, 5),
)
def test_columns_equal_per_column_oracle(docs, names, block):
    before = [dict(doc) for doc in docs]
    with mock.patch.object(frame_module, "_BLOCK_ROWS", block):
        built = FeatureFrame.from_documents(docs, names)
        selected = FeatureFrame.from_documents(docs, columns=()).select(names)
        lazy = FeatureFrame.from_documents(docs, columns=())
        for name in names:
            lazy.values(name)
        union = FeatureFrame.from_documents(docs)
    assert built.column_names == list(dict.fromkeys(names))
    assert selected.column_names == list(dict.fromkeys(names))
    for frame in (built, selected, lazy):
        for name in names:
            _assert_column(frame, docs, name)
    for name in union.column_names:
        _assert_column(union, docs, name)
    # A defaultdict or Counter row reports None for an absent key, and
    # reading it inserts nothing.
    assert [dict(doc) for doc in docs] == before


def test_late_non_numeric_value_types_the_whole_column():
    """At the real block size: a string in the third block makes the
    column ``object``, the rows of the first two blocks included."""
    n = 2 * frame_module._BLOCK_ROWS + 5
    docs = [{"a": i, "b": float(i)} for i in range(n)]
    docs[-1]["a"] = "late"
    docs[3]["b"] = None
    docs[frame_module._BLOCK_ROWS] = defaultdict(int, {"b": float("nan")})
    frame = FeatureFrame.from_documents(docs, ("a", "b"))
    for name in ("a", "b"):
        _assert_column(frame, docs, name)
    assert frame.values("a").dtype == object
    assert frame.is_missing("b")[[3, frame_module._BLOCK_ROWS]].tolist() == [True, False]
    assert "a" not in docs[frame_module._BLOCK_ROWS]


@settings(max_examples=30, deadline=None)
@given(docs=_documents(), block=st.integers(1, 5))
def test_read_rows_is_get_per_document(docs, block):
    with mock.patch.object(frame_module, "_BLOCK_ROWS", block):
        rows = read_rows(docs, NAMES)
    assert rows == [tuple(doc.get(name) for name in NAMES) for doc in docs]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 60),
    d=st.integers(1, 4),
    k=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_partial_sums_bit_equal_scatter_add(n, d, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 10.0, size=(n, d))
    # The last center sits far from every row, so its cluster is empty.
    centers = np.vstack([rng.normal(0.0, 10.0, size=(k, d)), np.full((1, d), 1e6)])
    sums, counts, inertia = partial_sums(X, centers)
    expected = oracle_partial_sums(X, centers)
    assert counts[-1] == 0.0
    assert sums.tobytes() == expected[0].tobytes()
    assert counts.tobytes() == expected[1].tobytes()
    assert inertia == expected[2]
