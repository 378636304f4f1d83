"""Tests for the columnar FeatureFrame layer (repro.distdb.frame).

The contract under test (docs/PERF.md): for any documents and any valid
filter/sort/limit, the frame path selects exactly the rows
``matches_filter`` would, in exactly the order the document path returns
them, and ``to_matrix`` reproduces the per-row loop
(``tests/oracles.oracle_matrix``) byte for byte.  Property tests drive
the mask compiler and sorter against the row-wise reference on
randomized documents.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distdb import DatabaseCluster, FeatureFrame, filter_mask
from repro.distdb.frame import scan_fields
from repro.distdb.query import matches_filter, sort_documents
from repro.errors import QueryError

from tests.oracles import list_find, oracle_matrix

DOCS = [
    {"switch_id": 1, "A": 1.0, "B": 10, "tag": "x", "label": 1},
    {"switch_id": 2, "A": 2.5, "tag": "y", "label": 0},
    {"switch_id": 1, "A": None, "B": 30, "tag": "x", "label": 0},
    {"switch_id": 3, "B": 40, "tag": None, "label": 1},
    {"switch_id": 2, "A": 5.0, "B": float("nan"), "tag": "z", "label": 0},
]


class TestFrameConstruction:
    def test_numeric_column_with_missing_mask(self):
        frame = FeatureFrame.from_documents(DOCS)
        values = frame.values("A")
        assert values.dtype == np.float64
        assert frame.is_missing("A").tolist() == [False, False, True, True, False]

    def test_stored_nan_is_not_missing(self):
        frame = FeatureFrame.from_documents(DOCS)
        assert frame.is_missing("B").tolist() == [False, True, False, False, False]
        assert np.isnan(frame.values("B")[4])

    def test_object_column_for_strings(self):
        frame = FeatureFrame.from_documents(DOCS)
        assert frame.values("tag").dtype == object
        assert frame.is_missing("tag").tolist() == [False, False, False, True, False]

    def test_bool_values_force_object_column(self):
        frame = FeatureFrame.from_documents([{"f": True}, {"f": 1.0}])
        assert frame.values("f").dtype == object

    def test_documents_are_shared_not_copied(self):
        frame = FeatureFrame.from_documents(DOCS)
        assert all(a is b for a, b in zip(frame.documents(), DOCS))
        copies = frame.copy_documents()
        assert copies == DOCS
        assert all(a is not b for a, b in zip(copies, DOCS))

    def test_restricted_columns_materialise_lazily(self):
        frame = FeatureFrame.from_documents(DOCS, columns=("A",))
        assert frame.column_names == ["A"]
        # Resolving an untrimmed field scans the documents, it does not
        # fabricate an all-missing phantom column.
        assert frame.values("B")[0] == 10
        assert frame.is_missing("label").tolist() == [False] * 5

    def test_absent_column_is_all_missing(self):
        frame = FeatureFrame.from_documents(DOCS)
        assert frame.is_missing("nope").all()

    def test_take_head_mask(self):
        frame = FeatureFrame.from_documents(DOCS)
        assert frame.take(np.array([2, 0])).copy_documents() == [DOCS[2], DOCS[0]]
        assert frame.head(2).n_rows == 2
        assert frame.head(None) is frame
        keep = np.array([True, False, True, False, False])
        assert frame.mask(keep).copy_documents() == [DOCS[0], DOCS[2]]


class TestFilterMask:
    FILTERS = [
        None,
        {},
        {"switch_id": 1},
        {"A": None},
        {"A": {"$ne": None}},
        {"A": {"$gte": 2.0}},
        {"B": {"$exists": True}},
        {"B": {"$exists": False}},
        {"switch_id": {"$in": [1, 3]}},
        {"switch_id": {"$nin": [1, 3]}},
        {"A": {"$in": [2.5, None]}},
        {"tag": "x"},
        {"tag": {"$ne": "x"}},
        {"$and": [{"switch_id": 1}, {"label": 1}]},
        {"$or": [{"tag": "z"}, {"B": {"$lt": 20}}]},
        {"$nor": [{"label": 1}]},
        {"A": {"$not": {"$gt": 2.0}}},
        {"$or": []},
    ]

    @pytest.mark.parametrize("filter_", FILTERS)
    def test_mask_matches_reference(self, filter_):
        frame = FeatureFrame.from_documents(DOCS)
        expected = [matches_filter(doc, filter_ or {}) for doc in DOCS]
        assert filter_mask(frame, filter_).tolist() == expected

    def test_unknown_top_level_operator_raises(self):
        frame = FeatureFrame.from_documents(DOCS)
        with pytest.raises(QueryError):
            filter_mask(frame, {"$weird": []})

    def test_dotted_keys_evaluate_rowwise(self):
        docs = [{"a": {"b": 1}}, {"a": {"b": 2}}]
        frame = FeatureFrame.from_documents(docs)
        assert filter_mask(frame, {"a.b": 2}).tolist() == [False, True]


class TestFrameSort:
    CASES = [
        [("A", 1)],
        [("A", -1)],
        [("switch_id", 1), ("A", -1)],
        [("tag", 1)],
        [("missing_field", 1), ("label", -1)],
    ]

    @pytest.mark.parametrize("sort", CASES)
    def test_sort_matches_sort_documents(self, sort):
        docs = [doc for doc in DOCS if "B" not in doc or doc["B"] == doc["B"]]
        frame = FeatureFrame.from_documents(docs)
        expected = list(docs)
        sort_documents(expected, sort)
        assert frame.sort(sort).copy_documents() == expected

    def test_cross_type_sort_raises_like_reference(self):
        docs = [{"v": 1}, {"v": "s"}]
        frame = FeatureFrame.from_documents(docs)
        with pytest.raises(TypeError):
            frame.sort([("v", 1)])
        with pytest.raises(TypeError):
            sort_documents(list(docs), [("v", 1)])


class TestToMatrix:
    def test_matches_preprocessor_matrix(self):
        features = ["A", "B", "label", "nope"]
        frame = FeatureFrame.from_documents(DOCS)
        assert (
            frame.to_matrix(features).tobytes()
            == oracle_matrix(DOCS, features).tobytes()
        )

    def test_bools_and_strings_become_zero(self):
        docs = [{"F": True}, {"F": "x"}, {"F": 2}]
        frame = FeatureFrame.from_documents(docs)
        assert frame.to_matrix(["F"]).ravel().tolist() == [0.0, 0.0, 2.0]


class TestScanFields:
    def test_none_means_all(self):
        assert scan_fields(None, {"a": 1}) is None

    def test_filter_and_sort_fields_are_added(self):
        fields = scan_fields(
            ["A"],
            {"$and": [{"scope": "flow"}, {"t": {"$gte": 1}}], "x.y": 1},
            [("B", -1), ("a.b", 1)],
        )
        assert fields == ("A", "scope", "t", "B")


# ---------------------------------------------------------------------------
# Property tests: mask compiler and sorter vs the row-wise reference
# ---------------------------------------------------------------------------

_value = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["a", "b", "c"]),
    st.booleans(),
)
_doc = st.fixed_dictionaries(
    {},
    optional={
        "f": _value,
        "g": _value,
        "scope": st.sampled_from(["flow", "port"]),
    },
)
_docs = st.lists(_doc, max_size=30)
_operand = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["a", "b"]),
)
_condition = st.one_of(
    _operand,
    st.fixed_dictionaries({"$eq": _operand}),
    st.fixed_dictionaries({"$ne": _operand}),
    st.fixed_dictionaries({"$gt": _operand}),
    st.fixed_dictionaries({"$gte": _operand}),
    st.fixed_dictionaries({"$lt": _operand}),
    st.fixed_dictionaries({"$lte": _operand}),
    st.fixed_dictionaries({"$exists": st.booleans()}),
    st.fixed_dictionaries({"$in": st.lists(_operand, max_size=3)}),
    st.fixed_dictionaries({"$nin": st.lists(_operand, max_size=3)}),
    st.fixed_dictionaries({"$not": st.fixed_dictionaries({"$gte": _operand})}),
)
_leaf = st.fixed_dictionaries({}, optional={"f": _condition, "g": _condition})
_filter = st.one_of(
    _leaf,
    st.fixed_dictionaries({"$and": st.lists(_leaf, max_size=2)}),
    st.fixed_dictionaries({"$or": st.lists(_leaf, max_size=2)}),
    st.fixed_dictionaries({"$nor": st.lists(_leaf, max_size=2)}),
)


class TestFilterMaskProperties:
    @given(docs=_docs, filter_=_filter)
    @settings(max_examples=200, deadline=None)
    def test_mask_equals_rowwise_reference(self, docs, filter_):
        frame = FeatureFrame.from_documents(docs)
        expected = [matches_filter(doc, filter_) for doc in docs]
        assert filter_mask(frame, filter_).tolist() == expected

    @given(
        docs=st.lists(
            st.fixed_dictionaries(
                {}, optional={"f": st.one_of(st.none(), st.integers(-9, 9))}
            ),
            max_size=25,
        ),
        descending=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_sort_equals_sort_documents(self, docs, descending):
        frame = FeatureFrame.from_documents(docs)
        expected = list(docs)
        sort_documents(expected, [("f", -1 if descending else 1)])
        assert (
            frame.sort([("f", -1 if descending else 1)]).copy_documents()
            == expected
        )

    @given(docs=_docs, filter_=_filter)
    @settings(max_examples=60, deadline=None)
    def test_cluster_find_frame_equals_find(self, docs, filter_):
        cluster = DatabaseCluster(n_shards=2, shard_key="scope")
        for doc in docs:
            cluster.insert_one("c", dict(doc))
        assert (
            cluster.find_frame("c", filter_ or None).copy_documents()
            == cluster.find("c", filter_ or None)
        )


_sort_value = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.just(float("nan")),
    st.just("a"),
)


class TestSameDirectionSortProperties:
    """Two keys sharing a direction: ``sort_documents`` sorts once on the
    composite key, so the frame must too — per-field passes order NaN
    differently and compare secondary keys the composite key never
    reaches.  ``None`` stands for a missing field: both sort as missing."""

    @given(
        docs=st.lists(
            st.fixed_dictionaries({"x": _sort_value, "y": _sort_value}),
            max_size=25,
        ),
        direction=st.sampled_from([1, -1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_find_frame_equals_oracle_or_raises_with_it(self, docs, direction):
        store = DatabaseCluster(n_shards=1)
        store.insert_many("c", docs)
        stored = store.shards[0].collection("c").all_documents()
        sort = [("x", direction), ("y", direction)]
        try:
            expected = list_find(stored, sort=sort)[0]
        except TypeError:
            with pytest.raises(TypeError):
                store.find_frame("c", sort=sort)
            return
        assert store.find_frame("c", sort=sort).copy_documents() == expected
