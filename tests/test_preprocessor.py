"""Tests for the Athena Preprocessor (Table IV operators)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.preprocessor import GeneratePreprocessor, Preprocessor
from repro.core.query import GenerateQuery
from repro.distdb import FeatureFrame
from repro.errors import AthenaError

from tests.oracles import oracle_matrix


DOCS = [
    {"A": 0.0, "B": 10.0, "label": 0, "ip_src": "10.0.0.1"},
    {"A": 5.0, "B": 20.0, "label": 0, "ip_src": "10.0.0.2"},
    {"A": 10.0, "B": 30.0, "label": 1, "ip_src": "10.0.0.3"},
]


class TestFeatureSelection:
    def test_add_all_orders_columns(self):
        pre = Preprocessor(normalization=None)
        pre.add_all(["A", "B"])
        matrix, _, _ = pre.transform(DOCS)
        assert matrix.shape == (3, 2)
        assert matrix[2, 0] == 10.0
        assert matrix[0, 1] == 10.0

    def test_add_deduplicates(self):
        pre = Preprocessor(normalization=None).add("A").add("A")
        assert pre.features == ["A"]

    def test_missing_fields_become_zero(self):
        pre = Preprocessor(features=["A", "MISSING"], normalization=None)
        matrix, _, _ = pre.transform(DOCS)
        assert (matrix[:, 1] == 0.0).all()

    def test_no_features_raises(self):
        with pytest.raises(AthenaError):
            Preprocessor(normalization=None).transform(DOCS)


class TestNormalization:
    def test_minmax(self):
        pre = Preprocessor(features=["A", "B"], normalization="minmax")
        matrix, _, _ = pre.fit_transform(DOCS)
        assert matrix.min() == 0.0 and matrix.max() == 1.0

    def test_standard(self):
        pre = Preprocessor(features=["A"], normalization="standard")
        matrix, _, _ = pre.fit_transform(DOCS)
        assert abs(matrix.mean()) < 1e-9

    def test_test_split_uses_training_scaling(self):
        pre = Preprocessor(features=["A"], normalization="minmax")
        pre.fit(DOCS)
        matrix, _, _ = pre.transform([{"A": 20.0}])
        assert matrix[0, 0] == 2.0

    def test_unfitted_transform_raises(self):
        pre = Preprocessor(features=["A"], normalization="minmax")
        with pytest.raises(AthenaError):
            pre.transform(DOCS)

    def test_unknown_normalization_rejected(self):
        with pytest.raises(AthenaError):
            Preprocessor(normalization="l2")

    @pytest.mark.parametrize("normalization", ["minmax", "standard"])
    @pytest.mark.parametrize("rows", [[], FeatureFrame.from_documents([])])
    def test_nothing_to_fit_is_a_typed_error(self, normalization, rows):
        pre = Preprocessor(features=["A"], normalization=normalization)
        with pytest.raises(AthenaError):
            pre.fit(rows)
        with pytest.raises(AthenaError):
            pre.fit_transform(rows)
        pre.fit(DOCS)
        matrix, _, kept = pre.transform(rows)
        assert matrix.shape == (0, 1) and len(kept) == 0


class TestWeighting:
    def test_weights_applied_after_scaling(self):
        pre = Preprocessor(
            features=["A", "B"], normalization="minmax", weights={"A": 2.0}
        )
        matrix, _, _ = pre.fit_transform(DOCS)
        assert matrix[:, 0].max() == 2.0
        assert matrix[:, 1].max() == 1.0

    def test_set_weight_validation(self):
        pre = Preprocessor(features=["A"], normalization=None)
        with pytest.raises(AthenaError):
            pre.set_weight("A", -1.0)


class TestSampling:
    def test_fraction(self):
        docs = [{"A": float(i)} for i in range(100)]
        pre = Preprocessor(features=["A"], normalization=None, sampling=0.2)
        matrix, _, kept = pre.fit_transform(docs)
        assert matrix.shape[0] == 20
        assert len(kept) == 20

    def test_fit_transform_fits_on_the_rows_it_returns(self):
        rng = np.random.default_rng(3)
        docs = [{"A": float(a), "B": float(b)} for a, b in rng.normal(5, 2, (1000, 2))]
        pre = Preprocessor(features=["A", "B"], normalization="standard", sampling=0.5)
        matrix, _, kept = pre.fit_transform(docs)
        assert matrix.shape == (500, 2) and len(kept) == 500
        assert np.allclose(matrix.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(matrix.std(axis=0), 1.0, atol=1e-9)
        pre = Preprocessor(features=["A", "B"], normalization="minmax", sampling=0.5)
        matrix, _, _ = pre.fit_transform(docs)
        assert matrix.min(axis=0).tolist() == [0.0, 0.0]
        assert matrix.max(axis=0).tolist() == [1.0, 1.0]

    def test_invalid_fraction(self):
        with pytest.raises(AthenaError):
            Preprocessor(sampling=1.5)

    def test_transform_does_not_sample_by_default(self):
        docs = [{"A": float(i)} for i in range(100)]
        pre = Preprocessor(features=["A"], normalization=None, sampling=0.2)
        pre.fit(docs)
        matrix, _, _ = pre.transform(docs)
        assert matrix.shape[0] == 100


class TestMarking:
    def test_label_column_marking(self):
        pre = Preprocessor(features=["A"], normalization=None, marking="label")
        _, marks, _ = pre.transform(DOCS)
        assert marks.tolist() == [0.0, 0.0, 1.0]

    def test_query_marking(self):
        query = GenerateQuery("ip_src == 10.0.0.3")
        pre = Preprocessor(features=["A"], normalization=None, marking=query)
        _, marks, _ = pre.transform(DOCS)
        assert marks.tolist() == [0.0, 0.0, 1.0]

    def test_callable_marking(self):
        pre = Preprocessor(
            features=["A"], normalization=None,
            marking=lambda doc: doc["A"] >= 5.0,
        )
        _, marks, _ = pre.transform(DOCS)
        assert marks.tolist() == [0.0, 1.0, 1.0]

    def test_no_marking_yields_none(self):
        pre = Preprocessor(features=["A"], normalization=None)
        _, marks, _ = pre.transform(DOCS)
        assert marks is None


class TestOnlinePath:
    def test_transform_one(self):
        pre = Preprocessor(features=["A", "B"], normalization="minmax")
        pre.fit(DOCS)
        row = pre.transform_one({"A": 5.0, "B": 20.0})
        assert row.shape == (2,)
        assert row[0] == 0.5

    def test_generate_preprocessor_factory(self):
        pre = GeneratePreprocessor(
            normalization="minmax", weights={"A": 2.0}, marking="label",
            features=["A"],
        )
        assert isinstance(pre, Preprocessor)
        assert pre.weights == {"A": 2.0}

    def test_accepts_athena_feature_objects(self):
        from repro.core.feature_format import AthenaFeature, FeatureScope

        record = AthenaFeature(
            scope=FeatureScope.FLOW, switch_id=1, instance_id=0,
            timestamp=0.0, fields={"A": 3.0},
        )
        pre = Preprocessor(features=["A"], normalization=None)
        matrix, _, _ = pre.transform([record])
        assert matrix[0, 0] == 3.0


# ---------------------------------------------------------------------------
# Property: every entry point is the row-loop oracle pushed through the
# fitted scaler and the weights, byte for byte
# ---------------------------------------------------------------------------

_FIELDS = ["A", "B", "switch_id", "label"]
_value = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["x", ""]),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
_docs = st.lists(
    st.fixed_dictionaries({}, optional={name: _value for name in _FIELDS}),
    min_size=1, max_size=8,
)
# An index key, feature names, and a name no document carries.
_features = st.lists(
    st.sampled_from(["A", "B", "switch_id", "ABSENT"]), min_size=1, unique=True
)
_markings = st.sampled_from(
    [
        None,
        "label",
        "A",
        GenerateQuery("A > 0 && switch_id != 2"),
        GenerateQuery("label == 1 || B <= 1"),
        lambda doc: doc.get("label") == 1,
    ]
)


@settings(max_examples=150, deadline=None)
@given(
    train=_docs,
    docs=_docs,
    features=_features,
    normalization=st.sampled_from([None, "minmax", "standard"]),
    weights=st.dictionaries(st.sampled_from(["A", "B", "ABSENT"]), st.floats(0, 3)),
    marking=_markings,
)
def test_every_entry_point_is_the_oracle_scaled(
    train, docs, features, normalization, weights, marking
):
    pre = Preprocessor(
        features=features, normalization=normalization,
        weights=weights, marking=marking,
    )
    with np.errstate(all="ignore"):  # inf - inf, inf / inf: same NaN on every path
        pre.fit(train)
        expected = oracle_matrix(docs, features)
        if pre._scaler is not None:
            expected = pre._scaler.transform(expected)
        if weights:
            expected = expected * np.array([weights.get(f, 1.0) for f in features])
        expected_marks = (
            None if marking is None
            else np.array([float(pre.mark(doc) or 0) for doc in docs])
        )
        frame = FeatureFrame.from_documents(docs)
        outputs = [
            pre.transform(docs),
            pre.transform(frame),
            pre.transform_frame(FeatureFrame.from_documents(docs, columns=())),
        ]
        rows = [pre.transform_one(doc) for doc in docs]
    for matrix, marks, kept in outputs:
        assert matrix.tobytes() == expected.tobytes()
        if marking is None:
            assert marks is None
        else:
            assert marks.tobytes() == expected_marks.tobytes()
    assert outputs[0][2] == docs and outputs[1][2] is frame
    assert np.array(rows).tobytes() == expected.tobytes()
