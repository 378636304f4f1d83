"""Tests for the ML library: metrics, preprocessing, and all algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MLError
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GaussianMixture,
    GaussianNaiveBayes,
    GradientBoostedTrees,
    KMeans,
    LassoRegression,
    LinearRegression,
    LinearSVM,
    LogisticRegression,
    MinMaxNormalizer,
    RandomForestClassifier,
    Sampler,
    SelfOrganizingMap,
    StandardScaler,
    ThresholdDetector,
    Weighter,
    accuracy,
    confusion_counts,
    create_algorithm,
    detection_rate,
    f1_score,
    false_alarm_rate,
    list_algorithms,
)
from repro.ml.metrics import mean_squared_error, r2_score
from repro.ml.registry import category_of


def _blobs(seed=0, n0=150, n1=100, d=4, sep=3.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n0, d)), rng.normal(sep, 1, (n1, d))])
    y = np.r_[np.zeros(n0), np.ones(n1)]
    order = rng.permutation(len(y))
    return X[order], y[order]


class TestMetrics:
    def test_confusion(self):
        c = confusion_counts([1, 1, 0, 0], [1, 0, 1, 0])
        assert c == {"tp": 1, "fn": 1, "fp": 1, "tn": 1}

    def test_detection_rate_matches_paper_definition(self):
        # DR = TP / (TP + FN)
        assert detection_rate([1, 1, 1, 0], [1, 1, 0, 0]) == pytest.approx(2 / 3)

    def test_false_alarm_rate(self):
        # FAR = FP / (FP + TN)
        assert false_alarm_rate([0, 0, 0, 1], [1, 0, 0, 1]) == pytest.approx(1 / 3)

    def test_perfect_scores(self):
        y = [0, 1, 0, 1]
        assert accuracy(y, y) == 1.0
        assert f1_score(y, y) == 1.0
        assert false_alarm_rate(y, y) == 0.0

    def test_empty_denominators(self):
        assert detection_rate([0, 0], [0, 0]) == 0.0
        assert false_alarm_rate([1, 1], [1, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(MLError):
            confusion_counts([1], [1, 0])

    def test_regression_metrics(self):
        assert mean_squared_error([1, 2], [1, 2]) == 0.0
        assert r2_score([1, 2, 3], [1, 2, 3]) == 1.0
        assert r2_score([1, 2, 3], [2, 2, 2]) == 0.0


class TestPreprocessing:
    def test_minmax_range(self):
        X = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        scaled = MinMaxNormalizer().fit_transform(X)
        assert scaled.min() == 0.0
        assert scaled.max() == 1.0

    def test_minmax_constant_column_safe(self):
        X = np.array([[1.0, 5.0], [1.0, 6.0]])
        scaled = MinMaxNormalizer().fit_transform(X)
        assert not np.isnan(scaled).any()

    def test_minmax_test_split_uses_train_params(self):
        scaler = MinMaxNormalizer().fit(np.array([[0.0], [10.0]]))
        assert scaler.transform(np.array([[20.0]]))[0, 0] == 2.0

    def test_standard_scaler(self):
        X = np.random.default_rng(0).normal(5, 3, (200, 2))
        scaled = StandardScaler().fit_transform(X)
        assert abs(scaled.mean()) < 1e-9
        assert abs(scaled.std() - 1.0) < 0.05

    def test_scaler_column_mismatch(self):
        scaler = StandardScaler().fit(np.zeros((3, 2)))
        with pytest.raises(MLError):
            scaler.transform(np.zeros((3, 5)))

    def test_weighter(self):
        X = np.ones((2, 3))
        weighted = Weighter([1.0, 2.0, 0.0]).transform(X)
        assert (weighted == [[1.0, 2.0, 0.0]] * 2).all()

    def test_weighter_rejects_negative(self):
        with pytest.raises(MLError):
            Weighter([-1.0])

    def test_sampler_fraction(self):
        X = np.arange(100).reshape(100, 1)
        sampled = Sampler(0.25, seed=1).transform(X)
        assert sampled.shape == (25, 1)

    def test_sampler_with_labels_aligned(self):
        X = np.arange(50).reshape(50, 1)
        y = np.arange(50)
        Xs, ys = Sampler(0.5, seed=2).transform(X, y)
        assert (Xs.ravel() == ys).all()

    def test_sampler_invalid_fraction(self):
        with pytest.raises(MLError):
            Sampler(0.0)


class TestClassifiers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LogisticRegression(),
            lambda: GaussianNaiveBayes(),
            lambda: LinearSVM(),
            lambda: DecisionTreeClassifier(max_depth=6),
            lambda: RandomForestClassifier(n_trees=10, max_depth=5),
            lambda: GradientBoostedTrees(n_estimators=15),
        ],
    )
    def test_separable_blobs_high_accuracy(self, factory):
        X, y = _blobs()
        model = factory().fit(X[:180], y[:180])
        assert accuracy(y[180:], model.predict(X[180:])) > 0.9

    def test_logistic_probabilities_bounded(self):
        X, y = _blobs()
        model = LogisticRegression().fit(X, y)
        probs = model.predict_proba(X)
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_labels_required(self):
        with pytest.raises(MLError):
            LogisticRegression().fit(np.zeros((3, 2)))

    def test_non_binary_labels_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(MLError):
            LogisticRegression().fit(X, [0, 1, 2, 1])
        with pytest.raises(MLError):
            LinearSVM().fit(X, [0, 2, 0, 2])

    def test_unfitted_predict_raises(self):
        with pytest.raises(MLError):
            LogisticRegression().predict(np.zeros((1, 2)))

    def test_decision_tree_respects_max_depth(self):
        X, y = _blobs(n0=400, n1=400, sep=1.0)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.depth() <= 3

    def test_naive_bayes_proba_sums_to_one(self):
        X, y = _blobs()
        model = GaussianNaiveBayes().fit(X, y)
        probs = model.predict_proba(X[:10])
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_forest_beats_stump_on_xor(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (600, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
        stump = DecisionTreeClassifier(max_depth=1).fit(X[:400], y[:400])
        forest = RandomForestClassifier(n_trees=25, max_depth=6, seed=1).fit(
            X[:400], y[:400]
        )
        assert accuracy(y[400:], forest.predict(X[400:])) > accuracy(
            y[400:], stump.predict(X[400:])
        )


class TestRegressors:
    def test_linear_recovers_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = X @ [2.0, -1.0, 0.5] + 3.0
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coefficients, [2.0, -1.0, 0.5], atol=1e-6)
        assert model.intercept == pytest.approx(3.0, abs=1e-6)

    def test_ridge_shrinks_toward_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        y = X @ [5.0, 5.0]
        ols = LinearRegression().fit(X, y)
        ridge = RidgeRegression(alpha=100.0).fit(X, y)
        assert np.abs(ridge.coefficients).sum() < np.abs(ols.coefficients).sum()

    def test_lasso_produces_sparsity(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 6))
        y = X @ [4.0, 0.0, 0.0, -3.0, 0.0, 0.0] + rng.normal(0, 0.01, 300)
        model = LassoRegression(alpha=0.1).fit(X, y)
        assert abs(model.coefficients[0]) > 1.0
        assert abs(model.coefficients[1]) < 0.2
        assert abs(model.coefficients[3]) > 1.0

    def test_lasso_alpha_zero_matches_ols(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 2))
        y = X @ [1.5, -2.0] + 1.0
        lasso = LassoRegression(alpha=0.0, max_iterations=5000).fit(X, y)
        ols = LinearRegression().fit(X, y)
        assert np.allclose(lasso.coefficients, ols.coefficients, atol=1e-3)

    def test_targets_required(self):
        for cls in (LinearRegression, RidgeRegression, LassoRegression):
            with pytest.raises(MLError):
                cls().fit(np.zeros((3, 1)))


from repro.ml import RidgeRegression  # noqa: E402  (used above)


class TestClustering:
    def test_kmeans_finds_blobs(self):
        X, y = _blobs(sep=6.0)
        km = KMeans(k=2, seed=0).fit(X)
        assignments = km.assign(X)
        # Clusters align with the true labels up to permutation.
        agreement = max(
            (assignments == y).mean(), (assignments == 1 - y).mean()
        )
        assert agreement > 0.98

    def test_kmeans_marked_labelling(self):
        X, y = _blobs(sep=6.0)
        km = KMeans(k=2, seed=0).fit(X)
        labels = km.label_clusters(X, y)
        assert sorted(labels.values()) == [False, True]
        assert accuracy(y, km.predict(X)) > 0.98

    def test_kmeans_multi_run_keeps_best_inertia(self):
        X, _ = _blobs(sep=6.0)
        single = KMeans(k=4, runs=1, seed=9).fit(X)
        multi = KMeans(k=4, runs=6, seed=9).fit(X)
        assert multi.inertia <= single.inertia + 1e-9

    def test_kmeans_k_capped_at_rows(self):
        X = np.zeros((3, 2))
        km = KMeans(k=10).fit(X)
        assert km.n_clusters_fitted() == 3

    def test_kmeans_predict_before_labelling_raises(self):
        X, _ = _blobs()
        km = KMeans(k=2).fit(X)
        with pytest.raises(MLError):
            km.predict(X)

    def test_kmeans_distributed_matches_local_shape(self):
        from repro.compute import ComputeCluster, PartitionedDataset

        X, y = _blobs(sep=6.0, n0=400, n1=300)
        ds = PartitionedDataset.from_matrix(X, 4)
        km = KMeans(k=2, seed=0).fit_distributed(ComputeCluster(2), ds)
        km.label_clusters(X, y)
        assert accuracy(y, km.predict(X)) > 0.95

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kmeans_non_finite_input_is_typed(self, bad):
        X, _ = _blobs()
        X[7, 1] = bad
        with pytest.raises(MLError, match="NaN or inf"):
            KMeans(k=2, runs=2).fit(X)

    @pytest.mark.parametrize("row, message", [(0, "NaN or inf"), (-1, "not finite")])
    def test_kmeans_distributed_non_finite_input_is_typed(self, row, message):
        """Row 0 sits in the initialisation sample, checked up front; the
        last partition's NaN shows as a non-finite inertia in the reduce."""
        from repro.compute import ComputeCluster, PartitionedDataset

        X, _ = _blobs(n0=400, n1=300)
        X[row, 0] = np.nan
        ds = PartitionedDataset.from_matrix(X, 4)
        with pytest.raises(MLError, match=message):
            KMeans(k=2, seed=0).fit_distributed(ComputeCluster(2), ds)

    def test_gmm_separates_blobs(self):
        X, y = _blobs(sep=5.0)
        gmm = GaussianMixture(k=2, seed=1).fit(X)
        gmm.label_clusters(X, y)
        assert accuracy(y, gmm.predict(X)) > 0.95

    def test_gmm_weights_normalised(self):
        X, _ = _blobs()
        gmm = GaussianMixture(k=3, seed=0).fit(X)
        assert gmm.weights.sum() == pytest.approx(1.0)

    def test_som_labels_and_predicts(self):
        X, y = _blobs(sep=5.0)
        som = SelfOrganizingMap(rows=2, cols=2, epochs=5, seed=0).fit(X)
        som.label_clusters(X, y)
        assert accuracy(y, som.predict(X)) > 0.9

    def test_som_quantization_error_decreases_with_units(self):
        X, _ = _blobs(sep=5.0)
        small = SelfOrganizingMap(rows=1, cols=2, epochs=5, seed=0).fit(X)
        large = SelfOrganizingMap(rows=4, cols=4, epochs=5, seed=0).fit(X)
        assert large.quantization_error(X) < small.quantization_error(X)

    def test_cluster_composition_counts(self):
        X, y = _blobs(sep=6.0)
        km = KMeans(k=2, seed=0).fit(X)
        km.label_clusters(X, y)
        composition = km.cluster_composition(X, y)
        total = sum(c["benign"] + c["malicious"] for c in composition.values())
        assert total == len(y)


class TestThreshold:
    def test_fixed_threshold(self):
        detector = ThresholdDetector(column=0, threshold=5.0, op=">")
        X = np.array([[1.0], [6.0], [5.0]])
        assert detector.predict(X).tolist() == [0.0, 1.0, 0.0]

    def test_all_operators(self):
        X = np.array([[5.0]])
        for op, expected in [(">", 0.0), (">=", 1.0), ("<", 0.0), ("<=", 1.0),
                             ("==", 1.0), ("!=", 0.0)]:
            det = ThresholdDetector(column=0, threshold=5.0, op=op)
            assert det.predict(X)[0] == expected

    def test_calibration_from_benign(self):
        rng = np.random.default_rng(0)
        X = rng.normal(10, 1, (500, 1))
        y = np.zeros(500)
        X[::50] += 100
        y[::50] = 1
        detector = ThresholdDetector(column=0).fit(X, y)
        assert 10 < detector.threshold < 20
        assert detection_rate(y, detector.predict(X)) == 1.0

    def test_unknown_op_rejected(self):
        with pytest.raises(MLError):
            ThresholdDetector(op="~=")

    def test_column_out_of_range(self):
        detector = ThresholdDetector(column=5, threshold=1.0)
        with pytest.raises(MLError):
            detector.predict(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "X, y, column",
        [
            (np.zeros((0, 2)), None, 0),  # empty: np.quantile's IndexError
            (np.zeros((4, 2)), None, 2),  # no such column: an IndexError
            (np.array([[1.0], [np.nan], [2.0]]), None, 0),  # a NaN bound
            (np.array([[1.0], [np.inf], [2.0]]), None, 0),
            (np.array([[1.0], [-np.inf], [2.0]]), [0, 0, 0], 0),
            (np.array([[1.0], [np.nan], [2.0]]), [1, 0, 1], 0),  # benign NaN
        ],
        ids=["empty", "column", "nan", "inf", "neg-inf", "benign-nan"],
    )
    def test_hostile_calibration_is_a_typed_error(self, X, y, column):
        with pytest.raises(MLError):
            ThresholdDetector(column=column).fit(X, y)

    def test_non_finite_malicious_rows_do_not_block_calibration(self):
        X = np.array([[1.0], [2.0], [np.nan], [3.0]])
        detector = ThresholdDetector(column=0).fit(X, [0, 0, 1, 0])
        assert np.isfinite(detector.threshold)


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        names = list_algorithms()
        for required in [
            "gradient_boosted_tree", "decision_tree", "logistic_regression",
            "naive_bayes", "random_forest", "svm", "gaussian_mixture",
            "kmeans", "lasso", "linear", "ridge", "threshold",
        ]:
            assert required in names

    def test_categories_match_table4(self):
        assert category_of("kmeans") == "clustering"
        assert category_of("gradient_boosted_tree") == "boosting"
        assert category_of("svm") == "classification"
        assert category_of("ridge") == "regression"
        assert category_of("threshold") == "simple"

    def test_create_with_params(self):
        km = create_algorithm("kmeans", k=3, runs=2)
        assert km.k == 3 and km.runs == 2

    def test_name_normalisation(self):
        assert isinstance(create_algorithm("K-Means"), KMeans)

    def test_unknown_algorithm(self):
        with pytest.raises(MLError):
            create_algorithm("deep_magic")

    def test_bad_params(self):
        with pytest.raises(MLError):
            create_algorithm("kmeans", bogus_param=1)

    def test_category_filter(self):
        clustering = list_algorithms("clustering")
        assert "kmeans" in clustering and "svm" not in clustering


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=99))
    def test_kmeans_assignment_is_nearest_center(self, k, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        km = KMeans(k=k, seed=seed).fit(X)
        assignments = km.assign(X)
        distances = ((X[:, None, :] - km.centers[None, :, :]) ** 2).sum(axis=2)
        assert (assignments == distances.argmin(axis=1)).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=99))
    def test_minmax_idempotent_on_unit_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(30, 4))
        once = MinMaxNormalizer().fit_transform(X)
        twice = MinMaxNormalizer().fit_transform(once)
        assert np.allclose(once.min(axis=0), twice.min(axis=0))
        assert ((twice >= 0) & (twice <= 1)).all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=99))
    def test_confusion_counts_partition_total(self, seed):
        rng = np.random.default_rng(seed)
        y_true = rng.integers(0, 2, 50)
        y_pred = rng.integers(0, 2, 50)
        c = confusion_counts(y_true, y_pred)
        assert sum(c.values()) == 50
