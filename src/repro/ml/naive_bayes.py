"""Gaussian naive Bayes classification.

Training reduces to per-class sufficient statistics (count, sum, sum of
squares per feature), so :meth:`GaussianNaiveBayes.fit_distributed` fits
the same model as a single map/reduce round over labelled partitions —
the second trainer (after K-Means) that fans out over the compute
cluster's execution backends.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MLError
from repro.ml.base import Estimator, as_matrix, as_vector

_MIN_VARIANCE = 1e-9


def _nb_partial_stats(part):
    """Distributed map task: per-class and global sufficient statistics.

    Module-level (picklable) so the process execution backend can ship it
    to pool workers.  Partitions must be labelled ``(rows, labels)``
    tuples.  Returns ``(per_class, total)`` where ``per_class`` maps each
    class to ``(count, sum_vector, sum_of_squares_vector)`` and ``total``
    carries the same triple over all rows (for the shared variance
    smoothing term).
    """
    if not isinstance(part, tuple):
        raise MLError("GaussianNaiveBayes needs labelled (rows, labels) partitions")
    X = as_matrix(part[0])
    y = as_vector(part[1], X.shape[0])
    per_class = {}
    for cls in np.unique(y):
        rows = X[y == cls]
        per_class[float(cls)] = (
            rows.shape[0],
            rows.sum(axis=0),
            np.square(rows).sum(axis=0),
        )
    total = (X.shape[0], X.sum(axis=0), np.square(X).sum(axis=0))
    return per_class, total


class GaussianNaiveBayes(Estimator):
    """Per-class independent Gaussians over each feature."""

    def __init__(self) -> None:
        self.classes: Optional[np.ndarray] = None
        self.priors: Optional[np.ndarray] = None
        self.means: Optional[np.ndarray] = None
        self.variances: Optional[np.ndarray] = None

    def fit(self, X, y=None) -> "GaussianNaiveBayes":
        if y is None:
            raise MLError("GaussianNaiveBayes requires labels")
        X = as_matrix(X)
        y = as_vector(y, X.shape[0])
        self.classes = np.unique(y)
        if len(self.classes) < 2:
            raise MLError("GaussianNaiveBayes needs at least two classes")
        n_classes, d = len(self.classes), X.shape[1]
        self.priors = np.empty(n_classes)
        self.means = np.empty((n_classes, d))
        self.variances = np.empty((n_classes, d))
        # Shared variance smoothing keeps near-constant columns usable.
        smoothing = 1e-9 * X.var(axis=0).max() if X.shape[0] > 1 else _MIN_VARIANCE
        for idx, cls in enumerate(self.classes):
            rows = X[y == cls]
            self.priors[idx] = len(rows) / len(X)
            self.means[idx] = rows.mean(axis=0)
            self.variances[idx] = rows.var(axis=0) + max(smoothing, _MIN_VARIANCE)
        return self

    def fit_distributed(
        self, compute_cluster, dataset, backend=None
    ) -> "GaussianNaiveBayes":
        """Fit from per-partition sufficient statistics on a compute cluster.

        One map round computes per-class ``(count, sum, sum_of_squares)``
        on each labelled partition; the driver-side reduce merges them and
        closes the moments into priors, means, and variances.  Results are
        bit-identical across execution backends (same partials, same merge
        order); against the in-memory :meth:`fit` they agree to floating
        rounding, since the variance is formed from moments instead of
        centred residuals.

        ``dataset`` is a :class:`~repro.compute.partition.PartitionedDataset`
        of labelled ``(rows, labels)`` partitions.
        """
        report = compute_cluster.run_map(
            dataset, _nb_partial_stats, backend=backend
        )
        merged = {}
        n_total = 0
        sum_total = None
        sq_total = None
        for per_class, (count, sums, squares) in report.result:
            n_total += count
            sum_total = sums if sum_total is None else sum_total + sums
            sq_total = squares if sq_total is None else sq_total + squares
            for cls, (c_count, c_sum, c_sq) in per_class.items():
                if cls in merged:
                    count0, sum0, sq0 = merged[cls]
                    merged[cls] = (count0 + c_count, sum0 + c_sum, sq0 + c_sq)
                else:
                    merged[cls] = (c_count, c_sum, c_sq)
        if len(merged) < 2:
            raise MLError("GaussianNaiveBayes needs at least two classes")
        self.classes = np.array(sorted(merged))
        n_classes, d = len(self.classes), len(sum_total)
        self.priors = np.empty(n_classes)
        self.means = np.empty((n_classes, d))
        self.variances = np.empty((n_classes, d))
        global_mean = sum_total / n_total
        global_var = np.maximum(sq_total / n_total - global_mean ** 2, 0.0)
        smoothing = 1e-9 * global_var.max() if n_total > 1 else _MIN_VARIANCE
        for idx, cls in enumerate(self.classes):
            count, sums, squares = merged[float(cls)]
            mean = sums / count
            self.priors[idx] = count / n_total
            self.means[idx] = mean
            self.variances[idx] = np.maximum(
                squares / count - mean ** 2, 0.0
            ) + max(smoothing, _MIN_VARIANCE)
        self.last_job_report = report
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        scores = np.empty((X.shape[0], len(self.classes)))
        for idx in range(len(self.classes)):
            var = self.variances[idx]
            diff = X - self.means[idx]
            scores[:, idx] = (
                np.log(self.priors[idx])
                - 0.5 * (np.log(2 * np.pi * var).sum() + ((diff ** 2) / var).sum(axis=1))
            )
        return scores

    def predict(self, X) -> np.ndarray:
        self._require_fitted("classes")
        X = as_matrix(X)
        return self.classes[np.argmax(self._joint_log_likelihood(X), axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted("classes")
        scores = self._joint_log_likelihood(as_matrix(X))
        scores -= scores.max(axis=1, keepdims=True)
        probabilities = np.exp(scores)
        return probabilities / probabilities.sum(axis=1, keepdims=True)

    def decision_scores(self, X) -> np.ndarray:
        """Probability of the highest class (1 when binary malicious)."""
        probabilities = self.predict_proba(X)
        if set(self.classes.tolist()) == {0.0, 1.0}:
            return probabilities[:, list(self.classes).index(1.0)]
        return probabilities.max(axis=1)
