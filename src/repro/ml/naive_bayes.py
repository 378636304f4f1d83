"""Gaussian naive Bayes classification.

Training is one fold over per-class ``[count, Σx, Σx²]`` moments
(:func:`nb_moments`, :func:`merge_moments`, :func:`close_moments`):
``fit`` folds one block, ``fit_distributed`` one block per partition and
:class:`~repro.ml.online.OnlineGaussianNB` one row per event, so the three
fit the same model and differ only in the order the sums are added.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import MLError
from repro.ml.base import Estimator, as_matrix, as_vector

_MIN_VARIANCE = 1e-9


def nb_moments(block) -> Dict[float, list]:
    """Per class ``[count, Σx, Σx²]`` of a labelled ``(rows, labels)`` block.

    This is also the distributed map task, one block per partition.
    """
    if not isinstance(block, tuple):
        raise MLError("GaussianNaiveBayes needs labelled (rows, labels) partitions")
    X = as_matrix(block[0])
    y = as_vector(block[1], X.shape[0])
    moments = {}
    for cls in np.unique(y):
        rows = X[y == cls]
        moments[float(cls)] = [len(rows), rows.sum(axis=0), np.square(rows).sum(axis=0)]
    return moments


def merge_moments(into: Dict[float, list], moments: Dict[float, list]) -> None:
    """Add ``moments`` into ``into`` in place; a new class is copied in."""
    for cls, (count, sums, squares) in moments.items():
        entry = into.get(cls)
        if entry is None:
            into[cls] = [count, sums.copy(), squares.copy()]
        else:
            entry[0] += count
            entry[1] += sums
            entry[2] += squares


def close_moments(moments: Dict[float, list]):
    """``(classes, priors, means, variances)`` of merged class moments.

    Classes are sorted.  The global moments, summed over the class
    entries, set a shared variance smoothing that keeps near-constant
    columns usable.
    """
    entries = moments.values()
    total = sum(entry[0] for entry in entries)
    g_mean = sum(entry[1] for entry in entries) / total
    g_var = np.maximum(sum(entry[2] for entry in entries) / total - g_mean ** 2, 0.0)
    smoothing = max(1e-9 * float(g_var.max()) if total > 1 else _MIN_VARIANCE,
                    _MIN_VARIANCE)
    classes = sorted(moments)
    counts, sums, squares = map(np.array, zip(*(moments[c] for c in classes)))
    means = sums / counts[:, None]
    variances = np.maximum(squares / counts[:, None] - means ** 2, 0.0) + smoothing
    return classes, counts / total, means, variances


def log_joint(X: np.ndarray, priors, means, variances) -> np.ndarray:
    """Per-class log prior plus Gaussian log-likelihood.

    ``X`` is one event of shape ``(d,)``, giving ``(n_classes,)``, or rows
    lifted to ``(n, 1, d)``, giving ``(n, n_classes)``.
    """
    diff = X - means
    squared = (diff * diff / variances).sum(axis=-1)
    return np.log(priors) - 0.5 * (np.log(2 * np.pi * variances).sum(axis=1) + squared)


class GaussianNaiveBayes(Estimator):
    """Per-class independent Gaussians over each feature."""

    def __init__(self) -> None:
        self.classes: Optional[np.ndarray] = None
        self.priors: Optional[np.ndarray] = None
        self.means: Optional[np.ndarray] = None
        self.variances: Optional[np.ndarray] = None

    def _close(self, moments: Dict[float, list]) -> "GaussianNaiveBayes":
        if len(moments) < 2:
            raise MLError("GaussianNaiveBayes needs at least two classes")
        classes, self.priors, self.means, self.variances = close_moments(moments)
        self.classes = np.array(classes)
        return self

    def fit(self, X, y=None) -> "GaussianNaiveBayes":
        if y is None:
            raise MLError("GaussianNaiveBayes requires labels")
        return self._close(nb_moments((X, y)))

    def fit_distributed(self, compute_cluster, dataset) -> "GaussianNaiveBayes":
        """One :func:`nb_moments` map task per labelled ``(rows, labels)``
        partition of ``dataset``, merged on the driver in partition order,
        so the model does not depend on the worker count."""
        report = compute_cluster.run_map(dataset, nb_moments)
        moments: Dict[float, list] = {}
        for partial in report.result:
            merge_moments(moments, partial)
        self._close(moments)
        self.last_job_report = report
        return self

    def _joint(self, X) -> np.ndarray:
        self._require_fitted("classes")
        X = as_matrix(X)[:, None, :]
        return log_joint(X, self.priors, self.means, self.variances)

    def predict(self, X) -> np.ndarray:
        return self.classes[np.argmax(self._joint(X), axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        scores = self._joint(X)
        scores -= scores.max(axis=1, keepdims=True)
        probabilities = np.exp(scores)
        return probabilities / probabilities.sum(axis=1, keepdims=True)

    def decision_scores(self, X) -> np.ndarray:
        """Probability of the highest class (1 when binary malicious)."""
        probabilities = self.predict_proba(X)
        if set(self.classes.tolist()) == {0.0, 1.0}:
            return probabilities[:, list(self.classes).index(1.0)]
        return probabilities.max(axis=1)