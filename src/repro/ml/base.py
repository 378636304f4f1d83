"""Estimator and model interfaces.

Every algorithm is an :class:`Estimator` whose ``fit`` returns ``self`` (the
fitted object doubles as the :class:`Model`), mirroring the familiar
fit/predict contract.  Clustering estimators additionally support cluster
labelling from *marked* (labelled-malicious) training entries, which is how
Athena turns unsupervised clusters into an anomaly verdict (the paper's
``Marking`` preprocessor).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import MLError


def as_matrix(X) -> np.ndarray:
    """Coerce input (an array or nested sequences) to a 2-D float matrix,
    validating shape."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise MLError(f"expected 2-D feature matrix, got shape {X.shape}")
    return X


def as_vector(y, n_rows: Optional[int] = None) -> np.ndarray:
    """Coerce labels/targets to a 1-D float vector of matching length."""
    y = np.asarray(y, dtype=float).ravel()
    if n_rows is not None and len(y) != n_rows:
        raise MLError(f"label length {len(y)} != row count {n_rows}")
    return y


class Model:
    """A fitted model; subclasses implement :meth:`predict`."""

    def predict(self, X) -> np.ndarray:
        raise NotImplementedError

    def decision_scores(self, X) -> np.ndarray:
        """Continuous scores where available; defaults to predictions."""
        return self.predict(X).astype(float)


class Estimator(Model):
    """An unfitted algorithm; ``fit`` returns the fitted self."""

    def fit(self, X, y=None) -> "Estimator":
        raise NotImplementedError

    def _require_fitted(self, attribute: str) -> None:
        if getattr(self, attribute, None) is None:
            raise MLError(f"{type(self).__name__} is not fitted")


class ClusteringModel(Estimator):
    """Base for clustering algorithms with malicious-cluster labelling.

    After fitting, :meth:`label_clusters` uses marked training labels to
    decide, per cluster, whether membership implies *malicious* — a cluster
    is malicious when the marked fraction among its members exceeds
    ``malicious_threshold``.  :meth:`predict` then returns 0/1 anomaly
    verdicts, while :meth:`assign` returns raw cluster ids.
    """

    def __init__(self, malicious_threshold: float = 0.5) -> None:
        self.malicious_threshold = malicious_threshold
        self.cluster_is_malicious: Optional[Dict[int, bool]] = None

    def assign(self, X) -> np.ndarray:
        """Raw cluster ids for each row."""
        raise NotImplementedError

    def n_clusters_fitted(self) -> int:
        raise NotImplementedError

    def label_clusters(self, X, marks) -> Dict[int, bool]:
        """Decide which clusters are malicious from marked entries."""
        marks = as_vector(marks, len(as_matrix(X)))
        assignments = self.assign(X)
        labels: Dict[int, bool] = {}
        for cluster_id in range(self.n_clusters_fitted()):
            members = marks[assignments == cluster_id]
            if len(members) == 0:
                labels[cluster_id] = False
            else:
                labels[cluster_id] = float(members.mean()) >= self.malicious_threshold
        self.cluster_is_malicious = labels
        return labels

    def predict(self, X) -> np.ndarray:
        if self.cluster_is_malicious is None:
            raise MLError(
                f"{type(self).__name__}: call label_clusters before predict"
            )
        assignments = self.assign(X)
        verdicts = np.zeros(len(assignments))
        for cluster_id, is_malicious in self.cluster_is_malicious.items():
            if is_malicious:
                verdicts[assignments == cluster_id] = 1.0
        return verdicts

    def cluster_composition(self, X, marks) -> Dict[int, Dict[str, int]]:
        """Benign/malicious member counts per cluster (the Fig 6 report)."""
        marks = as_vector(marks, len(as_matrix(X)))
        assignments = self.assign(X)
        composition: Dict[int, Dict[str, int]] = {}
        for cluster_id in range(self.n_clusters_fitted()):
            members = marks[assignments == cluster_id]
            composition[cluster_id] = {
                "benign": int((members == 0).sum()),
                "malicious": int((members == 1).sum()),
            }
        return composition
