"""K-Means clustering with k-means++ initialisation.

This is the algorithm the paper's flagship DDoS experiment runs (Figure 6:
``K(8), Iterations(20), Runs(5), InitializedMode(k-means||), Epsilon(1e-4)``).
Multiple runs with different seeds keep the best inertia, matching Spark
MLlib's ``runs`` parameter.  ``fit_distributed`` exposes the per-iteration
map/reduce decomposition the compute cluster executes; both paths reduce
:func:`partial_sums` partials with the one :func:`lloyd_update`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import MLError
from repro.ml.base import ClusteringModel, as_matrix


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (the single-machine analogue of k-means||)."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(0, n)]
    closest_sq = np.full(n, np.inf)
    for i in range(1, k):
        distances = np.sum((X - centers[i - 1]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, distances)
        total = closest_sq.sum()
        if total <= 0:
            centers[i:] = X[rng.integers(0, n, size=k - i)]
            break
        probabilities = closest_sq / total
        centers[i] = X[rng.choice(n, p=probabilities)]
    return centers


def assign_to_centers(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for each row."""
    # (n, k) squared distances without materialising (n, k, d).
    cross = X @ centers.T
    sq_norms = (centers ** 2).sum(axis=1)
    distances = sq_norms[None, :] - 2 * cross
    return np.argmin(distances, axis=1)


def partial_sums(
    X: np.ndarray, centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Map-side K-Means statistics: per-cluster sums, counts, inertia."""
    assignments = assign_to_centers(X, centers)
    k, d = centers.shape
    sums = np.empty((k, d))
    for j in range(d):  # bincount adds in row order, bit-equal to np.add.at
        sums[:, j] = np.bincount(assignments, weights=X[:, j], minlength=k)
    counts = np.bincount(assignments, minlength=k).astype(np.float64)
    inertia = float(np.sum((X - centers[assignments]) ** 2))
    return sums, counts, inertia


def lloyd_update(centers: np.ndarray, partials: list) -> Tuple[np.ndarray, float]:
    """New centers (an empty cluster keeps its own) and inertia from
    partials; a non-finite inertia (NaN or inf input) raises MLError."""
    sums = sum(p[0] for p in partials)
    counts = sum(p[1] for p in partials)
    new_centers = centers.copy()
    nonempty = counts > 0
    new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
    inertia = float(sum(p[2] for p in partials))
    if not np.isfinite(inertia):
        raise MLError(f"K-Means inertia {inertia}: input is not finite")
    return new_centers, inertia


def center_shift(old: np.ndarray, new: np.ndarray) -> float:
    """The largest distance any center moved in one Lloyd step."""
    return float(np.sqrt(((new - old) ** 2).sum(axis=1)).max())


def _kmeans_partial_sums(part, centers):
    """The distributed map task: per-partition K-Means statistics.

    Labelled partitions carry ``(rows, labels)`` tuples whose labels the
    unsupervised map ignores.
    """
    rows = part[0] if isinstance(part, tuple) else part
    return partial_sums(as_matrix(rows), centers)


class KMeans(ClusteringModel):
    """Lloyd's algorithm with k-means++ seeding and multi-run selection."""

    def __init__(
        self,
        k: int = 8,
        max_iterations: int = 20,
        runs: int = 1,
        epsilon: float = 1e-4,
        seed: int = 0,
        malicious_threshold: float = 0.5,
    ) -> None:
        super().__init__(malicious_threshold)
        if k < 1:
            raise MLError(f"k must be positive, got {k}")
        self.k = k
        self.max_iterations = max_iterations
        self.runs = runs
        self.epsilon = epsilon
        self.seed = seed
        self.centers: Optional[np.ndarray] = None
        self.inertia: Optional[float] = None
        self.iterations_run = 0

    def _single_run(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, float, int]:
        k = min(self.k, X.shape[0])
        centers = _kmeanspp_init(X, k, rng)
        inertia = np.inf
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            new_centers, inertia = lloyd_update(centers, [partial_sums(X, centers)])
            shift = center_shift(centers, new_centers)
            centers = new_centers
            if shift <= self.epsilon:
                break
        return centers, inertia, iterations

    def fit(self, X, y=None) -> "KMeans":
        X = as_matrix(X)
        if X.shape[0] == 0:
            raise MLError("cannot fit K-Means on an empty dataset")
        if not np.isfinite(X).all():
            raise MLError("K-Means input holds NaN or inf")
        best: Optional[Tuple[np.ndarray, float, int]] = None
        for run in range(max(1, self.runs)):
            rng = np.random.default_rng(self.seed + run)
            candidate = self._single_run(X, rng)
            if best is None or candidate[1] < best[1]:
                best = candidate
        self.centers, self.inertia, self.iterations_run = best
        return self

    def fit_distributed(self, compute_cluster, dataset) -> "KMeans":
        """Fit via per-partition map/reduce on a compute cluster.

        Each round maps :func:`_kmeans_partial_sums` over partitions; the
        driver merges sums/counts into new centers — the MLlib
        decomposition.  Results do not depend on the worker count, because
        initialisation happens on the driver and the reduce folds partials
        in partition order.  NaN or inf raises here in the init sample,
        elsewhere in :func:`lloyd_update`.
        """
        first = dataset.partition(0)
        sample = first[0] if isinstance(first, tuple) else first
        sample = as_matrix(sample)
        if not np.isfinite(sample).all():
            raise MLError("K-Means input holds NaN or inf")
        rng = np.random.default_rng(self.seed)
        k = min(self.k, sample.shape[0])
        initial = _kmeanspp_init(sample, k, rng)

        def reduce_fn(partials, centers):
            new_centers, self.inertia = lloyd_update(centers, partials)
            return new_centers

        report = compute_cluster.run_iterative(
            dataset,
            _kmeans_partial_sums,
            reduce_fn,
            initial_state=initial,
            rounds=self.max_iterations,
            converged=lambda old, new: center_shift(old, new) <= self.epsilon,
        )
        self.centers = report.result
        self.iterations_run = report.rounds
        self.last_job_report = report
        return self

    def assign(self, X) -> np.ndarray:
        self._require_fitted("centers")
        return assign_to_centers(as_matrix(X), self.centers)

    def n_clusters_fitted(self) -> int:
        self._require_fitted("centers")
        return self.centers.shape[0]

    def decision_scores(self, X) -> np.ndarray:
        """Distance to the nearest center (an anomaly score)."""
        self._require_fitted("centers")
        X = as_matrix(X)
        assignments = assign_to_centers(X, self.centers)
        return np.sqrt(np.sum((X - self.centers[assignments]) ** 2, axis=1))
