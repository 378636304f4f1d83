"""Online (streaming) learners — the per-event detection layer.

Batch estimators retrain from scratch; these learners fold one event at a
time through a common protocol so the streaming pipeline
(:mod:`repro.streaming`) can score every PacketIn / FlowRemoved / stats
event with bounded latency:

* :meth:`OnlineLearner.partial_fit` — absorb one observation, O(d) work;
* :meth:`OnlineLearner.score_event` — anomaly score for one vector,
  higher = more anomalous, pure (no state change), so a caller may score
  only the events it alerts on;
* :meth:`OnlineLearner.predict_event` — boolean verdict from the score
  (it may update verdict calibration, e.g. a running score baseline);
* :meth:`OnlineLearner.refresh` — periodic *off-path* maintenance
  (window swaps, cached-moment closes); never required for correctness
  of the hot path.

Every learner is also a normal :class:`~repro.ml.base.Estimator`, so the
batch ``fit``/``predict`` contract (and the algorithm registry) keeps
working: ``fit`` replays rows through ``partial_fit``, ``predict`` maps
``predict_event`` over rows.  All randomness is seeded at construction;
two identically-constructed learners fed the same events produce
identical scores — the streaming determinism contract rides on this.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.errors import MLError
from repro.ml.base import Estimator, as_matrix, as_vector
from repro.ml.naive_bayes import close_moments, log_joint, merge_moments

_MIN_VARIANCE = 1e-9


class OnlineLearner(Estimator):
    """Common protocol for per-event incremental detection."""

    def partial_fit(self, x, y=None) -> "OnlineLearner":
        """Absorb one observation (a 1-D vector, optional label)."""
        raise NotImplementedError

    def score_event(self, x) -> float:
        """Anomaly score of one vector; higher = more anomalous.  Pure."""
        raise NotImplementedError

    def predict_event(self, x) -> bool:
        """Boolean anomaly verdict for one vector."""
        raise NotImplementedError

    def refresh(self) -> None:
        """Off-path periodic maintenance; default is a no-op."""

    # -- batch bridge (Estimator contract) ----------------------------------

    def fit(self, X, y=None) -> "OnlineLearner":
        X = as_matrix(X)
        labels = as_vector(y, X.shape[0]) if y is not None else None
        for i in range(X.shape[0]):
            self.partial_fit(X[i], labels[i] if labels is not None else None)
        self.refresh()
        return self

    def predict(self, X) -> np.ndarray:
        X = as_matrix(X)
        return np.array([float(self.predict_event(X[i])) for i in range(X.shape[0])])

    def decision_scores(self, X) -> np.ndarray:
        X = as_matrix(X)
        return np.array([self.score_event(X[i]) for i in range(X.shape[0])])


class Welford:
    """Numerically stable running mean/variance of a scalar stream."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def push(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / self.count)


class OnlineGaussianNB(OnlineLearner):
    """Incremental Gaussian naive Bayes from running sufficient statistics.

    Each event is a one-row block of the per-class ``[count, Σx, Σx²]``
    fold of :mod:`repro.ml.naive_bayes`.  With two or more observed
    classes the score is the posterior probability of class 1
    (malicious); with a single (benign) class the learner degrades to a
    density model and flags events whose log-likelihood sits more than
    ``n_sigma`` running standard deviations below the running mean.
    """

    def __init__(self, n_sigma: float = 3.0, decision_threshold: float = 0.5) -> None:
        self.n_sigma = n_sigma
        self.decision_threshold = decision_threshold
        #: class label -> [count, sum vector, sum-of-squares vector]
        self._stats: Dict[float, list] = {}
        self._closed: Optional[dict] = None
        self._loglik = Welford()
        self.events_absorbed = 0

    def partial_fit(self, x, y=None) -> "OnlineGaussianNB":
        x = np.asarray(x, dtype=float).ravel()
        label = float(y) if y is not None else 0.0
        merge_moments(self._stats, {label: [1, x, np.square(x)]})
        self._closed = None
        self.events_absorbed += 1
        if len(self._stats) == 1:
            # Density-mode calibration: track the running distribution of
            # in-stream log-likelihoods here so score_event stays pure.
            closed = self._close()
            self._loglik.push(float(log_joint(
                x, closed["priors"], closed["means"], closed["variances"]
            )[0]))
        return self

    def _close(self) -> dict:
        """Close the running moments into priors/means/variances (cached)."""
        if self._closed is None:
            if not self._stats:
                raise MLError("OnlineGaussianNB has absorbed no events")
            classes, priors, means, variances = close_moments(self._stats)
            self._closed = {"classes": classes, "priors": priors,
                            "means": means, "variances": variances}
        return self._closed

    def score_event(self, x) -> float:
        x = np.asarray(x, dtype=float).ravel()
        closed = self._close()
        scores = log_joint(x, closed["priors"], closed["means"], closed["variances"])
        classes = closed["classes"]
        if len(classes) >= 2 and 1.0 in classes:
            shifted = scores - scores.max()
            probabilities = np.exp(shifted)
            probabilities /= probabilities.sum()
            return float(probabilities[classes.index(1.0)])
        # Single-class density mode: z-score of the (benign) log-likelihood
        # against the running baseline maintained by partial_fit.
        loglik = float(scores[0])
        std = self._loglik.std()
        if std <= 0.0:
            return 0.0
        zscore = max(0.0, (self._loglik.mean - loglik) / std)
        return zscore / max(self.n_sigma, _MIN_VARIANCE)

    def predict_event(self, x) -> bool:
        classes = self._close()["classes"] if self._stats else []
        threshold = self.decision_threshold if (
            len(classes) >= 2 and 1.0 in classes
        ) else 1.0
        return self.score_event(x) > threshold

    # The batch bridge must not double-absorb rows at predict time, so
    # Estimator.predict stays as-is; fit requires labels to be meaningful
    # but tolerates their absence (benign-density mode).


class StreamingKMeans(OnlineLearner):
    """Mini-batch K-Means with per-center learning-rate decay.

    Centers seed from the first ``k`` distinct events; each subsequent
    event moves its nearest center by ``1 / min(center_count, decay_cap)``
    of the residual (the MacQueen update with a floor on the learning
    rate so centers keep tracking drift).  The anomaly score is the
    distance to the nearest center; the verdict compares it against the
    running mean + ``n_sigma`` · std of scored distances.
    """

    def __init__(
        self,
        k: int = 8,
        seed: int = 0,
        n_sigma: float = 3.0,
        decay_cap: int = 1000,
    ) -> None:
        if k < 1:
            raise MLError(f"k must be positive, got {k}")
        self.k = k
        self.seed = seed
        self.n_sigma = n_sigma
        self.decay_cap = decay_cap
        self.centers: List[np.ndarray] = []
        self.counts: List[int] = []
        self._distance = Welford()
        self.events_absorbed = 0

    def _nearest(self, x: np.ndarray):
        best, best_sq = 0, math.inf
        for index, center in enumerate(self.centers):
            diff = x - center
            sq = float(diff @ diff)
            if sq < best_sq:
                best, best_sq = index, sq
        return best, best_sq

    def partial_fit(self, x, y=None) -> "StreamingKMeans":
        x = np.asarray(x, dtype=float).ravel()
        self.events_absorbed += 1
        if len(self.centers) < self.k:
            # Seed from distinct observations only, so duplicate warmup
            # events cannot collapse several centers onto one point.
            if not any(np.array_equal(x, c) for c in self.centers):
                self.centers.append(x.copy())
                self.counts.append(1)
                return self
        if not self.centers:
            return self
        index, _ = self._nearest(x)
        self.counts[index] += 1
        rate = 1.0 / min(self.counts[index], self.decay_cap)
        self.centers[index] = self.centers[index] + rate * (x - self.centers[index])
        return self

    def score_event(self, x) -> float:
        if not self.centers:
            return 0.0
        x = np.asarray(x, dtype=float).ravel()
        _, best_sq = self._nearest(x)
        return math.sqrt(best_sq)

    def predict_event(self, x) -> bool:
        score = self.score_event(x)
        mean, std = self._distance.mean, self._distance.std()
        self._distance.push(score)
        if self._distance.count < max(self.k + 2, 10) or std <= 0.0:
            return False
        return score > mean + self.n_sigma * std


class HalfSpaceTrees(OnlineLearner):
    """A Half-Space-Trees-style streaming isolation ensemble.

    Each tree is a full binary tree over a randomly perturbed workspace of
    the (running min/max normalised) feature space; internal nodes split a
    random dimension at the midpoint of their region.  Every event
    increments the *latest* mass of the leaf it lands in; scoring sums the
    *reference* mass of the leaf weighted by ``2^depth`` across trees, so
    events in sparsely populated regions score low mass = high anomaly.
    :meth:`refresh` (the off-path window swap) promotes latest mass to
    reference and zeroes the window — exactly the original algorithm's
    model update, kept off the per-event hot path.
    """

    def __init__(
        self,
        n_trees: int = 15,
        depth: int = 6,
        window_size: int = 250,
        seed: int = 0,
        anomaly_ratio: float = 0.1,
    ) -> None:
        if n_trees < 1 or depth < 1:
            raise MLError("HalfSpaceTrees needs n_trees >= 1 and depth >= 1")
        self.n_trees = n_trees
        self.depth = depth
        self.window_size = window_size
        self.seed = seed
        self.anomaly_ratio = anomaly_ratio
        self._rng = np.random.default_rng(seed)
        self._dims: Optional[int] = None
        self._split_dims: List[np.ndarray] = []      # per tree, per node
        self._workspace: List[np.ndarray] = []       # per tree: (d, 2) bounds
        self._reference: List[np.ndarray] = []       # per tree leaf mass
        self._latest: List[np.ndarray] = []
        self._lo: Optional[np.ndarray] = None        # running feature mins
        self._hi: Optional[np.ndarray] = None
        self._score_mean = Welford()
        self._window_fill = 0
        self.windows_closed = 0
        self.events_absorbed = 0

    def _build(self, d: int) -> None:
        self._dims = d
        n_internal = (1 << self.depth) - 1
        n_leaves = 1 << self.depth
        for _ in range(self.n_trees):
            # Classic HS-tree workspace: per-dimension random pivot s with
            # bounds s ± 2·max(s, 1-s), covering [0,1] wherever s lands.
            pivots = self._rng.uniform(0.0, 1.0, size=d)
            span = 2.0 * np.maximum(pivots, 1.0 - pivots)
            workspace = np.stack([pivots - span, pivots + span], axis=1)
            self._workspace.append(workspace)
            self._split_dims.append(
                self._rng.integers(0, d, size=n_internal)
            )
            self._reference.append(np.zeros(n_leaves))
            self._latest.append(np.zeros(n_leaves))

    @staticmethod
    def _normalise(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        span = hi - lo
        safe = np.where(span > 0.0, span, 1.0)
        return (x - lo) / safe

    def _leaf(self, tree: int, z: np.ndarray) -> int:
        lo = self._workspace[tree][:, 0].copy()
        hi = self._workspace[tree][:, 1].copy()
        dims = self._split_dims[tree]
        node = 0
        for _ in range(self.depth):
            dim = dims[node]
            mid = 0.5 * (lo[dim] + hi[dim])
            if z[dim] < mid:
                hi[dim] = mid
                node = 2 * node + 1
            else:
                lo[dim] = mid
                node = 2 * node + 2
        return node - ((1 << self.depth) - 1)

    def partial_fit(self, x, y=None) -> "HalfSpaceTrees":
        x = np.asarray(x, dtype=float).ravel()
        if self._dims is None:
            self._build(len(x))
            self._lo = x.copy()
            self._hi = x.copy()
        else:
            np.minimum(self._lo, x, out=self._lo)
            np.maximum(self._hi, x, out=self._hi)
        z = self._normalise(x, self._lo, self._hi)
        for tree in range(self.n_trees):
            self._latest[tree][self._leaf(tree, z)] += 1.0
        self.events_absorbed += 1
        self._window_fill += 1
        if self._window_fill >= self.window_size:
            # Self-triggered swap keeps the model live even when no
            # periodic refresh is armed; refresh() does the same off-path.
            self.refresh()
        return self

    def score_event(self, x) -> float:
        if self._dims is None:
            return 0.0
        x = np.asarray(x, dtype=float).ravel()
        # The running bounds widen to x for this score only; partial_fit
        # is what moves them.
        z = self._normalise(x, np.minimum(self._lo, x), np.maximum(self._hi, x))
        mass = 0.0
        for tree in range(self.n_trees):
            mass += float(self._reference[tree][self._leaf(tree, z)])
        # Invert and normalise: empty regions score 1, dense regions -> 0.
        return 1.0 / (1.0 + mass)

    def predict_event(self, x) -> bool:
        if self.windows_closed == 0:
            # No reference window yet — still learning.  Scores against
            # an empty reference are all 1.0 and stay out of the baseline.
            return False
        score = self.score_event(x)
        self._score_mean.push(score)
        mean, std = self._score_mean.mean, self._score_mean.std()
        if std <= 0.0:
            return score >= self.anomaly_ratio
        return score > mean + 3.0 * std and score >= self.anomaly_ratio

    def refresh(self) -> None:
        """Promote the latest mass window to reference (off-path)."""
        if self._dims is None:
            return
        if self._window_fill == 0 and self.windows_closed > 0:
            return
        for tree in range(self.n_trees):
            self._reference[tree] = (
                self._reference[tree] + self._latest[tree]
            ) * 0.5 if self.windows_closed else self._latest[tree].copy()
            self._latest[tree][:] = 0.0
        self._window_fill = 0
        self.windows_closed += 1


class SlidingWindowDetector(OnlineLearner):
    """Sliding-window threshold / sequence detector over one feature.

    Keeps the last ``window`` values of ``column``; an event is anomalous
    when its value crosses ``threshold`` *and* at least ``min_hits`` of
    the current window cross it too — the sequence requirement that
    separates a sustained pattern (scan, flood) from a one-sample spike.
    With no static threshold, the bound calibrates on line as
    mean + ``n_sigma`` · std of everything seen (Welford).
    """

    def __init__(
        self,
        column: int = 0,
        threshold: Optional[float] = None,
        window: int = 16,
        min_hits: int = 3,
        n_sigma: float = 3.0,
    ) -> None:
        if window < 1:
            raise MLError(f"window must be positive, got {window}")
        if min_hits < 1 or min_hits > window:
            raise MLError(f"min_hits must be in [1, {window}], got {min_hits}")
        self.column = column
        self.threshold = threshold
        self.window = window
        self.min_hits = min_hits
        self.n_sigma = n_sigma
        self._values: deque = deque(maxlen=window)
        self._running = Welford()
        self.events_absorbed = 0

    def _value(self, x) -> float:
        # The streaming manager hands over a plain list: index it directly
        # rather than build an array for one scalar.
        if not isinstance(x, (list, tuple)):
            x = np.asarray(x, dtype=float).ravel()
        if self.column >= len(x):
            raise MLError(
                f"column {self.column} out of range for {len(x)} features"
            )
        return float(x[self.column])

    def _bound(self) -> Optional[float]:
        if self.threshold is not None:
            return self.threshold
        if self._running.count < self.window:
            return None  # still calibrating
        return self._running.mean + self.n_sigma * self._running.std()

    def partial_fit(self, x, y=None) -> "SlidingWindowDetector":
        value = self._value(x)
        self._values.append(value)
        self._running.push(value)
        self.events_absorbed += 1
        return self

    def score_event(self, x) -> float:
        bound = self._bound()
        if bound is None or not self._values:
            return 0.0
        hits = sum(1 for value in self._values if value > bound)
        return hits / len(self._values)

    def predict_event(self, x) -> bool:
        bound = self._bound()
        if bound is None:
            return False
        if self._value(x) <= bound:
            return False
        hits = sum(1 for value in self._values if value > bound)
        return hits + 1 >= self.min_hits
