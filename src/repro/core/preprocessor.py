"""The Preprocessor NB parameter (Table IV).

A :class:`Preprocessor` turns fetched feature rows into the numeric matrix
an algorithm consumes, applying the paper's four operators:

* **Weighting** — per-feature multipliers to emphasize certain features,
* **Sampling** — keep a uniform fraction of the entries,
* **Normalization** — min-max or z-score standardisation,
* **Marking** — produce the 0/1 malicious mark per entry, either from a
  marking query ("entries matching this are malicious"), a callable, or the
  ground-truth ``label`` index field (used when replaying labelled
  datasets).

``fit`` learns scaling parameters on the training rows; ``transform``
re-applies them verbatim, so train and test splits see identical scaling.
Every operator computes on a :class:`~repro.distdb.frame.FeatureFrame`:
rows handed in as documents or records are coerced to one first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.feature_format import AthenaFeature
from repro.core.query import Query
from repro.distdb.frame import FeatureFrame, filter_mask
from repro.errors import AthenaError
from repro.ml.preprocessing import MinMaxNormalizer, StandardScaler

Document = Dict[str, object]
MarkingSpec = Union[Query, Callable[[Document], bool], str, None]
#: (matrix, marks, kept rows — a frame, or the list of documents).
Transformed = Tuple[
    np.ndarray, Optional[np.ndarray], Union[FeatureFrame, List[Document]]
]


class Preprocessor:
    """Feature selection + the Table IV preprocessing operators."""

    def __init__(
        self,
        features: Optional[Sequence[str]] = None,
        normalization: Optional[str] = "minmax",
        weights: Optional[Dict[str, float]] = None,
        sampling: Optional[float] = None,
        marking: MarkingSpec = None,
        sampling_seed: int = 0,
    ) -> None:
        if normalization not in (None, "minmax", "standard"):
            raise AthenaError(f"unknown normalization {normalization!r}")
        if sampling is not None and not 0 < sampling <= 1:
            raise AthenaError(f"sampling fraction must be in (0, 1], got {sampling}")
        self.features: List[str] = list(features or [])
        self.normalization = normalization
        self.weights = dict(weights or {})
        self.sampling = sampling
        self.sampling_seed = sampling_seed
        self.marking = marking
        self._scaler = None

    # -- feature registration (the paper's f.addAll) ------------------------

    def add(self, feature: str) -> "Preprocessor":
        """Register one feature column."""
        if feature not in self.features:
            self.features.append(feature)
        return self

    def add_all(self, features: Sequence[str]) -> "Preprocessor":
        """Register several feature columns (the pseudocode's f.addAll)."""
        for feature in features:
            self.add(feature)
        return self

    def set_weight(self, feature: str, weight: float) -> "Preprocessor":
        if weight < 0:
            raise AthenaError(f"negative weight for {feature}: {weight}")
        self.weights[feature] = weight
        return self

    # -- marking ----------------------------------------------------------------

    def mark(self, doc: Document) -> Optional[int]:
        """The 0/1 malicious mark of one document, or None when unmarked."""
        if self.marking is None:
            return None
        if isinstance(self.marking, str):
            value = doc.get(self.marking)
            return None if value is None else int(bool(value))
        if isinstance(self.marking, Query):
            return 1 if self.marking.matches(doc) else 0
        return 1 if self.marking(doc) else 0

    # -- rows in, matrix out ---------------------------------------------------

    def frame_columns(self) -> List[str]:
        """The stored fields the operators read: what a fetch should ask
        :meth:`FeatureManager.request_frame` to have ready."""
        if isinstance(self.marking, str):
            return [*self.features, self.marking]
        return list(self.features)

    def _frame(self, rows) -> FeatureFrame:
        """``rows`` as a frame.  Documents and :class:`AthenaFeature`
        records are coerced here, once: the feature columns are built,
        any other field resolves lazily from the documents."""
        if isinstance(rows, FeatureFrame):
            return rows
        docs = [
            row.to_document() if isinstance(row, AthenaFeature) else row
            for row in rows
        ]
        return FeatureFrame.from_documents(docs, columns=self.features)

    def _sample(self, frame: FeatureFrame) -> FeatureFrame:
        if self.sampling is None or not frame.n_rows:
            return frame
        rng = np.random.default_rng(self.sampling_seed)
        n_keep = max(1, int(round(frame.n_rows * self.sampling)))
        keep = np.sort(rng.choice(frame.n_rows, size=n_keep, replace=False))
        return frame.take(keep)

    def _columns(self) -> List[str]:
        if not self.features:
            raise AthenaError("preprocessor has no features registered")
        return self.features

    def _fit(self, rows) -> Tuple[FeatureFrame, np.ndarray]:
        """Learn the scaler from a sample of ``rows``; returns the sampled
        frame and its unscaled matrix."""
        frame = self._sample(self._frame(rows))
        matrix = frame.to_matrix(self._columns())
        if not len(matrix):
            raise AthenaError("preprocessor has no rows to fit on")
        if self.normalization == "minmax":
            self._scaler = MinMaxNormalizer().fit(matrix)
        elif self.normalization == "standard":
            self._scaler = StandardScaler().fit(matrix)
        return frame, matrix

    def _scale(self, matrix: np.ndarray) -> np.ndarray:
        """Normalization as fitted, then weighting."""
        if self._scaler is not None:
            matrix = self._scaler.transform(matrix)
        elif self.normalization is not None and len(matrix):
            raise AthenaError("preprocessor not fitted; call fit first")
        if self.weights:
            weight_row = np.array(
                [self.weights.get(feature, 1.0) for feature in self.features]
            )
            matrix = matrix * weight_row
        return matrix

    def _marks(self, frame: FeatureFrame) -> Optional[np.ndarray]:
        """The 0/1 vector :meth:`mark` would produce row by row (unmarkable
        rows default to benign 0), or None when no marking is configured."""
        if self.marking is None:
            return None
        if isinstance(self.marking, str):
            column = frame.values(self.marking)
            if column.dtype != object:
                # mark() → int(bool(value)), with missing → None → 0.0;
                # stored NaN is truthy, and NaN != 0 holds, so the
                # comparison reproduces bool() exactly.
                missing = frame.is_missing(self.marking)
                with np.errstate(invalid="ignore"):
                    return ((~missing) & (column != 0)).astype(np.float64)
        if isinstance(self.marking, Query):
            filter_ = self.marking.to_db_filter() or None
            return filter_mask(frame, filter_).astype(np.float64)
        docs = frame.documents()
        return np.fromiter(
            (float(self.mark(doc) or 0) for doc in docs),
            dtype=np.float64,
            count=len(docs),
        )

    def fit(self, rows) -> "Preprocessor":
        """Learn normalisation parameters from (a sample of) training rows."""
        self._fit(rows)
        return self

    def transform_frame(
        self, frame: FeatureFrame, sample: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray], FeatureFrame]:
        """(matrix, marks, kept_frame) of a frame: the frame-typed core of
        :meth:`transform`.  The returned frame holds the (possibly sampled)
        rows the matrix was built from."""
        if sample:
            frame = self._sample(frame)
        matrix = self._scale(frame.to_matrix(self._columns()))
        return matrix, self._marks(frame), frame

    def transform(self, rows, sample: bool = False) -> Transformed:
        """Produce (matrix, marks, kept_rows).

        ``rows`` is a :class:`FeatureFrame` or any iterable of documents /
        :class:`AthenaFeature` records; ``kept_rows`` comes back in the
        same form, a frame or the list of documents.  ``marks`` is None
        when no marking is configured.
        """
        matrix, marks, kept = self.transform_frame(self._frame(rows), sample)
        return matrix, marks, self._as_given(rows, kept)

    def fit_transform(self, rows) -> Transformed:
        """Sample, fit, and transform training rows in one step: the
        scaler is learned from exactly the rows that are returned."""
        frame, matrix = self._fit(rows)
        return self._scale(matrix), self._marks(frame), self._as_given(rows, frame)

    @staticmethod
    def _as_given(rows, kept: FeatureFrame):
        return kept if isinstance(rows, FeatureFrame) else kept.documents()

    def transform_one(self, record) -> np.ndarray:
        """Row vector for a single record (the online-validation path).

        One record is one row by signature, so the row is filled in place
        rather than through a one-row frame (docs/PERF.md); no marks.  A
        document and an :class:`AthenaFeature` answer ``get`` alike, so a
        record is read without being flattened again.
        """
        row = np.zeros((1, len(self._columns())))
        for col, feature in enumerate(self.features):
            value = record.get(feature)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[0, col] = value
        return self._scale(row)[0]

    def __repr__(self) -> str:
        return (
            f"Preprocessor(features={len(self.features)}, "
            f"normalization={self.normalization!r}, sampling={self.sampling})"
        )


def GeneratePreprocessor(
    normalization: Optional[str] = "minmax",
    weights: Optional[Dict[str, float]] = None,
    sampling: Optional[float] = None,
    marking: MarkingSpec = None,
    features: Optional[Sequence[str]] = None,
) -> Preprocessor:
    """NB utility API: create a preprocessor (the pseudocode's form)."""
    return Preprocessor(
        features=features,
        normalization=normalization,
        weights=weights,
        sampling=sampling,
        marking=marking,
    )
