"""The Preprocessor NB parameter (Table IV).

A :class:`Preprocessor` turns feature documents into the numeric matrix an
algorithm consumes, applying the paper's four operators:

* **Weighting** — per-feature multipliers to emphasize certain features,
* **Sampling** — keep a uniform fraction of the entries,
* **Normalization** — min-max or z-score standardisation,
* **Marking** — produce the 0/1 malicious mark per entry, either from a
  marking query ("entries matching this are malicious"), a callable, or the
  ground-truth ``label`` index field (used when replaying labelled
  datasets).

``fit`` learns scaling parameters on the training documents; ``transform``
re-applies them verbatim, so train and test splits see identical scaling.
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

    # -- matrix construction -------------------------------------------------------

    def _to_docs(self, records) -> List[Document]:
        return [
            record.to_document() if isinstance(record, AthenaFeature) else record
            for record in records
        ]

    def _matrix(self, docs: List[Document]) -> np.ndarray:
        if not self.features:
            raise AthenaError("preprocessor has no features registered")
        matrix = np.zeros((len(docs), len(self.features)))
        for row, doc in enumerate(docs):
            for col, feature in enumerate(self.features):
                value = doc.get(feature)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    matrix[row, col] = float(value)
        return matrix

    def _sample(self, docs: List[Document]) -> List[Document]:
        if self.sampling is None or not docs:
            return docs
        rng = np.random.default_rng(self.sampling_seed)
        n_keep = max(1, int(round(len(docs) * self.sampling)))
        keep = np.sort(rng.choice(len(docs), size=n_keep, replace=False))
        return [docs[i] for i in keep]

    def fit(self, records) -> "Preprocessor":
        """Learn normalisation parameters from training documents."""
        docs = self._sample(self._to_docs(records))
        matrix = self._matrix(docs)
        if self.normalization == "minmax":
            self._scaler = MinMaxNormalizer().fit(matrix)
        elif self.normalization == "standard":
            self._scaler = StandardScaler().fit(matrix)
        return self

    def transform(
        self, records, sample: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray], List[Document]]:
        """Produce (matrix, marks, kept_documents).

        ``marks`` is None when no marking is configured; otherwise a 0/1
        vector (unmarkable documents default to benign 0).
        """
        docs = self._to_docs(records)
        if sample:
            docs = self._sample(docs)
        matrix = self._matrix(docs)
        if self._scaler is not None:
            matrix = self._scaler.transform(matrix)
        elif self.normalization is not None and len(docs):
            raise AthenaError("preprocessor not fitted; call fit first")
        if self.weights:
            weight_row = np.array(
                [self.weights.get(feature, 1.0) for feature in self.features]
            )
            matrix = matrix * weight_row
        marks = None
        if self.marking is not None:
            marks = np.array(
                [float(self.mark(doc) or 0) for doc in docs]
            )
        return matrix, marks, docs

    def fit_transform(self, records):
        """Sample, fit, and transform training documents in one step."""
        docs = self._sample(self._to_docs(records))
        self.fit(docs)
        return self.transform(docs)

    # -- frame path (bit-identical to the document methods above) -----------

    def frame_columns(self) -> List[str]:
        """The stored fields the frame methods read: what a fetch should
        ask :meth:`FeatureManager.request_frame` to have ready."""
        if isinstance(self.marking, str):
            return [*self.features, self.marking]
        return list(self.features)

    def _sample_frame(self, frame: FeatureFrame) -> FeatureFrame:
        if self.sampling is None or not frame.n_rows:
            return frame
        rng = np.random.default_rng(self.sampling_seed)
        n_keep = max(1, int(round(frame.n_rows * self.sampling)))
        keep = np.sort(rng.choice(frame.n_rows, size=n_keep, replace=False))
        return frame.take(keep)

    def _marks_frame(self, frame: FeatureFrame) -> np.ndarray:
        """Vectorised marking: the 0/1 vector :meth:`mark` would produce."""
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

    def fit_frame(self, frame: FeatureFrame) -> "Preprocessor":
        """Learn normalisation parameters from a training frame."""
        if not self.features:
            raise AthenaError("preprocessor has no features registered")
        matrix = self._sample_frame(frame).to_matrix(self.features)
        if self.normalization == "minmax":
            self._scaler = MinMaxNormalizer().fit(matrix)
        elif self.normalization == "standard":
            self._scaler = StandardScaler().fit(matrix)
        return self

    def transform_frame(
        self, frame: FeatureFrame, sample: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray], FeatureFrame]:
        """Columnar :meth:`transform`: (matrix, marks, kept_frame).

        Same scaling, weighting, and marking semantics, computed on the
        frame's columns without a per-row loop; the returned frame holds
        the (possibly sampled) rows the matrix was built from.
        """
        if not self.features:
            raise AthenaError("preprocessor has no features registered")
        if sample:
            frame = self._sample_frame(frame)
        matrix = frame.to_matrix(self.features)
        if self._scaler is not None:
            matrix = self._scaler.transform(matrix)
        elif self.normalization is not None and frame.n_rows:
            raise AthenaError("preprocessor not fitted; call fit first")
        if self.weights:
            weight_row = np.array(
                [self.weights.get(feature, 1.0) for feature in self.features]
            )
            matrix = matrix * weight_row
        marks = None
        if self.marking is not None:
            marks = self._marks_frame(frame)
        return matrix, marks, frame

    def fit_transform_frame(self, frame: FeatureFrame):
        """Columnar :meth:`fit_transform`, sampling rounds included.

        The document path samples once in ``fit_transform`` and once more
        inside ``fit``; the frame path repeats both rounds so the learned
        scaler — and therefore every downstream byte — matches.
        """
        frame = self._sample_frame(frame)
        self.fit_frame(frame)
        return self.transform_frame(frame)

    def transform_one(self, record) -> np.ndarray:
        """Row vector for a single record (the online-validation path)."""
        matrix, _, _ = self.transform([record])
        return matrix[0]

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
