"""The 'Simple' category: threshold-based detection.

A :class:`ThresholdDetector` flags an entry as anomalous when a chosen
feature column crosses a bound.  It is the only Athena algorithm exported
without a learning phase (the paper: "exports a pre-defined model without a
learning phase"), though :meth:`fit` can optionally calibrate the bound as
a quantile of benign training data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MLError
from repro.ml.base import Estimator, as_matrix, as_vector


class ThresholdDetector(Estimator):
    """Flag rows where ``column`` compares ``op`` against ``threshold``."""

    _OPS = {
        ">": np.greater,
        ">=": np.greater_equal,
        "<": np.less,
        "<=": np.less_equal,
        "==": np.equal,
        "!=": np.not_equal,
    }

    def __init__(
        self,
        column: int = 0,
        threshold: Optional[float] = None,
        op: str = ">",
        calibration_quantile: float = 0.99,
    ) -> None:
        if op not in self._OPS:
            raise MLError(f"unknown threshold operator {op!r}")
        self.column = column
        self.threshold = threshold
        self.op = op
        self.calibration_quantile = calibration_quantile

    def fit(self, X, y=None) -> "ThresholdDetector":
        """Calibrate the bound from benign rows when none was given.

        Raises :class:`MLError` for a column the matrix lacks and for a
        calibration set that is empty or holds NaN or inf, rather than
        calibrating a non-finite bound.
        """
        if self.threshold is not None:
            return self
        X = as_matrix(X)
        self._check_column(X)
        values = X[:, self.column]
        if y is not None:
            y = as_vector(y, X.shape[0])
            benign = values[y == 0]
            values = benign if len(benign) else values
        if not len(values):
            raise MLError("threshold calibration needs at least one row")
        if not np.isfinite(values).all():
            raise MLError(
                f"threshold calibration column {self.column} holds NaN or inf"
            )
        if self.op in (">", ">="):
            self.threshold = float(np.quantile(values, self.calibration_quantile))
        else:
            self.threshold = float(np.quantile(values, 1 - self.calibration_quantile))
        return self

    def predict(self, X) -> np.ndarray:
        if self.threshold is None:
            raise MLError("ThresholdDetector has no threshold; call fit or set one")
        X = as_matrix(X)
        self._check_column(X)
        return self._OPS[self.op](X[:, self.column], self.threshold).astype(float)

    def _check_column(self, X: np.ndarray) -> None:
        if self.column >= X.shape[1]:
            raise MLError(
                f"column {self.column} out of range for {X.shape[1]} features"
            )

    def decision_scores(self, X) -> np.ndarray:
        X = as_matrix(X)
        return X[:, self.column].astype(float)
