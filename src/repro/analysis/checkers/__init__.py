"""The framework-aware checkers shipped with athena-lint."""

from __future__ import annotations

from typing import List

from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.features import FeatureNameChecker
from repro.analysis.checkers.hotpath import HotpathChecker
from repro.analysis.checkers.northbound import NorthboundChecker
from repro.analysis.checkers.telemetry import TelemetryChecker
from repro.analysis.engine import Checker

__all__ = [
    "DeterminismChecker",
    "FeatureNameChecker",
    "HotpathChecker",
    "NorthboundChecker",
    "TelemetryChecker",
    "default_checkers",
]


def default_checkers() -> List[Checker]:
    """One instance of every shipped checker, in rule-id order."""
    return [
        DeterminismChecker(),
        FeatureNameChecker(),
        NorthboundChecker(),
        TelemetryChecker(),
        HotpathChecker(),
    ]
