"""athena-lint: framework-aware static analysis for the reproduction.

An AST-based lint engine plus five checkers enforcing the invariants the
configuration-based framework cannot express in Python's type system:

* **ATH1xx determinism** — timestamps and randomness must route through
  ``simkernel`` so a run replays from one root seed;
* **ATH2xx feature names** — string literals in query/preprocessor/
  detector configuration must resolve against ``FEATURE_CATALOG``;
* **ATH3xx northbound API** — core NB call sites must match the real
  ``AthenaNorthbound`` signatures and name registered algorithms;
* **ATH5xx telemetry clocks** — raw duration clocks and sleeps stay in
  the measurement substrate;
* **ATH6xx hot paths** — no per-call reflection in modules marked
  ``hot-path``.

The ATH4xx ids (OpenFlow codec) are retired: the codec declares each
message layout once, so there is nothing left for a checker to keep in
step.

Run it as ``python -m repro.cli lint src/repro examples benchmarks``;
see ``docs/ANALYSIS.md`` for every rule and the suppression syntax.
"""

from repro.analysis.checkers import (
    DeterminismChecker,
    FeatureNameChecker,
    NorthboundChecker,
    default_checkers,
)
from repro.analysis.config import LintConfig, find_pyproject, load_config
from repro.analysis.engine import Checker, LintEngine, LintReport, ParsedModule
from repro.analysis.findings import SCHEMA_VERSION, Finding, Severity
from repro.analysis.reporters import JsonReporter, TextReporter

__all__ = [
    "Checker",
    "DeterminismChecker",
    "FeatureNameChecker",
    "Finding",
    "JsonReporter",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "NorthboundChecker",
    "ParsedModule",
    "SCHEMA_VERSION",
    "Severity",
    "TextReporter",
    "default_checkers",
    "find_pyproject",
    "load_config",
]
