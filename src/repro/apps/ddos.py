"""Scenario 1: the large-scale DDoS attack detector.

:func:`ddos_detector_application` is a line-for-line rendering of the
paper's Application 1 pseudocode against the real NB API; Table VIII's
usability bench counts its source lines.  :class:`DDoSDetectorApp` wraps
the same flow as a managed Athena application and adds live mitigation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.algorithm import GenerateAlgorithm
from repro.core.app import AthenaApp
from repro.core.preprocessor import GeneratePreprocessor
from repro.core.query import GenerateQuery
from repro.core.reactions import BlockReaction
from repro.core.results import ValidationSummary
from repro.workloads.ddos import DDOS_FEATURES


# -- The Application 1 pseudocode, verbatim against the NB API --------------
# (Counted by the Table VIII SLoC bench: keep it minimal and linear.)


def ddos_detector_application(
    nb,
    algorithm: str = "kmeans",
    params: Optional[Dict[str, Any]] = None,
    train_window=(0.0, 1800.0),
    test_window=(1800.0, 3600.0),
):
    """Build, validate and display a DDoS detection model (Application 1)."""
    # Define the features to be trained
    q_train = GenerateQuery("feature_scope == flow")
    q_train.time_window(*train_window)
    # Define data pre-processing
    f = GeneratePreprocessor(
        normalization="minmax",
        weights={"PAIR_FLOW": 1.5, "PAIR_FLOW_RATIO": 1.5},
        marking="label",
    )
    # Register the features used in the algorithm
    f.add_all(DDOS_FEATURES)
    # Define an algorithm with parameters
    a = GenerateAlgorithm(algorithm, **(params or {"k": 8, "max_iterations": 20, "runs": 5}))
    # Generate a detection model
    m = nb.GenerateDetectionModel(q_train, f, a)
    # Define the features to be tested
    q_test = GenerateQuery("feature_scope == flow")
    q_test.time_window(*test_window)
    # Test the features
    r = nb.ValidateFeatures(q_test, f, m)
    # Show results with CLI interface
    nb.ShowResults(r)
    return m, r


class DDoSDetectorApp(AthenaApp):
    """The Scenario 1 detector as a managed application with mitigation."""

    def __init__(
        self,
        name: str = "ddos-detector",
        algorithm: str = "kmeans",
        params: Optional[Dict[str, Any]] = None,
        block_on_detection: bool = False,
    ) -> None:
        super().__init__(name)
        self.algorithm = algorithm
        if params is None:
            params = (
                {"k": 8, "max_iterations": 20, "runs": 5}
                if algorithm == "kmeans"
                else {}
            )
        self.params = params
        self.block_on_detection = block_on_detection
        self.model = None
        self.last_summary: Optional[ValidationSummary] = None
        self.blocked_sources: List[str] = []

    def run_batch(
        self,
        train_documents: Optional[List[Dict[str, Any]]] = None,
        test_documents: Optional[List[Dict[str, Any]]] = None,
        train_window=(0.0, 1800.0),
        test_window=(1800.0, 3600.0),
    ) -> ValidationSummary:
        """Train and validate, optionally over pre-fetched documents."""
        q_train = GenerateQuery("feature_scope == flow").time_window(*train_window)
        q_test = GenerateQuery("feature_scope == flow").time_window(*test_window)
        preprocessor = GeneratePreprocessor(
            normalization="minmax",
            weights={"PAIR_FLOW": 1.5, "PAIR_FLOW_RATIO": 1.5},
            marking="label",
            features=DDOS_FEATURES,
        )
        algorithm = GenerateAlgorithm(self.algorithm, **self.params)
        self.model = self.nb.GenerateDetectionModel(
            q_train, preprocessor, algorithm, documents=train_documents
        )
        self.last_summary = self.nb.ValidateFeatures(
            q_test, preprocessor, self.model, documents=test_documents
        )
        if self.block_on_detection:
            if test_documents is None:
                # The rows the validation itself read, in prediction order
                # (the frame contract: same rows, same order as documents).
                test_documents = self.nb.RequestFeatures(q_test)
            self._mitigate(test_documents)
        return self.last_summary

    def _mitigate(self, test_documents: List[Dict[str, Any]]) -> None:
        """Block the sources of entries the model flagged malicious."""
        if self.last_summary is None or self.last_summary.predictions is None:
            return
        suspicious: List[str] = []
        for doc, verdict in zip(test_documents, self.last_summary.predictions):
            ip = doc.get("ip_src")
            if verdict and ip and ip not in suspicious:
                suspicious.append(ip)
        if suspicious:
            self.nb.Reactor(None, BlockReaction(target_ips=suspicious))
            self.blocked_sources = suspicious
