"""The Detector Manager (Figure 3, component 2B).

Orchestrates detection tasks with transparency to algorithm details: the
operator describes an :class:`~repro.core.algorithm.Algorithm` and the
manager auto-configures the pipeline from its category — clustering needs
marks for cluster labelling, classification/boosting/regression need labels
for training, 'simple' exports a pre-defined model without a learning phase.

Model generation and large-scale validation execute on the compute cluster
through an instance's Attack Detector (which decides single vs distributed
execution by dataset size); results come back as
:class:`~repro.core.results.ValidationSummary`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.algorithm import Algorithm
from repro.core.feature_manager import FeatureManager
from repro.core.preprocessor import Preprocessor
from repro.core.query import Query
from repro.core.results import ClusterReport, ValidationSummary
from repro.distdb.frame import FeatureFrame, read_rows
from repro.errors import AthenaError, DatabaseError
from repro.ml.base import ClusteringModel, Estimator
from repro.telemetry import Stopwatch, get_telemetry

Document = Dict[str, Any]

#: The fields that tell one flow from another in a validation summary.
_FLOW_KEY = ("ip_src", "ip_dst", "ip_proto", "tcp_src", "tcp_dst")


@dataclass
class DetectionModel:
    """A generated detection model: fitted estimator + fitted preprocessor."""

    algorithm: Algorithm
    estimator: Estimator
    preprocessor: Preprocessor
    trained_entries: int = 0
    training_seconds: float = 0.0
    job_report: Any = None

    def describe(self) -> str:
        return str(self.algorithm)


@dataclass
class _OnlineValidator:
    """One registered online validator (AddOnlineValidator)."""

    validator_id: int
    model: DetectionModel
    handler: Callable[[Any, bool], None]
    validated: int = 0
    alerts: int = 0


class DetectorManager:
    """ML orchestration over the feature store and compute cluster."""

    def __init__(
        self,
        feature_manager: FeatureManager,
        attack_detector,
    ) -> None:
        self.feature_manager = feature_manager
        self.attack_detector = attack_detector
        self._online_validators: List[_OnlineValidator] = []
        self._validator_ids = 0
        self.models_generated = 0
        self.validations_run = 0
        #: Poll rounds skipped because the feature store was unreachable
        #: or returned nothing (graceful degradation, not failure).
        self.degraded_rounds = 0
        #: Times a poll round succeeded right after a degraded streak.
        self.rounds_recovered = 0
        self._degraded_streak = 0
        #: JobReport of the most recent distributed validation (None when
        #: the last validation ran on a single instance).
        self.last_job_report = None
        self._telemetry = get_telemetry()
        registry = self._telemetry.registry
        self._metric_models = registry.counter(
            "athena_detector_models_total",
            "Detection models generated.",
        )
        self._metric_validations = registry.counter(
            "athena_detector_validations_total",
            "Batch validations run.",
        )
        self._metric_training_seconds = registry.histogram(
            "athena_detector_training_seconds",
            "Wall seconds per model generation.",
        )
        self._metric_validation_seconds = registry.histogram(
            "athena_detector_validation_seconds",
            "Wall seconds per batch validation.",
        )
        degraded = registry.counter(
            "athena_detector_degraded_rounds_total",
            "Poll rounds skipped-and-flagged instead of failing, by reason.",
            labelnames=("reason",),
        )
        self._metric_degraded_db = degraded.labels(reason="database")
        self._metric_degraded_empty = degraded.labels(reason="no_features")
        self._metric_recovered = registry.counter(
            "athena_detector_recovered_total",
            "Successful poll rounds immediately following a degraded streak.",
        )

    # -- model generation ------------------------------------------------------

    def _fetch(self, query: Query, preprocessor: Preprocessor):
        """The query's rows as a feature frame holding the preprocessor's
        columns.  Aggregation queries have no frame shape and come back
        as their reduced rows; the preprocessor takes either."""
        if query.to_db_pipeline() is not None:
            return self.feature_manager.request_features(query)
        return self.feature_manager.request_frame(
            query, columns=preprocessor.frame_columns()
        )

    def generate_detection_model(
        self,
        query: Query,
        preprocessor: Preprocessor,
        algorithm: Algorithm,
        documents: Optional[List[Document]] = None,
    ) -> DetectionModel:
        """GenerateDetectionModel(q, f, a).

        ``documents`` short-circuits the feature fetch when the caller
        already holds the training documents (bench replay path).
        """
        watch = Stopwatch()
        with self._telemetry.span("detector.generate_model"):
            if documents is None:
                documents = self._fetch(query, preprocessor)
            if not documents:
                raise AthenaError("no features matched the training query")
            matrix, marks, _kept = preprocessor.fit_transform(documents)
            estimator = algorithm.instantiate()
            job_report = None
            if not algorithm.has_learning_phase:
                # Simple algorithms export a pre-defined model (threshold may
                # still calibrate a bound when none was configured).
                estimator.fit(matrix, marks)
            elif algorithm.needs_labels:
                if marks is None:
                    raise AthenaError(
                        f"{algorithm.name} needs labels; configure Marking in the preprocessor"
                    )
                job_report = self.attack_detector.run_training(
                    estimator, matrix, marks, algorithm
                )
            else:
                job_report = self.attack_detector.run_training(
                    estimator, matrix, None, algorithm
                )
                if algorithm.needs_marks:
                    if marks is None:
                        raise AthenaError(
                            f"{algorithm.name} needs Marking to label clusters"
                        )
                    estimator.label_clusters(matrix, marks)
            self.models_generated += 1
            self._metric_models.inc()
            elapsed = watch.elapsed()
            self._metric_training_seconds.observe(elapsed)
            return DetectionModel(
                algorithm=algorithm,
                estimator=estimator,
                preprocessor=preprocessor,
                trained_entries=matrix.shape[0],
                training_seconds=elapsed,
                job_report=job_report,
            )

    # -- batch validation ------------------------------------------------------

    def validate_features(
        self,
        query: Query,
        preprocessor: Preprocessor,
        model: DetectionModel,
        documents: Optional[List[Document]] = None,
    ) -> ValidationSummary:
        """ValidateFeatures(q, f, m) → testing summary (Figure 6)."""
        watch = Stopwatch()
        with self._telemetry.span("detector.validate"):
            # The model's *fitted* preprocessor guarantees train/test consistency;
            # the passed preprocessor contributes marking if the fitted one lacks it.
            active = model.preprocessor
            if active.marking is None and preprocessor is not None:
                active.marking = preprocessor.marking
            if documents is None:
                documents = self._fetch(query, active)
            if not documents:
                raise AthenaError("no features matched the validation query")
            matrix, marks, kept = active.transform(documents)
            predictions, job_report = self.attack_detector.run_validation(
                model.estimator, matrix
            )
            summary = self._summarise(model, matrix, marks, kept, predictions)
            summary.elapsed_seconds = watch.elapsed()
            if job_report is not None:
                summary.elapsed_seconds = max(
                    summary.elapsed_seconds, job_report.makespan_seconds
                )
            self.validations_run += 1
            self._metric_validations.inc()
            self._metric_validation_seconds.observe(summary.elapsed_seconds)
            self.last_job_report = job_report
            return summary

    def poll_round(
        self,
        query: Query,
        preprocessor: Preprocessor,
        model: DetectionModel,
    ) -> Optional[ValidationSummary]:
        """One periodic detection round with graceful degradation.

        Unlike :meth:`validate_features`, a round that cannot reach the
        feature store (``DatabaseError``) or finds nothing to validate is
        *skipped and flagged* — counted in
        ``athena_detector_degraded_rounds_total`` and returned as ``None``
        — instead of raising into the scheduler.  The first successful
        round after a degraded streak bumps
        ``athena_detector_recovered_total``.
        """
        try:
            documents = self._fetch(query, model.preprocessor)
        except DatabaseError:
            self._flag_degraded(self._metric_degraded_db)
            return None
        if not documents:
            self._flag_degraded(self._metric_degraded_empty)
            return None
        summary = self.validate_features(
            query, preprocessor, model, documents=documents
        )
        if self._degraded_streak:
            self._degraded_streak = 0
            self.rounds_recovered += 1
            self._metric_recovered.inc()
        return summary

    def _flag_degraded(self, metric) -> None:
        self.degraded_rounds += 1
        self._degraded_streak += 1
        metric.inc()

    def _summarise(
        self,
        model: DetectionModel,
        matrix: np.ndarray,
        marks: Optional[np.ndarray],
        kept,
        predictions: np.ndarray,
    ) -> ValidationSummary:
        predictions = np.asarray(predictions).ravel()
        docs = kept.documents() if isinstance(kept, FeatureFrame) else kept
        if marks is None:
            marks = np.zeros(len(predictions))
        malicious = marks == 1
        positive = predictions == 1
        # The flow keys are the values as stored, so keys compare exactly
        # as the documents' do.
        flows = read_rows(docs, _FLOW_KEY)
        malicious_flows = set(itertools.compress(flows, malicious.tolist()))
        benign_flows = set(itertools.compress(flows, (~malicious).tolist()))
        summary = ValidationSummary(
            total_entries=len(predictions),
            benign_entries=int((~malicious).sum()),
            malicious_entries=int(malicious.sum()),
            true_positives=int((malicious & positive).sum()),
            false_positives=int((~malicious & positive).sum()),
            true_negatives=int((~malicious & ~positive).sum()),
            false_negatives=int((malicious & ~positive).sum()),
            unique_benign_flows=len(benign_flows),
            unique_malicious_flows=len(malicious_flows),
            algorithm_description=model.algorithm.name,
            predictions=predictions,
        )
        estimator = model.estimator
        if isinstance(estimator, ClusteringModel):
            params = model.algorithm.params
            summary.cluster_info = ", ".join(
                f"{key}({value})" for key, value in sorted(params.items())
            )
            composition = estimator.cluster_composition(matrix, marks)
            labelled = estimator.cluster_is_malicious or {}
            summary.clusters = [
                ClusterReport(
                    cluster_id=cluster_id,
                    benign_entries=counts["benign"],
                    malicious_entries=counts["malicious"],
                    is_malicious=labelled.get(cluster_id, False),
                )
                for cluster_id, counts in sorted(composition.items())
            ]
        return summary

    # -- online validation -------------------------------------------------------

    def add_online_validator(
        self,
        model: DetectionModel,
        handler: Callable[[Any, bool], None],
    ) -> int:
        """Register a model for per-feature live validation."""
        self._validator_ids += 1
        self._online_validators.append(
            _OnlineValidator(self._validator_ids, model, handler)
        )
        return self._validator_ids

    def validate_one(self, validator_id: int, feature) -> bool:
        """Validate one incoming feature against a registered validator."""
        validator = self._find_validator(validator_id)
        row = validator.model.preprocessor.transform_one(feature)
        verdict = bool(validator.model.estimator.predict(row.reshape(1, -1))[0])
        validator.validated += 1
        if verdict:
            validator.alerts += 1
        validator.handler(feature, verdict)
        return verdict

    def _find_validator(self, validator_id: int) -> _OnlineValidator:
        for validator in self._online_validators:
            if validator.validator_id == validator_id:
                return validator
        raise AthenaError(f"no online validator {validator_id}")

    def validator_stats(self, validator_id: int) -> Dict[str, int]:
        validator = self._find_validator(validator_id)
        return {"validated": validator.validated, "alerts": validator.alerts}

    def online_validator_summaries(self) -> List[Dict[str, Any]]:
        """Read-only view of every registered online validator.

        The serving tier's ``/api/models`` endpoint exposes this, so the
        keys are API surface (docs/API.md).
        """
        return [
            {
                "validator_id": validator.validator_id,
                "algorithm": validator.model.algorithm.name,
                "validated": validator.validated,
                "alerts": validator.alerts,
            }
            for validator in self._online_validators
        ]
