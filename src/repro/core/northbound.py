"""The Athena Northbound API (Table II).

:class:`AthenaNorthbound` is the configuration-based facade applications
program against.  The eight core functions are exposed both in Python
style (``request_features``) and under the paper's exact names
(``RequestFeatures``), so the example applications read like the paper's
pseudocode.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.algorithm import Algorithm
from repro.core.detector_manager import DetectionModel, DetectorManager
from repro.core.feature_manager import FeatureManager
from repro.core.preprocessor import Preprocessor
from repro.core.query import BooleanNode, Condition, Query
from repro.core.reaction_manager import ReactionManager
from repro.core.reactions import Reaction
from repro.core.resource_manager import ResourceManager
from repro.core.results import ValidationSummary
from repro.core.ui_manager import UIManager
from repro.errors import AthenaError


def _collect_switch_ids(node: Union[BooleanNode, Condition]) -> List[int]:
    """Extract ``switch_id == N`` constraints from a query tree."""
    if isinstance(node, Condition):
        if node.fieldname == "switch_id" and node.op == "==":
            return [int(node.value)]
        return []
    found: List[int] = []
    for child in node.children:
        found.extend(_collect_switch_ids(child))
    return found


class AthenaNorthbound:
    """The eight core NB APIs over the manager layer."""

    @classmethod
    def core_api_names(cls) -> List[str]:
        """The paper-style names of the core NB functions, introspected.

        Every core function carries a ``PascalCase`` alias matching the
        paper's pseudocode; counting those aliases keeps banners, docs,
        and the static analyser in sync with the class itself.
        """
        return sorted(
            name
            for name, member in vars(cls).items()
            if callable(member) and not name.startswith("_") and name[0].isupper()
        )

    def __init__(
        self,
        feature_manager: FeatureManager,
        detector_manager: DetectorManager,
        reaction_manager: ReactionManager,
        resource_manager: ResourceManager,
        ui_manager: UIManager,
        all_dpids: Callable[[], List[int]],
    ) -> None:
        self.features = feature_manager
        self.detector = detector_manager
        self.reactions = reaction_manager
        self.resources = resource_manager
        self.ui = ui_manager
        self._all_dpids = all_dpids

    # -- 1. RequestFeatures(q) ------------------------------------------------

    def request_features(self, query: Query) -> List[Dict[str, Any]]:
        """``RequestFeatures(q)`` — retrieve stored Athena features.

        Table II, row 1.  ``q`` is a feature-constraint
        :class:`~repro.core.query.Query` (Table III); matching feature
        documents come back from the distributed feature store via the
        Feature Manager, with the query's sort/aggregation/limit clauses
        already applied.
        """
        return self.features.request_features(query)

    # -- 2. ManageMonitor(q, o) --------------------------------------------------

    def manage_monitor(self, query: Optional[Query], operation: bool) -> None:
        """``ManageMonitor(q, o)`` — switch feature monitoring on or off.

        Table II, row 2.  ``o`` is the monitoring operation flag (Table
        III's *o*): ``True`` enables feature generation, ``False``
        disables it.  With ``q`` of ``None`` the flag applies
        network-wide; otherwise it applies to the switches named by the
        query's ``switch_id == N`` constraints, leaving the rest of the
        network untouched.
        """
        switch_ids = _collect_switch_ids(query._root) if query is not None else []
        if not switch_ids:
            self.resources.set_monitoring(operation)
            return
        every = set(self._all_dpids())
        if operation:
            self.resources.set_monitored_switches(None)
        else:
            self.resources.set_monitored_switches(every - set(switch_ids))

    # -- 3. GenerateDetectionModel(q, f, a) ------------------------------------------

    def generate_detection_model(
        self,
        query: Query,
        preprocessor: Preprocessor,
        algorithm: Algorithm,
        documents: Optional[List[Dict[str, Any]]] = None,
    ) -> DetectionModel:
        """``GenerateDetectionModel(q, f, a)`` — train an anomaly model.

        Table II, row 3.  Features matching ``q`` are shaped by the
        preprocessor ``f`` (weighting / sampling / normalization /
        marking, Table III) and fitted with algorithm ``a``; the Detector
        Manager auto-configures the pipeline from the algorithm's
        category.  Large datasets train on the compute cluster.
        Returns the generated :class:`DetectionModel` (Table III's *m*).
        """
        return self.detector.generate_detection_model(
            query, preprocessor, algorithm, documents=documents
        )

    # -- 4. ValidateFeatures(q, f, m) ---------------------------------------------------

    def validate_features(
        self,
        query: Query,
        preprocessor: Preprocessor,
        model: DetectionModel,
        documents: Optional[List[Dict[str, Any]]] = None,
    ) -> ValidationSummary:
        """``ValidateFeatures(q, f, m)`` — test features against a model.

        Table II, row 4.  Features matching ``q`` are transformed by the
        model's fitted preprocessor (``f`` contributes marking when the
        fitted one lacks it) and classified by detection model ``m``;
        large validations run on the compute cluster.  Returns the Figure 6
        :class:`ValidationSummary` (Table III's *r'*).
        """
        return self.detector.validate_features(
            query, preprocessor, model, documents=documents
        )

    # -- 5. AddEventHandler(q) ---------------------------------------------------------

    def add_event_handler(self, query: Query, handler: Callable) -> int:
        """``AddEventHandler(q)`` — subscribe to live feature delivery.

        Table II, row 5.  Registers ``handler`` (Table III's *e*) in the
        Feature Manager's event delivery table; every incoming feature
        matching ``q`` is delivered to it as it is generated.  Returns a
        handler id for :meth:`remove_event_handler`.
        """
        return self.features.add_event_handler(query, handler)

    def remove_event_handler(self, handler_id: int) -> bool:
        return self.features.remove_event_handler(handler_id)

    # -- 6. AddOnlineValidator(f, m, e) ----------------------------------------------------

    def add_online_validator(
        self,
        preprocessor: Preprocessor,
        model: DetectionModel,
        event_handler: Callable[[Any, bool], None],
        query: Optional[Query] = None,
    ) -> int:
        """``AddOnlineValidator(f, m, e)`` — validate live features online.

        Table II, row 6.  Each incoming feature is transformed by the
        fitted preprocessor ``f`` and examined against detection model
        ``m``; ``event_handler`` (Table III's *e*) receives
        ``(feature, verdict)`` per validation.  ``query`` narrows which
        live features are validated (default: all).  Returns the
        validator id used by ``validator_stats``.
        """
        if model.preprocessor is None and preprocessor is None:
            raise AthenaError("online validation needs a fitted preprocessor")
        validator_id = self.detector.add_online_validator(model, event_handler)
        self.features.add_event_handler(
            query or Query(),
            lambda feature: self.detector.validate_one(validator_id, feature),
        )
        return validator_id

    # -- 7. Reactor(q, r) -----------------------------------------------------------------

    def reactor(self, query: Optional[Query], reaction: Reaction) -> int:
        """``Reactor(q, r)`` — enforce a mitigation on the data plane.

        Table II, row 7.  ``r`` is the :class:`Reaction` (Table III) —
        Block or Quarantine — enforced through the owning instance's
        Attack Reactor as flow rules; ``q`` scopes which hosts/switches
        the reaction applies to.  Returns the number of rules issued.
        """
        return self.reactions.enforce(reaction, query=query)

    # -- 8. ShowResults(r') ------------------------------------------------------------------

    def show_results(self, results: Any) -> str:
        """``ShowResults(r')`` — render results to the operator.

        Table II, row 8.  ``r'`` is any result object (a Figure 6
        :class:`ValidationSummary`, a Figure 9 series, an alert) handed to
        the UI Manager for terminal rendering; returns the rendered text.
        """
        return self.ui.show(results)

    # Paper-style aliases, so application code reads like the pseudocode.
    RequestFeatures = request_features
    ManageMonitor = manage_monitor
    GenerateDetectionModel = generate_detection_model
    ValidateFeatures = validate_features
    AddEventHandler = add_event_handler
    AddOnlineValidator = add_online_validator
    Reactor = reactor
    ShowResults = show_results
