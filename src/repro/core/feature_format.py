"""The Athena feature format (Figure 4).

A feature record consists of *index fields* — the feature's origin (switch
id, port, OpenFlow match indicators) plus *meta data* (timestamp, controller
instance, control-plane semantics such as the flow's originating
application) — followed by *feature fields*: the protocol-centric,
combination, stateful and variation values themselves.

Records flatten to single-level documents for the distributed database:
index/meta fields keep lowercase names, feature fields keep their uppercase
catalog names, so database filters can mix both ("switch_id == 6 &&
FLOW_PACKET_COUNT > 100").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from repro.errors import FeatureError

#: Index/meta keys reserved by the format (lowercase namespace).
INDEX_KEYS = (
    "feature_scope",
    "switch_id",
    "instance_id",
    "port_no",
    "timestamp",
    "app_id",
    "eth_src",
    "eth_dst",
    "ip_src",
    "ip_dst",
    "ip_proto",
    "tcp_src",
    "tcp_dst",
    "label",
)


class FeatureScope(Enum):
    """What entity a feature record describes."""

    FLOW = "flow"
    PORT = "port"
    SWITCH = "switch"
    CONTROL = "control"
    #: Sketch-backed per-switch records (repro.sketch, ATHENA_SKETCH).
    SKETCH = "sketch"


def feature_document(
    scope: str,
    switch_id: int,
    instance_id: int,
    timestamp: float,
    indicators: Dict[str, Any],
    fields: Dict[str, float],
    app_id: Optional[str] = None,
    port_no: Optional[int] = None,
    label: Optional[int] = None,
) -> Dict[str, Any]:
    """A record flattened to its single-level database document: the
    index/meta keys, then the indicators, then the feature fields."""
    doc: Dict[str, Any] = {
        "feature_scope": scope,
        "switch_id": switch_id,
        "instance_id": instance_id,
        "timestamp": timestamp,
    }
    if port_no is not None:
        doc["port_no"] = port_no
    if app_id is not None:
        doc["app_id"] = app_id
    if label is not None:
        doc["label"] = label
    doc.update(indicators)
    doc.update(fields)
    return doc


@dataclass
class AthenaFeature:
    """One Athena feature record (a row of the paper's dataset entries)."""

    scope: FeatureScope
    switch_id: int
    instance_id: int
    timestamp: float
    #: OpenFlow match indicators identifying a flow-scoped record.
    indicators: Dict[str, Any] = field(default_factory=dict)
    #: Control-plane semantics: the application that originated the flow.
    app_id: Optional[str] = None
    #: Port number for port-scoped records.
    port_no: Optional[int] = None
    #: Feature fields: catalog name -> numeric value.
    fields: Dict[str, float] = field(default_factory=dict)
    #: Ground-truth label when known (used by Marking in evaluations).
    label: Optional[int] = None

    def value(self, name: str) -> float:
        """The value of a feature field, raising on unknown names."""
        if name not in self.fields:
            raise FeatureError(
                f"record has no feature {name!r} (has {sorted(self.fields)[:8]}...)"
            )
        return self.fields[name]

    def flow_key(self) -> tuple:
        """Hashable identity of the flow this record describes."""
        return (
            self.switch_id,
            tuple(sorted(self.indicators.items())),
        )

    def to_document(self) -> Dict[str, Any]:
        """Flatten to a single-level document for the database."""
        return feature_document(
            self.scope.value,
            self.switch_id,
            self.instance_id,
            self.timestamp,
            self.indicators,
            self.fields,
            self.app_id,
            self.port_no,
            self.label,
        )

    def get(self, name: str, default: Any = None) -> Any:
        """``self.to_document().get(name, default)``, without flattening."""
        if name in self.fields:
            return self.fields[name]
        if name in self.indicators:
            return self.indicators[name]
        if name in ("port_no", "app_id", "label"):
            value = getattr(self, name)
            return default if value is None else value
        if name == "feature_scope":
            return self.scope.value
        if name in ("switch_id", "instance_id", "timestamp"):
            return getattr(self, name)
        return default

    @classmethod
    def from_document(cls, doc: Dict[str, Any]) -> "AthenaFeature":
        """Rebuild a record from its flattened document."""
        keys = tuple(doc)
        field_keys = _FIELD_KEYS.get(keys)
        if field_keys is None:
            if len(_FIELD_KEYS) >= _FIELD_KEYS_LIMIT:
                _FIELD_KEYS.clear()
            field_keys = _FIELD_KEYS[keys] = tuple(
                key for key in keys if key == key.upper() and key != "_ID"
            )
        try:
            scope = _SCOPE_OF[doc["feature_scope"]]
        except (KeyError, TypeError):
            scope = FeatureScope(doc["feature_scope"])
        return cls(
            scope=scope,
            switch_id=doc["switch_id"],
            instance_id=doc.get("instance_id", 0),
            timestamp=doc.get("timestamp", 0.0),
            indicators={
                key: doc[key] for key in _INDICATOR_KEYS if doc.get(key) is not None
            },
            app_id=doc.get("app_id"),
            port_no=doc.get("port_no"),
            fields={
                key: doc[key]
                for key in field_keys
                if isinstance(doc[key], (int, float))
            },
            label=doc.get("label"),
        )


#: Scope value -> scope: a record is rebuilt without an ``Enum`` lookup.
_SCOPE_OF = {scope.value: scope for scope in FeatureScope}
#: Indicator keys a rebuilt record reads, in record order.
_INDICATOR_KEYS = ("eth_src", "eth_dst", "ip_src", "ip_dst", "ip_proto", "tcp_src", "tcp_dst")
#: A document's key tuple -> its keys that may hold feature fields
#: (upper-case, not ``_ID``).  Dropped whole if it outgrows the handful
#: of key tuples feature documents share.
_FIELD_KEYS: Dict[Tuple[Any, ...], Tuple[str, ...]] = {}
_FIELD_KEYS_LIMIT = 4096
