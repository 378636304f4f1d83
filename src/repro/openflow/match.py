"""The OpenFlow match structure.

A :class:`Match` is the 12-tuple-style header match of OpenFlow 1.0 with the
fields Athena's feature catalog indexes on.  ``None`` means wildcard.  The
structure is hashable so flow tables and Athena's per-flow state tables can
key on it directly.

Matching is the innermost loop of the simulated dataplane — every packet
through every switch evaluates at least one :meth:`Match.matches` — so a
match compiles itself once at construction: the non-wildcard fields are
frozen into tuples and a closure over only those fields does the work,
with no per-call ``dataclasses.fields()`` introspection (docs/PERF.md).
"""

# athena-lint: hot-path

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import OpenFlowError

#: Names of all matchable fields in precedence-free order (this order is
#: also the dataclass field order, which the compiled caches rely on).
MATCH_FIELDS = (
    "in_port",
    "eth_src",
    "eth_dst",
    "eth_type",
    "vlan_id",
    "ip_src",
    "ip_dst",
    "ip_proto",
    "ip_tos",
    "tcp_src",
    "tcp_dst",
)


def _compile_predicate(
    set_fields: Tuple[Tuple[str, Any], ...]
) -> Callable[[Dict[str, Any]], bool]:
    """Build the per-instance ``matches`` closure over non-wildcard fields."""
    if not set_fields:
        return lambda headers: True
    if len(set_fields) == 1:
        ((name, wanted),) = set_fields

        def predicate_one(headers: Dict[str, Any]) -> bool:
            return headers.get(name) == wanted

        return predicate_one

    def predicate(headers: Dict[str, Any]) -> bool:
        get = headers.get
        for name, wanted in set_fields:
            if get(name) != wanted:
                return False
        return True

    return predicate


@dataclass(frozen=True)
class Match:
    """An immutable header match; unset fields are wildcards.

    ``tcp_src``/``tcp_dst`` carry the L4 source/destination port for both TCP
    and UDP, mirroring OpenFlow 1.0's ``tp_src``/``tp_dst``.
    """

    in_port: Optional[int] = None
    eth_src: Optional[str] = None
    eth_dst: Optional[str] = None
    eth_type: Optional[int] = None
    vlan_id: Optional[int] = None
    ip_src: Optional[str] = None
    ip_dst: Optional[str] = None
    ip_proto: Optional[int] = None
    ip_tos: Optional[int] = None
    tcp_src: Optional[int] = None
    tcp_dst: Optional[int] = None

    def __post_init__(self) -> None:
        # Compile once per instance.  The caches live in the instance
        # __dict__ and never participate in dataclass eq/hash; the field
        # order below mirrors MATCH_FIELDS exactly.
        values = (
            self.in_port,
            self.eth_src,
            self.eth_dst,
            self.eth_type,
            self.vlan_id,
            self.ip_src,
            self.ip_dst,
            self.ip_proto,
            self.ip_tos,
            self.tcp_src,
            self.tcp_dst,
        )
        set_fields = tuple(
            (name, value)
            for name, value in zip(MATCH_FIELDS, values)
            if value is not None
        )
        object.__setattr__(self, "_key", values)
        object.__setattr__(self, "_set_fields", set_fields)
        object.__setattr__(
            self,
            "_set_indexed",
            tuple((i, value) for i, value in enumerate(values) if value is not None),
        )
        object.__setattr__(self, "_specificity", len(set_fields))
        object.__setattr__(self, "_predicate", _compile_predicate(set_fields))

    # The compiled predicate is a closure, which pickle cannot carry;
    # serialize only the declared fields and recompile on load.
    def __getstate__(self) -> Dict[str, Any]:
        return dict(zip(MATCH_FIELDS, self._key))

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name in MATCH_FIELDS:
            object.__setattr__(self, name, state.get(name))
        self.__post_init__()

    def key_tuple(self) -> Tuple[Any, ...]:
        """All field values in :data:`MATCH_FIELDS` order (``None`` =
        wildcard); the flow table's exact-match hash index keys on this."""
        return self._key

    def matches(self, headers: Dict[str, Any]) -> bool:
        """Return whether a concrete packet-header dict satisfies this match.

        ``headers`` maps field names to concrete values; missing header keys
        only satisfy wildcarded fields.
        """
        return self._predicate(headers)

    def is_subset_of(self, other: "Match") -> bool:
        """True if every packet this match accepts, ``other`` also accepts."""
        key = self._key
        for index, theirs in other._set_indexed:
            if key[index] != theirs:
                return False
        return True

    def specificity(self) -> int:
        """Number of concretely matched fields (used for tie-breaking)."""
        return self._specificity

    def to_dict(self) -> Dict[str, Any]:
        """Dict of only the concretely matched fields."""
        return dict(self._set_fields)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Match":
        """Build a match from a dict, rejecting unknown field names."""
        unknown = set(data) - set(MATCH_FIELDS)
        if unknown:
            raise OpenFlowError(f"unknown match fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def exact_from_headers(cls, headers: Dict[str, Any]) -> "Match":
        """Build the exact-match entry for a concrete packet header dict."""
        return cls(**{k: v for k, v in headers.items() if k in MATCH_FIELDS})

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in self.to_dict().items()]
        return "Match(" + ", ".join(parts) + ")" if parts else "Match(*)"
