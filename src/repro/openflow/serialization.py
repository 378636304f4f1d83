"""Binary codec for OpenFlow messages.

The simulator passes message objects by reference; the codec gives them a
concrete wire form, and the tests hold the message model to it.  A message
is an OpenFlow-style header (version, type, length, xid), the datapath
id, a one-byte ``stats_type`` for the statistics family, and a body.

Each body is declared once, in :data:`LAYOUTS`, as an ordered tuple of
``(attribute, field codec)`` pairs.  :func:`pack_message` and
:func:`unpack_message` both walk that table, so the two directions cannot
drift apart.  Variable structures (matches, header dicts, action lists,
stats entries) are counted or tag-length-value runs.

The decoder is strict: the header length must equal the buffer length,
every byte must be consumed, and any malformed input (truncated, padded
or bit-flipped) raises :class:`~repro.errors.OpenFlowError`.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import OpenFlowError
from repro.openflow import actions as act
from repro.openflow import messages as msgs
from repro.openflow.constants import (
    OFP_VERSION_13,
    FlowModCommand,
    FlowRemovedReason,
    PacketInReason,
    PortReason,
)
from repro.openflow.match import Match
from repro.openflow.messages import OpenFlowMessage

_HEADER = struct.Struct("!BBHI")  # version, type, length, xid

#: ``(attribute, field codec)`` pairs in wire order.  A field codec has
#: ``pack(value) -> bytes`` and ``unpack(buf, offset) -> (value, offset)``.
Layout = Tuple[Tuple[str, Any], ...]


class _Fixed:
    """A fixed-width struct field, optionally carried as an enum or bool."""

    def __init__(self, fmt: str, kind: Optional[Callable[[Any], Any]] = None):
        self._struct = struct.Struct("!" + fmt)
        self._kind = kind

    def pack(self, value: Any) -> bytes:
        return self._struct.pack(value)

    def unpack(self, buf: bytes, offset: int) -> Tuple[Any, int]:
        (value,) = self._struct.unpack_from(buf, offset)
        if self._kind is not None:
            value = self._kind(value)
        return value, offset + self._struct.size


_U8, _U16, _U32, _U64 = _Fixed("B"), _Fixed("H"), _Fixed("I"), _Fixed("Q")
_DOUBLE = _Fixed("d")


class _Str:
    """UTF-8 text behind a 16-bit length."""

    def pack(self, text: str) -> bytes:
        raw = text.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise OpenFlowError("string too long to encode")
        return _U16.pack(len(raw)) + raw

    def unpack(self, buf: bytes, offset: int) -> Tuple[str, int]:
        length, offset = _U16.unpack(buf, offset)
        end = offset + length
        if end > len(buf):
            raise OpenFlowError("string runs past the end of the buffer")
        return buf[offset:end].decode("utf-8"), end


_STR = _Str()

#: Scalar type tags; ``None`` is the bare tag ``N``.  ``bool`` precedes
#: ``int`` because it is an ``int`` subclass.
_SCALAR_TAGS = (
    (b"B", bool, _Fixed("?")),
    (b"I", int, _Fixed("q")),
    (b"F", float, _DOUBLE),
    (b"S", str, _STR),
)


class _Scalar:
    """``None``, bool, int, float or str behind a one-byte type tag."""

    def pack(self, value: Any) -> bytes:
        if value is None:
            return b"N"
        for tag, kind, codec in _SCALAR_TAGS:
            if isinstance(value, kind):
                return tag + codec.pack(value)
        raise OpenFlowError(f"cannot encode value of type {type(value).__name__}")

    def unpack(self, buf: bytes, offset: int) -> Tuple[Any, int]:
        tag = buf[offset : offset + 1]
        if tag == b"N":
            return None, offset + 1
        for known, _kind, codec in _SCALAR_TAGS:
            if tag == known:
                return codec.unpack(buf, offset + 1)
        raise OpenFlowError(f"unknown value tag {tag!r}")


_SCALAR = _Scalar()


class _Dict:
    """A str-keyed dict of tagged scalars, keys sorted on the wire."""

    def pack(self, data: Dict[str, Any]) -> bytes:
        out = [_U16.pack(len(data))]
        for key in sorted(data):
            out.append(_STR.pack(key))
            out.append(_SCALAR.pack(data[key]))
        return b"".join(out)

    def unpack(self, buf: bytes, offset: int) -> Tuple[Dict[str, Any], int]:
        count, offset = _U16.unpack(buf, offset)
        data: Dict[str, Any] = {}
        for _ in range(count):
            key, offset = _STR.unpack(buf, offset)
            data[key], offset = _SCALAR.unpack(buf, offset)
        return data, offset


_DICT = _Dict()


class _Match:
    """A :class:`Match` as the dict of its set fields."""

    def pack(self, match: Match) -> bytes:
        return _DICT.pack(match.to_dict())

    def unpack(self, buf: bytes, offset: int) -> Tuple[Match, int]:
        data, offset = _DICT.unpack(buf, offset)
        return Match.from_dict(data), offset


_MATCH = _Match()

#: Action classes in wire-code order, each with its payload attribute.
_ACTION_KINDS: Tuple[Tuple[type, Optional[str], Any], ...] = (
    (act.ActionOutput, "port", _U32),
    (act.ActionController, "max_len", _U32),
    (act.ActionDrop, None, None),
    (act.ActionSetEthSrc, "mac", _STR),
    (act.ActionSetEthDst, "mac", _STR),
    (act.ActionSetIpSrc, "ip", _STR),
    (act.ActionSetIpDst, "ip", _STR),
)
_ACTION_CODES = {kind[0]: code for code, kind in enumerate(_ACTION_KINDS)}


class _Action:
    """One action: its wire-code byte, then its payload, if any."""

    def pack(self, action: act.Action) -> bytes:
        code = _ACTION_CODES.get(type(action))
        if code is None:
            raise OpenFlowError(f"cannot encode action kind {action.kind!r}")
        _cls, attribute, codec = _ACTION_KINDS[code]
        if attribute is None:
            return _U8.pack(code)
        return _U8.pack(code) + codec.pack(getattr(action, attribute))

    def unpack(self, buf: bytes, offset: int) -> Tuple[act.Action, int]:
        code, offset = _U8.unpack(buf, offset)
        if code >= len(_ACTION_KINDS):
            raise OpenFlowError(f"unknown action code {code}")
        cls, attribute, codec = _ACTION_KINDS[code]
        if attribute is None:
            return cls(), offset
        value, offset = codec.unpack(buf, offset)
        return cls(**{attribute: value}), offset


def _pack_fields(obj: Any, layout: Layout) -> bytes:
    return b"".join(codec.pack(getattr(obj, name)) for name, codec in layout)


def _unpack_fields(
    buf: bytes, offset: int, layout: Layout
) -> Tuple[Dict[str, Any], int]:
    fields: Dict[str, Any] = {}
    for name, codec in layout:
        fields[name], offset = codec.unpack(buf, offset)
    return fields, offset


class _Record:
    """A stats entry dataclass, laid out like a message body."""

    def __init__(self, cls: type, layout: Layout):
        self._cls = cls
        self._layout = layout

    def pack(self, entry: Any) -> bytes:
        return _pack_fields(entry, self._layout)

    def unpack(self, buf: bytes, offset: int) -> Tuple[Any, int]:
        fields, offset = _unpack_fields(buf, offset, self._layout)
        return self._cls(**fields), offset


class _List:
    """A list behind an item count, each item in one field codec."""

    def __init__(self, count: _Fixed, item: Any):
        self._count = count
        self._item = item

    def pack(self, items: List[Any]) -> bytes:
        return self._count.pack(len(items)) + b"".join(
            self._item.pack(item) for item in items
        )

    def unpack(self, buf: bytes, offset: int) -> Tuple[List[Any], int]:
        count, offset = self._count.unpack(buf, offset)
        items = []
        for _ in range(count):
            item, offset = self._item.unpack(buf, offset)
            items.append(item)
        return items, offset


_ACTIONS = _List(_U16, _Action())

_FLOW_STATS_ENTRY = _Record(
    msgs.FlowStatsEntry,
    (
        ("priority", _U32),
        ("duration_sec", _DOUBLE),
        ("packet_count", _U64),
        ("byte_count", _U64),
        ("idle_timeout", _DOUBLE),
        ("hard_timeout", _DOUBLE),
        ("cookie", _U64),
        ("table_id", _U8),
        ("match", _MATCH),
        ("app_id", _SCALAR),
    ),
)
_PORT_STATS_ENTRY = _Record(
    msgs.PortStatsEntry,
    (("port_no", _U32),)
    + tuple(
        (name, _U64)
        for name in (
            "rx_packets", "tx_packets", "rx_bytes", "tx_bytes",
            "rx_dropped", "tx_dropped", "rx_errors", "tx_errors",
        )
    ),
)
_TABLE_STATS_ENTRY = _Record(
    msgs.TableStatsEntry,
    (("table_id", _U8),)
    + tuple(
        (name, _U64)
        for name in ("active_count", "lookup_count", "matched_count", "max_entries")
    ),
)

#: Every concrete message class the codec supports, mapped to its body
#: layout.  ``FlowMod.buffer_id`` is deliberately not carried.
LAYOUTS: Dict[Type[OpenFlowMessage], Layout] = {
    msgs.Hello: (("version", _U8),),
    msgs.EchoRequest: (),
    msgs.EchoReply: (),
    msgs.FeaturesRequest: (),
    msgs.FeaturesReply: (("n_tables", _U8), ("ports", _List(_U16, _U32))),
    msgs.PacketIn: (
        ("buffer_id", _Fixed("i")),
        ("in_port", _U32),
        ("reason", _Fixed("B", PacketInReason)),
        ("total_len", _U32),
        ("headers", _DICT),
    ),
    msgs.PacketOut: (
        ("buffer_id", _Fixed("i")),
        ("in_port", _U32),
        ("total_len", _U32),
        ("actions", _ACTIONS),
        ("headers", _DICT),
    ),
    msgs.FlowMod: (
        ("command", _Fixed("B", FlowModCommand)),
        ("priority", _U32),
        ("idle_timeout", _DOUBLE),
        ("hard_timeout", _DOUBLE),
        ("cookie", _U64),
        ("table_id", _U8),
        ("match", _MATCH),
        ("actions", _ACTIONS),
        ("app_id", _SCALAR),
        ("out_port", _SCALAR),
    ),
    msgs.FlowRemoved: (
        ("priority", _U32),
        ("reason", _Fixed("B", FlowRemovedReason)),
        ("duration_sec", _DOUBLE),
        ("packet_count", _U64),
        ("byte_count", _U64),
        ("cookie", _U64),
        ("match", _MATCH),
        ("app_id", _SCALAR),
    ),
    msgs.PortStatus: (
        ("port_no", _U32),
        ("reason", _Fixed("B", PortReason)),
        ("link_up", _Fixed("B", bool)),
    ),
    msgs.FlowStatsRequest: (("table_id", _U8), ("match", _MATCH)),
    msgs.PortStatsRequest: (("port_no", _SCALAR),),
    msgs.AggregateStatsRequest: (("match", _MATCH),),
    msgs.TableStatsRequest: (),
    msgs.FlowStatsReply: (("entries", _List(_U32, _FLOW_STATS_ENTRY)),),
    msgs.PortStatsReply: (("entries", _List(_U32, _PORT_STATS_ENTRY)),),
    msgs.AggregateStatsReply: (
        ("packet_count", _U64),
        ("byte_count", _U64),
        ("flow_count", _U32),
    ),
    msgs.TableStatsReply: (("entries", _List(_U32, _TABLE_STATS_ENTRY)),),
    msgs.BarrierRequest: (),
    msgs.BarrierReply: (),
}

#: ``(msg_type, stats_type)`` -> class, read off the class constants;
#: ``stats_type`` is ``None`` outside the statistics family.
_DISPATCH = {
    (cls.msg_type, getattr(cls, "stats_type", None)): cls for cls in LAYOUTS
}
_SUBTYPED = {msg_type for msg_type, stats_type in _DISPATCH if stats_type is not None}


def pack_message(msg: OpenFlowMessage, version: int = OFP_VERSION_13) -> bytes:
    """Encode a message to bytes (OpenFlow-style header + typed body)."""
    cls = type(msg)
    layout = LAYOUTS.get(cls)
    if layout is None:
        raise OpenFlowError(f"{cls.__name__} has no wire layout in LAYOUTS")
    body = _U64.pack(msg.dpid)
    if cls.msg_type in _SUBTYPED:
        body += _U8.pack(cls.stats_type)
    body += _pack_fields(msg, layout)
    length = _HEADER.size + len(body)
    return _HEADER.pack(version, cls.msg_type, length & 0xFFFF, msg.xid) + body


def unpack_message(buf: bytes) -> OpenFlowMessage:
    """Decode bytes produced by :func:`pack_message` back into a message.

    Any buffer that is not exactly one well-formed message raises
    :class:`OpenFlowError`.
    """
    try:
        return _unpack(buf)
    except (struct.error, IndexError, ValueError, TypeError) as exc:
        raise OpenFlowError(f"malformed OpenFlow message: {exc}") from exc


def _unpack(buf: bytes) -> OpenFlowMessage:
    _version, msg_type, length, xid = _HEADER.unpack_from(buf, 0)
    if length != len(buf) & 0xFFFF:
        raise OpenFlowError(
            f"header length {length} does not match buffer length {len(buf)}"
        )
    dpid, offset = _U64.unpack(buf, _HEADER.size)
    stats_type = None
    if msg_type in _SUBTYPED:
        stats_type, offset = _U8.unpack(buf, offset)
    cls = _DISPATCH.get((msg_type, stats_type))
    if cls is None:
        raise OpenFlowError(f"unknown message type {msg_type}/{stats_type}")
    fields, offset = _unpack_fields(buf, offset, LAYOUTS[cls])
    if offset != len(buf):
        raise OpenFlowError(f"{len(buf) - offset} trailing byte(s) after {cls.__name__}")
    return cls(dpid=dpid, xid=xid, **fields)
