"""Wire coverage for every OpenFlow message class in the codec's layout table.

``serialization.LAYOUTS`` declares each message body once; both directions
of the codec walk it.  These tests round-trip every class in the table,
pin the encoded bytes of a fixed message set, hold the table to the
message classes, and feed the decoder truncated, padded and bit-flipped
buffers, which must decode to a valid message or raise ``OpenFlowError``.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OpenFlowError
from repro.openflow import messages as msgs
from repro.openflow.actions import (
    ActionController,
    ActionDrop,
    ActionOutput,
    ActionSetEthDst,
    ActionSetEthSrc,
    ActionSetIpDst,
    ActionSetIpSrc,
)
from repro.openflow.constants import (
    OFP_VERSION_10,
    OFP_VERSION_13,
    FlowModCommand,
    FlowRemovedReason,
    MessageType,
    PacketInReason,
    PortReason,
    StatsType,
)
from repro.openflow.match import Match
from repro.openflow.serialization import LAYOUTS, pack_message, unpack_message


def _sample_match() -> Match:
    return Match(ip_src="10.0.0.1", ip_dst="10.0.0.2", tcp_dst=80)


#: Non-default field values per class, so round-trips exercise real payloads
#: rather than empty defaults.
_SAMPLE_FIELDS = {
    msgs.Hello: dict(version=0x04),
    msgs.FeaturesReply: dict(n_tables=3, ports=[1, 2, 3]),
    msgs.PacketIn: dict(
        buffer_id=42,
        in_port=3,
        reason=PacketInReason.ACTION,
        headers={"ip_src": "10.0.0.1", "ip_proto": 6},
        total_len=128,
    ),
    msgs.PacketOut: dict(
        buffer_id=-1,
        in_port=2,
        actions=[ActionOutput(port=4), ActionController(max_len=64)],
        headers={"eth_src": "00:00:00:00:00:01"},
        total_len=60,
    ),
    msgs.FlowMod: dict(
        command=FlowModCommand.MODIFY,
        match=_sample_match(),
        priority=100,
        actions=[ActionOutput(port=1), ActionSetIpDst(ip="10.9.9.9")],
        idle_timeout=5.0,
        hard_timeout=60.0,
        cookie=0xABC,
        app_id="fwd",
        table_id=1,
        out_port=7,
    ),
    msgs.FlowRemoved: dict(
        match=_sample_match(),
        priority=10,
        reason=FlowRemovedReason.HARD_TIMEOUT,
        duration_sec=12.5,
        packet_count=1000,
        byte_count=64000,
        cookie=3,
        app_id="fwd",
    ),
    msgs.PortStatus: dict(port_no=9, reason=PortReason.DELETE, link_up=False),
    msgs.FlowStatsRequest: dict(match=_sample_match(), table_id=2),
    msgs.PortStatsRequest: dict(port_no=5),
    msgs.AggregateStatsRequest: dict(match=_sample_match()),
    msgs.FlowStatsReply: dict(
        entries=[
            msgs.FlowStatsEntry(
                match=_sample_match(),
                priority=10,
                duration_sec=4.0,
                packet_count=12,
                byte_count=900,
                idle_timeout=5.0,
                hard_timeout=0.0,
                cookie=1,
                app_id="fwd",
                table_id=0,
            )
        ]
    ),
    msgs.PortStatsReply: dict(
        entries=[msgs.PortStatsEntry(port_no=1, rx_packets=5, tx_bytes=700)]
    ),
    msgs.AggregateStatsReply: dict(packet_count=9, byte_count=512, flow_count=2),
    msgs.TableStatsReply: dict(
        entries=[msgs.TableStatsEntry(table_id=0, active_count=4, lookup_count=99)]
    ),
}

_CLASSES = sorted(LAYOUTS, key=lambda c: c.__name__)


def _sample(cls, **overrides):
    return cls(dpid=11, **{**_SAMPLE_FIELDS.get(cls, {}), **overrides})


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda c: c.__name__)
class TestRegistryRoundtrips:
    def test_roundtrip_preserves_type_and_fields(self, cls):
        msg = _sample(cls)
        decoded = unpack_message(pack_message(msg))
        assert type(decoded) is cls
        assert decoded.dpid == msg.dpid
        assert decoded.xid == msg.xid
        assert decoded.msg_type is cls.msg_type
        for field in dataclasses.fields(cls):
            if field.name in ("dpid", "xid", "buffer_id"):
                continue  # buffer_id of FlowMod is not carried on the wire
            assert getattr(decoded, field.name) == getattr(msg, field.name), field.name


class TestRegistryCompleteness:
    def test_every_concrete_message_class_is_registered(self):
        """Every leaf message class has a layout; the bases have none."""
        concrete = {
            obj
            for obj in vars(msgs).values()
            if isinstance(obj, type)
            and issubclass(obj, msgs.OpenFlowMessage)
            and not obj.__subclasses__()
        }
        assert concrete == set(LAYOUTS)
        assert len(concrete) == 20

    def test_registry_types_match_declared_msg_type(self):
        """Each layout names exactly the class's wire fields, and the
        decoder's ``(msg_type, stats_type)`` dispatch is one-to-one."""
        keys = set()
        for cls, layout in LAYOUTS.items():
            names = [name for name, _codec in layout]
            init_fields = {
                f.name for f in dataclasses.fields(cls) if f.init
            } - {"dpid", "xid"}
            if cls is msgs.FlowMod:
                init_fields.discard("buffer_id")
            assert sorted(names) == sorted(init_fields), cls.__name__
            assert isinstance(cls.msg_type, MessageType)
            stats_type = getattr(cls, "stats_type", None)
            in_stats_family = issubclass(cls, (msgs.StatsRequest, msgs.StatsReply))
            assert isinstance(stats_type, StatsType) is in_stats_family
            keys.add((cls.msg_type, stats_type))
        assert len(keys) == len(LAYOUTS)

    def test_abstract_messages_are_rejected(self):
        with pytest.raises(OpenFlowError, match="no wire layout"):
            pack_message(msgs.StatsRequest())


def _pinned_messages():
    """Every class as its sample and as its defaults, plus messages that
    reach every action kind, scalar tag and the other header version;
    xids are fixed so the bytes are."""
    pinned = []
    for index, cls in enumerate(_CLASSES):
        pinned.append((_sample(cls, xid=2 * index + 1), OFP_VERSION_13))
        pinned.append((cls(xid=2 * index + 2), OFP_VERSION_13))
    every_action = [
        ActionOutput(port=0xFFFFFFFD),
        ActionController(max_len=0),
        ActionDrop(),
        ActionSetEthSrc(mac="02:00:00:00:00:01"),
        ActionSetEthDst(mac="02:00:00:00:00:02"),
        ActionSetIpSrc(ip="192.168.0.1"),
        ActionSetIpDst(ip="10.66.0.1"),
    ]
    every_scalar = {
        "none": None, "yes": True, "no": False, "neg": -(1 << 40),
        "ratio": 0.125, "text": "hôte",
    }
    pinned.append((
        msgs.PacketOut(dpid=1 << 40, xid=0xFFFFFFFF, actions=every_action,
                       headers=every_scalar, total_len=1500),
        OFP_VERSION_13,
    ))
    pinned.append((
        msgs.FlowMod(dpid=2, xid=99, match=Match(in_port=1, vlan_id=4095),
                     actions=every_action, app_id=None, out_port=None),
        OFP_VERSION_10,
    ))
    return pinned


#: sha256 over the concatenated encodings of ``_pinned_messages()``,
#: recorded before the codec moved to the layout table.
_WIRE_SHA256 = "ea8222560b2b4a88466082ee3d5742beec745372cc10dea4b239b1354fba1e02"


class TestWireBytes:
    def test_encoded_bytes_are_pinned(self):
        digest = hashlib.sha256()
        for msg, version in _pinned_messages():
            digest.update(pack_message(msg, version=version))
        assert digest.hexdigest() == _WIRE_SHA256

    def test_pinned_messages_roundtrip(self):
        for msg, version in _pinned_messages():
            wire = pack_message(msg, version=version)
            decoded = unpack_message(wire)
            assert type(decoded) is type(msg)
            assert pack_message(decoded, version=version) == wire


_ENCODED = [pack_message(_sample(cls)) for cls in _CLASSES]

_cuts = st.sampled_from(_ENCODED).flatmap(
    lambda wire: st.tuples(st.just(wire), st.integers(0, len(wire) - 1))
)
_flips = st.sampled_from(_ENCODED).flatmap(
    lambda wire: st.tuples(st.just(wire), st.integers(0, 8 * len(wire) - 1))
)


class TestHostileInput:
    """Truncated or padded bytes never decode; a flipped bit decodes to a
    message of a layout class or raises ``OpenFlowError``, never anything
    untyped."""

    @settings(max_examples=200, deadline=None)
    @given(_cuts)
    def test_truncated_buffer_raises(self, cut):
        wire, end = cut
        with pytest.raises(OpenFlowError):
            unpack_message(wire[:end])

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_ENCODED), st.binary(min_size=1, max_size=32))
    def test_padded_buffer_raises(self, wire, tail):
        with pytest.raises(OpenFlowError):
            unpack_message(wire + tail)

    @settings(max_examples=400, deadline=None)
    @given(_flips)
    def test_bit_flipped_buffer_decodes_or_raises(self, flip):
        wire, bit = flip
        buf = bytearray(wire)
        buf[bit // 8] ^= 1 << (bit % 8)
        try:
            decoded = unpack_message(bytes(buf))
        except OpenFlowError:
            return
        assert type(decoded) in LAYOUTS
