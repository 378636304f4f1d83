"""The ``SKETCH_*`` feature scope: per-switch window features.

A window state is fed every flow observation and once per sampling round
*rolls* a switch's window into one sketch-scoped feature record.  Per
window and per switch it keeps a per-flow packet/byte counter (with
running heavy-hitter maxima), two cardinality estimators (unique sources,
unique destination ports) and exact tallies; a *persistent* per-switch
membership structure remembers every source host ever observed, so the
previously-seen-host ratio survives across windows.

There is one window implementation (:class:`_WindowState`: ``observe``,
``roll``, the field formulas) and two estimator backends:

* :class:`SketchFeatureState` — Count-Min / HyperLogLog / Bloom.  Memory
  is bounded by the sketch parameters, independent of how many distinct
  flows pass through a window, which is what the million-flow workload
  in :mod:`repro.workloads.sketchscale` exercises; mergeable and
  byte-serialisable.
* :class:`ExactWindowState` — dict / set / set.  Exact values at memory
  linear in distinct flows: the equivalence baseline for the scenario
  recall tests and the reference the benchmark extrapolates against.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import astuple, dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.sketch.bloom import BloomFilter
from repro.sketch.cms import CountMinSketch, SketchError
from repro.sketch.hll import HyperLogLog

#: Every feature the sketch scope emits, in catalog (and emission) order.
SKETCH_FEATURE_NAMES: Tuple[str, ...] = (
    "SKETCH_OBSERVATIONS",
    "SKETCH_TOTAL_PACKETS",
    "SKETCH_TOTAL_BYTES",
    "SKETCH_HEAVY_HITTER_PACKETS",
    "SKETCH_HEAVY_HITTER_BYTES",
    "SKETCH_HH_PACKET_SHARE",
    "SKETCH_UNIQUE_SRC_EST",
    "SKETCH_UNIQUE_DST_PORT_EST",
    "SKETCH_FLOWS_PER_SRC_EST",
    "SKETCH_PORTS_PER_SRC_EST",
    "SKETCH_SEEN_HOST_RATIO",
)

_STATE_MAGIC = b"SKST"
_HEADER = struct.Struct("<4sqddIQdI")
_SWITCH_RECORD = struct.Struct("<qqqQQQQ")
_BLOB_LENGTH = struct.Struct("<I")


@dataclass(frozen=True)
class SketchParams:
    """Sizing knobs for one switch's sketch set (docs/SKETCH.md table)."""

    cms_epsilon: float = 0.001  # width ⌈e/ε⌉ = 2719 counters per row
    cms_delta: float = 0.01  # depth ⌈ln(1/δ)⌉ = 5 rows
    hll_p: int = 12  # m = 4096 registers, σ ≈ 1.6%
    bloom_capacity: int = 200_000  # seen-host memory per switch
    bloom_fp: float = 0.01


class _Window:
    """One switch's open window plus its persistent seen-host membership.

    The estimator roles: ``flows.add(key, packets, bytes) -> (packets,
    bytes)`` counted for the key so far; ``srcs`` / ``dst_ports`` with
    ``add(item)`` and ``cardinality()``; ``hosts.add(item) -> bool``,
    whether the item was there before.
    """

    #: The window's exact counts, in serialisation order.
    TALLIES = (
        "hh_packets",
        "hh_bytes",
        "observations",
        "seen_hits",
        "total_packets",
        "total_bytes",
    )
    __slots__ = ("flows", "srcs", "dst_ports", "hosts") + TALLIES

    def __init__(self, hosts, flows, srcs, dst_ports, tallies=(0,) * len(TALLIES)):
        self.hosts = hosts
        self.open(flows, srcs, dst_ports, tallies)

    def open(self, flows, srcs, dst_ports, tallies=(0,) * len(TALLIES)) -> None:
        """Start a window on fresh estimators; ``hosts`` persists."""
        self.flows, self.srcs, self.dst_ports = flows, srcs, dst_ports
        for name, value in zip(self.TALLIES, tallies):
            setattr(self, name, value)

    tallies = property(attrgetter(*TALLIES), doc="The counts, as ``open`` takes them.")


class _WindowState:
    """Per-switch windows over a backend's estimators.

    A backend supplies ``_estimators(dpid) -> (flows, srcs, dst_ports)``
    for a fresh window and ``_membership(dpid)`` for a switch's
    seen-host structure.
    """

    def __init__(self, params: Optional[SketchParams] = None, seed: int = 0):
        self.params = params or SketchParams()
        self.seed = int(seed)
        self._switches: Dict[int, _Window] = {}

    def _switch(self, dpid: int) -> _Window:
        state = self._switches.get(dpid)
        if state is None:
            state = self._switches[dpid] = _Window(
                self._membership(dpid), *self._estimators(dpid)
            )
        return state

    def observe(
        self,
        dpid: int,
        flow_key: Any,
        src: Any,
        dst_port: Any,
        packets: int = 1,
        bytes_: int = 0,
    ) -> None:
        """Fold one flow observation into the switch's current window."""
        state = self._switch(dpid)
        packets = max(0, int(packets))
        bytes_ = max(0, int(bytes_))
        # Counts only grow inside a window, so the running maximum of the
        # per-key counts is the window's heaviest flow.
        flow_packets, flow_bytes = state.flows.add(flow_key, packets, bytes_)
        if flow_packets > state.hh_packets:
            state.hh_packets = flow_packets
        if flow_bytes > state.hh_bytes:
            state.hh_bytes = flow_bytes
        state.srcs.add(src)
        state.dst_ports.add(dst_port)
        state.seen_hits += state.hosts.add(src)
        state.observations += 1
        state.total_packets += packets
        state.total_bytes += bytes_

    @staticmethod
    def _fields(state: _Window) -> Dict[str, float]:
        observations = state.observations
        unique_src = state.srcs.cardinality() if observations else 0.0
        unique_port = state.dst_ports.cardinality() if observations else 0.0
        return {
            "SKETCH_OBSERVATIONS": float(observations),
            "SKETCH_TOTAL_PACKETS": float(state.total_packets),
            "SKETCH_TOTAL_BYTES": float(state.total_bytes),
            "SKETCH_HEAVY_HITTER_PACKETS": float(state.hh_packets),
            "SKETCH_HEAVY_HITTER_BYTES": float(state.hh_bytes),
            "SKETCH_HH_PACKET_SHARE": (
                state.hh_packets / state.total_packets if state.total_packets else 0.0
            ),
            "SKETCH_UNIQUE_SRC_EST": unique_src,
            "SKETCH_UNIQUE_DST_PORT_EST": unique_port,
            "SKETCH_FLOWS_PER_SRC_EST": (
                observations / unique_src if unique_src else 0.0
            ),
            "SKETCH_PORTS_PER_SRC_EST": (
                unique_port / unique_src if unique_src else 0.0
            ),
            "SKETCH_SEEN_HOST_RATIO": (
                state.seen_hits / observations if observations else 0.0
            ),
        }

    def switch_fields(self, dpid: int) -> Dict[str, float]:
        """The current window's features without closing the window.

        A read: a switch never observed reads as zeros and stays unknown.
        """
        state = self._switches.get(dpid)
        if state is None:
            return dict.fromkeys(SKETCH_FEATURE_NAMES, 0.0)
        return self._fields(state)

    def roll(self, dpid: int) -> Dict[str, float]:
        """Close the switch's window: emit its features and start fresh.

        The seen-host membership persists across windows; everything
        else (counts, cardinalities, heavy hitters) is window-scoped.
        """
        state = self._switch(dpid)
        fields = self._fields(state)
        state.open(*self._estimators(dpid))
        return fields

    def switches(self) -> List[int]:
        return sorted(self._switches)

    def observations(self, dpid: int) -> int:
        """Observations in the switch's current window (0 if unseen)."""
        state = self._switches.get(dpid)
        return state.observations if state is not None else 0


class _SketchFlows:
    """The flow-counter role on two Count-Min sketches."""

    __slots__ = ("packets", "bytes")

    def __init__(self, packets: CountMinSketch, bytes_: CountMinSketch):
        self.packets = packets
        self.bytes = bytes_

    def add(self, key: Any, packets: int, bytes_: int) -> Tuple[int, int]:
        return self.packets.add(key, packets), self.bytes.add(key, bytes_)


class SketchFeatureState(_WindowState):
    """Sketch-backed windows with deterministic rolling and merging."""

    # -- backend --------------------------------------------------------

    def _estimators(self, dpid: int):
        # The switch seed derives from the dpid so shards built in any
        # dpid order serialise identically.
        params, seed = self.params, self.seed + 1000 * dpid
        return (
            _SketchFlows(
                CountMinSketch(params.cms_epsilon, params.cms_delta, seed),
                CountMinSketch(params.cms_epsilon, params.cms_delta, seed + 1),
            ),
            HyperLogLog(params.hll_p, seed + 2),
            HyperLogLog(params.hll_p, seed + 3),
        )

    def _membership(self, dpid: int) -> BloomFilter:
        return BloomFilter(
            capacity=self.params.bloom_capacity,
            fp_rate=self.params.bloom_fp,
            seed=self.seed + 1000 * dpid,
        )

    @staticmethod
    def _sketches(state: _Window) -> tuple:
        """The switch's five sketches, in serialisation order."""
        return (
            state.flows.packets,
            state.flows.bytes,
            state.srcs,
            state.dst_ports,
            state.hosts,
        )

    # -- distribution --------------------------------------------------

    def merge(self, other: "SketchFeatureState") -> "SketchFeatureState":
        """Fold a shard's state into self.

        CMS counters add, HLL registers max, Blooms OR — exactly the
        union stream.  Heavy-hitter maxima take the max across shards,
        a lower bound when one flow's traffic was split between shards.
        """
        if (self.params, self.seed) != (other.params, other.seed):
            raise SketchError("cannot merge sketch states with differing params/seed")
        for dpid, theirs in other._switches.items():
            mine = self._switch(dpid)
            for sketch, shard in zip(self._sketches(mine), self._sketches(theirs)):
                sketch.merge(shard)
            mine.hh_packets = max(mine.hh_packets, theirs.hh_packets)
            mine.hh_bytes = max(mine.hh_bytes, theirs.hh_bytes)
            mine.observations += theirs.observations
            mine.seen_hits += theirs.seen_hits
            mine.total_packets += theirs.total_packets
            mine.total_bytes += theirs.total_bytes
        return self

    def to_bytes(self) -> bytes:
        """Deterministic serialisation (switches in dpid order)."""
        parts = [
            _HEADER.pack(
                _STATE_MAGIC, self.seed, *astuple(self.params), len(self._switches)
            )
        ]
        for dpid in sorted(self._switches):
            state = self._switches[dpid]
            parts.append(_SWITCH_RECORD.pack(dpid, *state.tallies))
            for sketch in self._sketches(state):
                blob = sketch.to_bytes()
                parts.append(_BLOB_LENGTH.pack(len(blob)))
                parts.append(blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SketchFeatureState":
        """Rebuild a state; anything but a whole serialisation is a SketchError."""
        offset = 0

        def take(size: int) -> bytes:
            nonlocal offset
            chunk = data[offset : offset + size]
            if len(chunk) != size:
                raise SketchError("truncated sketch-state serialisation")
            offset += size
            return chunk

        magic, seed, *params, n_switches = _HEADER.unpack(take(_HEADER.size))
        if magic != _STATE_MAGIC:
            raise SketchError("not a sketch-state serialisation")
        restored = cls(params=SketchParams(*params), seed=seed)
        for _ in range(n_switches):
            dpid, *tallies = _SWITCH_RECORD.unpack(take(_SWITCH_RECORD.size))
            blobs = [take(_BLOB_LENGTH.unpack(take(4))[0]) for _ in range(5)]
            packets, bytes_ = map(CountMinSketch.from_bytes, blobs[:2])
            srcs, dst_ports = map(HyperLogLog.from_bytes, blobs[2:4])
            hosts = BloomFilter.from_bytes(blobs[4])
            # The header's parameters size every later window; they must
            # be the ones the restored sketches were built with.
            built_with = SketchParams(
                packets.epsilon, packets.delta, srcs.p, hosts.capacity, hosts.fp_rate
            )
            if built_with != restored.params:
                raise SketchError("switch sketches disagree with state parameters")
            restored._switches[dpid] = _Window(
                hosts, _SketchFlows(packets, bytes_), srcs, dst_ports, tallies
            )
        if offset != len(data):
            raise SketchError("bytes left over after the sketch state")
        return restored

    def __reduce__(self):
        return (SketchFeatureState.from_bytes, (self.to_bytes(),))

    # -- introspection -------------------------------------------------

    def nbytes(self) -> int:
        """Resident sketch bytes across all switches."""
        return sum(
            sketch.nbytes()
            for state in self._switches.values()
            for sketch in self._sketches(state)
        )

    def fill_stats(self) -> Dict[str, float]:
        """Aggregate fill/error stats for northbound and telemetry."""
        switches = list(self._switches.values())
        n = len(switches) or 1  # the means of no switches read 0.0
        return {
            "switches": len(switches),
            "observations": sum(s.observations for s in switches),
            "nbytes": self.nbytes(),
            "cms_fill_ratio": sum(s.flows.packets.fill_ratio() for s in switches) / n,
            "cms_error_bound": max(
                (s.flows.packets.error_bound() for s in switches), default=0.0
            ),
            "hll_fill_ratio": sum(s.srcs.fill_ratio() for s in switches) / n,
            "hll_relative_error": HyperLogLog(self.params.hll_p).relative_error(),
            "bloom_fill_ratio": sum(s.hosts.fill_ratio() for s in switches) / n,
            "bloom_fp_bound": max((s.hosts.fp_bound() for s in switches), default=0.0),
        }


class _ExactFlows(dict):
    """The flow-counter role, exactly: key → ``[packets, bytes]``."""

    __slots__ = ()

    def add(self, key: Any, packets: int, bytes_: int) -> List[int]:
        counters = self.get(key)
        if counters is None:
            counters = self[key] = [packets, bytes_]
        else:
            counters[0] += packets
            counters[1] += bytes_
        return counters


class _ExactSet(set):
    """The cardinality and membership roles, exactly."""

    __slots__ = ()

    def add(self, item: Any) -> bool:
        present = item in self
        set.add(self, item)
        return present

    def cardinality(self) -> float:
        return float(len(self))


class ExactWindowState(_WindowState):
    """Exact-state reference: the same windows on dicts and sets.

    Emits the same ``SKETCH_*`` field names with exact values.  Memory is
    linear in distinct flows per window (plus the persistent seen-host
    set) — the baseline :mod:`benchmarks.bench_sketch` extrapolates to
    show the sketch path's sublinearity.
    """

    def _estimators(self, dpid: int):
        return _ExactFlows(), _ExactSet(), _ExactSet()

    def _membership(self, dpid: int) -> _ExactSet:
        return _ExactSet()

    def nbytes(self) -> int:
        """Approximate resident bytes of the exact per-flow state."""
        total = 0
        for state in self._switches.values():
            total += sum(
                sys.getsizeof(k) + sys.getsizeof(v) for k, v in state.flows.items()
            )
            for container in (state.flows, state.srcs, state.dst_ports, state.hosts):
                total += sys.getsizeof(container)
        return total
