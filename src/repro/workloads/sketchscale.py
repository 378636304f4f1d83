"""Million-flow workloads for the sketch feature path (docs/SKETCH.md).

Seeded generator for flow-observation streams at a scale the exact
per-flow state cannot hold under the bench's memory ceiling: the default
spec produces ~1M distinct flows drawn over a 100k-host pool, split into
per-switch sampling windows.  Events are produced as numpy chunks so the
generator itself never materialises the full stream, and each chunk is
fed observation-by-observation into either a
:class:`~repro.sketch.features.SketchFeatureState` (bounded memory) or an
:class:`~repro.sketch.features.ExactWindowState` (linear memory — the
baseline the benchmark extrapolates).

Two attack scenarios, each confined to configured windows and switches:

* ``ddos`` — a spoofed-source flood toward one victim service: a surge
  of never-seen sources (crashes ``SKETCH_SEEN_HOST_RATIO``, inflates
  ``SKETCH_UNIQUE_SRC_EST``);
* ``portscan`` — one scanner sweeping destination ports: inflates
  ``SKETCH_UNIQUE_DST_PORT_EST`` far beyond the benign service-port mix.

Ground truth is per (switch, window): :meth:`SketchScaleGenerator.label`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.simkernel.rng import SeededRng

#: Benign service ports (a small fixed mix, so the benign distinct
#: dst-port estimate stays near len(_SERVICE_PORTS)).
_SERVICE_PORTS = np.array([80, 443, 53, 22, 25, 123, 993, 8080], dtype=np.int64)

#: Source-id offset for spoofed DDoS sources, far outside any host pool.
_SPOOF_BASE = 1 << 40


@dataclass(frozen=True)
class SketchScaleSpec:
    """Shape of one sketch-scale workload run."""

    scenario: str = "ddos"  # "ddos" | "portscan"
    n_flows: int = 1_000_000  # distinct flows across the whole run
    n_hosts: int = 100_000  # benign source-host pool
    n_switches: int = 8
    n_windows: int = 8
    #: Windows carrying attack traffic; None picks two late windows
    #: scaled to ``n_windows``.
    attack_windows: Optional[Tuple[int, ...]] = None
    attack_switches: Tuple[int, ...] = (1, 2)  # dpids (1-based)
    #: Attack observations per benign observation on an attacked
    #: (switch, window) cell.
    attack_intensity: float = 2.0
    chunk_size: int = 100_000
    seed: int = 7

    def __post_init__(self) -> None:
        if self.scenario not in ("ddos", "portscan"):
            raise ReproError(f"unknown sketch scenario {self.scenario!r}")
        if self.n_windows < 2 or self.n_switches < 1:
            raise ReproError("sketch workload needs >= 2 windows and >= 1 switch")
        if self.attack_windows is None:
            late = self.n_windows - 1
            mid = self.n_windows // 2
            object.__setattr__(
                self, "attack_windows", (mid,) if mid == late else (mid, late)
            )
        for window in self.attack_windows:
            if not 0 <= window < self.n_windows:
                raise ReproError(f"attack window {window} out of range")

    @property
    def benign_per_window(self) -> int:
        """Benign observations per window (spread over all switches)."""
        return max(self.n_switches, self.n_flows // self.n_windows)


@dataclass
class EventChunk:
    """A block of flow observations as parallel numpy columns."""

    window: int
    dpid: np.ndarray  # int64, 1-based switch ids
    flow_id: np.ndarray  # int64, distinct-flow identity
    src: np.ndarray  # int64, source-host identity
    dst_port: np.ndarray  # int64
    packets: np.ndarray  # int64
    bytes_: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.dpid)


class SketchScaleGenerator:
    """Chunked, seeded event stream plus per-(switch, window) labels."""

    def __init__(self, spec: SketchScaleSpec) -> None:
        self.spec = spec
        self._rng = SeededRng(spec.seed, f"sketchscale/{spec.scenario}")
        # Scanner host is fixed per run: the lowest benign host id.
        self.scanner_host = 0

    def label(self, dpid: int, window: int) -> int:
        """Ground truth: 1 when the cell carries attack traffic."""
        spec = self.spec
        return int(window in spec.attack_windows and dpid in spec.attack_switches)

    # -- event synthesis ----------------------------------------------------

    def _benign_chunk(
        self, rng: SeededRng, window: int, size: int, flow_base: int
    ) -> EventChunk:
        spec = self.spec
        dpid = rng.integers(1, spec.n_switches + 1, size=size).astype(np.int64)
        src = rng.integers(0, spec.n_hosts, size=size).astype(np.int64)
        dst_port = _SERVICE_PORTS[rng.integers(0, len(_SERVICE_PORTS), size=size)]
        packets = rng.integers(1, 20, size=size).astype(np.int64)
        bytes_ = packets * rng.integers(64, 1400, size=size).astype(np.int64)
        flow_id = np.arange(flow_base, flow_base + size, dtype=np.int64)
        return EventChunk(window, dpid, flow_id, src, dst_port, packets, bytes_)

    def _attack_chunk(
        self, rng: SeededRng, window: int, size: int, flow_base: int
    ) -> EventChunk:
        spec = self.spec
        switches = np.array(spec.attack_switches, dtype=np.int64)
        dpid = switches[rng.integers(0, len(switches), size=size)]
        flow_id = np.arange(flow_base, flow_base + size, dtype=np.int64)
        if spec.scenario == "ddos":
            # Spoofed, never-before-seen sources flooding the victim port.
            src = _SPOOF_BASE + flow_id
            dst_port = np.full(size, 80, dtype=np.int64)
            packets = rng.integers(1, 4, size=size).astype(np.int64)
            bytes_ = packets * 64
        else:
            # One scanner probing distinct destination ports.
            src = np.full(size, self.scanner_host, dtype=np.int64)
            dst_port = 1024 + (flow_id % 60000)
            packets = np.ones(size, dtype=np.int64)
            bytes_ = np.full(size, 64, dtype=np.int64)
        return EventChunk(window, dpid, flow_id, src, dst_port, packets, bytes_)

    def chunks(self) -> Iterator[EventChunk]:
        """The event stream, window by window, in chunks of ``chunk_size``."""
        spec = self.spec
        flow_base = 0
        for window in range(spec.n_windows):
            rng = self._rng.child(f"window/{window}")
            benign = spec.benign_per_window
            remaining = benign
            while remaining > 0:
                size = min(spec.chunk_size, remaining)
                yield self._benign_chunk(rng, window, size, flow_base)
                flow_base += size
                remaining -= size
            if window in spec.attack_windows:
                attack_per_cell = int(
                    spec.attack_intensity * benign / spec.n_switches
                )
                remaining = max(1, attack_per_cell) * len(spec.attack_switches)
                while remaining > 0:
                    size = min(spec.chunk_size, remaining)
                    yield self._attack_chunk(rng, window, size, flow_base)
                    flow_base += size
                    remaining -= size

    # -- feeding states -----------------------------------------------------

    @staticmethod
    def feed_chunk(state, chunk: EventChunk) -> None:
        """Fold one chunk into a sketch/exact window state."""
        observe = state.observe
        dpid, flow_id, src = chunk.dpid, chunk.flow_id, chunk.src
        dst_port, packets, bytes_ = chunk.dst_port, chunk.packets, chunk.bytes_
        for i in range(len(dpid)):
            observe(
                int(dpid[i]),
                int(flow_id[i]),
                int(src[i]),
                int(dst_port[i]),
                packets=int(packets[i]),
                bytes_=int(bytes_[i]),
            )

    def run(self, state) -> List[Dict[str, float]]:
        """Feed the full stream into ``state``, rolling windows into documents.

        Returns one flattened feature document per (switch, window) with
        ground-truth labels, ready for ``FeatureManager.publish_documents``
        or the ``documents=`` short-circuit of the detector manager.
        """
        documents: List[Dict[str, float]] = []
        current_window = 0
        for chunk in self.chunks():
            if chunk.window != current_window:
                documents.extend(self.roll_window(state, current_window))
                current_window = chunk.window
            self.feed_chunk(state, chunk)
        documents.extend(self.roll_window(state, current_window))
        return documents

    def roll_window(self, state, window: int) -> List[Dict[str, float]]:
        """Roll every switch's window into its labelled feature document."""
        documents = []
        for dpid in range(1, self.spec.n_switches + 1):
            fields = state.roll(dpid)
            if not fields["SKETCH_OBSERVATIONS"]:
                continue
            document: Dict[str, float] = {
                "feature_scope": "sketch",
                "switch_id": dpid,
                "instance_id": 0,
                "timestamp": float(window),
                "label": self.label(dpid, window),
            }
            document.update(fields)
            documents.append(document)
        return documents
