"""Count-Min Sketch: approximate per-key counts in fixed memory.

The classic Cormode–Muthukrishnan structure: ``depth`` rows of ``width``
counters; each key increments one counter per row (chosen by double
hashing) and is estimated as the *minimum* over its counters.  Estimates
never under-count, and over-count by at most ``ε·N`` (N = total added
count) with probability ``1−δ`` when ``width = ⌈e/ε⌉`` and
``depth = ⌈ln(1/δ)⌉``.

Memory is ``width·depth`` 8-byte counters — independent of the number of
distinct keys, which is what lets the feature layer track heavy hitters
over a million flows in a few hundred kilobytes.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from typing import Any, Tuple

from repro.errors import ReproError
from repro.sketch.hashing import hash_pair

_MAGIC = b"CMS1"


class SketchError(ReproError):
    """Invalid sketch parameters or an incompatible merge/deserialise."""


class CountMinSketch:
    """Seeded, mergeable Count-Min Sketch with 64-bit counters."""

    __slots__ = ("epsilon", "delta", "seed", "width", "depth", "total", "_counters")

    def __init__(self, epsilon: float = 0.001, delta: float = 0.01, seed: int = 0):
        self.width, self.depth = self._dimensions(epsilon, delta)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.seed = int(seed)
        #: Total count added across all keys (the N of the ε·N bound).
        self.total = 0
        self._counters = array("q", bytes(8 * self.width * self.depth))

    @staticmethod
    def _dimensions(epsilon: float, delta: float) -> Tuple[int, int]:
        """``(width, depth)`` for the error parameters, without allocating."""
        try:
            if 0 < epsilon < 1 and 0 < delta < 1:
                return math.ceil(math.e / epsilon), math.ceil(math.log(1.0 / delta))
        except OverflowError:  # a denormal parameter: its dimension is infinite
            pass
        raise SketchError(f"CMS needs 0 < epsilon, delta < 1; got {epsilon}, {delta}")

    def add(self, key: Any, count: int = 1) -> int:
        """Add ``count`` to ``key``; returns the key's new estimate.

        Returning the post-add estimate makes running heavy-hitter
        tracking a single pass: ``hh = max(hh, cms.add(k, c))``.
        """
        if count < 0:
            raise SketchError("CMS counts must be non-negative")
        h1, h2 = hash_pair(key, self.seed)
        counters, width = self._counters, self.width
        estimate = sys.maxsize
        base = 0
        for i in range(self.depth):
            slot = base + (h1 + i * h2) % width
            value = counters[slot] + count
            counters[slot] = value
            if value < estimate:
                estimate = value
            base += width
        self.total += count
        return estimate

    def estimate(self, key: Any) -> int:
        """Point query: an upper bound on the true count of ``key``."""
        h1, h2 = hash_pair(key, self.seed)
        counters, width = self._counters, self.width
        estimate = sys.maxsize
        base = 0
        for i in range(self.depth):
            value = counters[base + (h1 + i * h2) % width]
            if value < estimate:
                estimate = value
            base += width
        return estimate if estimate != sys.maxsize else 0

    def error_bound(self) -> float:
        """Additive error ceiling ε·N at the current total."""
        return self.epsilon * self.total

    def fill_ratio(self) -> float:
        """Fraction of non-zero counters (collision pressure indicator)."""
        nonzero = sum(1 for c in self._counters if c)
        return nonzero / len(self._counters)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Fold ``other`` into self (counter-wise add); same-parameter only."""
        if not self.compatible(other):
            raise SketchError(
                "cannot merge CMS with differing (width, depth, seed): "
                f"{(self.width, self.depth, self.seed)} vs "
                f"{(other.width, other.depth, other.seed)}"
            )
        for i, value in enumerate(other._counters):
            self._counters[i] += value
        self.total += other.total
        return self

    def compatible(self, other: "CountMinSketch") -> bool:
        return (
            self.width == other.width
            and self.depth == other.depth
            and self.seed == other.seed
        )

    def to_bytes(self) -> bytes:
        """Deterministic little-endian serialisation."""
        header = struct.pack(
            "<4sddqIIq",
            _MAGIC,
            self.epsilon,
            self.delta,
            self.seed,
            self.width,
            self.depth,
            self.total,
        )
        counters = self._counters
        if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
            counters = array("q", counters)
            counters.byteswap()
        return header + counters.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CountMinSketch":
        header_size = struct.calcsize("<4sddqIIq")
        if len(data) < header_size:
            raise SketchError("truncated CMS serialisation")
        magic, epsilon, delta, seed, width, depth, total = struct.unpack(
            "<4sddqIIq", data[:header_size]
        )
        if magic != _MAGIC:
            raise SketchError("not a CMS serialisation")
        # Checked before a sketch is built: parameters read from the bytes
        # must not ask for more memory than the bytes fill.
        if cls._dimensions(epsilon, delta) != (width, depth):
            raise SketchError("CMS dimensions disagree with parameters")
        if len(data) - header_size != 8 * width * depth:
            raise SketchError("truncated CMS serialisation")
        sketch = cls(epsilon=epsilon, delta=delta, seed=seed)
        counters = array("q")
        counters.frombytes(data[header_size:])
        if sys.byteorder == "big":  # pragma: no cover
            counters.byteswap()
        sketch._counters = counters
        sketch.total = total
        return sketch

    def __reduce__(self):
        return (CountMinSketch.from_bytes, (self.to_bytes(),))

    def nbytes(self) -> int:
        """Resident counter bytes (the sublinear-memory claim)."""
        return len(self._counters) * self._counters.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CountMinSketch(epsilon={self.epsilon}, delta={self.delta}, "
            f"seed={self.seed}, total={self.total})"
        )
