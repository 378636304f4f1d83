"""Bloom filter: set membership with no false negatives.

Sized from ``(capacity, fp_rate)`` the standard way — ``m = ⌈−n·ln(f) /
(ln 2)²⌉`` bits with ``k = round((m/n)·ln 2)`` probes — so the measured
false-positive rate at ``capacity`` inserted items stays near the
analytic bound ``(1 − e^{−kn/m})^k``.  The feature layer uses it as the
"have we ever seen this host" memory behind the previously-seen-host
ratio: a spoofed-source flood shows up as a crash in that ratio because
the spoofed addresses were never inserted.

Merging is bit-wise OR (same-parameter filters only), equal to having
ingested the union stream.
"""

from __future__ import annotations

import math
import struct
from typing import Any

from repro.sketch.cms import SketchError
from repro.sketch.hashing import hash_pair

_MAGIC = b"BLM1"


class BloomFilter:
    """Seeded, mergeable Bloom filter over a bytearray bit vector."""

    __slots__ = ("capacity", "fp_rate", "seed", "n_bits", "n_hashes", "items", "_bits")

    def __init__(self, capacity: int = 100_000, fp_rate: float = 0.01, seed: int = 0):
        self.n_bits = self._bit_count(capacity, fp_rate)
        self.capacity = int(capacity)
        self.fp_rate = float(fp_rate)
        self.seed = int(seed)
        self.n_hashes = max(1, round((self.n_bits / capacity) * math.log(2)))
        #: Number of (not necessarily distinct) items added.
        self.items = 0
        self._bits = bytearray(self.n_bits // 8)

    @staticmethod
    def _bit_count(capacity: int, fp_rate: float) -> int:
        """Bits for the sizing parameters (whole bytes), without allocating."""
        if capacity < 1:
            raise SketchError(f"Bloom capacity must be >= 1; got {capacity}")
        if not 0 < fp_rate < 1:
            raise SketchError(f"Bloom fp_rate must be in (0, 1); got {fp_rate}")
        n_bits = math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))
        return ((n_bits + 7) // 8) * 8

    def add(self, key: Any) -> bool:
        """Insert ``key``; returns True when it was (probably) already present.

        The pre-insert membership answer makes the seen-host ratio a
        single pass: ``hits += bloom.add(src)``.
        """
        h1, h2 = hash_pair(key, self.seed)
        bits, n_bits = self._bits, self.n_bits
        present = True
        for i in range(self.n_hashes):
            bit = (h1 + i * h2) % n_bits
            byte, mask = bit >> 3, 1 << (bit & 7)
            if not bits[byte] & mask:
                present = False
                bits[byte] |= mask
        self.items += 1
        return present

    def __contains__(self, key: Any) -> bool:
        h1, h2 = hash_pair(key, self.seed)
        bits, n_bits = self._bits, self.n_bits
        for i in range(self.n_hashes):
            bit = (h1 + i * h2) % n_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def fill_ratio(self) -> float:
        """Fraction of set bits."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.n_bits

    def fp_bound(self) -> float:
        """Analytic false-positive probability at the current load."""
        k, n, m = self.n_hashes, self.items, self.n_bits
        return (1.0 - math.exp(-k * n / m)) ** k

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if not self.compatible(other):
            raise SketchError(
                "cannot merge Bloom filters with differing (bits, hashes, seed): "
                f"{(self.n_bits, self.n_hashes, self.seed)} vs "
                f"{(other.n_bits, other.n_hashes, other.seed)}"
            )
        bits, theirs = self._bits, other._bits
        for i in range(len(bits)):
            bits[i] |= theirs[i]
        self.items += other.items
        return self

    def compatible(self, other: "BloomFilter") -> bool:
        return (
            self.n_bits == other.n_bits
            and self.n_hashes == other.n_hashes
            and self.seed == other.seed
        )

    def to_bytes(self) -> bytes:
        header = struct.pack(
            "<4sQdqQ", _MAGIC, self.capacity, self.fp_rate, self.seed, self.items
        )
        return header + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        header_size = struct.calcsize("<4sQdqQ")
        if len(data) < header_size:
            raise SketchError("truncated Bloom serialisation")
        magic, capacity, fp_rate, seed, items = struct.unpack(
            "<4sQdqQ", data[:header_size]
        )
        if magic != _MAGIC:
            raise SketchError("not a Bloom serialisation")
        bits = data[header_size:]
        # Checked before a filter is built: see CountMinSketch.from_bytes.
        if len(bits) != cls._bit_count(capacity, fp_rate) // 8:
            raise SketchError("truncated Bloom serialisation")
        sketch = cls(capacity=capacity, fp_rate=fp_rate, seed=seed)
        sketch._bits = bytearray(bits)
        sketch.items = items
        return sketch

    def __reduce__(self):
        return (BloomFilter.from_bytes, (self.to_bytes(),))

    def nbytes(self) -> int:
        return len(self._bits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BloomFilter(capacity={self.capacity}, fp_rate={self.fp_rate}, "
            f"seed={self.seed}, items={self.items})"
        )
