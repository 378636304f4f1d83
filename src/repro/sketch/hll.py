"""HyperLogLog: approximate distinct counts in ``2^p`` bytes.

Flajolet et al.'s estimator: hash each key to 64 bits, use the top ``p``
bits to pick one of ``m = 2^p`` registers and store the maximum "rank"
(position of the first 1-bit) seen in the remaining bits.  The harmonic
mean of ``2^register`` estimates the cardinality with relative standard
error ``≈ 1.04/√m``; the property suite holds streams to ``3/√m`` (three
sigma).  Small cardinalities fall back to linear counting over the empty
registers, as in the HyperLogLog++ practice.

Merging is register-wise ``max``, which is exactly what ingesting the
union stream would have produced — the distributed-shard story.
"""

from __future__ import annotations

import math
import struct
from typing import Any

from repro.sketch.cms import SketchError
from repro.sketch.hashing import hash64

_MAGIC = b"HLL1"


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog:
    """Seeded, mergeable HyperLogLog with byte registers."""

    __slots__ = ("p", "seed", "m", "_registers")

    def __init__(self, p: int = 12, seed: int = 0):
        if not 4 <= p <= 18:
            raise SketchError(f"HLL precision must be in [4, 18]; got {p}")
        self.p = int(p)
        self.seed = int(seed)
        self.m = 1 << p
        self._registers = bytearray(self.m)

    def add(self, key: Any) -> None:
        h = hash64(key, self.seed)
        index = h >> (64 - self.p)
        # Rank = leading zeros of the remaining (64-p)-bit suffix, plus one.
        suffix_bits = 64 - self.p
        suffix = h & ((1 << suffix_bits) - 1)
        rank = suffix_bits - suffix.bit_length() + 1
        if rank > self._registers[index]:
            self._registers[index] = rank

    def cardinality(self) -> float:
        m = self.m
        inverse_sum = 0.0
        zeros = 0
        for register in self._registers:
            inverse_sum += 2.0 ** -register
            if register == 0:
                zeros += 1
        estimate = _alpha(m) * m * m / inverse_sum
        if estimate <= 2.5 * m and zeros:
            return m * math.log(m / zeros)  # linear counting
        return estimate

    def relative_error(self) -> float:
        """The one-sigma relative standard error, ``1.04/√m``."""
        return 1.04 / math.sqrt(self.m)

    def fill_ratio(self) -> float:
        """Fraction of non-zero registers."""
        nonzero = sum(1 for r in self._registers if r)
        return nonzero / self.m

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if not self.compatible(other):
            raise SketchError(
                f"cannot merge HLL with differing (p, seed): "
                f"{(self.p, self.seed)} vs {(other.p, other.seed)}"
            )
        registers, theirs = self._registers, other._registers
        for i in range(self.m):
            if theirs[i] > registers[i]:
                registers[i] = theirs[i]
        return self

    def compatible(self, other: "HyperLogLog") -> bool:
        return self.p == other.p and self.seed == other.seed

    def to_bytes(self) -> bytes:
        header = struct.pack("<4sBq", _MAGIC, self.p, self.seed)
        return header + bytes(self._registers)

    @classmethod
    def from_bytes(cls, data: bytes) -> "HyperLogLog":
        header_size = struct.calcsize("<4sBq")
        if len(data) < header_size:
            raise SketchError("truncated HLL serialisation")
        magic, p, seed = struct.unpack("<4sBq", data[:header_size])
        if magic != _MAGIC:
            raise SketchError("not an HLL serialisation")
        sketch = cls(p=p, seed=seed)
        registers = data[header_size:]
        if len(registers) != sketch.m:
            raise SketchError("truncated HLL serialisation")
        sketch._registers = bytearray(registers)
        return sketch

    def __reduce__(self):
        return (HyperLogLog.from_bytes, (self.to_bytes(),))

    def nbytes(self) -> int:
        return self.m

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HyperLogLog(p={self.p}, seed={self.seed})"
