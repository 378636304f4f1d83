"""Probabilistic sketches for sublinear-memory feature extraction.

The exact feature path (:mod:`repro.core.features.stateful`) keeps one
dict entry per live flow, which is linear in distinct flows — the wall
between the 2M-entry columnar path and million-host scale.  This package
trades exactness for *bounded* error at *bounded* memory:

* :class:`~repro.sketch.cms.CountMinSketch` — per-flow byte/packet
  counts and heavy hitters (over-estimate only, error ≤ ε·N w.p. 1−δ).
* :class:`~repro.sketch.hll.HyperLogLog` — unique src-IP / dst-port
  cardinality (relative error ≈ 1.04/√m).
* :class:`~repro.sketch.bloom.BloomFilter` — previously-seen-host
  membership (no false negatives, analytic false-positive bound).

All three are seeded and deterministic (pure-python 64-bit mixing, no
dependency on ``PYTHONHASHSEED``), picklable, byte-serialisable, and
mergeable so compute jobs can combine per-partition sketches.
:mod:`repro.sketch.features` turns them into the ``SKETCH_*`` scope of
the feature catalog behind the ``ATHENA_SKETCH`` flag.
"""

from repro.sketch.bloom import BloomFilter
from repro.sketch.cms import CountMinSketch
from repro.sketch.features import (
    SKETCH_FEATURE_NAMES,
    ExactWindowState,
    SketchFeatureState,
    SketchParams,
)
from repro.sketch.hashing import hash64, key_to_int, mix64
from repro.sketch.hll import HyperLogLog

__all__ = [
    "BloomFilter",
    "CountMinSketch",
    "HyperLogLog",
    "SketchFeatureState",
    "ExactWindowState",
    "SketchParams",
    "SKETCH_FEATURE_NAMES",
    "hash64",
    "key_to_int",
    "mix64",
]
