"""Property-based contracts for the repro.sketch structures.

The sketches carry precise probabilistic guarantees; this suite pins
them down as executable properties:

* CMS — estimates never under-count, and stay within ``ε·N`` with at
  most the ``δ`` share of per-key violations;
* HLL — relative cardinality error within ``3/√m`` (three sigma) on
  uniform and adversarially-structured streams;
* Bloom — zero false negatives, measured false-positive rate within 2x
  of the analytic bound;
* ``merge(a, b)`` — byte-identical to single-stream ingestion for all
  three structures, however the stream is split.

``derandomize=True`` keeps the generated examples fixed: the error-bound
properties are statistical, so the suite must be deterministic to stay
green across CI seeds (the seed sensitivity itself is covered by the
explicit 3-seed parametrizations).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch import BloomFilter, CountMinSketch, HyperLogLog
from repro.sketch.cms import SketchError
from repro.sketch.features import SketchFeatureState, SketchParams
from repro.sketch.hashing import hash64, key_to_int

SEEDS = [0, 1, 2]

_keys = st.one_of(
    st.integers(min_value=0, max_value=1 << 48),
    st.text(max_size=12),
    st.tuples(st.integers(min_value=0, max_value=1 << 20), st.text(max_size=6)),
)
_streams = st.lists(st.tuples(_keys, st.integers(min_value=1, max_value=50)), max_size=200)


def _truth(stream):
    truth = {}
    for key, count in stream:
        truth[key] = truth.get(key, 0) + count
    return truth


class TestHashing:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_keys, st.integers(min_value=0, max_value=1 << 32))
    def test_stable_and_seeded(self, key, seed):
        assert hash64(key, seed) == hash64(key, seed)
        assert 0 <= hash64(key, seed) < 1 << 64

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_keys)
    def test_seed_decorrelates(self, key):
        values = {hash64(key, seed) for seed in range(8)}
        assert len(values) >= 7  # distinct seeds give distinct hashes

    def test_int_fast_path_matches_range(self):
        assert key_to_int(5) == 5
        assert key_to_int(True) != key_to_int(1)  # bools hash distinctly

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            key_to_int(1.5)


class TestCountMinSketch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_streams, st.sampled_from(SEEDS))
    def test_never_undercounts_and_eps_bound(self, stream, seed):
        epsilon, delta = 0.01, 0.01
        cms = CountMinSketch(epsilon=epsilon, delta=delta, seed=seed)
        for key, count in stream:
            cms.add(key, count)
        truth = _truth(stream)
        assert cms.total == sum(truth.values())
        bound = epsilon * cms.total
        violations = 0
        for key, true_count in truth.items():
            estimate = cms.estimate(key)
            assert estimate >= true_count  # one-sided error, always
            if estimate - true_count > bound:
                violations += 1
        # The ε·N bound holds per query with probability 1 − δ.
        assert violations <= max(1, math.ceil(delta * len(truth)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_streams, st.integers(min_value=1, max_value=10))
    def test_merge_equals_single_stream(self, stream, pivot):
        a = CountMinSketch(0.01, 0.05, seed=3)
        b = CountMinSketch(0.01, 0.05, seed=3)
        single = CountMinSketch(0.01, 0.05, seed=3)
        for i, (key, count) in enumerate(stream):
            (a if i % pivot == 0 else b).add(key, count)
            single.add(key, count)
        a.merge(b)
        assert a.to_bytes() == single.to_bytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serialisation_round_trip(self, seed):
        cms = CountMinSketch(0.005, 0.02, seed=seed)
        for i in range(500):
            cms.add(i % 97, i % 5 + 1)
        restored = CountMinSketch.from_bytes(cms.to_bytes())
        assert restored.to_bytes() == cms.to_bytes()
        assert restored.estimate(13) == cms.estimate(13)

    def test_incompatible_merge_rejected(self):
        with pytest.raises(SketchError):
            CountMinSketch(0.01, 0.01, seed=1).merge(
                CountMinSketch(0.01, 0.01, seed=2)
            )


class TestHyperLogLog:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("adversarial", [False, True])
    def test_relative_error_within_three_sigma(self, seed, adversarial):
        hll = HyperLogLog(p=12, seed=seed)
        n = 40_000
        if adversarial:
            # Structured keys: consecutive integers stride-multiplied, the
            # classic weak-hash failure mode.
            for i in range(n):
                hll.add(i * 0x10001)
        else:
            for i in range(n):
                hll.add(hash64(i, seed=99))  # pre-whitened, uniform
        estimate = hll.cardinality()
        assert abs(estimate - n) / n <= 3 * hll.relative_error()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=400),
        st.integers(min_value=1, max_value=7),
    )
    def test_merge_equals_single_stream(self, keys, pivot):
        a, b = HyperLogLog(p=10, seed=5), HyperLogLog(p=10, seed=5)
        single = HyperLogLog(p=10, seed=5)
        for i, key in enumerate(keys):
            (a if i % pivot == 0 else b).add(key)
            single.add(key)
        a.merge(b)
        assert a.to_bytes() == single.to_bytes()
        assert a.cardinality() == single.cardinality()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=300))
    def test_small_range_is_nearly_exact(self, keys):
        hll = HyperLogLog(p=12, seed=1)
        for key in keys:
            hll.add(key)
        # Linear counting keeps small cardinalities within a few percent.
        assert abs(hll.cardinality() - len(keys)) <= max(3, 0.05 * len(keys))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serialisation_round_trip(self, seed):
        hll = HyperLogLog(p=8, seed=seed)
        for i in range(2000):
            hll.add(i)
        restored = HyperLogLog.from_bytes(hll.to_bytes())
        assert restored.to_bytes() == hll.to_bytes()
        assert restored.cardinality() == hll.cardinality()


class TestBloomFilter:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=300),
        st.sampled_from(SEEDS),
    )
    def test_no_false_negatives(self, keys, seed):
        bloom = BloomFilter(capacity=2000, fp_rate=0.01, seed=seed)
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fp_rate_within_twice_analytic_bound(self, seed):
        capacity = 20_000
        bloom = BloomFilter(capacity=capacity, fp_rate=0.01, seed=seed)
        for i in range(capacity):
            bloom.add(i)
        probes = 40_000
        false_positives = sum(
            1 for i in range(capacity, capacity + probes) if i in bloom
        )
        assert false_positives / probes <= 2 * bloom.fp_bound()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=300),
        st.integers(min_value=1, max_value=7),
    )
    def test_merge_equals_single_stream(self, keys, pivot):
        a = BloomFilter(1000, 0.02, seed=4)
        b = BloomFilter(1000, 0.02, seed=4)
        single = BloomFilter(1000, 0.02, seed=4)
        for i, key in enumerate(keys):
            (a if i % pivot == 0 else b).add(key)
            single.add(key)
        a.merge(b)
        assert a.to_bytes() == single.to_bytes()

    def test_add_reports_prior_membership(self):
        bloom = BloomFilter(1000, 0.01, seed=0)
        assert bloom.add("host-a") is False
        assert bloom.add("host-a") is True

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serialisation_round_trip(self, seed):
        bloom = BloomFilter(500, 0.05, seed=seed)
        for i in range(400):
            bloom.add(i)
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored.to_bytes() == bloom.to_bytes()
        assert all(i in restored for i in range(400))


class TestStateBytesFuzz:
    """``SketchFeatureState.from_bytes`` on hostile input: every cut and
    every sampled bit flip ends in a typed ``SketchError`` or in a state
    that serialises again — never a bare ``struct.error``, and never an
    allocation sized by a corrupted parameter."""

    @staticmethod
    def _serialised():
        params = SketchParams(
            cms_epsilon=0.05, cms_delta=0.1, hll_p=4, bloom_capacity=64, bloom_fp=0.05
        )
        state = SketchFeatureState(params=params, seed=11)
        for i in range(200):
            state.observe(1 + i % 2, i % 17, f"10.0.0.{i % 23}", 1000 + i % 5, i % 9, 60 * i)
        return state.to_bytes()

    @staticmethod
    def _restores_or_rejects(data):
        try:
            restored = SketchFeatureState.from_bytes(data)
        except SketchError:
            return False
        again = restored.to_bytes()
        assert SketchFeatureState.from_bytes(again).to_bytes() == again
        return True

    def test_every_truncation_is_a_sketch_error(self):
        data = self._serialised()
        assert self._restores_or_rejects(data)
        for cut in range(len(data)):
            with pytest.raises(SketchError):
                SketchFeatureState.from_bytes(data[:cut])
        with pytest.raises(SketchError):
            SketchFeatureState.from_bytes(data + b"\x00")

    def test_bit_flips_reject_or_reserialise(self):
        data = self._serialised()
        # Every bit of the state header, the first switch record and the
        # first sketch's own header; every 13th bit of the rest.
        dense = 52 + 56 + 4 + 48
        bits = list(range(8 * dense)) + list(range(8 * dense, 8 * len(data), 13))
        rejected = 0
        for bit in bits:
            flipped = bytearray(data)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            rejected += not self._restores_or_rejects(bytes(flipped))
        assert 0 < rejected < len(bits)
