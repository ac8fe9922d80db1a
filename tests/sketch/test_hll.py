"""HyperLogLog: accuracy across regimes, idempotence, union algebra.

The contract is the standard HLL band: the estimate sits within
``3 * 1.04 / sqrt(m)`` of the true cardinality (a >99.7 % band), across
the linear-counting regime (small n) and the raw harmonic-mean regime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch import HyperLogLog


def _within_band(hll: HyperLogLog, true_n: int) -> bool:
    return abs(hll.estimate() - true_n) <= max(3 * hll.relative_error * true_n, 3.0)


class TestAccuracy:
    @pytest.mark.parametrize("n", [0, 1, 10, 500, 5_000, 100_000])
    def test_within_three_sigma(self, n):
        hll = HyperLogLog(precision=12, seed=7)
        hll.update(np.arange(n))
        assert _within_band(hll, n), (hll.estimate(), n)

    def test_rejects_non_integer_keys(self):
        hll = HyperLogLog(precision=12, seed=7)
        with pytest.raises(TypeError, match="integers"):
            hll.update(["10.0.0.1", "10.0.0.2"])
        assert hll.estimate() == 0.0

    def test_duplicates_do_not_move_estimate(self):
        hll = HyperLogLog(precision=12, seed=7)
        hll.update(np.arange(1_000))
        before = hll.estimate()
        hll.update(np.arange(1_000))
        hll.update(np.arange(500))
        assert hll.estimate() == before

    def test_memory_is_fixed(self):
        hll = HyperLogLog(precision=12, seed=7)
        assert hll.memory_bytes == 4096
        hll.update(np.arange(200_000))
        assert hll.memory_bytes == 4096


class TestAlgebra:
    def test_merge_is_union(self):
        whole = HyperLogLog(seed=7)
        whole.update(np.arange(10_000))
        left = HyperLogLog(seed=7)
        right = HyperLogLog(seed=7)
        left.update(np.arange(0, 7_000))
        right.update(np.arange(4_000, 10_000))  # overlapping halves
        left.merge(right)
        assert left.estimate() == whole.estimate()

    def test_merge_idempotent(self):
        a = HyperLogLog(seed=7)
        a.update(np.arange(1_000))
        before = a.estimate()
        a.merge(a.copy())
        assert a.estimate() == before

    def test_merge_rejects_mismatched_params(self):
        a = HyperLogLog(precision=12, seed=7)
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(HyperLogLog(precision=13, seed=7))
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(HyperLogLog(precision=12, seed=8))
        with pytest.raises(TypeError):
            a.merge("not a sketch")


class TestState:
    def test_roundtrip_preserves_registers(self):
        hll = HyperLogLog(seed=7)
        hll.update(np.arange(5_000))
        revived = HyperLogLog.from_dict(hll.to_dict())
        assert revived.estimate() == hll.estimate()
        assert revived.precision == hll.precision

    def test_copy_is_independent(self):
        hll = HyperLogLog(seed=7)
        hll.update(np.arange(100))
        dup = hll.copy()
        dup.update(np.arange(100, 100_000))
        assert _within_band(hll, 100)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=3)
        with pytest.raises(ValueError):
            HyperLogLog(precision=19)
