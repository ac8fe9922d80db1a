"""KLL quantiles: rank error, algebra, state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch import KLLSketch


def _true_rank(sorted_values: np.ndarray, value: float) -> float:
    return float(np.searchsorted(sorted_values, value, side="right")) / sorted_values.size


class TestKLLAccuracy:
    @pytest.mark.parametrize("dist", ["uniform", "lognormal", "bimodal"])
    def test_rank_error_within_contract(self, dist):
        rng = np.random.default_rng(7)
        n = 50_000
        if dist == "uniform":
            data = rng.uniform(0, 1000, n)
        elif dist == "lognormal":
            data = rng.lognormal(3.0, 1.5, n)  # duration-like heavy tail
        else:
            data = np.concatenate([rng.normal(10, 1, n // 2), rng.normal(1000, 5, n - n // 2)])
        kll = KLLSketch(k=200, seed=7)
        for chunk in np.array_split(data, 13):  # uneven batch sizes
            kll.update(chunk)
        assert kll.n == n
        truth = np.sort(data)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            got = kll.quantile(q)
            assert abs(_true_rank(truth, got) - q) <= kll.rank_error, (dist, q)

    def test_extremes_are_exact(self):
        kll = KLLSketch(seed=7)
        kll.update([5.0, -3.0, 17.0, 2.0])
        assert kll.quantile(0.0) == -3.0
        assert kll.quantile(1.0) == 17.0

    def test_empty_returns_nan(self):
        kll = KLLSketch(seed=7)
        assert np.isnan(kll.quantile(0.5))
        assert np.isnan(kll.rank(1.0))

    def test_small_stream_is_exact(self):
        kll = KLLSketch(k=200, seed=7)
        kll.update(np.arange(100, dtype=np.float64))
        # Below the first compaction everything is retained at weight 1.
        assert abs(kll.quantile(0.5) - 49.5) <= 1.0

    def test_memory_stays_bounded(self):
        kll = KLLSketch(k=200, seed=7)
        rng = np.random.default_rng(7)
        sizes = []
        for _ in range(20):
            kll.update(rng.uniform(0, 1, 25_000))
            sizes.append(kll.memory_bytes)
        # Logarithmic growth: half a million items fit in a few KiB.
        assert sizes[-1] < 64 * 1024
        assert kll.n == 500_000

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            KLLSketch(k=4)
        kll = KLLSketch(seed=7)
        with pytest.raises(ValueError):
            kll.quantile(1.5)


class TestKLLAlgebra:
    def test_merge_keeps_contract(self):
        rng = np.random.default_rng(7)
        data = rng.lognormal(2.0, 1.0, 40_000)
        parts = np.array_split(data, 4)
        sketches = [KLLSketch(k=200, seed=7) for _ in parts]
        for sk, part in zip(sketches, parts):
            sk.update(part)
        merged = sketches[0]
        for sk in sketches[1:]:
            merged.merge(sk)
        assert merged.n == data.size
        truth = np.sort(data)
        for q in (0.1, 0.5, 0.9):
            got = merged.quantile(q)
            assert abs(_true_rank(truth, got) - q) <= merged.rank_error

    def test_merge_rejects_mismatched_params(self):
        a = KLLSketch(k=200, seed=7)
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(KLLSketch(k=100, seed=7))
        with pytest.raises(TypeError):
            a.merge(42)


class TestKLLState:
    def test_roundtrip_preserves_estimates(self):
        kll = KLLSketch(seed=7)
        kll.update(np.random.default_rng(7).uniform(0, 1, 30_000))
        revived = KLLSketch.from_dict(kll.to_dict())
        assert revived.n == kll.n
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert revived.quantile(q) == kll.quantile(q)

    def test_roundtrip_empty(self):
        revived = KLLSketch.from_dict(KLLSketch(seed=7).to_dict())
        assert revived.n == 0 and np.isnan(revived.quantile(0.5))

    def test_copy_is_independent(self):
        kll = KLLSketch(seed=7)
        kll.update([1.0, 2.0, 3.0])
        dup = kll.copy()
        dup.update(np.full(10_000, 99.0))
        assert kll.n == 3 and kll.quantile(1.0) == 3.0


class TestKLLQuantiles:
    """``quantiles(qs)`` is ``[quantile(q) for q in qs]``, bit for bit."""

    QS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)

    @staticmethod
    def _assert_same(kll: KLLSketch, qs) -> None:
        batch = kll.quantiles(qs)
        single = [kll.quantile(q) for q in qs]
        assert np.asarray(batch).tobytes() == np.asarray(single).tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        kll = KLLSketch(k=int(rng.integers(8, 300)), seed=seed)
        for _ in range(int(rng.integers(1, 20))):
            kll.update(rng.lognormal(3.0, 1.5, int(rng.integers(0, 5_000))))
        qs = list(self.QS) + rng.uniform(0, 1, 16).tolist()
        self._assert_same(kll, qs)

    def test_empty_sketch(self):
        kll = KLLSketch(seed=7)
        assert all(np.isnan(kll.quantiles(self.QS)))
        self._assert_same(kll, self.QS)

    def test_merged_sketch(self):
        rng = np.random.default_rng(11)
        parts = [KLLSketch(k=64, seed=3) for _ in range(4)]
        for part in parts:
            part.update(rng.uniform(-50, 50, int(rng.integers(100, 20_000))))
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        self._assert_same(merged, self.QS)

    def test_rejects_out_of_range(self):
        kll = KLLSketch(seed=7)
        with pytest.raises(ValueError):
            kll.quantiles([0.5, -0.1])
