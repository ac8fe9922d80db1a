"""Tests for shared statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import (
    RANK_MARGIN,
    ecdf,
    extend_rank_windows,
    rank_windows,
    sorted_unique,
    summarize,
    unique_pairs,
)

values_st = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
)


class TestEcdf:
    def test_basic(self):
        xs, ps = ecdf([3.0, 1.0, 2.0])
        assert xs.tolist() == [1.0, 2.0, 3.0]
        assert ps.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ecdf([])

    @given(values_st)
    @settings(max_examples=100)
    def test_monotone_and_bounded(self, values):
        xs, ps = ecdf(values)
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(ps) >= 0)
        assert ps[-1] == pytest.approx(1.0)
        assert ps[0] > 0


class TestSummarize:
    def test_known_values(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(values_st)
    @settings(max_examples=100)
    def test_bounds(self, values):
        s = summarize(values)
        eps = 1e-9 * max(1.0, abs(s.maximum), abs(s.minimum))  # float summation slack
        assert s.minimum - eps <= s.median <= s.maximum + eps
        assert s.minimum - eps <= s.mean <= s.maximum + eps
        assert s.minimum - eps <= s.p80 <= s.maximum + eps
        assert s.std >= 0


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


def _assert_exact(values, windows) -> None:
    """Windowed order statistics are bitwise NumPy's, and every window
    holds exactly its ranks of the sorted series."""
    s = summarize(values, windows)
    assert (_bits(s.median), _bits(s.p80), _bits(s.p95)) == (
        _bits(np.median(values)),
        _bits(np.percentile(values, 80)),
        _bits(np.percentile(values, 95)),
    )
    ordered = np.sort(values)
    for lo, w in windows.windows:
        np.testing.assert_array_equal(w, ordered[lo : lo + w.size])


@st.composite
def _grown_series(draw):
    """A non-negative series (like durations and gaps) and the prefix
    lengths an extend sees it at."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2]) | st.integers(1, 4 * RANK_MARGIN + 500))
    shape = draw(st.sampled_from(["ties", "constant", "spread", "shift"]))
    if shape == "ties":
        values = rng.integers(0, 4, n).astype(float)
    elif shape == "constant":
        values = np.full(n, 7.0)
    else:
        values = np.round(rng.exponential(1000.0, n), 1)
        if shape == "shift":
            # Every later value lands above the windows: their read ranks
            # climb out of them and they must be rebuilt.
            values[n // 3 :] += 1e7
    batches = draw(st.lists(st.integers(1, 400), min_size=1, max_size=25))
    cuts = [int(c) for c in np.cumsum(batches) if c < n] + [n]
    return values, cuts


class TestRankWindows:
    @given(_grown_series())
    @settings(max_examples=150, deadline=None)
    def test_extend_is_exact_at_every_prefix(self, grown):
        values, cuts = grown
        windows = rank_windows(values[: cuts[0]])
        _assert_exact(values[: cuts[0]], windows)
        for cut in cuts[1:]:
            windows, _rebuilt = extend_rank_windows(windows, values[:cut])
            _assert_exact(values[:cut], windows)
            assert windows == rank_windows(values[:cut])

    def test_level_shift_forces_a_rebuild(self):
        rng = np.random.default_rng(5)
        values = rng.exponential(1000.0, 6000)
        values[3000:] += 1e7
        windows = rank_windows(values[:3000])
        rebuilt = 0
        for cut in range(3500, 6001, 500):
            windows, count = extend_rank_windows(windows, values[:cut])
            rebuilt += count
            _assert_exact(values[:cut], windows)
        assert rebuilt > 0

    def test_windows_stay_bounded(self):
        rng = np.random.default_rng(9)
        values = rng.exponential(1000.0, 20000)
        windows = rank_windows(values[:100])
        for cut in range(600, 20001, 500):
            windows, _rebuilt = extend_rank_windows(windows, values[:cut])
        assert all(w.size <= 2 * RANK_MARGIN + 2 for _lo, w in windows.windows)

    def test_equality_ignores_margin_but_not_values(self):
        values = np.arange(2000.0)
        full = rank_windows(values)
        narrow = type(full)(
            full.n, tuple((lo + 10, w[10:-10]) for lo, w in full.windows)
        )
        assert narrow == full
        shifted = type(full)(full.n, tuple((lo + 1, w) for lo, w in full.windows))
        assert shifted != full

    def test_summarize_rejects_windows_of_another_length(self):
        with pytest.raises(ValueError):
            summarize([1.0, 2.0, 3.0], rank_windows([1.0, 2.0]))


# -- integer dedupes ----------------------------------------------------------

_INT_DTYPES = (np.int16, np.int32, np.int64, np.uint64)


def _lexsort_pairs(major, minor):
    """The dedupe ``unique_pairs`` replaced: a two-key lexsort plus a
    neighbour mask."""
    o = np.lexsort((minor, major))
    w, b = major[o], minor[o]
    first = np.ones(w.size, dtype=bool)
    first[1:] = (w[1:] != w[:-1]) | (b[1:] != b[:-1])
    return w[first], b[first]


@st.composite
def _int_keys(draw):
    """An integer array in one of the dtypes the analyses dedupe: few
    distinct values (many duplicates) or the dtype's whole range."""
    dtype = np.dtype(draw(st.sampled_from(_INT_DTYPES)))
    info = np.iinfo(dtype)
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lo, hi = (0, 6) if info.min == 0 else (-3, 3)
    else:
        lo, hi = int(info.min), int(info.max)
    return rng.integers(lo, hi, n, dtype=dtype, endpoint=True)


class TestIntegerDedupes:
    @settings(max_examples=150, deadline=None)
    @given(_int_keys())
    def test_sorted_unique_is_np_unique(self, values):
        got = sorted_unique(values)
        want = np.unique(values)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype == values.dtype

    def test_sorted_unique_rejects_floats(self):
        with pytest.raises(TypeError):
            sorted_unique(np.array([1.0, 1.0]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_unique_pairs_is_the_lexsort_dedupe(self, data):
        n = data.draw(st.integers(0, 300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def keys(top):
            dtype = np.dtype(data.draw(st.sampled_from(_INT_DTYPES)))
            hi = min(data.draw(st.sampled_from([0, 1, 5, top])), np.iinfo(dtype).max)
            return rng.integers(0, hi, n, dtype=dtype, endpoint=True)

        major = keys(2**20)
        if n and data.draw(st.booleans()):
            major[rng.integers(0, n, n // 2 + 1)] = 0  # major 0 next to larger ones
        minor = keys(2**40)
        bound = int(minor.max()) + 1 + data.draw(st.integers(0, 3)) if n else 1
        got_major, got_minor = unique_pairs(major, minor, bound)
        want_major, want_minor = _lexsort_pairs(major, minor)
        np.testing.assert_array_equal(got_major, want_major)
        np.testing.assert_array_equal(got_minor, want_minor)
        assert got_major.dtype == major.dtype and got_minor.dtype == minor.dtype

    def test_unique_pairs_empty(self):
        major, minor = unique_pairs(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32), 0
        )
        assert major.dtype == np.int64 and minor.dtype == np.int32
        assert major.size == minor.size == 0

    def test_unique_pairs_raises_on_overflow(self):
        major = np.array([0, 2**40], dtype=np.int64)
        minor = np.array([1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="overflows"):
            unique_pairs(major, minor, 2**23)
        unique_pairs(major, minor, 2**22)  # 2**62 + 2**22 - 1 still fits

    def test_unique_pairs_rejects_a_minor_out_of_bound(self):
        with pytest.raises(ValueError):
            unique_pairs(np.array([0, 1]), np.array([0, 3]), 3)
        with pytest.raises(ValueError):
            unique_pairs(np.array([0, 1]), np.array([-1, 2]), 3)
