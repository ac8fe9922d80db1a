"""Small statistical helpers shared by the analyses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ecdf",
    "SeriesSummary",
    "summarize",
    "RANK_MARGIN",
    "RankWindows",
    "rank_windows",
    "extend_rank_windows",
    "sorted_unique",
    "unique_pairs",
    "segment_positions",
    "segment_runs",
    "linked_runs",
]


def ecdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns ``(sorted values, cumulative probability)``.

    The probability at position ``i`` is ``(i + 1) / n`` — the fraction of
    observations less than or equal to that value.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("ecdf of empty data")
    p = np.arange(1, v.size + 1, dtype=float) / v.size
    return v, p


# -- integer dedupes --------------------------------------------------------
#
# A plain ``np.unique`` of an integer array (no ``return_*`` argument)
# takes NumPy's hash-table path since 2.3; on the 311k bot IPs it costs
# 0.21 s against 5 ms for a sort plus a neighbour mask.  These two are the
# sort-based dedupes the analyses use instead.


def _first_of_runs(v: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in sorted ``v``."""
    keep = np.empty(v.size, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return keep


def sorted_unique(values) -> np.ndarray:
    """``np.unique(values)`` of an integer array, by a sort: the sorted
    distinct values, flattened, in the input's dtype."""
    v = np.asarray(values)
    if not np.issubdtype(v.dtype, np.integer):
        raise TypeError(f"sorted_unique takes integers, got {v.dtype}")
    v = np.sort(v, axis=None)
    return v[_first_of_runs(v)]


def unique_pairs(major, minor, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(major, minor)`` pairs, sorted major then minor.

    Equal to a ``np.lexsort((minor, major))`` and a neighbour mask, but
    sorts one int64 key ``major * bound + minor``, built in place.  Every
    ``minor`` must lie in ``[0, bound)``; raises ``ValueError`` otherwise
    or when the key could overflow int64.  The two returned arrays keep
    the inputs' dtypes.
    """
    major = np.asarray(major)
    minor = np.asarray(minor)
    if major.size == 0:
        return major.copy(), minor.copy()
    bound = int(bound)
    lo, hi = int(major.min()), int(major.max())
    if int(minor.min()) < 0 or int(minor.max()) >= bound:
        raise ValueError(f"minor keys must lie in [0, {bound})")
    if lo * bound < -(2**63) or hi * bound + bound - 1 >= 2**63:
        raise ValueError("major * bound + minor overflows int64")
    key = major.astype(np.int64)
    key *= bound
    # Every minor is below bound <= 2**63, so a uint64 view as int64 is
    # exact and costs no copy.
    key += minor.view(np.int64) if minor.dtype == np.uint64 else minor
    key.sort()
    key = key[_first_of_runs(key)]
    u_major, u_minor = np.divmod(key, bound)
    return (
        u_major.astype(major.dtype, copy=False),
        u_minor.astype(minor.dtype, copy=False),
    )


def segment_positions(firsts, offsets: np.ndarray) -> np.ndarray:
    """Source positions of CSR segments gathered into one array.

    Segment ``k`` of the gathered CSR ``offsets`` copies ``offsets[k + 1]
    - offsets[k]`` consecutive source elements from position
    ``firsts[k]`` on; element ``j`` of the gather reads ``firsts[k] + (j -
    offsets[k])``.  Built as one repeated int64 array plus an in-place
    ``arange``, so its working set is two full-length temporaries.
    """
    pos = np.repeat(np.asarray(firsts, dtype=np.int64) - offsets[:-1], np.diff(offsets))
    pos += np.arange(pos.size, dtype=np.int64)
    return pos


def segment_runs(starts: np.ndarray, stops: np.ndarray, bound: int):
    """Cut consecutive segments ``[starts[k], stops[k])`` into runs.

    Yields ``(lo, hi)``: segments ``lo..hi-1`` span at most ``bound``
    elements, from ``starts[lo]`` to ``stops[hi - 1]``, unless one
    segment alone is longer and forms a run by itself.  ``stops`` must be
    non-decreasing.
    """
    lo = 0
    while lo < starts.size:
        hi = int(np.searchsorted(stops, starts[lo] + bound, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def linked_runs(linked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the runs of two or more rows, and the runs' heads.

    ``linked[k]`` says row ``k + 1`` continues row ``k``'s run.  Returns
    ``pos``, the ascending positions of the rows whose run holds two or
    more rows (those linked to a neighbour), and a mask over ``pos``
    that is True at each such run's first row.  A run of one row drops
    out, so a sweep that only reads runs of two or more can run over
    ``pos`` alone.

    >>> pos, head = linked_runs(np.array([True, False, False, True, True]))
    >>> pos.tolist(), head.tolist()
    ([0, 1, 3, 4, 5], [True, False, True, False, False])
    """
    member = np.zeros(linked.size + 1, dtype=bool)
    member[1:] = linked
    member[:-1] |= linked
    pos = np.flatnonzero(member)
    head = np.ones(pos.size, dtype=bool)
    head[1:] = ~linked[pos[1:] - 1]
    return pos, head


# -- rank windows ----------------------------------------------------------

#: Sorted ranks a window keeps on either side of the ranks its quantile
#: reads.  A live epoch allocates each window anew, so this bounds the
#: per-epoch cost of a carried series; it also bounds how far the read
#: ranks may drift against the window before it must be rebuilt.
RANK_MARGIN = 256

#: The percentiles :func:`summarize` reads besides the median.
_PERCENTILES = (80, 95)


def _read_ranks(n: int) -> list[tuple[int, int]]:
    """The ``(low, high)`` sorted ranks each quantile group reads.

    The median reads the middle one or two ranks; a percentile reads the
    two ranks around NumPy's linear virtual index, clipped to the last.
    """
    out = [((n - 1) // 2, n // 2)]
    for q in _PERCENTILES:
        i = min(math.floor((n - 1) * (q / 100)), n - 1)
        out.append((i, min(i + 1, n - 1)))
    return out


class RankWindows:
    """Sorted rank windows of a float series: its median, p80 and p95.

    ``windows[g]`` is ``(lo, w)`` for quantile group ``g``: ``w`` holds
    the series' sorted values at ranks ``[lo, lo + w.size)``, which cover
    the ranks the group reads.  ``n`` is the series length they describe.
    Two values are equal when they describe the same length and agree on
    every rank both hold, the read ranks included: a carried window and a
    fresh one may differ in how much margin they keep.
    """

    __slots__ = ("n", "windows")

    def __init__(self, n: int, windows: tuple[tuple[int, np.ndarray], ...]) -> None:
        self.n = int(n)
        self.windows = windows

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankWindows) or other.n != self.n:
            return False
        if self.n == 0:
            return True
        for (la, wa), (lb, wb), (r_lo, r_hi) in zip(
            self.windows, other.windows, _read_ranks(self.n)
        ):
            lo, hi = max(la, lb), min(la + wa.size, lb + wb.size)
            if not (lo <= r_lo and r_hi < hi):
                return False
            if not np.array_equal(wa[lo - la : hi - la], wb[lo - lb : hi - lb]):
                return False
        return True

    def quantiles(self) -> tuple[float, float, float]:
        """``(median, p80, p95)``, bitwise ``np.median`` / ``np.percentile``.

        The median is the mean of its one or two middle values, as
        ``np.median`` takes it; a percentile interpolates between its two
        ranks with the weight and the two-sided formula of NumPy's
        ``linear`` method.
        """
        n = self.n
        out = []
        for g, ((lo, w), (r_lo, r_hi)) in enumerate(zip(self.windows, _read_ranks(n))):
            if g == 0:
                out.append(float(w[r_lo - lo : r_hi - lo + 1].mean()))
                continue
            a, b = w[r_lo - lo], w[r_hi - lo]
            h = (n - 1) * (_PERCENTILES[g - 1] / 100)
            # NumPy marks an index clipped to the last rank as -1 before
            # it takes the weight from it.
            t = h + 1 if h >= n - 1 else h - r_lo
            diff = b - a
            out.append(float(b - diff * (1 - t) if t >= 0.5 else a + diff * t))
        return out[0], out[1], out[2]


def _target_ranks(n: int) -> list[tuple[int, int]]:
    """The ranks each group's window spans when it is built afresh."""
    return [
        (max(r_lo - RANK_MARGIN, 0), min(r_hi + RANK_MARGIN, n - 1))
        for r_lo, r_hi in _read_ranks(n)
    ]


def rank_windows(values) -> RankWindows:
    """Build the rank windows of ``values`` with one ``np.partition``."""
    v = np.asarray(values, dtype=float)
    n = int(v.size)
    if n == 0:
        empty = np.zeros(0)
        return RankWindows(0, ((0, empty),) * (1 + len(_PERCENTILES)))
    targets = _target_ranks(n)
    part = np.partition(v, sorted({r for pair in targets for r in pair}))
    return RankWindows(n, tuple((lo, np.sort(part[lo : hi + 1])) for lo, hi in targets))


def extend_rank_windows(old: RankWindows | None, values) -> tuple[RankWindows, int]:
    """The windows of ``values``, whose first ``old.n`` entries ``old`` covers.

    The new tail is sorted once.  In each window, tail values below
    ``w[0]`` only raise ``lo``, values within ``[w[0], w[-1]]`` merge into
    ``w`` and values above ``w[-1]`` fall outside, so ``w`` keeps exactly
    its ranks; a window that starts at rank 0 or ends at the last rank
    takes the values beyond that edge in as well.  The window is then
    trimmed back to the margin around the new read ranks.  A window that
    lost a rank it must read is rebuilt from the full series with one
    ``np.partition``.  Returns ``(windows, rebuilt)``.
    """
    v = np.asarray(values, dtype=float)
    n = int(v.size)
    if old is None or old.n == 0:
        return rank_windows(v), 0
    tail = np.sort(v[old.n :])
    out = []
    rebuilt = 0
    for (lo, w), (r_lo, r_hi), (first, last) in zip(
        old.windows, _read_ranks(n), _target_ranks(n)
    ):
        cut_lo = 0 if lo == 0 else int(np.searchsorted(tail, w[0], side="left"))
        cut_hi = (
            tail.size
            if lo + w.size == old.n
            else int(np.searchsorted(tail, w[-1], side="right"))
        )
        lo += cut_lo
        if cut_hi > cut_lo:
            w = np.sort(np.concatenate((w, tail[cut_lo:cut_hi])))
        if lo <= r_lo and r_hi < lo + w.size:
            keep_lo, keep_hi = max(first, lo), min(last, lo + w.size - 1)
            out.append((keep_lo, w[keep_lo - lo : keep_hi - lo + 1]))
        else:
            rebuilt += 1
            part = np.partition(v, [first, last])
            out.append((first, np.sort(part[first : last + 1])))
    return RankWindows(n, tuple(out)), rebuilt


# -- summaries -------------------------------------------------------------


@dataclass(frozen=True)
class SeriesSummary:
    """Mean / median / std / extremes / selected percentiles of a series."""

    n: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float
    p80: float
    p95: float


def summarize(values, windows: RankWindows | None = None) -> SeriesSummary:
    """Compute the summary the paper quotes for intervals and durations.

    The median and percentiles are read from ``windows``, the series'
    :class:`RankWindows` (built here when not given); mean, std and the
    extremes are NumPy reductions over the series in its own order.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("summarize of empty data")
    if windows is None:
        windows = rank_windows(v)
    elif windows.n != v.size:
        raise ValueError(f"rank windows cover {windows.n} values, the series has {v.size}")
    median, p80, p95 = windows.quantiles()
    return SeriesSummary(
        n=int(v.size),
        mean=float(np.mean(v)),
        median=median,
        std=float(np.std(v, ddof=0)),
        minimum=float(np.min(v)),
        maximum=float(np.max(v)),
        p80=p80,
        p95=p95,
    )
