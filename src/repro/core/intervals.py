"""Attack-interval analyses (§III-B, Figs 3-5).

The paper defines an attack interval like an inter-arrival time: the gap
between two consecutive attacks launched by the same family (or, for the
"all" curve, by anyone).  Key characterizations implemented here:

* :func:`attack_intervals` / :func:`family_intervals` — the raw gaps;
* :func:`interval_summary` — the quoted statistics (mean 3,060 s, 80 %
  under 1,081 s, longest 59 days, >50 % simultaneous);
* :func:`simultaneous_attacks` — the split of simultaneous events into
  single-family vs multi-family occurrences and the top family pairs
  (Dirtjumper+Blackenergy and Dirtjumper+Pandora in the paper);
* :func:`interval_clusters` — Fig 4's bucketed view with the shared
  6-7 min / 20-40 min / 2-3 h modes;
* :func:`family_interval_cdf` — Fig 5's per-family CDF.

All entry points accept either an :class:`AttackDataset` or an
:class:`AnalysisContext`; the gap arrays are memoized on the context so
every consumer shares one copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .context import AnalysisContext, AnalysisSource
from .stats import SeriesSummary, ecdf, linked_runs, summarize

__all__ = [
    "attack_intervals",
    "family_intervals",
    "IntervalSummary",
    "interval_summary",
    "SimultaneousReport",
    "simultaneous_attacks",
    "INTERVAL_BUCKETS",
    "interval_clusters",
    "family_interval_cdf",
]


def attack_intervals(source: AnalysisSource) -> np.ndarray:
    """Gaps between consecutive attacks across all families (Fig 3 "all")."""
    return AnalysisContext.of(source).attack_intervals()


def family_intervals(
    source: AnalysisSource, family: str, include_simultaneous: bool = True
) -> np.ndarray:
    """Gaps between consecutive attacks of one family.

    ``include_simultaneous=False`` drops zero gaps, matching Fig 4's
    pre-processing ("simultaneous attacks are eliminated").
    """
    return AnalysisContext.of(source).family_intervals(family, include_simultaneous)


@dataclass(frozen=True)
class IntervalSummary:
    """The §III-B headline interval statistics."""

    stats: SeriesSummary
    simultaneous_fraction: float
    p80_seconds: float
    longest_days: float


def interval_summary(source: AnalysisSource, family: str | None = None) -> IntervalSummary:
    """Summarise intervals across all attacks or for one family."""
    ctx = AnalysisContext.of(source)
    gaps = ctx.attack_intervals() if family is None else ctx.family_intervals(family)
    if gaps.size == 0:
        raise ValueError("not enough attacks to compute intervals")
    key = ("attack_intervals",) if family is None else ("family_intervals", family, True)
    stats = summarize(gaps, ctx.rank_windows(key))
    return IntervalSummary(
        stats=stats,
        simultaneous_fraction=float(np.mean(gaps == 0)),
        p80_seconds=stats.p80,
        longest_days=stats.maximum / 86400.0,
    )


@dataclass(frozen=True)
class SimultaneousReport:
    """§III-B: simultaneous attack events and who co-occurs with whom."""

    single_family_events: int
    multi_family_events: int
    #: families participating in single-family simultaneous events.
    single_family_names: list[str]
    #: (family A, family B) -> number of co-occurrences, sorted descending.
    pair_counts: list[tuple[tuple[str, str], int]]
    #: family -> its single-family events, by name; with ``pair_totals``
    #: the tally an extend un-counts a seam event from exactly.
    single_family_counts: dict[str, int] = field(default_factory=dict, repr=False)
    #: (family A, family B) -> co-occurrences, in key order (unranked).
    pair_totals: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)


def simultaneous_attacks(
    source: AnalysisSource, tolerance: float = 0.0
) -> SimultaneousReport:
    """Group attacks by start time and classify simultaneous events.

    An *event* is a set of at least two attacks starting at the same time
    (within ``tolerance`` seconds).  Events whose attacks all belong to
    one family count as single-family; otherwise every unordered family
    pair present in the event is credited one co-occurrence.
    """
    ctx = AnalysisContext.of(source)
    if tolerance == 0.0:
        return ctx.simultaneous_attacks()
    return _simultaneous_attacks(ctx.dataset, tolerance)


def _simultaneous_attacks(ds, tolerance: float) -> SimultaneousReport:
    return _finish_simultaneous(_simultaneous_tally(ds, 0, ds.n_attacks, tolerance))


def _simultaneous_tally(
    ds, lo: int, hi: int, tolerance: float = 0.0
) -> tuple[dict[str, int], int, dict[tuple[str, str], int]]:
    """Tally the simultaneous events among rows ``[lo, hi)``.

    Returns ``(single, multi, pairs)``: single-family events per family
    name, the number of multi-family events and the family-pair
    co-occurrences.  With ``tolerance`` 0 a range cut between two start
    times tallies exactly its own events, so tallies of adjacent ranges
    add up (see :func:`repro.core.merge.extend_views`).

    One gap mask over the sorted starts labels the events.  An event of
    one row is not simultaneous, so the ``(event, family)`` dedupe that
    finds each event's distinct families runs only over the rows whose
    start ties a neighbour's within ``tolerance``.  Only multi-family
    events (a handful) reach Python.  Pinned to a loop over start-time
    groups, ``reference_simultaneous_tally`` in
    ``tests/oracles/kernels.py``.
    """
    n = hi - lo
    if n <= 0:
        return {}, 0, {}
    starts = ds.start[lo:hi]
    order = np.argsort(starts, kind="stable")
    sorted_starts = starts[order]
    # A new event wherever the gap exceeds the tolerance; the tied rows
    # go on.
    pos, new_event = linked_runs(~(np.diff(sorted_starts) > tolerance))
    if pos.size == 0:
        return {}, 0, {}
    event_id = np.cumsum(new_event) - 1
    n_events = int(event_id[-1]) + 1

    fams = ds.family_idx[lo:hi][order[pos]]
    o = np.lexsort((fams, event_id))
    e_sorted = event_id[o]
    f_sorted = fams[o]
    first = np.empty(pos.size, dtype=bool)
    first[0] = True
    first[1:] = (e_sorted[1:] != e_sorted[:-1]) | (f_sorted[1:] != f_sorted[:-1])
    u_event = e_sorted[first]
    u_fam = f_sorted[first]
    fams_per_event = np.bincount(u_event, minlength=n_events)

    single_mask = fams_per_event == 1
    multi_mask = fams_per_event >= 2

    per_family = np.bincount(u_fam[single_mask[u_event]])
    single = {ds.family_name(int(f)): int(per_family[f]) for f in np.flatnonzero(per_family)}
    pairs: dict[tuple[str, str], int] = {}
    u_offsets = np.concatenate(([0], np.cumsum(fams_per_event)))
    for e in np.flatnonzero(multi_mask):
        names = sorted(
            ds.family_name(int(f)) for f in u_fam[u_offsets[e] : u_offsets[e + 1]]
        )
        for a, b in combinations(names, 2):
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
    return single, int(np.sum(multi_mask)), pairs


def _finish_simultaneous(
    tally: tuple[dict[str, int], int, dict[tuple[str, str], int]]
) -> SimultaneousReport:
    """The report of a tally; zero entries (un-counted seam events) drop."""
    single, multi, pairs = tally
    single = {name: single[name] for name in sorted(single) if single[name]}
    pairs = {pair: pairs[pair] for pair in sorted(pairs) if pairs[pair]}
    return SimultaneousReport(
        single_family_events=sum(single.values()),
        multi_family_events=multi,
        single_family_names=list(single),
        pair_counts=sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0])),
        single_family_counts=single,
        pair_totals=pairs,
    )


#: Fig 4's interval buckets.  The paper highlights 6-7 min, 20-40 min and
#: 2-3 h as the modes shared across families; the remaining buckets cover
#: the rest of the axis up to months.
INTERVAL_BUCKETS: list[tuple[str, float, float]] = [
    ("<1 min", 0.0, 60.0),
    ("1-6 min", 60.0, 360.0),
    ("6-7 min", 360.0, 420.0),
    ("7-20 min", 420.0, 1200.0),
    ("20-40 min", 1200.0, 2400.0),
    ("40 min-2 h", 2400.0, 7200.0),
    ("2-3 h", 7200.0, 10800.0),
    ("3-24 h", 10800.0, 86400.0),
    ("1-7 days", 86400.0, 604800.0),
    (">1 week", 604800.0, float("inf")),
]


def interval_clusters(source: AnalysisSource, family: str) -> dict[str, int]:
    """Fig 4: bucketed non-simultaneous interval counts for one family."""
    counts = AnalysisContext.of(source).interval_buckets(family)
    return {label: int(c) for (label, _lo, _hi), c in zip(INTERVAL_BUCKETS, counts)}


def _bucket_counts(gaps: np.ndarray) -> np.ndarray:
    """Counts of ``gaps`` per :data:`INTERVAL_BUCKETS` bucket.

    The buckets tile ``[0, inf)``, so a bucket's count is the number of
    gaps at or above its lower edge minus those at or above the next
    one: one pass per edge.  Every gap (all are finite and non-negative)
    lands in one bucket, so the counts sum to ``gaps.size``.
    """
    at_least = [np.count_nonzero(gaps >= lo) for _label, lo, _hi in INTERVAL_BUCKETS]
    return -np.diff(np.array([*at_least, 0], dtype=np.int64))


def family_interval_cdf(
    source: AnalysisSource, family: str
) -> tuple[np.ndarray, np.ndarray]:
    """Fig 5: the per-family interval CDF (simultaneous included)."""
    gaps = family_intervals(source, family, include_simultaneous=True)
    if gaps.size == 0:
        raise ValueError(f"family {family!r} has fewer than two attacks")
    return ecdf(gaps)
