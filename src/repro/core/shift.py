"""Weekly source shift patterns (§IV-A, Fig 8).

The paper aggregates, per family and per week, the bots involved in DDoS
attacks, and tracks how that footprint *shifts*: how many bots appear in
countries the family already attacked from, versus countries that are
new for the family.  The strong affinity to a fixed country set — with
new-country shifts an order of magnitude rarer — is the basis of the
source-prediction claim.

Per-family series are memoized on the shared :class:`AnalysisContext`,
so Fig 8's stacked view and its per-family rows share one computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import AnalysisContext, AnalysisSource

__all__ = ["WeeklyShift", "weekly_shift", "aggregate_shift"]


@dataclass(frozen=True)
class WeeklyShift:
    """Fig 8 series for one family."""

    family: str
    weeks: np.ndarray                  # week indices with any activity
    bots_existing: np.ndarray          # bots attacking from already-seen countries
    bots_new: np.ndarray               # bots attacking from newly-seen countries
    new_countries: np.ndarray          # number of new countries entered that week

    @property
    def total_existing(self) -> int:
        return int(self.bots_existing.sum())

    @property
    def total_new(self) -> int:
        return int(self.bots_new.sum())

    @property
    def affinity_ratio(self) -> float:
        """existing-country bots per new-country bot (∞-safe)."""
        new = self.total_new
        return float(self.total_existing) / new if new else float("inf")


def weekly_shift(source: AnalysisSource, family: str) -> WeeklyShift:
    """Compute the Fig 8 shift series for one family (memoized).

    Week 0 establishes the family's initial footprint: every bot of the
    first active week counts as "existing" (the paper's baseline week).
    """
    return AnalysisContext.of(source).weekly_shift(family)


def _weekly_pairs(
    ctx: AnalysisContext, family: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mergeable half of the weekly shift kernel.

    Returns ``(weeks_u, u_week, u_bot)``: the sorted week indices with
    any attack (participant-less weeks included) and the unique
    (week, bot) participation pairs sorted by week then bot, in
    :func:`~repro.core.stats.unique_pairs`' order and dtypes.  All three
    are empty for a family with no attacks — unlike the finished shift,
    this half never raises, so per-shard results union cleanly: the
    sharded merge concatenates parts, re-sorts, and dedupes to exactly
    the global pair table.

    A family's rows are chronological, so each week's participations
    are one slice of the family CSR.  Each slice is deduped by marking
    its bots in one reused bool bitmap and reading the marks back over
    the week's bot span (``np.flatnonzero`` yields them sorted): a first
    pass counts each week's bots, a second fills outputs of that size,
    so no full-length sort key or per-week piece outlives its week.
    """
    ds = ctx.dataset
    fp, lo, hi = ctx._family_run(family)
    if lo == hi:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.int64)
    weeks_of_attack = ((fp.starts[lo:hi] - ds.window.start) // (7 * 86400)).astype(np.int64)
    offsets, flat = ctx.family_participants(family)

    # Each week's attacks are one run of rows, so their participations
    # are one slice of ``flat``.
    firsts = np.flatnonzero(np.diff(weeks_of_attack, prepend=weeks_of_attack[0] - 1))
    bounds = offsets[np.append(firsts, weeks_of_attack.size)].tolist()
    n_bots = ds.bots.n_bots
    marks = np.zeros(n_bots, dtype=bool)
    hits = np.zeros(firsts.size, dtype=np.int64)
    spans = []
    for k, (b0, b1) in enumerate(zip(bounds[:-1], bounds[1:])):
        if b0 == b1:
            continue
        bots = flat[b0:b1]
        low, high = int(bots.min()), int(bots.max()) + 1
        if low < 0 or high > n_bots:
            raise ValueError(f"bot indices must lie in [0, {n_bots})")
        marks[bots] = True
        hits[k] = np.count_nonzero(marks[low:high])
        marks[low:high] = False
        spans.append((k, bots, low, high))
    # A bot counts once per active week.
    u_week = np.repeat(weeks_of_attack[firsts], hits)
    u_bot = np.empty(u_week.size, dtype=flat.dtype)
    at = 0
    for k, bots, low, high in spans:
        marks[bots] = True
        week = u_bot[at : at + hits[k]]
        week[:] = np.flatnonzero(marks[low:high])
        week += low
        marks[low:high] = False
        at += hits[k]
    return weeks_of_attack[firsts], u_week, u_bot


def _weekly_shift(ctx: AnalysisContext, family: str) -> WeeklyShift:
    """Sweep-line form of the weekly shift: one pass over (week, bot) pairs.

    Counts are integers, so this is exactly equal to the per-week loop
    in ``tests/oracles/kernels.py`` (pinned by the parity tests).
    """
    weeks_u, u_week, u_bot = ctx.weekly_shift_pairs(family)
    return _finish_weekly_shift(ctx.dataset, family, weeks_u, u_week, u_bot)


def _finish_weekly_shift(
    ds, family: str, weeks_u: np.ndarray, u_week: np.ndarray, u_bot: np.ndarray
) -> WeeklyShift:
    """Integer reduction from (week, bot) pairs to the Fig 8 series.

    The pairs are sorted by week, so each week is one slice of them, and
    the weeks are swept in order with a bitmap of the countries seen so
    far: a unique (week, bot) participation counts as "existing" when its
    country was seen in an earlier week, "new" otherwise, and a country
    counts once as new in the first week it appears in.  The baseline,
    the first week with any participants, is all "existing" and enters
    no new country; the loop form's ``seen`` set stays empty across the
    participant-less weeks before it.  Every temporary is one week's size.
    """
    if weeks_u.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    n_weeks = weeks_u.size
    bots_existing = np.zeros(n_weeks, dtype=np.int64)
    bots_new = np.zeros(n_weeks, dtype=np.int64)
    new_countries = np.zeros(n_weeks, dtype=np.int64)
    country_idx = ds.bots.country_idx
    seen = np.zeros(int(country_idx.max(initial=-1)) + 1, dtype=bool)
    bounds = np.append(np.searchsorted(u_week, weeks_u), u_week.size).tolist()
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if lo == hi:
            continue
        countries = country_idx[u_bot[lo:hi]]
        before = np.count_nonzero(seen)
        known = np.count_nonzero(seen[countries]) if before else hi - lo
        seen[countries] = True
        bots_existing[k] = known
        bots_new[k] = hi - lo - known
        if before:
            new_countries[k] = np.count_nonzero(seen) - before
    return WeeklyShift(
        family=family,
        weeks=weeks_u.astype(np.int64),
        bots_existing=bots_existing,
        bots_new=bots_new,
        new_countries=new_countries,
    )


def aggregate_shift(
    source: AnalysisSource, families: list[str] | None = None
) -> WeeklyShift:
    """Fig 8's stacked view: shifts summed over families, week by week."""
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    if families is None:
        families = [f for f in ds.active_families if ctx.family_attacks(f).size]
    if not families:
        raise ValueError("no active families with attacks")
    per_family = [ctx.weekly_shift(f) for f in families]
    n_weeks = ds.window.n_weeks + 1
    existing = np.zeros(n_weeks, dtype=np.int64)
    new = np.zeros(n_weeks, dtype=np.int64)
    new_countries = np.zeros(n_weeks, dtype=np.int64)
    for shift in per_family:
        existing[shift.weeks] += shift.bots_existing
        new[shift.weeks] += shift.bots_new
        new_countries[shift.weeks] += shift.new_countries
    active = np.flatnonzero((existing > 0) | (new > 0))
    return WeeklyShift(
        family="<all>",
        weeks=active,
        bots_existing=existing[active],
        bots_new=new[active],
        new_countries=new_countries[active],
    )
