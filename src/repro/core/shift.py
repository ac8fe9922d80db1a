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
from .stats import sorted_unique, unique_pairs

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
    (week, bot) participation pairs sorted by week then bot.  All three
    are empty for a family with no attacks — unlike the finished shift,
    this half never raises, so per-shard results union cleanly: the
    sharded merge concatenates parts, re-sorts, and dedupes to exactly
    the global pair table.
    """
    ds = ctx.dataset
    fp, lo, hi = ctx._family_run(family)
    if lo == hi:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.int64)
    weeks_of_attack = ((fp.starts[lo:hi] - ds.window.start) // (7 * 86400)).astype(np.int64)

    offsets, flat = ctx.family_participants(family)
    counts = np.diff(offsets)
    week_rep = np.repeat(weeks_of_attack, counts)

    # Unique (week, bot) pairs: a bot counts once per active week.
    u_week, u_bot = unique_pairs(week_rep, flat, ds.bots.n_bots)
    return sorted_unique(weeks_of_attack), u_week, u_bot


def _weekly_shift(ctx: AnalysisContext, family: str) -> WeeklyShift:
    """Sweep-line form of the weekly shift: one pass over (week, bot) pairs.

    The per-week loop with an accumulating ``seen`` set is equivalent to
    labelling every country with the week it first appears: a unique
    (week, bot) participation counts as "existing" when its country's
    first week is strictly earlier (or the week is the family's baseline
    week), "new" otherwise.  Counts are integers, so this is exactly
    equal to the per-week loop in ``tests/oracles/kernels.py`` (pinned
    by the parity tests).
    """
    weeks_u, u_week, u_bot = ctx.weekly_shift_pairs(family)
    return _finish_weekly_shift(ctx.dataset, family, weeks_u, u_week, u_bot)


def _finish_weekly_shift(
    ds, family: str, weeks_u: np.ndarray, u_week: np.ndarray, u_bot: np.ndarray
) -> WeeklyShift:
    """Integer reduction from (week, bot) pairs to the Fig 8 series."""
    if weeks_u.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    u_country = ds.bots.country_idx[u_bot]

    # The baseline is the first week with any participants: the loop
    # form's ``seen`` set stays empty across participant-less weeks.
    baseline = u_week[0] if u_week.size else weeks_u[0]
    n_weeks = weeks_u.size

    # First week each present country appears in.
    n_countries = int(u_country.max()) + 1 if u_country.size else 0
    first_week = np.full(n_countries, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first_week, u_country, u_week)

    known = (u_week == baseline) | (first_week[u_country] < u_week)
    wpos = np.searchsorted(weeks_u, u_week)
    bots_existing = np.bincount(wpos[known], minlength=n_weeks)
    bots_new = np.bincount(wpos[~known], minlength=n_weeks)

    present = np.flatnonzero(first_week < np.iinfo(np.int64).max)
    fresh_weeks = first_week[present]
    fresh_weeks = fresh_weeks[fresh_weeks > baseline]
    new_countries = np.bincount(
        np.searchsorted(weeks_u, fresh_weeks), minlength=n_weeks
    )
    return WeeklyShift(
        family=family,
        weeks=weeks_u.astype(np.int64),
        bots_existing=bots_existing.astype(np.int64),
        bots_new=bots_new.astype(np.int64),
        new_countries=new_countries.astype(np.int64),
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
