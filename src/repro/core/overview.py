"""Overview analyses: workload summary, protocol mix, daily distribution.

Implements the paper's §II-D/§III-A characterizations:

* Table III — summary of attacker- and victim-side populations;
* Table II / Fig 1 — protocol preferences per family and overall;
* Fig 2 — daily attack counts, the 243/day average, and the 2012-08-30
  maximum.

The population scans and count series are memoized on the shared
:class:`AnalysisContext`; the private ``_impl`` functions hold the raw
computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..monitor.schemas import Protocol
from .context import AnalysisContext, AnalysisSource
from .dataset import AttackDataset
from .stats import sorted_unique

__all__ = [
    "SideSummary",
    "WorkloadSummary",
    "workload_summary",
    "protocol_breakdown",
    "protocol_popularity",
    "DailyDistribution",
    "daily_attack_counts",
    "PeriodicityProfile",
    "periodicity_profile",
]


@dataclass(frozen=True)
class SideSummary:
    """One side (attackers or victims) of Table III."""

    n_ips: int
    n_cities: int
    n_countries: int
    n_organizations: int
    n_asns: int


@dataclass(frozen=True)
class WorkloadSummary:
    """Table III: the full workload summary."""

    attackers: SideSummary
    victims: SideSummary
    n_attacks: int
    n_botnets: int
    n_traffic_types: int
    #: Sorted distinct values of the victim registry's columns behind
    #: ``victims`` (see ``_VICTIM_COLUMNS``): what an extend merges the
    #: appended victims into.
    victim_values: tuple[np.ndarray, ...] = field(default=(), compare=False, repr=False)


def workload_summary(source: AnalysisSource) -> WorkloadSummary:
    """Compute Table III from the joined dataset (memoized)."""
    return AnalysisContext.of(source).workload_summary()


def _distinct_count(column: np.ndarray) -> int:
    """``np.unique(column).size`` of an integer column.

    Table III only needs cardinalities.  Entity-index columns (cities,
    countries, orgs, small ASN tables) are non-negative integers drawn
    from a compact id space, so a boolean scatter is O(n) instead of an
    O(n log n) sort of the ~1.9 M-row bot columns.
    Anything else (IPs span the full uint32 range) falls back to
    :func:`~repro.core.stats.sorted_unique`.
    """
    if column.size and np.issubdtype(column.dtype, np.integer):
        lo = int(column.min())
        hi = int(column.max())
        if lo >= 0 and hi < 4 * column.size + 1024:
            seen = np.zeros(hi + 1, dtype=bool)
            seen[column] = True
            return int(np.count_nonzero(seen))
    return int(sorted_unique(column).size)


#: The victim-registry columns behind Table III's victim side, in
#: :class:`SideSummary` field order.
_VICTIM_COLUMNS = ("ip", "city_idx", "country_idx", "org_idx", "asn")


def _attacker_side(bots) -> SideSummary:
    return SideSummary(
        n_ips=int(sorted_unique(bots.ip).size),
        n_cities=_distinct_count(bots.city_idx),
        n_countries=_distinct_count(bots.country_idx),
        n_organizations=_distinct_count(bots.org_idx),
        n_asns=_distinct_count(bots.asn),
    )


def _sorted_union(values: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``np.unique(np.concatenate([values, new]))`` for sorted-unique
    ``values``, in O(len(values)) copying plus a sort of ``new`` only."""
    new = sorted_unique(new)
    if values.size == 0 or new.size == 0:
        return new if values.size == 0 else values
    pos = np.searchsorted(values, new)
    fresh = (pos == values.size) | (values[np.minimum(pos, values.size - 1)] != new)
    return np.insert(values, pos[fresh], new[fresh]) if fresh.any() else values


def _workload_summary(
    ds: AttackDataset,
    prev: WorkloadSummary | None = None,
    prev_ds: AttackDataset | None = None,
) -> WorkloadSummary:
    """Table III over ``ds``; from ``prev`` when given.

    ``prev`` is the summary of ``prev_ds``, whose victim registry is a
    prefix of ``ds``'s (a stream only appends victims; shards share
    one).  The attacker side is reused when the bot registry is the same
    object, and only the appended victims are merged into the carried
    distinct values, so an extend costs O(new victims + distinct
    values), not a sort of the registry.
    """
    victims = ds.victims
    if prev is None:
        attackers = _attacker_side(ds.bots)
        values = tuple(sorted_unique(getattr(victims, c)) for c in _VICTIM_COLUMNS)
    else:
        attackers = prev.attackers if ds.bots is prev_ds.bots else _attacker_side(ds.bots)
        values = prev.victim_values
        if victims is not prev_ds.victims:
            n_old = prev_ds.victims.n_targets
            values = tuple(
                _sorted_union(v, getattr(victims, c)[n_old:])
                for v, c in zip(values, _VICTIM_COLUMNS)
            )
    return WorkloadSummary(
        attackers=attackers,
        victims=SideSummary(*(int(v.size) for v in values)),
        n_attacks=ds.n_attacks,
        n_botnets=len(ds.botnets),
        n_traffic_types=len(Protocol),
        victim_values=values,
    )


def protocol_breakdown(source: AnalysisSource) -> list[tuple[Protocol, str, int]]:
    """Table II: attacks per (protocol, family), protocol-major order.

    Only non-zero cells are returned, protocols ordered as in the paper's
    table (HTTP, TCP, UDP, UNDETERMINED, ICMP, UNKNOWN, SYN), families
    alphabetical within a protocol.
    """
    return AnalysisContext.of(source).protocol_breakdown()


def _protocol_breakdown(ds: AttackDataset) -> list[tuple[Protocol, str, int]]:
    # One count per (protocol, family) cell; ``Protocol`` values are 0..6.
    n_fam = len(ds.families)
    cells = np.bincount(
        ds.protocol.astype(np.int64) * n_fam + ds.family_idx, minlength=len(Protocol) * n_fam
    ).reshape(len(Protocol), n_fam)
    rows: list[tuple[Protocol, str, int]] = []
    for proto in Protocol:
        row = cells[int(proto)]
        named = sorted((ds.family_name(f), int(row[f])) for f in np.flatnonzero(row).tolist())
        rows.extend((proto, fam, count) for fam, count in named)
    return rows


def protocol_popularity(source: AnalysisSource) -> dict[Protocol, int]:
    """Fig 1: total attacks per protocol (all protocols, zeros included)."""
    return AnalysisContext.of(source).protocol_popularity()


def _protocol_popularity(ds: AttackDataset) -> dict[Protocol, int]:
    counts = np.bincount(ds.protocol, minlength=len(Protocol))
    return {proto: int(counts[int(proto)]) for proto in Protocol}


@dataclass(frozen=True)
class DailyDistribution:
    """Fig 2: the daily attack time series and its headline numbers."""

    counts: np.ndarray           # attacks per day index
    mean_per_day: float
    max_per_day: int
    max_day_index: int
    max_day_label: str
    max_day_top_family: str

    @property
    def n_days(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class PeriodicityProfile:
    """§III-A's periodicity check: are attacks user-driven?

    Web traffic shows strong diurnal/weekly cycles; DDoS attacks are
    bot-driven and should not.  Because attacks arrive in bursts (waves
    and campaigns), per-bin chi-square tests over-reject; the robust
    signal is the *autocorrelation of the count series at the periodic
    lag* — hourly counts at lag 24, daily counts at lag 7 — which is
    near zero for aperiodic processes regardless of burstiness.
    """

    hour_of_day: np.ndarray        # 24 counts (display)
    day_of_week: np.ndarray        # 7 counts (display)
    diurnal_acf: float             # hourly-count autocorrelation at lag 24
    weekly_acf: float              # daily-count autocorrelation at lag 7

    @property
    def diurnal_pattern_detected(self) -> bool:
        return self.diurnal_acf > 0.3

    @property
    def weekly_pattern_detected(self) -> bool:
        return self.weekly_acf > 0.3


def periodicity_profile(
    source: AnalysisSource, family: str | None = None
) -> PeriodicityProfile:
    """Hour-of-day / day-of-week histograms plus periodic-lag ACFs."""
    from ..timeseries.acf import acf

    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    starts = ds.start if family is None else ds.start[ctx.family_attacks(family)]
    if starts.size == 0:
        raise ValueError("no attacks to profile")
    rel = starts - ds.window.start
    hour_counts = np.bincount(((rel % 86400) // 3600).astype(np.int64), minlength=24)
    day_counts = np.bincount((rel // 86400).astype(np.int64) % 7, minlength=7)

    hourly_series = np.bincount(
        (rel // 3600).astype(np.int64), minlength=ds.window.n_hours
    ).astype(float)
    daily_series = np.bincount(
        (rel // 86400).astype(np.int64), minlength=ds.window.n_days
    ).astype(float)
    diurnal = float(acf(hourly_series, 24)[24]) if hourly_series.size > 25 else 0.0
    weekly = float(acf(daily_series, 7)[7]) if daily_series.size > 8 else 0.0
    return PeriodicityProfile(
        hour_of_day=hour_counts,
        day_of_week=day_counts,
        diurnal_acf=diurnal,
        weekly_acf=weekly,
    )


def daily_attack_counts(
    source: AnalysisSource, family: str | None = None
) -> DailyDistribution:
    """Fig 2: number of attacks per day (optionally for one family)."""
    return AnalysisContext.of(source).daily_distribution(family)


def _daily_attack_counts(ctx: AnalysisContext, family: str | None) -> DailyDistribution:
    ds = ctx.dataset
    if family is None:
        starts = ds.start
        fam_col = ds.family_idx
    else:
        idx = ctx.family_attacks(family)
        starts = ds.start[idx]
        fam_col = ds.family_idx[idx]
    days = ((starts - ds.window.start) // 86400).astype(np.int64)
    n_days = max(ds.window.n_days, int(days.max()) + 1 if days.size else 1)
    counts = np.bincount(days, minlength=n_days)
    max_day = int(np.argmax(counts))
    on_max = days == max_day
    if on_max.any():
        fams, fam_counts = np.unique(fam_col[on_max], return_counts=True)
        top_family = ds.family_name(int(fams[np.argmax(fam_counts)]))
    else:
        top_family = ""
    return DailyDistribution(
        counts=counts,
        mean_per_day=float(counts[: ds.window.n_days].mean()),
        max_per_day=int(counts[max_day]),
        max_day_index=max_day,
        max_day_label=ds.window.day_label(max_day),
        max_day_top_family=top_family,
    )
