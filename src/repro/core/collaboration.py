"""Concurrent collaboration detection (§V-A, Table VI, Figs 15-16).

The paper's definition: attacks by *different botnets* against the *same
target* whose start times are within 60 seconds of each other and whose
durations differ by at most half an hour are a collaboration.  A
collaboration is intra-family when all participating botnets belong to
one family, inter-family otherwise.

The detector here works purely from the attack table (never from the
generator's ground-truth labels); the test suite compares its output
against the staged ground truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .context import AnalysisContext, AnalysisSource

__all__ = [
    "START_WINDOW_SECONDS",
    "DURATION_WINDOW_SECONDS",
    "CollabEvent",
    "detect_collaborations",
    "collaboration_table",
    "IntraFamilyStats",
    "intra_family_stats",
    "PairAnalysis",
    "pair_analysis",
]

START_WINDOW_SECONDS = 60.0
DURATION_WINDOW_SECONDS = 1800.0


@dataclass(frozen=True)
class CollabEvent:
    """One detected collaboration: >= 2 attacks co-targeting one victim."""

    attack_indices: tuple[int, ...]
    target_index: int
    families: tuple[str, ...]
    botnet_ids: tuple[int, ...]
    start: float
    is_inter_family: bool

    @property
    def n_botnets(self) -> int:
        return len(set(self.botnet_ids))


def detect_collaborations(
    source: AnalysisSource,
    start_window: float = START_WINDOW_SECONDS,
    duration_window: float = DURATION_WINDOW_SECONDS,
) -> list[CollabEvent]:
    """Find all collaborations under the paper's §V-A definition.

    Attacks on each target are scanned in start order; a maximal run of
    attacks whose starts are pairwise within ``start_window`` is a
    candidate group.  Within a candidate group, attacks by the same
    botnet are reduced to one (a botnet cannot collaborate with itself),
    and members whose duration strays more than ``duration_window`` from
    the group's first attack are dropped.  Groups with at least two
    distinct botnets left become events.

    Under the default windows, the event list is memoized on the shared
    :class:`AnalysisContext` (Table VI, Figs 15-16 and the attribution
    policies all consume the same detection).
    """
    ctx = AnalysisContext.of(source)
    if start_window == START_WINDOW_SECONDS and duration_window == DURATION_WINDOW_SECONDS:
        return ctx.collaborations()
    return _detect_collaborations(ctx.dataset, start_window, duration_window)


def _detect_collaborations(
    ds, start_window: float, duration_window: float
) -> list[CollabEvent]:
    """The raw scan behind :func:`detect_collaborations`.

    A sweep-line kernel over the ``(target, start)``-sorted attack
    columns: one boundary mask splits the sweep into candidate runs
    (target change *or* start gap beyond the window), the per-run
    botnet dedupe is a second lexsort plus a first-occurrence mask,
    and the duration filter broadcasts each run's first-member duration
    with ``np.repeat``.  Only surviving events (a few hundred at full
    scale) are materialised in Python.  Pinned equal to the per-target
    loop in ``tests/oracles/kernels.py`` by the parity tests.
    """
    n = ds.n_attacks
    if n == 0:
        return []
    order = np.lexsort((ds.start, ds.target_idx))
    targets = ds.target_idx[order]
    starts = ds.start[order]
    durations = (ds.end - ds.start)[order]
    botnets = ds.botnet_id[order]

    # Candidate runs: maximal stretches on one target whose successive
    # starts are within the window.
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = (targets[1:] != targets[:-1]) | (
        starts[1:] - starts[:-1] > start_window
    )
    run_id = np.cumsum(new_run) - 1
    n_runs = int(run_id[-1]) + 1
    run_first = np.flatnonzero(new_run)
    run_sizes = np.diff(np.append(run_first, n))

    # Duration filter: within a run, members stray at most
    # ``duration_window`` from the *first* member's duration.  It runs
    # before the dedupe — a botnet whose earliest attack fails the
    # filter may still contribute a later, conforming attack.
    base = np.repeat(durations[run_first], run_sizes)
    dur_ok = np.abs(durations - base) <= duration_window
    ok_pos = np.flatnonzero(dur_ok)

    # Botnet dedupe among the survivors: a botnet cannot collaborate
    # with itself, so only its first conforming attack per run counts.
    # lexsort is stable, so the first position within each
    # (run, botnet) block is the earliest.
    keep = np.zeros(n, dtype=bool)
    if ok_pos.size:
        ok_runs = run_id[ok_pos]
        ok_bots = botnets[ok_pos]
        dd = np.lexsort((ok_bots, ok_runs))
        first = np.empty(ok_pos.size, dtype=bool)
        first[0] = True
        first[1:] = (ok_runs[dd][1:] != ok_runs[dd][:-1]) | (
            ok_bots[dd][1:] != ok_bots[dd][:-1]
        )
        keep[ok_pos[dd[first]]] = True

    kept_per_run = np.bincount(run_id[keep], minlength=n_runs)
    good = kept_per_run >= 2
    if not np.any(good):
        return []

    kept_pos = np.flatnonzero(keep)
    kept_run = run_id[kept_pos]
    run_offsets = np.concatenate(([0], np.cumsum(kept_per_run)))

    family_names = np.asarray(
        [ds.family_name(k) for k in range(ds.family_idx.max() + 1)], dtype=object
    )
    events: list[CollabEvent] = []
    for r in np.flatnonzero(good):
        pos = kept_pos[run_offsets[r] : run_offsets[r + 1]]
        idx = order[pos]
        families = tuple(sorted(set(family_names[np.unique(ds.family_idx[idx])])))
        events.append(
            CollabEvent(
                attack_indices=tuple(int(i) for i in idx),
                target_index=int(targets[pos[0]]),
                families=families,
                botnet_ids=tuple(int(b) for b in botnets[pos]),
                start=float(starts[pos[0]]),
                is_inter_family=len(families) > 1,
            )
        )
    events.sort(key=lambda e: e.start)
    return events


def collaboration_table(
    source: AnalysisSource, events: list[CollabEvent] | None = None
) -> dict[str, dict[str, int]]:
    """Table VI: per-family intra- and inter-family collaboration counts.

    Every family participating in an event is credited once, matching the
    paper's per-family accounting (which is why Dirtjumper's 121
    inter-family events equal the sum of its partners' counts).
    """
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    if events is None:
        events = ctx.collaborations()
    table: dict[str, dict[str, int]] = {
        fam: {"intra": 0, "inter": 0} for fam in ds.active_families
    }
    for event in events:
        kind = "inter" if event.is_inter_family else "intra"
        for family in event.families:
            if family in table:
                table[family][kind] += 1
    return table


@dataclass(frozen=True)
class IntraFamilyStats:
    """Fig 15 material: one family's intra-family collaborations."""

    family: str
    n_events: int
    mean_botnets_per_event: float
    #: (start time, botnet id, attack magnitude) per participating attack.
    points: list[tuple[float, int, int]]
    #: Fraction of events whose members have identical magnitudes (the
    #: "same bar height" observation suggesting central instructions).
    equal_magnitude_fraction: float


def intra_family_stats(
    source: AnalysisSource, family: str, events: list[CollabEvent] | None = None
) -> IntraFamilyStats:
    """Summarise one family's intra-family collaborations (Fig 15)."""
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    if events is None:
        events = ctx.collaborations()
    mine = [e for e in events if not e.is_inter_family and e.families == (family,)]
    points: list[tuple[float, int, int]] = []
    equal = 0
    if mine:
        # One gather over every event's attacks; per-event magnitude
        # extremes by segment reductions.
        sizes = np.fromiter((len(e.attack_indices) for e in mine), np.int64, len(mine))
        rows = np.fromiter(
            itertools.chain.from_iterable(e.attack_indices for e in mine),
            np.int64,
            int(sizes.sum()),
        )
        mags = ds.magnitude[rows]
        heads = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        high = np.maximum.reduceat(mags, heads)
        spread = (high - np.minimum.reduceat(mags, heads)) / np.maximum(high, 1)
        equal = int(np.count_nonzero(spread <= 0.25))
        points = list(
            zip(ds.start[rows].tolist(), ds.botnet_id[rows].tolist(), mags.tolist())
        )
    n_botnets = [e.n_botnets for e in mine]
    return IntraFamilyStats(
        family=family,
        n_events=len(mine),
        mean_botnets_per_event=float(np.mean(n_botnets)) if n_botnets else 0.0,
        points=points,
        equal_magnitude_fraction=float(equal / len(mine)) if mine else 0.0,
    )


@dataclass(frozen=True)
class PairAnalysis:
    """Fig 16 material: collaborations between two specific families."""

    family_a: str
    family_b: str
    n_events: int
    n_targets: int
    n_countries: int
    n_organizations: int
    n_asns: int
    top_countries: list[tuple[str, int]]
    mean_duration_a: float
    mean_duration_b: float
    #: Aligned per-event series: (start, duration_a, duration_b, mag_a, mag_b).
    series: list[tuple[float, float, float, int, int]]
    span_weeks: float


def pair_analysis(
    source: AnalysisSource,
    family_a: str,
    family_b: str,
    events: list[CollabEvent] | None = None,
) -> PairAnalysis:
    """Analyse the collaborations between ``family_a`` and ``family_b``.

    The paper's Fig 16 compares Dirtjumper and Pandora: durations and
    magnitudes per event side by side, plus the target/country/org/AS
    footprint of the joint campaign.
    """
    if family_a == family_b:
        raise ValueError("pair_analysis needs two different families")
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    if events is None:
        events = ctx.collaborations()
    pair = tuple(sorted((family_a, family_b)))
    mine = [e for e in events if e.is_inter_family and set(pair) <= set(e.families)]

    targets = sorted({e.target_index for e in mine})
    countries = ds.victims.country_idx[targets] if targets else np.zeros(0, dtype=int)
    uniq_c, counts_c = (
        np.unique(countries, return_counts=True) if targets else (np.zeros(0), np.zeros(0))
    )
    order = np.argsort(-counts_c, kind="stable")
    top_countries = [
        (ds.world.countries[int(uniq_c[i])].code, int(counts_c[i])) for i in order[:5]
    ]

    series: list[tuple[float, float, float, int, int]] = []
    durations_a = durations_b = np.zeros(0)
    if mine:
        # One gather over the events' rows; each side of an event is its
        # first row of that family.
        sizes = np.fromiter((len(e.attack_indices) for e in mine), np.int64, len(mine))
        rows = np.fromiter(
            itertools.chain.from_iterable(e.attack_indices for e in mine),
            np.int64,
            int(sizes.sum()),
        )
        event = np.repeat(np.arange(len(mine)), sizes)
        fams = ds.family_idx[rows]
        first = []
        for name in (family_a, family_b):
            pos = np.flatnonzero(fams == (ds.family_id(name) if name in ds.families else -1))
            head = np.ones(pos.size, dtype=bool)
            head[1:] = event[pos[1:]] != event[pos[:-1]]
            row = np.full(len(mine), -1, dtype=np.int64)
            row[event[pos[head]]] = rows[pos[head]]
            first.append(row)
        both = (first[0] >= 0) & (first[1] >= 0)
        row_a, row_b = first[0][both], first[1][both]
        durations_a = ds.end[row_a] - ds.start[row_a]
        durations_b = ds.end[row_b] - ds.start[row_b]
        event_starts = np.fromiter((e.start for e in mine), np.float64, len(mine))[both]
        series = list(
            zip(
                event_starts.tolist(),
                durations_a.tolist(),
                durations_b.tolist(),
                ds.magnitude[row_a].tolist(),
                ds.magnitude[row_b].tolist(),
            )
        )

    starts = [s for s, *_ in series]
    span_weeks = (max(starts) - min(starts)) / (7 * 86400.0) if len(starts) > 1 else 0.0
    return PairAnalysis(
        family_a=family_a,
        family_b=family_b,
        n_events=len(series),
        n_targets=len(targets),
        n_countries=int(uniq_c.size),
        n_organizations=int(np.unique(ds.victims.org_idx[targets]).size) if targets else 0,
        n_asns=int(np.unique(ds.victims.asn[targets]).size) if targets else 0,
        top_countries=top_countries,
        mean_duration_a=float(np.mean(durations_a)) if durations_a.size else 0.0,
        mean_duration_b=float(np.mean(durations_b)) if durations_b.size else 0.0,
        series=sorted(series),
        span_weeks=float(span_weeks),
    )
