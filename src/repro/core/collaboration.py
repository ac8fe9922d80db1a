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

from dataclasses import dataclass

import numpy as np

from .context import AnalysisContext, AnalysisSource
from .scans import ScanEvents, in_scan_order
from .stats import linked_runs, sorted_unique

__all__ = [
    "START_WINDOW_SECONDS",
    "DURATION_WINDOW_SECONDS",
    "CollabEvent",
    "detect_collaborations",
    "collab_events",
    "inter_family_mask",
    "family_mask",
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

    The events come as a list of :class:`CollabEvent`, built in bulk
    from the columnar scan.  Under the default windows the list is
    memoized on the shared :class:`AnalysisContext`, next to the scan
    itself (``ctx.collaborations()``, a
    :class:`~repro.core.scans.ScanEvents`), which Table VI, Figs 15-16
    read without building the list.
    """
    ctx = AnalysisContext.of(source)
    if start_window == START_WINDOW_SECONDS and duration_window == DURATION_WINDOW_SECONDS:
        return ctx.view(
            ("collaboration_list",),
            lambda: collab_events(ctx.dataset, ctx.collaborations()),
        )
    return collab_events(
        ctx.dataset, _detect_collaborations(ctx.dataset, start_window, duration_window)
    )


def _detect_collaborations(
    ds, start_window: float, duration_window: float, order: np.ndarray | None = None
) -> ScanEvents:
    """The raw scan behind :func:`detect_collaborations`.

    A sweep-line kernel over the rows in ``(target, start)`` order:
    ``order``, a context's shared
    :meth:`~repro.core.context.AnalysisContext.target_order`, or the
    kernel's own ``lexsort`` when none is given (the seam rescan's row
    slices).  One boundary mask splits the sweep into candidate runs
    (target change *or* start gap beyond the window).  A run of one row
    keeps at most one member, so it can never become an event, and only
    the rows of runs of two or more go on: over those rows alone, in
    sweep order, the duration filter broadcasts each run's first-member
    duration with ``np.repeat``, the per-run botnet dedupe is a second
    lexsort plus a first-occurrence mask, and a ``bincount`` counts each
    run's survivors.  The survivors of the runs that keep two or more
    are the events' rows, as they lie in the sweep, so the events come
    out in NumPy alone.  Pinned equal to the per-target loop in
    ``tests/oracles/kernels.py`` by the parity tests.
    """
    n = ds.n_attacks
    if n == 0:
        return ScanEvents.empty()
    if order is None:
        order = np.lexsort((ds.start, ds.target_idx))
    targets = ds.target_idx[order]
    starts = ds.start[order]

    # Candidate runs: maximal stretches on one target whose successive
    # starts are within the window.
    pos, new_run = linked_runs(
        (targets[1:] == targets[:-1]) & ~(starts[1:] - starts[:-1] > start_window)
    )
    if pos.size == 0:
        return ScanEvents.empty()
    rows = order[pos]
    run_id = np.cumsum(new_run) - 1
    n_runs = int(run_id[-1]) + 1
    run_first = np.flatnonzero(new_run)
    run_sizes = np.diff(np.append(run_first, pos.size))
    durations = ds.end[rows] - ds.start[rows]
    botnets = ds.botnet_id[rows]

    # Duration filter: within a run, members stray at most
    # ``duration_window`` from the *first* member's duration.  It runs
    # before the dedupe — a botnet whose earliest attack fails the
    # filter may still contribute a later, conforming attack.
    base = np.repeat(durations[run_first], run_sizes)
    ok_pos = np.flatnonzero(np.abs(durations - base) <= duration_window)

    # Botnet dedupe among the survivors: a botnet cannot collaborate
    # with itself, so only its first conforming attack per run counts.
    # lexsort is stable, so the first position within each
    # (run, botnet) block is the earliest.
    keep = np.zeros(pos.size, dtype=bool)
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
    members = keep & good[run_id]
    events = ScanEvents.from_sizes(rows[members], kept_per_run[good])
    return in_scan_order(ds, events)


def collab_events(ds, events: ScanEvents) -> list[CollabEvent]:
    """``events`` as :class:`CollabEvent` objects, in bulk."""
    if not len(events):
        return []
    rows = events.rows
    heads = events.heads
    names = np.asarray(ds.families, dtype=object)
    indices = rows.tolist()
    botnets = ds.botnet_id[rows].tolist()
    families = names[ds.family_idx[rows]].tolist()
    bounds = events.offsets.tolist()
    out: list[CollabEvent] = []
    for target, start, lo, hi in zip(
        ds.target_idx[heads].tolist(), ds.start[heads].tolist(), bounds, bounds[1:]
    ):
        names_in = tuple(sorted(set(families[lo:hi])))
        out.append(
            CollabEvent(
                attack_indices=tuple(indices[lo:hi]),
                target_index=target,
                families=names_in,
                botnet_ids=tuple(botnets[lo:hi]),
                start=start,
                is_inter_family=len(names_in) > 1,
            )
        )
    return out


def _scan(ctx: AnalysisContext, events) -> ScanEvents:
    """The events a render reads: the context's own scan by default."""
    return ctx.collaborations() if events is None else ScanEvents.of(events)


def _family_presence(ds, events: ScanEvents) -> np.ndarray:
    """``(n_events, n_families)`` mask: which families take part in each
    event (a family counts once per event, however many rows it has)."""
    presence = np.zeros((len(events), len(ds.families)), dtype=bool)
    presence[events.event_of_row(), ds.family_idx[events.rows]] = True
    return presence


def inter_family_mask(
    source: AnalysisSource, events: ScanEvents | list[CollabEvent] | None = None
) -> np.ndarray:
    """Per event, whether its attacks come from more than one family."""
    ctx = AnalysisContext.of(source)
    return _family_presence(ctx.dataset, _scan(ctx, events)).sum(axis=1) > 1


def family_mask(
    source: AnalysisSource,
    family: str,
    events: ScanEvents | list[CollabEvent] | None = None,
) -> np.ndarray:
    """Per event, whether ``family`` takes part in it."""
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    events = _scan(ctx, events)
    if family not in ds.families:
        return np.zeros(len(events), dtype=bool)
    return _family_presence(ds, events)[:, ds.family_id(family)]


def collaboration_table(
    source: AnalysisSource, events: ScanEvents | list[CollabEvent] | None = None
) -> dict[str, dict[str, int]]:
    """Table VI: per-family intra- and inter-family collaboration counts.

    Every family participating in an event is credited once, matching the
    paper's per-family accounting (which is why Dirtjumper's 121
    inter-family events equal the sum of its partners' counts).
    ``events`` defaults to the context's scan; a list of
    :class:`CollabEvent` is accepted too.
    """
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    presence = _family_presence(ds, _scan(ctx, events))
    inter = presence.sum(axis=1) > 1
    counts = {"intra": presence[~inter].sum(axis=0), "inter": presence[inter].sum(axis=0)}
    return {
        fam: {kind: int(c[ds.family_id(fam)]) for kind, c in counts.items()}
        for fam in ds.active_families
    }


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
    source: AnalysisSource,
    family: str,
    events: ScanEvents | list[CollabEvent] | None = None,
) -> IntraFamilyStats:
    """Summarise one family's intra-family collaborations (Fig 15).

    A botnet takes part in an event once, so an event's botnets are its
    rows; per-event magnitude extremes are segment reductions over the
    chosen events' rows.
    """
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    events = _scan(ctx, events)
    presence = _family_presence(ds, events)
    mine = np.zeros(len(events), dtype=bool)
    if family in ds.families:
        mine = (presence.sum(axis=1) == 1) & presence[:, ds.family_id(family)]
    mine = events.take(np.flatnonzero(mine))
    n_events = len(mine)
    points: list[tuple[float, int, int]] = []
    equal = 0
    if n_events:
        rows = mine.rows
        mags = ds.magnitude[rows]
        heads = mine.offsets[:-1]
        high = np.maximum.reduceat(mags, heads)
        spread = (high - np.minimum.reduceat(mags, heads)) / np.maximum(high, 1)
        equal = int(np.count_nonzero(spread <= 0.25))
        points = list(
            zip(ds.start[rows].tolist(), ds.botnet_id[rows].tolist(), mags.tolist())
        )
    return IntraFamilyStats(
        family=family,
        n_events=n_events,
        mean_botnets_per_event=float(np.mean(mine.sizes)) if n_events else 0.0,
        points=points,
        equal_magnitude_fraction=float(equal / n_events) if n_events else 0.0,
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
    events: ScanEvents | list[CollabEvent] | None = None,
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
    events = _scan(ctx, events)
    mine = events.take(
        np.flatnonzero(
            family_mask(ctx, family_a, events) & family_mask(ctx, family_b, events)
        )
    )

    targets = sorted_unique(ds.target_idx[mine.heads])
    countries = ds.victims.country_idx[targets]
    uniq_c, counts_c = np.unique(countries, return_counts=True)
    order = np.argsort(-counts_c, kind="stable")
    top_countries = [
        (ds.world.countries[int(uniq_c[i])].code, int(counts_c[i])) for i in order[:5]
    ]

    series: list[tuple[float, float, float, int, int]] = []
    durations_a = durations_b = np.zeros(0)
    if len(mine):
        # Each side of an event is its first row of that family.
        rows = mine.rows
        event = mine.event_of_row()
        fams = ds.family_idx[rows]
        first = []
        for name in (family_a, family_b):
            pos = np.flatnonzero(fams == ds.family_id(name))
            head = np.ones(pos.size, dtype=bool)
            head[1:] = event[pos[1:]] != event[pos[:-1]]
            first.append(rows[pos[head]])
        row_a, row_b = first
        durations_a = ds.end[row_a] - ds.start[row_a]
        durations_b = ds.end[row_b] - ds.start[row_b]
        series = list(
            zip(
                ds.start[mine.heads].tolist(),
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
        n_targets=int(targets.size),
        n_countries=int(uniq_c.size),
        n_organizations=int(sorted_unique(ds.victims.org_idx[targets]).size),
        n_asns=int(sorted_unique(ds.victims.asn[targets]).size),
        top_countries=top_countries,
        mean_duration_a=float(np.mean(durations_a)) if durations_a.size else 0.0,
        mean_duration_b=float(np.mean(durations_b)) if durations_b.size else 0.0,
        series=sorted(series),
        span_weeks=float(span_weeks),
    )
