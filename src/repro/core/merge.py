"""The extend step: old views + new rows -> new views, for every plane.

The sharded merge, the incremental re-merge after an appended shard and
the streaming carry after an append all do the same thing: a context
over the leading rows (the *left operand*, its index-valued views
already global) grows by the rows that follow it, which arrive as one or
more *right parts*, each an :class:`~repro.core.context.AnalysisContext`
in time order.  :func:`extend_view` is that step for one view, and every
path takes it:

* the full merge uses shard 0 as the left operand (its indices are
  already global) and shards ``1..K-1`` as the right parts;
* the re-merge uses the previous merged context and the appended shards;
* the stream carry uses the previous snapshot's context and the appended
  rows as a one-part slice.

The two shard merges are one left fold, :func:`combine_partials`, which
takes the step for every view the battery reads.

The result must be **bitwise** what a flat
:class:`~repro.core.context.AnalysisContext` builds over all the rows,
pinned by the shard-merge and stream parity tests.  The view kinds fall
into these shapes:

* **Concatenations** (durations, per-family starts, victim columns, CSR
  participants, dispersion series) grow in the caller's
  :class:`~repro.core.columns.ColumnStore`: in place when the left
  operand holds the column's latest view, so a lineage of merges or
  snapshots copies only the new rows.  Interval arrays add one boundary
  gap per seam.
* **Re-reductions** (groupings, marginal counts, organization types,
  protocol tables, daily histograms, weekly (week, bot) pair tables)
  re-reduce the left value with the parts' values through the
  combinators below.
* **Seam re-counts** (the Table III summary, simultaneous-attack
  events, finished weekly shifts) keep what the new rows cannot change:
  the summary merges only appended victims into its carried distinct
  values, the simultaneous events re-count the one start-time group at
  the seam, and a weekly shift is finished again from its extended
  pairs.
* **Scans** (collaborations, chains) can link across a seam:
  :func:`seam_stitch_scan_events` probes each seam for the runs that
  cross it and regenerates only those.  The probe reads the
  ``("target_links",)`` view (each victim's last attack, each attack's
  previous one on its victim), which extends like a concatenation, so
  it costs O(new rows), not O(targets).  The events are
  :class:`~repro.core.scans.ScanEvents` CSRs: a part's scan joins with
  its row base added, the kept events are a mask on each event's first
  row, and one stable ``lexsort`` on (start, target) orders the kept
  and regenerated events; no event object is built.
* **Rank windows** (``("rank_windows", series_key)``) hold the sorted
  values around the ranks a series' median, p80 and p95 read.  They
  read only the series' new tail: values below a window raise its first
  rank, values inside merge into it, values above fall outside.  A
  window trims back to a fixed margin, so an extend allocates O(margin
  + new rows); one whose read rank left it is rebuilt with one
  partition of the series (``context.rank_windows.rebuilt``).
* **Bucket counts** (``("interval_buckets", family)``, Fig 4) add the
  exact integer counts of the series' new tail.

All index-valued outputs are global attack indices: a right part's
local index ``i`` maps to ``base + i``, where ``base`` is the number of
rows before the part.  The serial fold with the conservative
boundary-suspect rescan that this replaced is kept in
``tests/oracles/merge_fold.py`` as the comparison target.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..monitor.schemas import Protocol
from ..obs import registry as _obs_registry
from . import intervals as _intervals
from . import overview as _overview
from . import shift as _shift
from . import stats as _stats
from . import targets as _targets
from .collaboration import (
    DURATION_WINDOW_SECONDS,
    START_WINDOW_SECONDS,
    _detect_collaborations,
)
from .consecutive import CHAIN_MARGIN_SECONDS
from .overview import DailyDistribution
from .scans import ScanEvents, in_scan_order

if TYPE_CHECKING:  # pragma: no cover - types only
    from .columns import ColumnStore
    from .context import AnalysisContext
    from .dataset import AttackDataset

__all__ = [
    "MERGED_CONTEXT_KINDS",
    "view_value",
    "extend_view",
    "merge_grouped_indices",
    "merge_counts",
    "interval_pieces",
    "merge_weekly_pairs",
    "finish_daily_distribution",
    "merge_protocol_breakdown",
    "merge_protocol_popularity",
    "seam_stitch_scan_events",
    "combine_partials",
    "sketch_summaries",
]


# -- the extend step -------------------------------------------------------

#: The scan views, whose runs can cross a seam.
_SCANS = ("collaborations", "chains")

#: View kinds whose extend step reads the context being built rather
#: than the right parts: the seam re-counts, the weekly shift finished
#: from the extended pairs, the rank windows and buckets over the
#: extended series, and the forecast, which has no extend rule at all.
#: Shard builds skip them (a shard's value is never merged), and the
#: shard merge extends only the ones its left operand holds.
MERGED_CONTEXT_KINDS = frozenset(
    {
        "workload_summary",
        "simultaneous_attacks",
        "weekly_shift",
        "rank_windows",
        "interval_buckets",
        "dispersion_forecast",
    }
)


def view_value(ctx: "AnalysisContext", key: tuple) -> Any:
    """The value of view ``key`` on ``ctx``, built through its accessor.

    Every key :func:`~repro.experiments.registry.battery_views` lists is
    ``(accessor name, *accessor args)``.  The per-botnet and per-target
    groupings and the scans' event lists have no accessor of that name
    and are not read through here.
    """
    return getattr(ctx, key[0])(*key[1:])


def extend_view(
    key: tuple,
    old: Any,
    prev: "AnalysisContext",
    parts: Sequence["AnalysisContext"],
    ctx: "AnalysisContext",
    *,
    stitched: set[int] | None = None,
) -> Any:
    """View ``key`` over ``prev``'s rows followed by every part's rows.

    ``prev`` is the left operand, a context over the leading rows of
    ``ctx.dataset``; ``old`` is its value of ``key``, or ``None`` when it
    has no rows of the view's family.  ``parts`` are contexts over the
    rows that follow, in time order, and ``ctx`` is the context being
    built over all of them.  Concatenation-shaped views are ``old``
    followed by the new pieces, grown under ``key`` in ``ctx``'s column
    store; two-array views (CSR participants, dispersion series) grow
    each component under ``(key, 0)`` and ``(key, 1)``.  The scans
    stitch the seams through ``ctx``'s target links, so callers extend
    ``("target_links",)`` before them, and add the targets they
    re-stitched to ``stitched`` when given.  Raises ``ValueError`` for a
    view kind with no extend rule.
    """
    ds = ctx.dataset
    columns = ctx._columns
    head, args = key[0], key[1:]
    if head == "family_attack_index":
        groups = [view_value(c, key) for c in parts]
        return merge_grouped_indices([old, *groups], _bases(prev, parts), columns, head)
    if head == "bot_coords_radians":
        # The parts share the left operand's bot registry.
        return old
    if head == "target_links":
        return _extend_target_links(old, prev, parts, ds, columns)
    if head == "rank_windows":
        windows, rebuilt = _stats.extend_rank_windows(old, view_value(ctx, args[0]))
        _obs_registry().counter("context.rank_windows.rebuilt").inc(rebuilt)
        return windows
    if head == "interval_buckets":
        gaps = ctx.family_intervals(args[0], False)
        if old is None:
            return _intervals._bucket_counts(gaps)
        # Each gap lands in one bucket: the counts sum to the gaps ``old``
        # already holds.
        return old + _intervals._bucket_counts(gaps[int(old.sum()) :])
    if head == "workload_summary":
        return _overview._workload_summary(ds, old, prev.dataset)
    if head == "simultaneous_attacks":
        return _extend_simultaneous(old, ds, prev.dataset.n_attacks)
    if head == "victim_org_type_counts":
        marginals = [view_value(c, ("target_org_counts",)) for c in parts]
        return _targets._org_type_counts(ds.world, marginals, old)
    if head in _SCANS:
        bases = _bases(prev, parts)
        events, targets = seam_stitch_scan_events(
            old,
            [view_value(c, key).shifted(b) for c, b in zip(parts, bases[1:])],
            ds,
            ctx.target_links()[1],
            bases,
            head,
        )
        if stitched is not None:
            stitched |= targets
        return events
    family = args[0] if args else None
    if family is not None:
        # Family views raise or come back empty on a part without the
        # family; such a part contributes nothing.
        parts = [c for c in parts if c.family_attacks(family).size]
    if head in ("weekly_shift_pairs", "weekly_shift"):
        if ds.window.start != prev.dataset.window.start:
            # Every week index moved: the flat kernels over ``ctx``.
            build = _shift._weekly_pairs if head == "weekly_shift_pairs" else _shift._weekly_shift
            return build(ctx, family)
        if not parts:
            return old
        if head == "weekly_shift":
            return _shift._finish_weekly_shift(ds, family, *ctx.weekly_shift_pairs(family))
        return _extend_weekly_pairs(old, [view_value(c, key) for c in parts])
    if head in ("attack_intervals", "family_intervals"):
        if head == "attack_intervals":
            starts = [prev.dataset.start, *(c.dataset.start for c in parts)]
            gaps = [c.attack_intervals() for c in parts]
        else:
            prev_starts = np.zeros(0) if old is None else prev.family_starts(family)
            starts = [prev_starts, *(c.family_starts(family) for c in parts)]
            gaps = [c.family_intervals(family) for c in parts]
        # An empty leading gap array yields only the pieces after the
        # left operand: one boundary gap per seam plus the parts' gaps.
        pieces = interval_pieces(starts, [np.zeros(0), *gaps])
        if head == "family_intervals" and not args[1]:
            pieces = [p[p > 0] for p in pieces]
        return columns.extend(key, old, pieces)
    values = [view_value(c, key) for c in parts]
    if head in ("durations", "family_starts", "target_country_idx", "target_org_idx"):
        return columns.extend(key, old, values)
    if head in ("family_participants", "attack_dispersions"):
        pieces = ([v[0] for v in values], [v[1] for v in values])
        if head == "family_participants":
            # ``flat`` holds global bot indices (the registries are
            # shared); only the offsets continue from the left operand's
            # flat end.
            base = np.int64(0) if old is None else old[0][-1]
            offsets = [np.zeros(1, dtype=np.int64)] if old is None else []
            for part_offsets in pieces[0]:
                offsets.append(part_offsets[1:] + base)
                base = base + part_offsets[-1]
            pieces = (offsets, pieces[1])
        olds = (None, None) if old is None else old
        return tuple(columns.extend((key, i), olds[i], pieces[i]) for i in (0, 1))
    olds = [] if old is None else [old]
    if head in ("target_country_counts", "target_org_counts", "family_target_country_counts"):
        return merge_counts(olds + values)
    if head == "protocol_breakdown":
        return merge_protocol_breakdown(olds + values)
    if head == "protocol_popularity":
        return merge_protocol_popularity(olds + values)
    if head == "daily_distribution":
        # Padded to the window: a carry past a grown stream window adds
        # days even when no part has rows of the family.
        dists = olds + values
        n_days = max([ds.window.n_days, *(d.counts.size for d in dists)])
        counts = np.zeros(n_days, dtype=np.int64)
        for dist in dists:
            counts[: dist.counts.size] += dist.counts
        return finish_daily_distribution(counts, ds, family, old)
    raise ValueError(f"no extend rule for view {key!r}")


def combine_partials(
    prev: "AnalysisContext", parts: Sequence["AnalysisContext"], families: Sequence[str]
) -> "AnalysisContext":
    """The shard merge's fold step: ``prev`` extended by every part.

    ``prev`` is the left operand (shard 0 on a full merge, the previous
    merged context on a re-merge) and ``parts`` are the shard contexts
    after it, in time order.  Returns a new context over all their rows
    with each key of :func:`~repro.experiments.registry.battery_views`
    over ``families`` seeded by :func:`extend_view`.  A kind of
    :data:`MERGED_CONTEXT_KINDS` is extended only when ``prev`` holds it
    (a battery ran there) and otherwise left lazy.  The merged columns
    and concatenation views grow in ``prev``'s column store, in place
    for the previous merged context; shard 0 starts a fresh store.

    The name is older than the fold: ``perfbench/tracing.py`` looks it
    up in this module and times it as its ``merge.combine`` layer, and
    :meth:`~repro.core.context.ShardedAnalysisContext.merged` calls it
    through the module so that wrap sees every merge.
    """
    from ..experiments.registry import battery_views
    from ..io.colstore import extend_dataset
    from .columns import ColumnStore
    from .context import AnalysisContext

    columns = prev._columns or ColumnStore()
    ds = extend_dataset(columns, prev.dataset, [c.dataset for c in parts])
    ctx = AnalysisContext.of(ds)
    ctx._columns = columns
    reg = _obs_registry()
    merged_views = reg.counter("shard.merge.views")
    held = prev.materialized()
    stitched: set[int] = set()
    for key in battery_views(families):
        if key[0] in MERGED_CONTEXT_KINDS:
            if key not in held or key[0] == "dispersion_forecast":
                continue
            old = held[key]
        elif len(key) > 1 and key[1] is not None and not prev.family_attacks(key[1]).size:
            # A battery run on the previous context lazily builds empty
            # views for families it has not seen yet, so the left
            # operand holds a family only with its rows.
            old = None
        else:
            old = view_value(prev, key)
        value = extend_view(key, old, prev, parts, ctx, stitched=stitched)
        if ctx.seed_view(key, value):
            merged_views.inc()
    reg.counter("shard.merge.stitched_targets").inc(len(stitched))
    return ctx


def _bases(prev: "AnalysisContext", parts: Sequence["AnalysisContext"]) -> np.ndarray:
    """Global index of the first row of ``prev`` and of each part."""
    return np.cumsum([0, *(c.dataset.n_attacks for c in (prev, *parts))])[:-1]


def _extend_simultaneous(old, ds, n_old: int):
    """``("simultaneous_attacks",)`` over rows ``[0, n_old)`` plus the rest.

    Rows are sorted by start, so only the start-time group at the seam
    (the old last start, possibly continued by new rows) can change: its
    old event is un-counted from the carried tally and the rows from its
    first one on are tallied afresh.
    """
    if old is None or n_old == 0:
        return _intervals._simultaneous_attacks(ds, 0.0)
    lo = int(np.searchsorted(ds.start, ds.start[n_old - 1], side="left"))
    single = dict(old.single_family_counts)
    multi = old.multi_family_events
    pairs = dict(old.pair_totals)
    for sign, hi in ((-1, n_old), (1, ds.n_attacks)):
        part_single, part_multi, part_pairs = _intervals._simultaneous_tally(ds, lo, hi)
        for name, count in part_single.items():
            single[name] = single.get(name, 0) + sign * count
        multi += sign * part_multi
        for pair, count in part_pairs.items():
            pairs[pair] = pairs.get(pair, 0) + sign * count
    return _intervals._finish_simultaneous((single, multi, pairs))


def _extend_weekly_pairs(old, values):
    """``(weeks_u, u_week, u_bot)`` of a family extended by the parts'.

    The parts' weeks start at or after the left operand's last week, so
    only the pairs of that seam week can meet new ones: they and the
    parts' pairs go through :func:`merge_weekly_pairs`, and the earlier
    weeks' pairs are kept as they are.  An empty table (a family without
    attacks in its range) adds nothing.
    """
    values = [v for v in values if v[0].size]
    if not values:
        return old
    if old is None or not old[0].size:
        return merge_weekly_pairs(values)
    weeks_u, u_week, u_bot = old
    cut = int(np.searchsorted(u_week, min(int(v[0][0]) for v in values)))
    weeks, tail_week, tail_bot = merge_weekly_pairs(
        [(weeks_u, u_week[cut:], u_bot[cut:]), *values]
    )
    return (
        weeks,
        np.concatenate([u_week[:cut], tail_week]),
        np.concatenate([u_bot[:cut], tail_bot]),
    )


def _extend_target_links(old, prev, parts, ds, columns):
    """``("target_links",)`` over ``prev``'s rows and the parts'.

    Each part's own links are local: its ``prev`` entries that point
    inside the part are rebased, and its first attack on a target takes
    that target's last row before the part.  The per-target array is
    copied (an earlier snapshot keeps its own); the per-row one grows in
    the column store.
    """
    key = ("target_links",)
    old_last, old_prev = old
    last = np.full(ds.victims.n_targets, -1, dtype=np.int64)
    last[: old_last.size] = old_last
    pieces = []
    base = prev.dataset.n_attacks
    for part in parts:
        part_last, part_prev = view_value(part, key)
        before = last[part.dataset.target_idx]
        pieces.append(np.where(part_prev >= 0, part_prev + base, before))
        seen = np.flatnonzero(part_last >= 0)
        last[seen] = part_last[seen] + base
        base += part.dataset.n_attacks
    return last, columns.extend((key, 1), old_prev, pieces)


def merge_grouped_indices(
    parts: Sequence[dict[int, np.ndarray]],
    bases: Sequence[int],
    columns: "ColumnStore",
    name: str,
) -> dict[int, np.ndarray]:
    """Merge grouping dicts (column value -> attack indices) in row order.

    ``parts[0]`` is the left operand: its indices are already global
    (``bases[0]`` is 0) and its arrays are reused as they are.  Each
    later part's local indices are rebased by its base and appended to
    their group, which keeps every group chronological; group ``k``
    grows under ``(name, k)`` in ``columns``, in place when the left
    operand holds its latest view.  The output dict is in ascending key
    order — the same insertion order the unsharded ``np.split`` grouping
    pass produces.
    """
    out = dict(parts[0])
    tails: dict[int, list[np.ndarray]] = {}
    for part, base in zip(parts[1:], bases[1:]):
        for key, idx in part.items():
            tails.setdefault(key, []).append(idx + np.int64(base))
    for key, tail in tails.items():
        out[key] = columns.extend((name, key), out.get(key), tail)
    if len(out) > len(parts[0]):
        out = dict(sorted(out.items()))
    return out


# -- re-reductions ---------------------------------------------------------


def merge_counts(
    parts: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``np.unique(..., return_counts=True)`` marginals."""
    uniq = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    if uniq.size == 0:
        return uniq, counts
    order = np.argsort(uniq, kind="stable")
    u_sorted = uniq[order]
    first = np.empty(u_sorted.size, dtype=bool)
    first[0] = True
    first[1:] = u_sorted[1:] != u_sorted[:-1]
    starts = np.flatnonzero(first)
    return u_sorted[starts], np.add.reduceat(counts[order], starts)


def interval_pieces(
    starts_parts: Sequence[np.ndarray], diff_parts: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """The concat pieces of the merged consecutive-gap array.

    ``np.diff`` is an elementwise subtraction, so the global gap array is
    exactly the per-part gap arrays interleaved with one boundary gap
    (first start of a non-empty part minus the last start of the
    previous non-empty one) per seam.
    """
    pieces: list[np.ndarray] = []
    prev_last: float | None = None
    for starts, diffs in zip(starts_parts, diff_parts):
        if starts.size == 0:
            continue
        if prev_last is not None:
            pieces.append(np.array([starts[0] - prev_last], dtype=np.float64))
        if diffs.size:
            pieces.append(diffs)
        prev_last = float(starts[-1])
    return pieces


def merge_weekly_pairs(
    parts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union per-shard ``(weeks_u, u_week, u_bot)`` weekly-shift tables.

    A (week, bot) pair may appear in several shards (the bot attacked in
    that week on both sides of a boundary); the merged table re-sorts and
    dedupes, which reproduces the global sorted-unique pair table.
    """
    weeks_u = _stats.sorted_unique(np.concatenate([p[0] for p in parts]))
    cw = np.concatenate([p[1] for p in parts])
    cb = np.concatenate([p[2] for p in parts])
    if cw.size == 0:
        return weeks_u, cw, cb
    return (weeks_u, *_stats.unique_pairs(cw, cb, int(cb.max()) + 1))


def finish_daily_distribution(
    counts: np.ndarray,
    ds: "AttackDataset",
    family: str | None,
    prev: DailyDistribution | None = None,
) -> DailyDistribution:
    """Build a :class:`DailyDistribution` from already-summed day counts.

    The counts are integer sums, so they are exact; the busiest day's
    top family is re-derived with the unsharded kernel's own expression
    over the merged columns.  ``prev`` is the left operand's distribution:
    when the busiest day is unchanged and gained no rows, its top family
    stands and the column pass is skipped.
    """
    max_day = int(np.argmax(counts))
    if family is not None:
        top_family = family if counts[max_day] > 0 else ""
    elif (
        prev is not None
        and max_day == prev.max_day_index
        and counts[max_day] == prev.max_per_day
    ):
        top_family = prev.max_day_top_family
    else:
        on_max = ((ds.start - ds.window.start) // 86400).astype(np.int64) == max_day
        if on_max.any():
            fams, fam_counts = np.unique(ds.family_idx[on_max], return_counts=True)
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


def merge_protocol_breakdown(
    parts: Sequence[list[tuple[Protocol, str, int]]]
) -> list[tuple[Protocol, str, int]]:
    """Sum per-shard Table II cells, protocol-major / family-sorted."""
    totals: dict[tuple[int, str], int] = {}
    for rows in parts:
        for proto, fam, count in rows:
            key = (int(proto), fam)
            totals[key] = totals.get(key, 0) + int(count)
    out: list[tuple[Protocol, str, int]] = []
    for proto in Protocol:
        cells = sorted(
            (fam, count) for (p, fam), count in totals.items() if p == int(proto)
        )
        out.extend((proto, fam, count) for fam, count in cells)
    return out


def merge_protocol_popularity(
    parts: Sequence[dict[Protocol, int]]
) -> dict[Protocol, int]:
    """Sum per-shard Fig 1 protocol totals (all protocols, zeros kept)."""
    return {proto: sum(int(p[proto]) for p in parts) for proto in Protocol}


# -- seam-stitched scans ---------------------------------------------------
#
# Parts are contiguous time slices, so a part's per-target rows are a
# contiguous run of that target's global rows, its scan events are
# consistent fragments of the global ones, and any fragment of a run
# that crosses a seam is dropped and the run regenerated from the
# merged columns.


class _AttackSlice:
    """Column view of the merged dataset restricted to a row subset.

    Quacks like an :class:`AttackDataset` for exactly the columns the
    scan kernels touch.  Rows are given in ascending global order, so
    the kernels' stable ``lexsort`` preserves the same tie order the
    global scan would use.
    """

    def __init__(self, ds, rows: np.ndarray) -> None:
        self.n_attacks = int(rows.size)
        self.start = ds.start[rows]
        self.end = ds.end[rows]
        self.target_idx = ds.target_idx[rows]
        self.botnet_id = ds.botnet_id[rows]


def _materialize_row_runs(ds, row_segs: Sequence[np.ndarray], kind: str) -> ScanEvents:
    """Regenerate the scan events of boundary-crossing runs.

    ``row_segs`` holds one ascending global-row array per crossing run.
    Collaboration runs are rescanned through :class:`_AttackSlice` (the
    kernel may split a run into several events or none; runs on the same
    target are separated by more than the start window, and different
    targets never merge, so the slice rescan is exact) and its rows
    mapped back through the slice.  Chains map one-to-one onto linked
    runs, so each run is one event — rescanning a slice would be *wrong*
    here: the >1 s stagger condition means omitted in-between rows can
    break links the slice cannot see.
    """
    if not row_segs:
        return ScanEvents.empty()
    if kind == "collaborations":
        rows = np.sort(np.concatenate(list(row_segs)))
        fresh = _detect_collaborations(
            _AttackSlice(ds, rows), START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS
        )
        return ScanEvents(rows[fresh.rows], fresh.offsets)
    if kind != "chains":
        raise ValueError(f"unknown scan kind {kind!r}")
    return ScanEvents.from_sizes(
        np.concatenate(list(row_segs)), np.array([seg.size for seg in row_segs])
    )


def _scan_link(kind: str, ds):
    """The scan's link predicate between two rows of one target.

    ``a`` precedes ``b`` on the target; both may be index arrays.  The
    expressions are the kernels' own, so a link holds here exactly when
    the global scan links the two rows.
    """
    starts, ends = ds.start, ds.end
    if kind == "collaborations":
        return lambda a, b: starts[b] - starts[a] <= START_WINDOW_SECONDS
    if kind == "chains":
        return lambda a, b: (np.abs(starts[b] - ends[a]) <= CHAIN_MARGIN_SECONDS) & (
            starts[b] - starts[a] > 1.0
        )
    raise ValueError(f"unknown scan kind {kind!r}")


def seam_stitch_scan_events(
    prev_events: ScanEvents,
    new_parts: Sequence[ScanEvents],
    ds,
    prev_row: np.ndarray,
    bases: Sequence[int],
    kind: str,
) -> tuple[ScanEvents, set[int]]:
    """Merge scan events across the seams of consecutive row ranges.

    ``prev_events`` is the left operand's events (rows
    ``[0, bases[1])``); ``new_parts`` are the right parts' events,
    already in global rows.  ``prev_row[i]`` is the row of the attack on
    row ``i``'s target just before it (``-1`` for none; the second array
    of the ``("target_links",)`` view).  A run crosses a seam exactly
    when some part row's same-target predecessor lies before the part's
    seam and the two link, so one vectorised pass over the new rows finds
    every crossing; each is grown backwards through ``prev_row`` and
    forwards through the new rows while the link holds, and only those
    runs are regenerated.  Every event whose first row lies in a
    crossing run is dropped (it is a fragment of one) and the
    regenerated events join the rest.  None of this reaches the left
    operand's events that start before the parts' and the crossing
    runs' earliest start, so those are kept as they are; one stable
    ``lexsort`` on (start, target) — skipped when nothing is out of
    order — puts the others in the global scan's order.  The inputs are
    left untouched.  Returns
    ``(events, targets)`` where ``targets`` is the set of target ids that
    needed stitching.
    """
    linked = _scan_link(kind, ds)
    seams = np.asarray(bases[1:], dtype=np.int64)
    first = int(seams[0]) if seams.size else ds.n_attacks
    rows = np.arange(first, ds.n_attacks, dtype=np.int64)
    before = prev_row[first:]
    seam = seams[np.searchsorted(seams, rows, side="right") - 1]
    hits = np.flatnonzero((before >= 0) & (before < seam))
    hits = hits[linked(before[hits], rows[hits])]

    # The next same-target row of every new row.
    after = np.full(rows.size, -1, dtype=np.int64)
    inner = np.flatnonzero(before >= first)
    after[before[inner] - first] = rows[inner]
    segs: list[np.ndarray] = []
    heads: set[int] = set()
    for hit in hits:
        run = [int(rows[hit]), int(before[hit])]
        while (p := int(prev_row[run[-1]])) >= 0 and linked(p, run[-1]):
            run.append(p)
        # A run crossing several seams is found at each; its first row
        # (the backward walk is maximal) identifies it.
        if run[-1] in heads:
            continue
        heads.add(run[-1])
        run.reverse()
        while (q := int(after[run[-1] - first])) >= 0 and linked(run[-1], q):
            run.append(q)
        segs.append(np.asarray(run, dtype=np.int64))

    # Every part event, regenerated event and dropped left-operand event
    # (its first row lies in a crossing run) starts at or after the
    # earliest of these starts; the left operand's events before it are
    # final and kept as they are.
    starts = [ds.start[p.rows[0]] for p in new_parts if len(p)]
    starts += [ds.start[seg[0]] for seg in segs]
    if not starts:
        return prev_events, set()
    cut = bisect.bisect_left(
        range(len(prev_events)),
        min(starts),
        key=lambda e: ds.start[prev_events.rows[prev_events.offsets[e]]],
    )
    done, tail = prev_events.split(cut)
    tail = ScanEvents.concat([tail, *new_parts])
    if segs:
        tail = tail.take(np.flatnonzero(~np.isin(tail.heads, np.concatenate(segs))))
        tail = ScanEvents.concat([tail, _materialize_row_runs(ds, segs, kind)])
    stitched = {int(ds.target_idx[seg[0]]) for seg in segs}
    return ScanEvents.concat([done, in_scan_order(ds, tail)]), stitched


# -- sketch summaries ------------------------------------------------------


def sketch_summaries(summaries):
    """Reduce per-shard :class:`~repro.sketch.AttackStreamSummary` values.

    The sketch counterpart of the exact combinators above: every member
    structure merges under its own associative algebra (Count-Min adds,
    HLL maxes, KLL compacts), so any merge tree over the same shards
    answers queries under the same documented error contract.  The only
    boundary artefact is the one inter-attack interval spanning each
    shard edge, which no shard observed (see
    :meth:`repro.sketch.AttackStreamSummary.merge`) — the exact
    :func:`interval_pieces` reinserts such gaps, the sketch one cannot.

    The inputs are left untouched (the reduce starts from a copy).
    Raises ``ValueError`` on an empty sequence — an empty *summary* is a
    fine identity, but the caller must pick its parameters.
    """
    parts = list(summaries)
    if not parts:
        raise ValueError("sketch_summaries needs at least one summary")
    merged = parts[0].copy()
    for part in parts[1:]:
        merged.merge(part)
    return merged
