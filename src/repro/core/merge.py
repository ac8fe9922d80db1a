"""The extend step: old views + new rows -> new views, for every plane.

The sharded merge, the incremental re-merge after an appended shard and
the streaming carry after an append all do the same thing: a context
over the leading rows (the *left operand*, its index-valued views
already global) grows by the rows that follow it, which arrive as one or
more *right parts*, each an :class:`~repro.core.context.AnalysisContext`
in time order.  :func:`extend_views` takes that step for a list of
views, and every path takes it:

* the full merge uses shard 0 as the left operand (its indices are
  already global) and shards ``1..K-1`` as the right parts;
* the re-merge uses the previous merged context and the appended shards;
* the stream carry uses the previous snapshot's context and the appended
  rows as a one-part slice.

That one loop owns the rules every path shares: where a view's old
value comes from, the family-index remap and the column store handed
down.  The two shard merges call it through :func:`combine_partials`,
the stream carry through
:func:`repro.stream.incremental.carry_views`.  The loop runs every key
through one :class:`_Fold`, so the parts are read once per step, not
once per key: each part's family views are slices of its one family
pass (:meth:`~repro.core.context.AnalysisContext.family_pass`, which
the accessors read on every plane), its pieces memoize for the step
without the shared context's locks and instruments, and the old values
come from one copy of the left operand's views.

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
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

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
from .context import AnalysisContext
from .overview import DailyDistribution
from .scans import ScanEvents, in_scan_order

if TYPE_CHECKING:  # pragma: no cover - types only
    from .columns import ColumnStore
    from .dataset import AttackDataset

__all__ = [
    "MERGED_CONTEXT_KINDS",
    "view_value",
    "merge_grouped_indices",
    "merge_counts",
    "interval_pieces",
    "merge_weekly_pairs",
    "finish_daily_distribution",
    "merge_protocol_breakdown",
    "merge_protocol_popularity",
    "seam_stitch_scan_events",
    "extend_views",
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


def extend_views(
    prev: "AnalysisContext",
    parts: Sequence["AnalysisContext"],
    ctx: "AnalysisContext",
    keys: Sequence[tuple],
) -> tuple[int, set[int]]:
    """Seed ``ctx`` with each of ``keys`` extended from ``prev`` by ``parts``.

    The one fold loop, shared by the shard merge
    (:func:`combine_partials`) and the stream carry
    (:func:`repro.stream.incremental.carry_views`): every key goes
    through one :class:`_Fold`, whose :meth:`_Fold.extend` holds the
    rules.  ``ctx`` is the context being built over ``prev``'s rows
    followed by every part's rows; concatenation-shaped views are the
    old value followed by the new pieces, grown under the key in
    ``ctx``'s column store (two-array views, the CSR participants and
    dispersion series, grow each component under ``(key, 0)`` and
    ``(key, 1)``).  The scans stitch the seams through ``ctx``'s target
    links, so ``("target_links",)`` comes before them in ``keys``.
    Raises ``ValueError`` for a view kind with no extend rule.  A
    forecast key is skipped: the forecasts have no extend rule and
    rebuild lazily on ``ctx``.  A key's old value is the one ``prev``
    holds; else ``None`` when ``prev`` has no rows of the key's family;
    else it is built on ``prev``.  When the family list changed (a
    stream interned a family mid-alphabet), the old
    ``family_attack_index`` moves to ``ctx``'s family indices.  ``ctx``
    takes ``prev``'s column store unless it already has one, so a
    lineage of contexts grows its concatenations in place.  Returns how
    many views it seeded and the targets whose scan runs it re-stitched.
    """
    fold = _Fold(prev, parts, ctx)
    ds, prev_ds = ctx.dataset, prev.dataset
    seeded = 0
    for key in keys:
        if key[0] == "dispersion_forecast":
            continue
        if (
            key not in fold.held
            and len(key) > 1
            and key[1] is not None
            and not prev.family_attacks(key[1]).size
        ):
            old = None
        else:
            old = fold.old(key)
        if key[0] == "family_attack_index" and prev_ds.families != ds.families:
            # Its member arrays are row positions and stay valid.
            old = {ds.family_id(prev_ds.family_name(k)): v for k, v in old.items()}
        seeded += ctx.seed_view(key, fold.extend(key, old))
    return seeded, fold.stitched


class _Part(AnalysisContext):
    """A right part of one fold, as the extend rules read it.

    Starts from the views the part's own context holds (a shard's map
    phase built them) and builds any other through the accessor, over
    the part's rows: a part that holds none (the stream carry's batch)
    slices every family's views from its one family pass.  It memoizes
    in a plain dict: a part lives for one fold on one thread, so it
    takes none of a shared context's per-key locks, hit/miss counters or
    build spans.
    """

    def __init__(self, part: AnalysisContext) -> None:
        super().__init__(part.dataset, epoch=part.epoch)
        self._views = part.materialized()

    def view(self, key: Hashable, build: Callable[[], Any]) -> Any:
        views = self._views
        if key not in views:
            views[key] = build()
        return views[key]


class _Fold:
    """One extend step: ``prev`` grown by ``parts`` into ``ctx``.

    Holds what the rules share across keys: ``prev``'s views (read from
    one copy, not through its accessors), the parts as :class:`_Part`\\ s
    and their global row bases, the parts that hold rows of each family,
    and the values already extended into ``ctx``: a rule that reads an
    earlier key of ``ctx`` (a family's gaps for its buckets, the target
    links for the scans) reads it there.  Each key goes to its rule in
    :data:`_RULES`.  ``stitched`` collects the targets whose scan runs
    were re-stitched.
    """

    def __init__(
        self, prev: AnalysisContext, parts: Sequence[AnalysisContext], ctx: AnalysisContext
    ) -> None:
        from .columns import ColumnStore

        if ctx._columns is None:
            ctx._columns = prev._columns or ColumnStore()
        self.prev, self.ctx = prev, ctx
        self.held = prev.materialized()
        self.parts = [_Part(c) for c in parts]
        self.bases = _bases(prev, parts)
        self.built: dict[tuple, Any] = {}
        self.stitched: set[int] = set()
        self._family_parts: dict[str, list[_Part]] = {}
        self._same_start = ctx.dataset.window.start == prev.dataset.window.start

    def old(self, key: tuple) -> Any:
        """``prev``'s view ``key``."""
        return self.held[key] if key in self.held else view_value(self.prev, key)

    def new(self, key: tuple) -> Any:
        """``ctx``'s view ``key``: extended by this fold, else its own."""
        return self.built[key] if key in self.built else view_value(self.ctx, key)

    def family_parts(self, family: str) -> list[_Part]:
        """The parts with rows of ``family``.  Family views raise or come
        back empty on a part without the family; such a part contributes
        nothing."""
        parts = self._family_parts.get(family)
        if parts is None:
            parts = self._family_parts[family] = [
                p for p in self.parts if p.family_attacks(family).size
            ]
        return parts

    def extend(self, key: tuple, old: Any) -> Any:
        """``key`` over ``prev``'s rows and the parts', from ``old``:
        ``prev``'s value of ``key``, or ``None`` when ``prev`` has no
        rows of the key's family."""
        rule = _RULES.get(key[0])
        if rule is None:
            raise ValueError(f"no extend rule for view {key!r}")
        value = self.built[key] = rule(self, key, old)
        return value

    # -- the rules, one per view kind ------------------------------------
    #
    # Each takes ``(key, old)`` and returns ``key``'s value on ``ctx``.

    def _grouping(self, key, old):
        groups = [p.family_attack_index() for p in self.parts]
        return merge_grouped_indices([old, *groups], self.bases, self.ctx._columns, key[0])

    def _shared(self, key, old):
        # The parts share the left operand's bot registry.
        return old

    def _target_links(self, key, old):
        return _extend_target_links(old, self.prev, self.parts, self.ctx.dataset, self.ctx._columns)

    def _rank_windows(self, key, old):
        windows, rebuilt = _stats.extend_rank_windows(old, self.new(key[1]))
        _obs_registry().counter("context.rank_windows.rebuilt").inc(rebuilt)
        return windows

    def _summary(self, key, old):
        return _overview._workload_summary(self.ctx.dataset, old, self.prev.dataset)

    def _simultaneous(self, key, old):
        return _extend_simultaneous(old, self.ctx.dataset, self.prev.dataset.n_attacks)

    def _org_types(self, key, old):
        marginals = [p.target_org_counts() for p in self.parts]
        return _targets._org_type_counts(self.ctx.dataset.world, marginals, old)

    def _scan(self, key, old):
        bases = self.bases
        events, targets = seam_stitch_scan_events(
            old,
            [view_value(p, key).shifted(b) for p, b in zip(self.parts, bases[1:])],
            self.ctx.dataset,
            self.new(("target_links",))[1],
            bases,
            key[0],
        )
        self.stitched |= targets
        return events

    def _interval_buckets(self, key, old):
        gaps = self.new(("family_intervals", key[1], False))
        if old is None:
            return _intervals._bucket_counts(gaps)
        # Each gap lands in one bucket: the counts sum to the gaps ``old``
        # already holds.
        return old + _intervals._bucket_counts(gaps[int(old.sum()) :])

    def _week_pairs(self, key, old):
        family = key[1]
        if not self._same_start:
            # Every week index moved: the flat kernel over ``ctx``.
            return _shift._weekly_pairs(self.ctx, family)
        return _extend_weekly_pairs(old, self._values(key))

    def _weekly_shift(self, key, old):
        family = key[1]
        if not self._same_start:
            return _shift._weekly_shift(self.ctx, family)
        if not self.family_parts(family):
            return old
        pairs_key = ("weekly_shift_pairs", family)
        pairs = self.new(pairs_key)
        if old is not None and pairs is self.old(pairs_key):
            return old  # no new week and no new (week, bot) pair
        return _shift._finish_weekly_shift(self.ctx.dataset, family, *pairs)

    def _gaps(self, key, old):
        if key[0] == "attack_intervals":
            parts = self.parts
            starts = [self.prev.dataset.start, *(p.dataset.start for p in parts)]
            gaps = [p.attack_intervals() for p in parts]
        else:
            family = key[1]
            parts = self.family_parts(family)
            prev_starts = np.zeros(0) if old is None else self.old(("family_starts", family))
            starts = [prev_starts, *(p.family_starts(family) for p in parts)]
            gaps = [p.family_intervals(family) for p in parts]
        # An empty leading gap array yields only the pieces after the
        # left operand: one boundary gap per seam plus the parts' gaps.
        pieces = interval_pieces(starts, [np.zeros(0), *gaps])
        if key[0] == "family_intervals" and not key[2]:
            pieces = [p[p > 0] for p in pieces]
        return self.ctx._columns.extend(key, old, pieces)

    def _values(self, key) -> list:
        """The parts' values of ``key`` (a family key's: the parts with
        rows of the family)."""
        parts = self.family_parts(key[1]) if len(key) > 1 and key[1] is not None else self.parts
        return [view_value(p, key) for p in parts]

    def _concat(self, key, old):
        return self.ctx._columns.extend(key, old, self._values(key))

    def _csr(self, key, old):
        values = self._values(key)
        pieces = ([v[0] for v in values], [v[1] for v in values])
        if key[0] == "family_participants":
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
        columns = self.ctx._columns
        return tuple(columns.extend((key, i), olds[i], pieces[i]) for i in (0, 1))

    def _reduce(self, key, old):
        values = ([] if old is None else [old]) + self._values(key)
        if key[0] == "protocol_breakdown":
            return merge_protocol_breakdown(values)
        if key[0] == "protocol_popularity":
            return merge_protocol_popularity(values)
        return merge_counts(values)

    def _daily(self, key, old):
        # Padded to the window: a carry past a grown stream window adds
        # days even when no part has rows of the family.
        ds = self.ctx.dataset
        dists = ([] if old is None else [old]) + self._values(key)
        n_days = max([ds.window.n_days, *(d.counts.size for d in dists)])
        counts = np.zeros(n_days, dtype=np.int64)
        for dist in dists:
            counts[: dist.counts.size] += dist.counts
        return finish_daily_distribution(counts, ds, key[1], old)


#: View kind -> its rule in :class:`_Fold`.
_RULES = {
    "family_attack_index": _Fold._grouping,
    "bot_coords_radians": _Fold._shared,
    "target_links": _Fold._target_links,
    "rank_windows": _Fold._rank_windows,
    "workload_summary": _Fold._summary,
    "simultaneous_attacks": _Fold._simultaneous,
    "victim_org_type_counts": _Fold._org_types,
    "collaborations": _Fold._scan,
    "chains": _Fold._scan,
    "interval_buckets": _Fold._interval_buckets,
    "weekly_shift_pairs": _Fold._week_pairs,
    "weekly_shift": _Fold._weekly_shift,
    "attack_intervals": _Fold._gaps,
    "family_intervals": _Fold._gaps,
    "durations": _Fold._concat,
    "family_starts": _Fold._concat,
    "target_country_idx": _Fold._concat,
    "target_org_idx": _Fold._concat,
    "family_participants": _Fold._csr,
    "attack_dispersions": _Fold._csr,
    "target_country_counts": _Fold._reduce,
    "target_org_counts": _Fold._reduce,
    "family_target_country_counts": _Fold._reduce,
    "protocol_breakdown": _Fold._reduce,
    "protocol_popularity": _Fold._reduce,
    "daily_distribution": _Fold._daily,
}


def combine_partials(
    prev: "AnalysisContext", parts: Sequence["AnalysisContext"], families: Sequence[str]
) -> "AnalysisContext":
    """The shard merge's fold step: ``prev`` extended by every part.

    ``prev`` is the left operand (shard 0 on a full merge, the previous
    merged context on a re-merge) and ``parts`` are the shard contexts
    after it, in time order.  Returns a new context over all their rows
    with each key of :func:`~repro.experiments.registry.battery_views`
    over ``families`` seeded by :func:`extend_views`.  A kind of
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
    ctx = AnalysisContext.of(extend_dataset(columns, prev.dataset, [c.dataset for c in parts]))
    ctx._columns = columns
    held = prev.materialized()
    keys = [k for k in battery_views(families) if k[0] not in MERGED_CONTEXT_KINDS or k in held]
    seeded, stitched = extend_views(prev, parts, ctx, keys)
    reg = _obs_registry()
    reg.counter("shard.merge.views").inc(seeded)
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
    attacks in its range) adds nothing.  When the parts bring no new week
    and no new pair, ``old`` itself comes back, which tells the weekly
    shift's rule that the shift stands.
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
    if weeks.size == weeks_u.size and tail_week.size == u_week.size - cut:
        # A union as large as the old table adds nothing to it.
        return old
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
    over that day's rows.  The rows are sorted by start, so they are one
    run, found with ``searchsorted`` and widened by one row on each side;
    the expression then decides which rows of the run belong to the day.
    ``prev`` is the left operand's distribution: when the busiest day is
    unchanged and gained no rows, its top family stands and the rows are
    not read.
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
        ws = ds.window.start
        lo, hi = np.searchsorted(ds.start, [ws + max_day * 86400, ws + (max_day + 1) * 86400])
        run = slice(max(int(lo) - 1, 0), int(hi) + 1)
        on_max = ((ds.start[run] - ws) // 86400).astype(np.int64) == max_day
        if on_max.any():
            fams, fam_counts = np.unique(ds.family_idx[run][on_max], return_counts=True)
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
    structure merges under its own associative algebra (exact counters
    add, HLL maxes, KLL compacts), so any merge tree over the same shards
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
