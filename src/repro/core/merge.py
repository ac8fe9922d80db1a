"""Mergeable-result combinators for sharded analysis (map-reduce views).

Each combinator takes the per-shard value of one derived view and
reconstructs the value a single :class:`~repro.core.context.AnalysisContext`
over the merged dataset would compute — **bitwise** identical, pinned by
the shard-merge parity tests (``tests/core/test_shard_merge.py``).

The trivially mergeable views are concatenations (durations, per-family
starts, dispersion series) or re-reductions (marginal counts, weekly
(week, bot) pair tables, daily histograms).  Two families of views need
care at shard boundaries:

* **Intervals** — consecutive-gap arrays gain one extra gap per shard
  boundary (last start of the previous non-empty shard to the first
  start of the next one).
* **Collaboration / chain scans** — a run of attacks on one target can
  straddle a boundary.  :func:`find_boundary_suspects` flags every
  target whose shard-edge attacks *could* link under the paper's
  windows; events on non-suspect targets pass through with their attack
  indices rebased, suspect targets are rescanned on the merged columns
  (a per-target-independent computation, so the rescan of the suspect
  subset equals the global scan restricted to those targets).

All index-valued outputs are **global** attack indices: shard ``k``'s
local index ``i`` maps to ``bases[k] + i`` where ``bases`` are the
cumulative shard sizes.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..monitor.schemas import Protocol
from .collaboration import (
    DURATION_WINDOW_SECONDS,
    START_WINDOW_SECONDS,
    CollabEvent,
    _detect_collaborations,
)
from .consecutive import CHAIN_MARGIN_SECONDS, AttackChain, _detect_chains
from .overview import DailyDistribution

if TYPE_CHECKING:  # pragma: no cover - types only
    from .dataset import AttackDataset

__all__ = [
    "merge_grouped_indices",
    "merge_concat",
    "merge_series",
    "merge_csr",
    "merge_counts",
    "merge_intervals",
    "merge_weekly_pairs",
    "merge_daily_distributions",
    "finish_daily_distribution",
    "merge_protocol_breakdown",
    "merge_protocol_popularity",
    "find_boundary_suspects",
    "merge_scan_events",
    "rebase_scan_events",
    "scan_order",
    "stitch_scan_events",
    "seam_stitch_scan_events",
    "ShardPartial",
    "make_shard_partial",
    "combine_partials",
    "sketch_summaries",
]


# -- plain concatenations --------------------------------------------------


def merge_concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-shard arrays in shard (chronological) order."""
    return np.concatenate(list(parts))


class GrowBuffer:
    """A 1-D concatenation with reserved tail capacity.

    Concat-shaped merged views (durations, per-family starts, CSR flats,
    dispersion series, ...) are suffix-extended by an append: the merged
    array after one more shard is the old array plus the new shard's
    rows.  Rebuilding them with :func:`merge_concat` re-copies every row
    on every re-merge.  A ``GrowBuffer`` copies the pieces once into a
    buffer with ``reserve`` fractional headroom; later appends write
    only the new pieces into the reserved tail, and the previously
    returned view stays valid because it covers an immutable prefix of
    the same buffer.

    ``extend`` returns ``None`` once the headroom is exhausted — callers
    rebuild a fresh ``GrowBuffer``, which restores the reserve.
    """

    def __init__(self, pieces: Sequence[np.ndarray], *, reserve: float = 0.5):
        n = sum(int(p.size) for p in pieces)
        self._buf = np.empty(n + max(int(n * reserve), 16), dtype=pieces[0].dtype)
        self.n = 0
        self.view = self._buf[:0]
        self.extend(pieces)

    def extend(self, pieces: Sequence[np.ndarray]) -> np.ndarray | None:
        """Append ``pieces`` in place; ``None`` if headroom is exhausted."""
        add = sum(int(p.size) for p in pieces)
        if self.n + add > self._buf.size:
            return None
        for p in pieces:
            self._buf[self.n : self.n + p.size] = p
            self.n += int(p.size)
        self.view = self._buf[: self.n]
        return self.view


def merge_series(
    parts: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge aligned ``(timestamps, values)`` pairs by concatenation.

    Shards partition by start time, so shard-order concatenation of
    chronological per-shard series is the global chronological series.
    """
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def merge_grouped_indices(
    parts: Sequence[dict[int, np.ndarray]], bases: Sequence[int]
) -> dict[int, np.ndarray]:
    """Merge per-shard grouping dicts (column value -> attack indices).

    Per-shard groups hold local indices in chronological order; rebasing
    and concatenating in shard order keeps each group chronological.
    The output dict is built in ascending key order — the same insertion
    order the unsharded ``np.split`` grouping pass produces.
    """
    keys = sorted({k for part in parts for k in part})
    out: dict[int, np.ndarray] = {}
    for key in keys:
        pieces = [
            part[key] + np.int64(base)
            for part, base in zip(parts, bases)
            if key in part
        ]
        out[key] = np.concatenate(pieces)
    return out


def csr_pieces(
    parts: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The ``(offset_pieces, flat_pieces)`` of the merged CSR layout.

    Exposed separately from :func:`merge_csr` so the incremental merge
    can write the pieces into growable buffers instead of concatenating.
    """
    offset_pieces = [np.zeros(1, dtype=np.int64)]
    base = np.int64(0)
    for offsets, _flat in parts:
        offset_pieces.append(offsets[1:] + base)
        base += offsets[-1]
    return offset_pieces, [flat for _offsets, flat in parts]


def merge_csr(
    parts: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard CSR ``(offsets, flat)`` layouts in shard order.

    ``flat`` entries are global bot indices (the registries are shared
    across shards), so only the offsets need rebasing.
    """
    offset_pieces, flat_pieces = csr_pieces(parts)
    return np.concatenate(offset_pieces), np.concatenate(flat_pieces)


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
    """The concat pieces of the merged gap array (see merge_intervals).

    Passing an empty diff array for an already-merged leading part
    yields only the pieces *after* it — one boundary gap per seam plus
    the new parts' gap arrays — which is what the incremental merge
    appends to its growable buffer.
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


def merge_intervals(
    starts_parts: Sequence[np.ndarray], diff_parts: Sequence[np.ndarray]
) -> np.ndarray:
    """Merge per-shard consecutive-gap arrays, adding the boundary gaps.

    ``np.diff`` is an elementwise subtraction, so the global gap array is
    exactly the per-shard gap arrays interleaved with one boundary gap
    (first start of a non-empty shard minus the last start of the
    previous non-empty one) per internal boundary.
    """
    pieces = interval_pieces(starts_parts, diff_parts)
    if not pieces:
        return np.zeros(0)
    return np.concatenate(pieces)


def merge_weekly_pairs(
    parts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union per-shard ``(weeks_u, u_week, u_bot)`` weekly-shift tables.

    A (week, bot) pair may appear in several shards (the bot attacked in
    that week on both sides of a boundary); the merged table re-sorts and
    dedupes, which reproduces the global sorted-unique pair table.
    """
    weeks_u = np.unique(np.concatenate([p[0] for p in parts]))
    cw = np.concatenate([p[1] for p in parts])
    cb = np.concatenate([p[2] for p in parts])
    if cw.size == 0:
        return weeks_u, cw, cb
    order = np.lexsort((cb, cw))
    w_sorted = cw[order]
    b_sorted = cb[order]
    first = np.empty(w_sorted.size, dtype=bool)
    first[0] = True
    first[1:] = (w_sorted[1:] != w_sorted[:-1]) | (b_sorted[1:] != b_sorted[:-1])
    return weeks_u, w_sorted[first], b_sorted[first]


def merge_daily_distributions(
    parts: Sequence[DailyDistribution], ds: "AttackDataset", family: str | None
) -> DailyDistribution:
    """Pad-sum per-shard daily histograms and recompute the headline.

    The counts are integer sums, so the padded sum is exact; the busiest
    day's top family is re-derived with the unsharded kernel's own
    expression over the merged columns (one vectorised pass).
    """
    n_days = max(p.counts.size for p in parts)
    counts = np.zeros(n_days, dtype=parts[0].counts.dtype)
    for p in parts:
        counts[: p.counts.size] += p.counts
    return finish_daily_distribution(counts, ds, family)


def finish_daily_distribution(
    counts: np.ndarray,
    ds: "AttackDataset",
    family: str | None,
    days: np.ndarray | None = None,
) -> DailyDistribution:
    """Build a :class:`DailyDistribution` from already-summed day counts.

    ``days`` optionally supplies the per-attack day index column (the
    same elementwise expression computed below) so re-merges can keep it
    in a growable buffer instead of recomputing it over every row.
    """
    max_day = int(np.argmax(counts))
    if family is not None:
        top_family = family if counts[max_day] > 0 else ""
    else:
        if days is None:
            days = ((ds.start - ds.window.start) // 86400).astype(np.int64)
        on_max = days == max_day
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


# -- boundary-stitched scans -----------------------------------------------


def _target_segments(
    ds,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-target scan-edge state: (targets, first start, last start, last end).

    ``last end`` is the end of the last-*started* attack — the attack the
    chain kernel would link the next shard's first attack against.
    """
    n = ds.n_attacks
    if n == 0:
        empty_f = np.zeros(0)
        return np.zeros(0, dtype=np.int64), empty_f, empty_f, empty_f
    order = np.lexsort((ds.start, ds.target_idx))
    targets = ds.target_idx[order]
    starts = ds.start[order]
    ends = ds.end[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = targets[1:] != targets[:-1]
    firsts = np.flatnonzero(new)
    lasts = np.concatenate((firsts[1:], [n])) - 1
    return (
        targets[firsts].astype(np.int64),
        starts[firsts],
        starts[lasts],
        ends[lasts],
    )


def find_boundary_suspects(datasets: Sequence, n_targets: int) -> np.ndarray:
    """Boolean mask of targets whose scans may link across a boundary.

    Walks the shards in time order carrying, per target, the start and
    end of its last-started attack so far.  A target becomes suspect when
    its first attack in a later shard falls within the collaboration
    start window of the carried start, or within the chain margin of the
    carried end (conservative: the chain kernel's additional >1 s
    stagger condition is ignored — the rescan settles it exactly).
    """
    last_start = np.full(n_targets, -np.inf)
    last_end = np.full(n_targets, -np.inf)
    seen = np.zeros(n_targets, dtype=bool)
    suspect = np.zeros(n_targets, dtype=bool)
    for ds in datasets:
        targets, first_start, seg_last_start, seg_last_end = _target_segments(ds)
        if targets.size == 0:
            continue
        cross = seen[targets] & (
            (first_start - last_start[targets] <= START_WINDOW_SECONDS)
            | (np.abs(first_start - last_end[targets]) <= CHAIN_MARGIN_SECONDS)
        )
        suspect[targets[cross]] = True
        seen[targets] = True
        last_start[targets] = seg_last_start
        last_end[targets] = seg_last_end
    return suspect


class _AttackSlice:
    """Column view of the merged dataset restricted to a row subset.

    Quacks like an :class:`AttackDataset` for exactly the columns the
    collaboration/chain kernels touch.  Rows are given in ascending
    global order, so the kernels' stable ``lexsort`` preserves the same
    tie order the global scan would use.
    """

    def __init__(self, ds, rows: np.ndarray) -> None:
        self._ds = ds
        self.n_attacks = int(rows.size)
        self.start = ds.start[rows]
        self.end = ds.end[rows]
        self.target_idx = ds.target_idx[rows]
        self.botnet_id = ds.botnet_id[rows]
        self.family_idx = ds.family_idx[rows]

    def family_name(self, family_id: int) -> str:
        return self._ds.family_name(family_id)


def merge_scan_events(
    parts: Sequence[list],
    bases: Sequence[int],
    suspect: np.ndarray,
    merged_ds,
    kind: str,
) -> "list[CollabEvent] | list[AttackChain]":
    """Merge per-shard collaboration/chain event lists.

    Events on non-suspect targets pass through with rebased attack
    indices; suspect targets are rescanned on the merged columns and the
    rescan's local indices mapped back through the row subset.  Both
    scans group strictly per target, so the union reproduces the global
    scan; the final sort key ``(start, target)`` matches the global
    enumeration order exactly (runs are enumerated target-major, so the
    global ``sort(key=start)`` leaves equal-start events in ascending
    target order).
    """
    events = []
    for shard_events, base in zip(parts, bases):
        offset = int(base)
        for event in shard_events:
            if suspect[event.target_index]:
                continue
            events.append(
                dataclasses.replace(
                    event,
                    attack_indices=tuple(int(i) + offset for i in event.attack_indices),
                )
            )
    if suspect.any():
        rows = np.flatnonzero(suspect[merged_ds.target_idx])
        shim = _AttackSlice(merged_ds, rows)
        if kind == "collaborations":
            rescanned = _detect_collaborations(
                shim, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS
            )
        elif kind == "chains":
            rescanned = _detect_chains(shim, CHAIN_MARGIN_SECONDS, 2)
        else:
            raise ValueError(f"unknown scan kind {kind!r}")
        for event in rescanned:
            events.append(
                dataclasses.replace(
                    event,
                    attack_indices=tuple(
                        int(rows[i]) for i in event.attack_indices
                    ),
                )
            )
    events.sort(key=lambda e: (e.start, e.target_index))
    return events


# -- vectorised boundary stitch --------------------------------------------
#
# The suspect-rescan path above is the retained reference: simple, pinned
# by the parity tests, and O(per-event Python work).  The functions below
# reproduce it with array passes: rebasing happens once per shard build
# (:func:`rebase_scan_events`), and the merge regenerates only the runs
# that actually cross a shard boundary instead of every run on a suspect
# target.  Both paths are exact — shards are contiguous time slices, so a
# shard's per-target rows are a contiguous run of that target's global
# rows, local scan events are consistent fragments of global ones, and
# any fragment belonging to a boundary-crossing run is dropped and
# regenerated from the merged columns.


def rebase_scan_events(events: Sequence, base: int) -> list:
    """Shift scan-event attack indices into the global index space."""
    base = int(base)
    if base == 0 or not events:
        return list(events)
    out = []
    if isinstance(events[0], CollabEvent):
        for e in events:
            out.append(
                CollabEvent(
                    attack_indices=tuple(i + base for i in e.attack_indices),
                    target_index=e.target_index,
                    families=e.families,
                    botnet_ids=e.botnet_ids,
                    start=e.start,
                    is_inter_family=e.is_inter_family,
                )
            )
    elif isinstance(events[0], AttackChain):
        for e in events:
            out.append(
                AttackChain(
                    attack_indices=tuple(i + base for i in e.attack_indices),
                    target_index=e.target_index,
                    families=e.families,
                    start=e.start,
                    end=e.end,
                    gaps=e.gaps,
                )
            )
    else:
        for e in events:
            out.append(
                dataclasses.replace(
                    e, attack_indices=tuple(i + base for i in e.attack_indices)
                )
            )
    return out


def scan_order(grouped: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Scan enumeration order from a merged target grouping dict.

    The kernels enumerate rows by ``lexsort((start, target_idx))``.  The
    dataset is globally start-sorted, so each target's ascending-index
    group *is* its start order (stable ties included), and the groups are
    already keyed ascending — target-major concatenation reproduces the
    lexsort without sorting anything.
    """
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(list(grouped.values()))


def _linked_mask(
    targets: np.ndarray, starts: np.ndarray, ends: np.ndarray, kind: str
) -> np.ndarray:
    """Adjacent-pair link mask in scan order (``mask[i]`` links ``i, i+1``).

    For collaborations a "link" means *same run* (start-window adjacency);
    for chains it is the kernel's chain-link predicate.
    """
    same_target = targets[1:] == targets[:-1]
    if kind == "collaborations":
        return same_target & (starts[1:] - starts[:-1] <= START_WINDOW_SECONDS)
    if kind == "chains":
        return (
            same_target
            & (np.abs(starts[1:] - ends[:-1]) <= CHAIN_MARGIN_SECONDS)
            & (starts[1:] - starts[:-1] > 1.0)
        )
    raise ValueError(f"unknown scan kind {kind!r}")


def _materialize_row_runs(ds, row_segs: Sequence[np.ndarray], kind: str) -> list:
    """Regenerate the scan events of boundary-crossing runs.

    ``row_segs`` holds one ascending global-row array per crossing run.
    Collaboration runs are rescanned through :class:`_AttackSlice` (the
    kernel may split a run into several events or none; runs on the same
    target are separated by more than the start window, and different
    targets never merge, so the slice rescan is exact).  Chains map
    one-to-one onto linked runs, so they are materialised directly —
    rescanning a slice would be *wrong* here: the >1 s stagger condition
    means omitted in-between rows can break links the slice cannot see.
    """
    if not row_segs:
        return []
    if kind == "collaborations":
        rows = np.sort(np.concatenate(list(row_segs)))
        shim = _AttackSlice(ds, rows)
        fresh = _detect_collaborations(
            shim, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS
        )
        return [
            dataclasses.replace(
                e, attack_indices=tuple(int(rows[i]) for i in e.attack_indices)
            )
            for e in fresh
        ]
    if kind != "chains":
        raise ValueError(f"unknown scan kind {kind!r}")
    chains = []
    for seg in row_segs:
        s = ds.start[seg]
        e = ds.end[seg]
        chains.append(
            AttackChain(
                attack_indices=tuple(int(i) for i in seg),
                target_index=int(ds.target_idx[seg[0]]),
                families=tuple(
                    ds.family_name(int(k)) for k in ds.family_idx[seg]
                ),
                start=float(s[0]),
                end=float(e[-1]),
                gaps=tuple(float(g) for g in (s[1:] - e[:-1])),
            )
        )
    return chains


def _merge_sorted_events(kept: list, fresh: list) -> list:
    """Merge kept (already sorted) and few fresh events by (start, target).

    Equal-start events only arise across targets, and both scans emit at
    most one event per (start, target) — the key is a total order that
    matches the global kernel's stable target-major enumeration.
    """
    key = lambda e: (e.start, e.target_index)  # noqa: E731
    if not fresh:
        return kept
    fresh = sorted(fresh, key=key)
    if not kept:
        return fresh
    if len(fresh) <= 32:
        out = kept
        for e in fresh:
            bisect.insort(out, e, key=key)
        return out
    starts = np.fromiter(
        (e.start for e in kept), dtype=np.float64, count=len(kept)
    )
    out = []
    prev = 0
    for e in fresh:
        pos = int(np.searchsorted(starts, e.start, side="left"))
        while (
            pos < len(kept)
            and kept[pos].start == e.start
            and kept[pos].target_index < e.target_index
        ):
            pos += 1
        pos = max(pos, prev)
        out.extend(kept[prev:pos])
        out.append(e)
        prev = pos
    out.extend(kept[prev:])
    return out


def stitch_scan_events(
    parts: Sequence[list],
    ds,
    grouped: dict[int, np.ndarray],
    bases: Sequence[int],
    kind: str,
) -> tuple[list, set[int]]:
    """Merge per-shard event lists already carrying global attack indices.

    Vectorised replacement for :func:`merge_scan_events`: one array pass
    finds the runs whose rows span more than one shard, every per-shard
    event belonging to such a run is dropped, and only those runs are
    regenerated from the merged columns.  Returns ``(events, targets)``
    where ``targets`` is the set of target ids that needed stitching.

    When nothing crosses a boundary, the shard-order concatenation is
    already globally sorted (per-shard lists are start-sorted and shard
    start ranges are disjoint) and is returned as-is.
    """
    n = int(ds.n_attacks)
    if n == 0:
        return [], set()
    order = scan_order(grouped, n)
    targets = ds.target_idx[order]
    starts = ds.start[order]
    ends = ds.end[order]
    linked = _linked_mask(targets, starts, ends, kind)
    bases_arr = np.asarray(list(bases), dtype=np.int64)
    part_of = np.searchsorted(bases_arr, order, side="right") - 1
    cross_adj = linked & (part_of[1:] != part_of[:-1])
    if not cross_adj.any():
        return [e for part in parts for e in part], set()
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = ~linked
    run_id = np.cumsum(new_run) - 1
    crossing = np.zeros(int(run_id[-1]) + 1, dtype=bool)
    crossing[run_id[1:][cross_adj]] = True
    in_crossing = np.zeros(n, dtype=bool)
    in_crossing[order[crossing[run_id]]] = True
    kept = [
        e
        for part in parts
        for e in part
        if not in_crossing[e.attack_indices[0]]
    ]
    run_first = np.flatnonzero(new_run)
    run_last = np.concatenate((run_first[1:], [n]))
    segs = [
        order[run_first[r] : run_last[r]] for r in np.flatnonzero(crossing)
    ]
    fresh = _materialize_row_runs(ds, segs, kind)
    stitched = {int(ds.target_idx[seg[0]]) for seg in segs}
    return _merge_sorted_events(kept, fresh), stitched


def seam_stitch_scan_events(
    prev_events: Sequence,
    new_parts: Sequence[list],
    ds,
    grouped: dict[int, np.ndarray],
    bases: Sequence[int],
    kind: str,
) -> tuple[list, set[int]]:
    """Incremental stitch after an append: touch only the new seams.

    ``prev_events`` is the previous merged context's event list (rows
    ``[0, bases[1])``); ``new_parts`` are the appended shards' rebased
    lists.  Instead of an O(n) scan, each seam is probed per target: a
    searchsorted into the target's merged row group finds the adjacent
    pair straddling the seam, and the run is grown outwards only while
    the link predicate holds.  Dropped previous events all have
    ``start >= `` the earliest crossing run's first start, so the kept
    prefix is a bisect, not a filter.
    """
    seams = [int(b) for b in bases[1:]]
    row_starts = ds.start
    row_ends = ds.end

    if kind == "collaborations":

        def linked(a: int, b: int) -> bool:
            return row_starts[b] - row_starts[a] <= START_WINDOW_SECONDS

    elif kind == "chains":

        def linked(a: int, b: int) -> bool:
            return (
                abs(row_starts[b] - row_ends[a]) <= CHAIN_MARGIN_SECONDS
                and row_starts[b] - row_starts[a] > 1.0
            )

    else:
        raise ValueError(f"unknown scan kind {kind!r}")

    seen: set[tuple[int, int, int]] = set()
    segs: list[np.ndarray] = []
    for target, g in grouped.items():
        for seam in seams:
            pos = int(np.searchsorted(g, seam))
            if pos == 0 or pos == g.size:
                continue
            if not linked(g[pos - 1], g[pos]):
                continue
            lo, hi = pos - 1, pos + 1
            while lo > 0 and linked(g[lo - 1], g[lo]):
                lo -= 1
            while hi < g.size and linked(g[hi - 1], g[hi]):
                hi += 1
            # Maximal runs from different seams are equal or disjoint —
            # abutting-but-unlinked neighbours must stay separate runs.
            if (target, lo, hi) not in seen:
                seen.add((target, lo, hi))
                segs.append(g[lo:hi])
    prev_events = list(prev_events)
    if not segs:
        return prev_events + [e for part in new_parts for e in part], set()
    crossing_rows = {int(i) for seg in segs for i in seg}
    threshold = min(float(row_starts[seg[0]]) for seg in segs)
    cut = bisect.bisect_left(prev_events, threshold, key=lambda e: e.start)
    kept = prev_events[:cut]
    kept.extend(
        e for e in prev_events[cut:] if e.attack_indices[0] not in crossing_rows
    )
    for part in new_parts:
        kept.extend(e for e in part if e.attack_indices[0] not in crossing_rows)
    fresh = _materialize_row_runs(ds, segs, kind)
    stitched = {int(ds.target_idx[seg[0]]) for seg in segs}
    return _merge_sorted_events(kept, fresh), stitched


# -- tree-reducible shard partials -----------------------------------------


@dataclasses.dataclass
class ShardPartial:
    """The re-reduction state of one contiguous shard range ``[lo, hi)``.

    Everything in here merges under :func:`combine_partials` — a small,
    associative algebra (integer sums, sorted-unique unions), bitwise
    stable under any tree shape, and cheap to pickle for the subtree
    cache.  The concatenation-shaped views (index groupings, per-family
    series, scan events) stay out: they are linear-size and assembled
    once during finalisation instead of being copied at every level.
    """

    lo: int
    hi: int
    target_country_counts: tuple[np.ndarray, np.ndarray]
    target_org_counts: tuple[np.ndarray, np.ndarray]
    protocol_breakdown: list[tuple[Protocol, str, int]]
    protocol_popularity: dict[Protocol, int]
    #: family name (or ``None`` for the headline) -> per-day counts
    daily_counts: dict[str | None, np.ndarray]
    #: family name -> ``(weeks_u, u_week, u_bot)`` weekly-shift table
    weekly_pairs: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    #: family name -> ``(uniq, counts)`` target-country marginal
    family_country_counts: dict[str, tuple[np.ndarray, np.ndarray]]
    families: tuple[str, ...]


def make_shard_partial(ctx, families: Sequence[str], index: int) -> ShardPartial:
    """Extract one shard's :class:`ShardPartial` from its built context."""
    daily: dict[str | None, np.ndarray] = {
        None: ctx.daily_distribution(None).counts
    }
    for family in families:
        daily[family] = ctx.daily_distribution(family).counts
    return ShardPartial(
        lo=index,
        hi=index + 1,
        target_country_counts=ctx.target_country_counts(),
        target_org_counts=ctx.target_org_counts(),
        protocol_breakdown=ctx.protocol_breakdown(),
        protocol_popularity=ctx.protocol_popularity(),
        daily_counts=daily,
        weekly_pairs={f: ctx.weekly_shift_pairs(f) for f in families},
        family_country_counts={
            f: ctx.family_target_country_counts(f) for f in families
        },
        families=tuple(families),
    )


def _pad_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(max(a.size, b.size), dtype=a.dtype)
    out[: a.size] += a
    out[: b.size] += b
    return out


def combine_partials(a: ShardPartial, b: ShardPartial) -> ShardPartial:
    """Combine two adjacent shard partials (``a`` left of ``b``)."""
    if a.hi != b.lo:
        raise ValueError(f"non-adjacent partials: [{a.lo},{a.hi}) + [{b.lo},{b.hi})")
    daily: dict[str | None, np.ndarray] = {}
    for key in dict.fromkeys([*a.daily_counts, *b.daily_counts]):
        pa = a.daily_counts.get(key)
        pb = b.daily_counts.get(key)
        daily[key] = pa if pb is None else pb if pa is None else _pad_sum(pa, pb)
    weekly: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for key in dict.fromkeys([*a.weekly_pairs, *b.weekly_pairs]):
        pa = a.weekly_pairs.get(key)
        pb = b.weekly_pairs.get(key)
        weekly[key] = (
            pa if pb is None else pb if pa is None else merge_weekly_pairs([pa, pb])
        )
    fam_counts: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for key in dict.fromkeys([*a.family_country_counts, *b.family_country_counts]):
        pa = a.family_country_counts.get(key)
        pb = b.family_country_counts.get(key)
        fam_counts[key] = (
            pa if pb is None else pb if pa is None else merge_counts([pa, pb])
        )
    return ShardPartial(
        lo=a.lo,
        hi=b.hi,
        target_country_counts=merge_counts(
            [a.target_country_counts, b.target_country_counts]
        ),
        target_org_counts=merge_counts([a.target_org_counts, b.target_org_counts]),
        protocol_breakdown=merge_protocol_breakdown(
            [a.protocol_breakdown, b.protocol_breakdown]
        ),
        protocol_popularity=merge_protocol_popularity(
            [a.protocol_popularity, b.protocol_popularity]
        ),
        daily_counts=daily,
        weekly_pairs=weekly,
        family_country_counts=fam_counts,
        families=tuple(sorted(set(a.families) | set(b.families))),
    )


# -- sketch summaries ------------------------------------------------------


def sketch_summaries(summaries):
    """Reduce per-shard :class:`~repro.sketch.AttackStreamSummary` values.

    The sketch counterpart of the exact combinators above: every member
    structure merges under its own associative algebra (Count-Min adds,
    HLL maxes, KLL compacts), so any merge tree over the same shards
    answers queries under the same documented error contract.  The only
    boundary artefact is the one inter-attack interval spanning each
    shard edge, which no shard observed (see
    :meth:`repro.sketch.AttackStreamSummary.merge`) — the exact-interval
    combinator :func:`merge_intervals` reinserts such gaps, the sketch
    one cannot.

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
