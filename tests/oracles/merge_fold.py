"""The serial reference fold for sharded analysis.

:func:`merged_reference` merges a :class:`ShardedAnalysisContext`'s
shards the plain way: one left fold over all K shards, every view
concatenated or re-reduced from the per-shard values, and the
collaboration/chain scans stitched by the conservative boundary-suspect
rescan — every target whose shard-edge attacks *could* link under the
paper's windows is rescanned on the merged columns.  It shares no
finaliser state with :meth:`ShardedAnalysisContext.merged` (no extend
rules, no growable buffers, no seam probe), which makes it the
comparison target of the merge-parity tests.

All index-valued outputs are global attack indices: shard ``k``'s local
index ``i`` maps to ``bases[k] + i``, where ``bases`` are the cumulative
shard sizes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import shift
from repro.core.collaboration import (
    DURATION_WINDOW_SECONDS,
    START_WINDOW_SECONDS,
    _detect_collaborations,
)
from repro.core.columns import ColumnStore
from repro.core.consecutive import CHAIN_MARGIN_SECONDS, _detect_chains
from repro.core.context import AnalysisContext
from repro.core.merge import (
    _AttackSlice,
    finish_daily_distribution,
    interval_pieces,
    merge_counts,
    merge_grouped_indices,
    merge_protocol_breakdown,
    merge_protocol_popularity,
    merge_weekly_pairs,
)
from repro.core.overview import DailyDistribution
from repro.core.scans import ScanEvents


def merge_concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-shard arrays in shard (chronological) order."""
    return np.concatenate(list(parts))


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


def merge_csr(
    parts: Sequence[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard CSR ``(offsets, flat)`` layouts in shard order.

    ``flat`` entries are global bot indices (the registries are shared
    across shards), so only the offsets need rebasing.
    """
    offset_pieces = [np.zeros(1, dtype=np.int64)]
    base = np.int64(0)
    for offsets, _flat in parts:
        offset_pieces.append(offsets[1:] + base)
        base += offsets[-1]
    return np.concatenate(offset_pieces), np.concatenate([f for _o, f in parts])


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


def merge_daily_distributions(
    parts: Sequence[DailyDistribution], ds, family: str | None
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


def merge_scan_events(
    parts: Sequence[ScanEvents],
    bases: Sequence[int],
    suspect: np.ndarray,
    merged_ds,
    kind: str,
) -> ScanEvents:
    """Merge per-shard collaboration/chain scans.

    Events on non-suspect targets pass through with rebased attack
    indices; suspect targets are rescanned on the merged columns and the
    rescan's local indices mapped back through the row subset.  Both
    scans group strictly per target, so the union reproduces the global
    scan; the final sort key ``(start, target)`` of each event's first
    row matches the global enumeration order exactly (runs are
    enumerated target-major, so the global stable sort by start leaves
    equal-start events in ascending target order).
    """
    events: list[tuple[int, ...]] = []
    for shard_events, base in zip(parts, bases):
        bounds = shard_events.offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            rows = tuple(int(i) + int(base) for i in shard_events.rows[lo:hi])
            if not suspect[merged_ds.target_idx[rows[0]]]:
                events.append(rows)
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
        bounds = rescanned.offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            events.append(tuple(int(rows[i]) for i in rescanned.rows[lo:hi]))
    events.sort(
        key=lambda e: (float(merged_ds.start[e[0]]), int(merged_ds.target_idx[e[0]]))
    )
    return ScanEvents.from_sizes(
        np.array([i for e in events for i in e], dtype=np.int64), [len(e) for e in events]
    )


def merged_reference(sctx) -> AnalysisContext:
    """The serial left-fold merge of every shard of ``sctx``.

    Builds a fresh context on every call (never cached, no counters), so
    the parity tests can diff it against ``sctx.merged()``.
    """
    for index in range(sctx.n_shards):
        sctx.build_shard(index)

    ds = sctx.store.merged_dataset()
    ctx = AnalysisContext.of(ds)
    bases = [int(b) for b in sctx.store.shard_bases()]
    shards = [sctx.shard_context(k) for k in range(sctx.n_shards)]
    shard_ds = [c.dataset for c in shards]
    seed = ctx.seed_view

    seed(("bot_coords_radians",), shards[0].bot_coords_radians())
    for gkey, column in (
        ("family_attack_index", "family_idx"),
        ("target_attack_index", "target_idx"),
    ):
        parts = [
            c._groups_by(gkey, getattr(c.dataset, column)) for c in shards
        ]
        seed((gkey,), merge_grouped_indices(parts, bases, ColumnStore(), gkey))
    seed(
        ("attack_intervals",),
        merge_intervals(
            [c.dataset.start for c in shards],
            [c.attack_intervals() for c in shards],
        ),
    )
    seed(("durations",), merge_concat([c.durations() for c in shards]))
    seed(
        ("target_country_idx",),
        merge_concat([c.target_country_idx() for c in shards]),
    )
    seed(
        ("target_org_idx",),
        merge_concat([c.target_org_idx() for c in shards]),
    )
    seed(
        ("target_country_counts",),
        merge_counts([c.target_country_counts() for c in shards]),
    )
    seed(
        ("target_org_counts",),
        merge_counts([c.target_org_counts() for c in shards]),
    )
    seed(
        ("protocol_breakdown",),
        merge_protocol_breakdown([c.protocol_breakdown() for c in shards]),
    )
    seed(
        ("protocol_popularity",),
        merge_protocol_popularity([c.protocol_popularity() for c in shards]),
    )
    seed(
        ("daily_distribution", None),
        merge_daily_distributions(
            [c.daily_distribution(None) for c in shards], ds, None
        ),
    )
    ctx.victim_org_type_counts()

    suspect = find_boundary_suspects(shard_ds, ds.victims.n_targets)
    seed(
        ("collaborations",),
        merge_scan_events(
            [c.collaborations() for c in shards],
            bases,
            suspect,
            ds,
            "collaborations",
        ),
    )
    seed(
        ("chains",),
        merge_scan_events([c.chains() for c in shards], bases, suspect, ds, "chains"),
    )

    present: dict[str, list[int]] = {}
    for k in range(sctx.n_shards):
        for family in sctx.shard_families(k):
            present.setdefault(family, []).append(k)
    for family, in_shards in present.items():
        here = [shards[k] for k in in_shards]
        seed(
            ("family_starts", family),
            merge_concat([c.family_starts(family) for c in here]),
        )
        seed(
            ("family_intervals", family, True),
            merge_intervals(
                [c.family_starts(family) for c in here],
                [c.family_intervals(family) for c in here],
            ),
        )
        seed(
            ("durations", family),
            merge_concat([c.durations(family) for c in here]),
        )
        seed(
            ("family_participants", family),
            merge_csr([c.family_participants(family) for c in here]),
        )
        seed(
            ("attack_dispersions", family),
            merge_series([c.attack_dispersions(family) for c in here]),
        )
        seed(
            ("family_target_country_counts", family),
            merge_counts([c.family_target_country_counts(family) for c in here]),
        )
        seed(
            ("daily_distribution", family),
            merge_daily_distributions(
                [c.daily_distribution(family) for c in here], ds, family
            ),
        )
        pairs = merge_weekly_pairs([c.weekly_shift_pairs(family) for c in here])
        seed(("weekly_shift_pairs", family), pairs)
        seed(("weekly_shift", family), shift._finish_weekly_shift(ds, family, *pairs))
    return ctx
