"""Merge-algebra tests: sharded map-reduce equals the unsharded build.

The tentpole contract is *bitwise*: every derived view seeded by
:meth:`ShardedAnalysisContext.merged` must be array-equal to the one the
unsharded :class:`AnalysisContext` builds from scratch, for any shard
count.  These tests pin that across K ∈ {1, 2, 5} partitions and a
layout with empty shards, check the commutative combinators are
merge-order invariant, and hand-craft collaboration/chain cases that
straddle a shard boundary (the seam stitch).  The serial reference fold
they also compare against lives in ``tests/oracles/merge_fold.py``.  The
full-scale byte-identity sweep (marked ``slow``) only runs when
``REPRO_BENCH_SCALE`` names a scale, as in CI.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.core import merge
from repro.core.collaboration import detect_collaborations
from repro.core.columns import ColumnStore
from repro.core.consecutive import detect_chains
from repro.core.context import AnalysisContext, ShardedAnalysisContext
from repro.datagen.config import DatasetConfig
from repro.datagen.generator import generate_dataset
from repro.experiments.registry import battery_views, run_all
from repro.io.colstore import (
    ShardedDatasetStore,
    _slice_dataset,
    append_shard,
    extend_dataset,
    save_sharded_npz,
)
from repro.io.ingest import dataset_from_records
from repro.simulation.clock import ObservationWindow

from ..oracles.merge_fold import (
    find_boundary_suspects,
    merge_intervals,
    merged_reference,
)
from .test_kernel_parity import _record


def _assert_view_equal(label: str, got, want) -> None:
    """Recursive bitwise equality over the view value shapes we merge."""
    assert type(got) is type(want), f"{label}: {type(got)} != {type(want)}"
    if isinstance(got, np.ndarray):
        np.testing.assert_array_equal(got, want, err_msg=label)
        assert got.dtype == want.dtype, label
    elif isinstance(got, dict):
        assert list(got) == list(want), label  # key *order* matters too
        for key in got:
            _assert_view_equal(f"{label}[{key!r}]", got[key], want[key])
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want), label
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_view_equal(f"{label}[{i}]", g, w)
    elif dataclasses.is_dataclass(got):
        for field in dataclasses.fields(got):
            _assert_view_equal(
                f"{label}.{field.name}",
                getattr(got, field.name),
                getattr(want, field.name),
            )
    else:
        assert got == want, f"{label}: {got!r} != {want!r}"


def _collect_views(ctx: AnalysisContext, families: list[str]) -> dict:
    """Every mergeable view, keyed by a readable label."""
    out = {
        "attack_intervals": ctx.attack_intervals(),
        "durations": ctx.durations(),
        "target_country_idx": ctx.target_country_idx(),
        "target_org_idx": ctx.target_org_idx(),
        "target_country_counts": ctx.target_country_counts(),
        "target_org_counts": ctx.target_org_counts(),
        "victim_org_type_counts": ctx.victim_org_type_counts(),
        "protocol_breakdown": ctx.protocol_breakdown(),
        "protocol_popularity": ctx.protocol_popularity(),
        "daily_distribution": ctx.daily_distribution(),
        "collaborations": ctx.collaborations(),
        "chains": ctx.chains(),
    }
    for fam in families:
        out[f"{fam}.attacks"] = ctx.family_attacks(fam)
        out[f"{fam}.starts"] = ctx.family_starts(fam)
        out[f"{fam}.intervals"] = ctx.family_intervals(fam)
        out[f"{fam}.durations"] = ctx.durations(fam)
        out[f"{fam}.participants"] = ctx.family_participants(fam)
        out[f"{fam}.attack_dispersions"] = ctx.attack_dispersions(fam)
        out[f"{fam}.snapshot_dispersions"] = ctx.snapshot_dispersions(fam)
        out[f"{fam}.target_country_counts"] = ctx.family_target_country_counts(fam)
        out[f"{fam}.daily_distribution"] = ctx.daily_distribution(fam)
        out[f"{fam}.weekly_shift"] = ctx.weekly_shift(fam)
    return out


def render_view_keys(ds) -> list[tuple]:
    """Keys of the rank windows and interval buckets the battery reads."""
    return [
        key
        for key in battery_views(ds.active_families)
        if key[0] in ("rank_windows", "interval_buckets")
    ]


def assert_render_views_match(
    ctx: AnalysisContext, fresh: AnalysisContext, previous: AnalysisContext | None = None
) -> None:
    """``ctx``'s rank windows and interval buckets equal ``fresh``'s.

    Each one ``previous`` (the extend's left operand) held must already
    be materialised on ``ctx``: extended, not rebuilt lazily.  Each
    window must hold exactly its ranks of the sorted series.  Afterwards
    all of them are built on ``ctx``, so the next extend has them.
    """
    views = ctx.materialized()
    held = set() if previous is None else set(previous.view_keys())
    for key in render_view_keys(ctx.dataset):
        if key in held:
            assert key in views, f"{key} not carried"
        got = merge.view_value(ctx, key)
        _assert_view_equal(str(key), got, merge.view_value(fresh, key))
        if key[0] == "rank_windows":
            ordered = np.sort(merge.view_value(fresh, key[1]))
            for lo, w in got.windows:
                np.testing.assert_array_equal(w, ordered[lo : lo + w.size], err_msg=str(key))


def _unread_view_keys(sctx: ShardedAnalysisContext, merged: AnalysisContext) -> list:
    """Materialised keys of views no experiment reads, on any context.

    Hourly-snapshot dispersions and the per-botnet and per-target
    groupings must stay lazy: neither the shard builds nor the merge may
    derive them.
    """
    ctxs = [sctx.shard_context(k) for k in range(sctx.n_shards)] + [merged]
    found = []
    for ctx in ctxs:
        for key in ctx.view_keys():
            head = str(key[0] if isinstance(key, tuple) and key else key)
            if head.startswith("snapshot_dispersions") or head in (
                "botnet_attack_index",
                "target_attack_index",
            ):
                found.append(key)
    return found


def _gapped(ds):
    """``ds`` without the rows of two of its six equal time slices.

    Partitioned into six shards again, shards 0 and 3 come out empty:
    an empty left operand for the merge and an empty interior part.
    """
    slices = ShardedDatasetStore.partition(ds, shards=6)
    first, *rest = (slices.load_shard(k) for k in (1, 2, 4, 5))
    return extend_dataset(ColumnStore(), first, rest)


class TestMergedParity:
    @pytest.mark.parametrize("k", [1, 2, 5, "gaps"])
    def test_every_seeded_view_matches_unsharded(self, small_ds, k):
        if k == "gaps":
            ds = _gapped(small_ds)
            store = ShardedDatasetStore.partition(ds, shards=6)
            assert store._counts[0] == store._counts[3] == 0
        else:
            ds = small_ds
            store = ShardedDatasetStore.partition(ds, shards=k)
        sctx = ShardedAnalysisContext(store)
        sctx.build(jobs=1)
        merged = sctx.merged()
        fresh = AnalysisContext(ds)
        assert merged.dataset.attack_columns_equal(ds)

        families = [f for f in ds.active_families if fresh.family_attacks(f).size]
        got = _collect_views(merged, families)
        want = _collect_views(fresh, families)
        for label in want:
            _assert_view_equal(label, got[label], want[label])

    def test_merged_views_are_seeded_not_rebuilt(self, small_ds):
        """merged() must seed the scan results, not leave them lazy."""
        sctx = ShardedAnalysisContext(ShardedDatasetStore.partition(small_ds, shards=3))
        sctx.build(jobs=1)
        merged = sctx.merged()
        keys = set(merged.view_keys())
        assert ("collaborations",) in keys
        assert ("chains",) in keys
        assert ("attack_intervals",) in keys
        run_all(merged, jobs=1)
        assert _unread_view_keys(sctx, merged) == []

    @pytest.mark.parametrize("k", [4, 8])
    def test_battery_renders_identically(self, small_ds, k):
        sctx = ShardedAnalysisContext(ShardedDatasetStore.partition(small_ds, shards=k))
        sharded = [r.render() for r in run_all(sctx.merged(), jobs=1)]
        flat = [r.render() for r in run_all(AnalysisContext(small_ds), jobs=1)]
        assert sharded == flat


class TestMergeOrderInvariance:
    """The commutative combinators give the same answer in any part order."""

    def _parts(self, small_ds, k=4):
        store = ShardedDatasetStore.partition(small_ds, shards=k)
        return [store.load_shard(i) for i in range(store.n_shards)]

    def test_counts_invariant(self, small_ds):
        parts = [
            np.unique(ds.target_idx, return_counts=True)
            for ds in self._parts(small_ds)
        ]
        base = merge.merge_counts(parts)
        for order in ([3, 1, 0, 2], [2, 3, 0, 1]):
            got = merge.merge_counts([parts[i] for i in order])
            np.testing.assert_array_equal(got[0], base[0])
            np.testing.assert_array_equal(got[1], base[1])

    def test_protocol_tables_invariant(self, small_ds):
        shards = self._parts(small_ds)
        ctxs = [AnalysisContext(ds) for ds in shards]
        breakdown = [c.protocol_breakdown() for c in ctxs]
        popularity = [c.protocol_popularity() for c in ctxs]
        for order in ([3, 1, 0, 2], [1, 0, 3, 2]):
            assert merge.merge_protocol_breakdown(
                [breakdown[i] for i in order]
            ) == merge.merge_protocol_breakdown(breakdown)
            assert merge.merge_protocol_popularity(
                [popularity[i] for i in order]
            ) == merge.merge_protocol_popularity(popularity)

    def test_weekly_pairs_invariant(self, small_ds):
        shards = self._parts(small_ds)
        ctxs = [AnalysisContext(ds) for ds in shards]
        fam = small_ds.active_families[0]
        parts = [c.weekly_shift_pairs(fam) for c in ctxs]
        base = merge.merge_weekly_pairs(parts)
        got = merge.merge_weekly_pairs([parts[i] for i in (2, 0, 3, 1)])
        for g, b in zip(got, base):
            np.testing.assert_array_equal(g, b)


class TestCombinePartials:
    """The weekly (week, bot) pair tables folded by ``extend_view`` over
    any row cuts equal the flat table; only the seam week's pairs re-sort."""

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_weekly_pairs_match_a_flat_build(self, small_ds, seed):
        from repro.core.shift import _weekly_pairs

        ds = small_ds
        rng = np.random.default_rng(seed)
        weeks = ((ds.start - ds.window.start) // (7 * 86400)).astype(np.int64)
        # A cut inside a week, so that week's pairs meet at a seam.
        inside = np.flatnonzero(weeks[1:] == weeks[:-1]) + 1
        cuts = {int(rng.choice(inside)), *rng.integers(1, ds.n_attacks, size=6).tolist()}
        bounds = [0, *sorted(cuts), ds.n_attacks]
        parts = [AnalysisContext(_slice_dataset(ds, lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        heads = [AnalysisContext(_slice_dataset(ds, 0, hi)) for hi in bounds[1:]]
        assert any(not p.family_attacks(f).size for p in parts for f in ds.active_families)
        flat = AnalysisContext(ds)

        def first(family):
            key = ("weekly_shift_pairs", family)
            return merge.view_value(parts[0], key) if parts[0].family_attacks(family).size else None

        for family in ds.active_families:
            key = ("weekly_shift_pairs", family)
            want = _weekly_pairs(flat, family)
            # One part per step, as a chain of re-merges folds them ...
            value = first(family)
            for prev, part, ctx in zip(heads, parts[1:], heads[1:]):
                value = merge.extend_view(key, value, prev, [part], ctx)
            _assert_view_equal(family, value, want)
            # ... and every part at once, as a full merge does.
            value = merge.extend_view(key, first(family), parts[0], parts[1:], flat)
            _assert_view_equal(family, value, want)


def _boundary_dataset(records):
    """Two-day dataset; shard boundary (2 shards) falls at t = 86400."""
    return dataset_from_records(records, ObservationWindow(start=0, end=2 * 86400))


class TestBoundaryStitching:
    def test_collaboration_straddles_boundary(self):
        # Two botnets hit one target 50 s apart across t=86400: a
        # collaboration no single shard can see.
        ds = _boundary_dataset(
            [
                _record(0, botnet=1, family="alpha", target=1, start=86_350.0, duration=600.0),
                _record(1, botnet=2, family="alpha", target=1, start=86_410.0, duration=600.0),
                _record(2, botnet=3, family="beta", target=2, start=1_000.0, duration=300.0),
                _record(3, botnet=4, family="beta", target=3, start=100_000.0, duration=300.0),
            ]
        )
        store = ShardedDatasetStore.partition(ds, shards=2)
        assert [int(c) for c in store._counts] == [2, 2]
        sctx = ShardedAnalysisContext(store)
        sctx.build(jobs=1)
        merged = sctx.merged()
        flat = AnalysisContext(ds)
        assert merged.collaborations() == flat.collaborations()
        assert len(merged.collaborations()) == 1
        assert detect_collaborations(merged)[0].attack_indices == (1, 2)

    def test_chain_straddles_boundary(self):
        # Consecutive same-target attacks handed off across the cut.
        ds = _boundary_dataset(
            [
                _record(0, botnet=1, family="alpha", target=1, start=86_000.0, duration=300.0),
                _record(1, botnet=2, family="alpha", target=1, start=86_350.0, duration=300.0),
                _record(2, botnet=3, family="alpha", target=1, start=86_700.0, duration=300.0),
                _record(3, botnet=4, family="beta", target=2, start=120_000.0, duration=300.0),
            ]
        )
        store = ShardedDatasetStore.partition(ds, shards=2)
        assert [int(c) for c in store._counts] == [2, 2]
        sctx = ShardedAnalysisContext(store)
        sctx.build(jobs=1)
        merged = sctx.merged()
        flat = AnalysisContext(ds)
        assert merged.chains() == flat.chains()
        assert len(merged.chains()) == 1
        assert detect_chains(merged)[0].attack_indices == (0, 1, 2)

    def test_chain_link_over_a_shard_without_the_target(self):
        # A day-long attack in shard 0 hands off to one in shard 2; the
        # target has no row in shard 1, so the link straddles two seams
        # and only shard 2's seam probe holds the target.
        ds = dataset_from_records(
            [
                _record(0, botnet=1, family="alpha", target=1, start=80_000.0, duration=100_000.0),
                _record(1, botnet=2, family="beta", target=2, start=100_000.0, duration=300.0),
                _record(2, botnet=3, family="alpha", target=1, start=180_030.0, duration=300.0),
            ],
            ObservationWindow(start=0, end=3 * 86400),
        )
        store = ShardedDatasetStore.partition(ds, shards=3)
        assert [int(c) for c in store._counts] == [1, 1, 1]
        sctx = ShardedAnalysisContext(store)
        sctx.build(jobs=1)
        merged = sctx.merged()
        assert merged.chains() == AnalysisContext(ds).chains()
        assert [c.attack_indices for c in detect_chains(merged)] == [(0, 2)]

    def test_boundary_suspects_flag_handoff_targets(self):
        ds = _boundary_dataset(
            [
                _record(0, botnet=1, family="alpha", target=1, start=86_350.0, duration=600.0),
                _record(1, botnet=2, family="alpha", target=1, start=86_410.0, duration=600.0),
                _record(2, botnet=3, family="beta", target=2, start=1_000.0, duration=300.0),
                _record(3, botnet=4, family="beta", target=3, start=100_000.0, duration=300.0),
            ]
        )
        store = ShardedDatasetStore.partition(ds, shards=2)
        shards = [store.load_shard(i) for i in range(2)]
        suspect = find_boundary_suspects(shards, ds.victims.n_targets)
        # rows sort by start: 0 = the early beta, 1-2 = the straddling
        # alpha pair, 3 = the late beta.
        assert suspect[ds.target_idx[1]]  # the straddling target
        assert not suspect[ds.target_idx[0]]  # one-shard-only targets
        assert not suspect[ds.target_idx[3]]

    def test_intervals_gain_exact_boundary_gap(self):
        ds = _boundary_dataset(
            [
                _record(0, botnet=1, family="alpha", target=1, start=10.0, duration=60.0),
                _record(1, botnet=2, family="alpha", target=1, start=500.0, duration=60.0),
                _record(2, botnet=3, family="alpha", target=1, start=90_000.0, duration=60.0),
            ]
        )
        store = ShardedDatasetStore.partition(ds, shards=2)
        shards = [store.load_shard(i) for i in range(2)]
        got = merge_intervals(
            [s.start for s in shards], [np.diff(s.start) for s in shards]
        )
        np.testing.assert_array_equal(got, np.diff(ds.start))


def _append_store(path, small_ds, k):
    """A disk store holding the first ``k`` of ``k + 1`` time slices.

    Returns the store path and the held-back tail slice, so a test can
    merge, append the tail, and re-merge incrementally.
    """
    slices = ShardedDatasetStore.partition(small_ds, shards=k + 1)
    parts = [slices.load_shard(i) for i in range(k + 1)]
    for part in parts[:k]:
        append_shard(path, part)
    return parts[k]


def _gapped_store(path, ds):
    """A six-shard disk store of ``ds`` minus its last time slice.

    Returns the held-back last slice.  On a :func:`_gapped` dataset the
    stored shards 0, 3 and 5 are empty.
    """
    cut = int(ShardedDatasetStore.partition(ds, shards=6).shard_bases()[5])
    save_sharded_npz(_slice_dataset(ds, 0, cut), path, shards=6)
    return _slice_dataset(ds, cut, ds.n_attacks)


class TestIncrementalRemerge:
    """append_shard + refresh + merged() folds only the appended shards
    into the previous merged context — and the result is byte-identical
    to a from-scratch build."""

    @pytest.mark.parametrize("k", [2, 5, 8, "gaps"])
    def test_append_then_remerge_equals_from_scratch(self, small_ds, k, tmp_path):
        if k == "gaps":
            ds = _gapped(small_ds)
            tail = _gapped_store(tmp_path / "store", ds)
        else:
            ds = small_ds
            tail = _append_store(tmp_path / "store", small_ds, k)
        sctx = ShardedAnalysisContext(ShardedDatasetStore(tmp_path / "store"))
        if k == "gaps":
            assert [int(sctx.store._counts[i]) for i in (0, 3, 5)] == [0, 0, 0]
        sctx.build(jobs=1)
        before = sctx.merged()
        assert sctx.last_merge_stats["mode"] == "full"

        append_shard(tmp_path / "store", tail)
        assert sctx.refresh() == 1
        sctx.build(jobs=1)
        merged = sctx.merged()
        assert sctx.last_merge_stats["mode"] == "incremental"
        # The re-merge copied only the new shard: the previous merged
        # arrays are prefixes of the new ones' buffers.
        assert np.shares_memory(merged.dataset.start, before.dataset.start)
        assert np.shares_memory(merged.durations(), before.durations())

        fresh = AnalysisContext(ds)
        assert merged.dataset.attack_columns_equal(ds)
        families = [f for f in ds.active_families if fresh.family_attacks(f).size]
        got = _collect_views(merged, families)
        want = _collect_views(fresh, families)
        for label in want:
            _assert_view_equal(label, got[label], want[label])

        # ... and growing them in place left the previous context exact.
        head = _slice_dataset(ds, 0, before.dataset.n_attacks)
        assert before.dataset.attack_columns_equal(head)
        flat = AnalysisContext(head)
        families = [f for f in head.active_families if flat.family_attacks(f).size]
        got = _collect_views(before, families)
        want = _collect_views(flat, families)
        for label in want:
            _assert_view_equal(f"previous {label}", got[label], want[label])

    def test_remerge_extends_the_render_views_prev_holds(self, small_ds, tmp_path):
        """A battery run on the merged context builds rank windows and
        interval buckets; the re-merge extends them, and a full merge
        leaves them lazy."""
        tail = _append_store(tmp_path / "store", small_ds, 4)
        sctx = ShardedAnalysisContext(ShardedDatasetStore(tmp_path / "store"))
        sctx.build(jobs=1)
        before = sctx.merged()
        assert not any(k[0] in ("rank_windows", "interval_buckets") for k in before.view_keys())
        head = _slice_dataset(small_ds, 0, before.dataset.n_attacks)
        assert_render_views_match(before, AnalysisContext(head))

        append_shard(tmp_path / "store", tail)
        assert sctx.refresh() == 1
        sctx.build(jobs=1)
        merged = sctx.merged()
        assert sctx.last_merge_stats["mode"] == "incremental"
        assert_render_views_match(merged, AnalysisContext(small_ds), before)
        # The previous merged context's own views are untouched.
        assert_render_views_match(before, AnalysisContext(head), before)

    def test_remerge_builds_no_unread_views(self, small_ds, tmp_path):
        tail = _append_store(tmp_path / "store", small_ds, 4)
        sctx = ShardedAnalysisContext(ShardedDatasetStore(tmp_path / "store"))
        sctx.build(jobs=1)
        run_all(sctx.merged(), jobs=1)

        append_shard(tmp_path / "store", tail)
        assert sctx.refresh() == 1
        sctx.build(jobs=1)
        merged = sctx.merged()
        assert sctx.last_merge_stats["mode"] == "incremental"
        run_all(merged, jobs=1)
        assert _unread_view_keys(sctx, merged) == []

    def test_family_first_seen_only_in_appended_shard(self, small_ds, tmp_path):
        """A battery run before the append must not poison the re-merge.

        Reading a family with no attacks yet lazily builds *empty*
        views (``family_starts`` and every other family view whose
        kernel accepts no rows) on the merged context; the fold extends
        those held values, and builds none of the views it lacks (the
        dispersion kernels raise on empty families).
        """
        from repro.io import colstore as colstore_mod

        first_row = {}
        for i, name in enumerate(small_ds.families):
            rows = np.flatnonzero(small_ds.family_idx == i)
            if rows.size:
                first_row[name] = int(rows[0])
        family, cut = max(first_row.items(), key=lambda kv: kv[1])
        if cut < 10 or small_ds.n_attacks - cut < 2:
            pytest.skip("every family starts too early in this dataset")

        head = colstore_mod._slice_dataset(small_ds, 0, cut)
        tail = colstore_mod._slice_dataset(small_ds, cut, small_ds.n_attacks)
        append_shard(tmp_path / "store", head)
        sctx = ShardedAnalysisContext(ShardedDatasetStore(tmp_path / "store"))
        sctx.build(jobs=1)
        prev = sctx.merged()
        # Simulate the battery touching the not-yet-seen family.
        assert prev.family_starts(family).size == 0
        for key in battery_views([family]):
            if key[1:2] == (family,):
                try:
                    merge.view_value(prev, key)
                except (ValueError, IndexError):
                    pass
        assert ("family_intervals", family, True) in prev.materialized()

        append_shard(tmp_path / "store", tail)
        assert sctx.refresh() == 1
        sctx.build(jobs=1)
        merged = sctx.merged()
        assert sctx.last_merge_stats["mode"] == "incremental"

        fresh = AnalysisContext(small_ds)
        families = [f for f in small_ds.active_families if fresh.family_attacks(f).size]
        assert family in families
        got = _collect_views(merged, families)
        want = _collect_views(fresh, families)
        for label in want:
            _assert_view_equal(label, got[label], want[label])

    def test_remerge_folds_only_the_appended_shards(self, small_ds, tmp_path):
        k = 8
        tail = _append_store(tmp_path / "store", small_ds, k)
        sctx = ShardedAnalysisContext(ShardedDatasetStore(tmp_path / "store"))
        sctx.merged()
        assert sctx.last_merge_stats == {
            "mode": "full", "levels": 1, "reused": 0, "combined": k - 1
        }

        append_shard(tmp_path / "store", tail)
        assert sctx.refresh() == 1
        sctx.merged()
        assert sctx.last_merge_stats == {
            "mode": "incremental", "levels": 1, "reused": k, "combined": 1
        }

    def test_covering_merge_is_reused(self, small_ds, tmp_path):
        _append_store(tmp_path / "store", small_ds, 3)
        sctx = ShardedAnalysisContext(ShardedDatasetStore(tmp_path / "store"))
        first = sctx.merged()
        stats = sctx.last_merge_stats
        assert sctx.merged() is first  # memoized, no re-dispatch
        # A refresh that finds nothing appended keeps the merge current.
        assert sctx.refresh() == 0
        assert sctx.merged() is first
        assert sctx.last_merge_stats is stats


class TestReferenceFoldParity:
    """merged() against the retained serial reference fold."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_merge_matches_reference_fold(self, small_ds, k):
        sctx = ShardedAnalysisContext(ShardedDatasetStore.partition(small_ds, shards=k))
        sctx.build(jobs=1)
        merged = sctx.merged()
        reference = merged_reference(sctx)
        families = [
            f for f in small_ds.active_families if AnalysisContext(small_ds).family_attacks(f).size
        ]
        got = _collect_views(merged, families)
        want = _collect_views(reference, families)
        for label in want:
            _assert_view_equal(label, got[label], want[label])

    def test_jobs_invariance(self, small_ds):
        sctx1 = ShardedAnalysisContext(ShardedDatasetStore.partition(small_ds, shards=5))
        sctx1.build(jobs=1)
        sctx4 = ShardedAnalysisContext(ShardedDatasetStore.partition(small_ds, shards=5))
        sctx4.build(jobs=4)
        one = [r.render() for r in run_all(sctx1.merged(jobs=1), jobs=1)]
        four = [r.render() for r in run_all(sctx4.merged(jobs=4), jobs=4)]
        assert one == four


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the full-scale shard-merge sweep",
)
def test_full_scale_sharded_battery_byte_identical():
    scale = float(os.environ["REPRO_BENCH_SCALE"])
    ds = generate_dataset(DatasetConfig(seed=7, scale=scale))
    sctx = ShardedAnalysisContext(ShardedDatasetStore.partition(ds, shards=8))
    sctx.build(jobs=1)
    sharded = [r.render() for r in run_all(sctx.merged(), jobs=1)]
    flat = [r.render() for r in run_all(AnalysisContext(ds), jobs=1)]
    assert sharded == flat


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the full-scale shard-merge sweep",
)
def test_full_scale_remerge_extends_render_views(tmp_path):
    """A re-merge whose previous merged context ran the battery extends
    its rank windows and interval buckets exactly, and the battery over
    the re-merge renders byte for byte like the flat one."""
    scale = float(os.environ["REPRO_BENCH_SCALE"])
    ds = generate_dataset(DatasetConfig(seed=7, scale=scale))
    tail = _append_store(tmp_path / "store", ds, 8)
    sctx = ShardedAnalysisContext(ShardedDatasetStore(tmp_path / "store"))
    sctx.build(jobs=1)
    run_all(sctx.merged(), jobs=1)
    append_shard(tmp_path / "store", tail)
    assert sctx.refresh() == 1
    sctx.build(jobs=1)
    merged = sctx.merged()
    assert sctx.last_merge_stats["mode"] == "incremental"
    fresh = AnalysisContext(ds)
    held = {k for k in merged.view_keys() if k[0] in ("rank_windows", "interval_buckets")}
    assert held, "the battery on the previous merge built no render views"
    for key in held:
        _assert_view_equal(str(key), merge.view_value(merged, key), merge.view_value(fresh, key))
    remerged = [r.render() for r in run_all(merged, jobs=1)]
    assert remerged == [r.render() for r in run_all(fresh, jobs=1)]
