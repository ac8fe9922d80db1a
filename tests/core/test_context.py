"""Tests for the shared derived-view layer (AnalysisContext)."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.core import collaboration, consecutive, geolocation
from repro.core.context import AnalysisContext, ShardedAnalysisContext
from repro.core.collaboration import detect_collaborations
from repro.core.consecutive import detect_chains
from repro.core.geolocation import attack_dispersions
from repro.experiments.registry import run_all
from repro.io.colstore import ShardedDatasetStore


@pytest.fixture()
def ctx(small_ds):
    """A fresh, unshared context (memoization state isolated per test)."""
    return AnalysisContext(small_ds)


class TestCoercion:
    def test_of_dataset_is_shared(self, small_ds):
        assert AnalysisContext.of(small_ds) is AnalysisContext.of(small_ds)

    def test_of_context_is_identity(self, ctx):
        assert AnalysisContext.of(ctx) is ctx

    def test_constructor_is_unshared(self, small_ds):
        assert AnalysisContext(small_ds) is not AnalysisContext.of(small_ds)

    def test_rejects_non_dataset(self):
        with pytest.raises(TypeError):
            AnalysisContext("nope")
        with pytest.raises(TypeError):
            AnalysisContext.of(42)

    def test_dataset_pickle_drops_context(self, small_ds):
        AnalysisContext.of(small_ds)  # attach
        clone = pickle.loads(pickle.dumps(small_ds))
        assert "_analysis_context" not in clone.__dict__


class TestBuildOnce:
    def test_collaborations_computed_once(self, ctx, monkeypatch):
        calls = []
        real = collaboration._detect_collaborations
        monkeypatch.setattr(
            collaboration,
            "_detect_collaborations",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        first = detect_collaborations(ctx)
        second = detect_collaborations(ctx)
        assert first is second
        assert len(calls) == 1

    def test_chains_computed_once(self, ctx, monkeypatch):
        calls = []
        real = consecutive._detect_chains
        monkeypatch.setattr(
            consecutive,
            "_detect_chains",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        first = detect_chains(ctx)
        second = detect_chains(ctx)
        assert first is second
        assert len(calls) == 1

    def test_dispersions_computed_once_per_family(self, ctx, monkeypatch):
        calls = []
        real = geolocation._attack_dispersions
        monkeypatch.setattr(
            geolocation,
            "_attack_dispersions",
            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw),
        )
        family = ctx.dataset.active_families[0]
        attack_dispersions(ctx, family)
        attack_dispersions(ctx, family)
        ctx.attack_dispersions(family)
        assert calls == [family]

    def test_every_view_built_at_most_once(self, small_ds, monkeypatch):
        """Generic guarantee: no key's builder ever runs twice."""
        ctx = AnalysisContext(small_ds)
        built: list = []
        real_view = AnalysisContext.view

        def counting_view(self, key, build):
            def counting_build():
                built.append(key)
                return build()

            return real_view(self, key, counting_build)

        monkeypatch.setattr(AnalysisContext, "view", counting_view)
        for _round in range(2):
            ctx.attack_intervals()
            ctx.durations()
            ctx.target_country_counts()
            ctx.workload_summary()
            ctx.protocol_breakdown()
            ctx.daily_distribution()
            for family in ctx.dataset.active_families[:3]:
                ctx.family_attacks(family)
                ctx.family_intervals(family)
        assert len(built) == len(set(built))

    def test_concurrent_readers_build_once(self, small_ds):
        ctx = AnalysisContext(small_ds)
        builds = []
        barrier = threading.Barrier(4)

        def read():
            barrier.wait()
            return ctx.view(("probe",), lambda: builds.append(1) or object())

        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1


class TestViewsMatchScratch:
    def test_family_attacks(self, ctx):
        ds = ctx.dataset
        for family in ds.active_families:
            expected = np.flatnonzero(ds.family_idx == ds.family_id(family))
            assert np.array_equal(ctx.family_attacks(family), expected)

    def test_target_attacks(self, ctx):
        ds = ctx.dataset
        target = int(ds.target_idx[0])
        expected = np.flatnonzero(ds.target_idx == target)
        assert np.array_equal(ctx.target_attacks(target), expected)

    def test_attack_intervals(self, ctx):
        assert np.array_equal(ctx.attack_intervals(), np.diff(ctx.dataset.start))

    def test_durations(self, ctx):
        ds = ctx.dataset
        assert np.array_equal(ctx.durations(), ds.end - ds.start)
        family = ds.active_families[0]
        idx = np.flatnonzero(ds.family_idx == ds.family_id(family))
        assert np.array_equal(ctx.durations(family), (ds.end - ds.start)[idx])

    def test_target_country_counts(self, ctx):
        ds = ctx.dataset
        expected = np.unique(ds.victims.country_idx[ds.target_idx], return_counts=True)
        uniq, counts = ctx.target_country_counts()
        assert np.array_equal(uniq, expected[0])
        assert np.array_equal(counts, expected[1])

    def test_family_participants(self, ctx):
        ds = ctx.dataset
        family = ds.active_families[0]
        idx = ctx.family_attacks(family)
        offsets, flat = ctx.family_participants(family)
        assert offsets.size == idx.size + 1
        for k, i in enumerate(idx):
            assert np.array_equal(
                flat[offsets[k] : offsets[k + 1]], ds.participants_of(int(i))
            )

    def test_collaborations_match_raw_scan(self, ctx):
        raw = collaboration._detect_collaborations(
            ctx.dataset,
            collaboration.START_WINDOW_SECONDS,
            collaboration.DURATION_WINDOW_SECONDS,
        )
        assert ctx.collaborations() == raw

    def test_chains_match_raw_scan(self, ctx):
        raw = consecutive._detect_chains(
            ctx.dataset, consecutive.CHAIN_MARGIN_SECONDS, 2
        )
        assert ctx.chains() == raw


def _stable_sort_target_links(ds) -> tuple[np.ndarray, np.ndarray]:
    """``("target_links",)`` as built from a stable sort by target alone,
    before the scans and the walk shared one target order."""
    targets = ds.target_idx
    order = np.argsort(targets, kind="stable")
    same = targets[order[1:]] == targets[order[:-1]]
    prev = np.full(order.size, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    last = np.full(ds.victims.n_targets, -1, dtype=np.int64)
    if order.size:
        tails = order[np.append(~same, True)]
        last[targets[tails]] = tails
    return last, prev


def _order_keys(ctx: AnalysisContext) -> list:
    return [key for key in ctx.view_keys() if "order" in repr(key)]


class TestTargetOrder:
    """One ``(target, start)`` sort per context, held outside the views."""

    @pytest.mark.parametrize("fixture", ["tiny_ds", "small_ds"])
    def test_order_is_the_stable_target_sort(self, fixture, request):
        ds = request.getfixturevalue(fixture)
        order = AnalysisContext(ds).target_order()
        want = np.argsort(ds.target_idx, kind="stable")
        assert order.dtype == want.dtype and order.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fixture", ["tiny_ds", "small_ds"])
    def test_target_links_keep_their_bytes(self, fixture, request):
        ds = request.getfixturevalue(fixture)
        for got, want in zip(AnalysisContext(ds).target_links(), _stable_sort_target_links(ds)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_both_scans_read_the_shared_order(self, ctx, monkeypatch):
        seen = []
        for module, name in ((collaboration, "_detect_collaborations"),
                             (consecutive, "_detect_chains")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, _real=real: seen.append(a[-1]) or _real(*a)
            )
        ctx.collaborations()
        ctx.chains()
        ctx.target_links()
        assert len(seen) == 2 and all(order is ctx.target_order() for order in seen)

    def test_order_is_not_a_view(self, small_ds):
        ctx = AnalysisContext(small_ds)
        ctx.prewarm()
        list(run_all(ctx))
        n_views = ctx.n_views
        ctx.target_order()
        assert ctx.n_views == n_views
        assert _order_keys(ctx) == []
        assert all("order" not in repr(key) for key in ctx.materialized())

    def test_sharded_contexts_hold_no_order_view(self, tiny_ds):
        sctx = ShardedAnalysisContext(ShardedDatasetStore.partition(tiny_ds, shards=3))
        merged = sctx.merged()
        list(run_all(merged))
        for index in range(sctx.n_shards):
            assert _order_keys(sctx.shard_context(index)) == []
        assert _order_keys(merged) == []


class TestRunAllParity:
    def test_order_is_paper_order(self, small_ds):
        ids = [r.experiment_id for r in run_all(AnalysisContext(small_ds))]
        assert ids[0] == "table2_protocols"
        assert ids[-1] == "fig18_chains"
        assert len(ids) == 18
