"""Tests for the shared derived-view layer (AnalysisContext)."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.core import collaboration, consecutive, geolocation
from repro.core.context import AnalysisContext
from repro.core.collaboration import detect_collaborations
from repro.core.consecutive import detect_chains
from repro.core.geolocation import attack_dispersions
from repro.experiments.registry import run_all


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


class TestRunAllParity:
    def test_order_is_paper_order(self, small_ds):
        ids = [r.experiment_id for r in run_all(AnalysisContext(small_ds))]
        assert ids[0] == "table2_protocols"
        assert ids[-1] == "fig18_chains"
        assert len(ids) == 18
