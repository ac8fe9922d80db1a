"""The one list of the views the battery reads.

:func:`repro.experiments.registry.battery_views` decides what shard
builds, the shard merge, prewarm and the stream carry build or extend.
These tests pin it against what a battery run on a fresh context
actually reads, and check that no plane builds a view off the list or
leaves one the battery then builds itself.  The bench-scale variants
(marked ``slow``) only run when ``REPRO_BENCH_SCALE`` names a scale, as
in CI.
"""

from __future__ import annotations

import os

import pytest

from repro.core.context import AnalysisContext, ShardedAnalysisContext
from repro.datagen.config import DatasetConfig
from repro.datagen.generator import generate_dataset
from repro.experiments.registry import battery_views, run_all
from repro.io.colstore import ShardedDatasetStore
from repro.stream import StreamingDataset

needs_bench_scale = pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the bench-scale view-list checks",
)


def _bench_ds():
    return generate_dataset(DatasetConfig(seed=7, scale=float(os.environ["REPRO_BENCH_SCALE"])))


def _five_family_epoch(ds, n_rows: int = 300) -> AnalysisContext:
    """A fresh stream epoch of ``n_rows`` rows of ``ds``'s five busiest
    families, each family's first rows taken in turn."""
    ctx = AnalysisContext.of(ds)
    busiest = sorted(ds.active_families, key=lambda f: -ctx.family_attacks(f).size)[:5]
    ranked = sorted((r, i) for f in busiest for r, i in enumerate(ctx.family_attacks(f)))
    rows = sorted(i for _rank, i in ranked[:n_rows])
    records = list(ds.iter_attacks())
    stream = StreamingDataset(window=ds.window)
    stream.append_batch([records[i] for i in rows])
    epoch = stream.context()
    assert epoch.dataset.n_attacks == n_rows
    assert sorted(epoch.dataset.active_families) == sorted(busiest)
    return epoch


def _may_go_unread(ctx: AnalysisContext, key: tuple) -> bool:
    """Declared keys a battery run need not read: the scans' link probe,
    the dispersions of families Figs 9-11 skip, and forecasts that raise."""
    if key == ("target_links",):
        return True
    if key[0] == "attack_dispersions":
        return ctx.family_attacks(key[1]).size < 10
    if key[0] == "dispersion_forecast":
        with pytest.raises(ValueError):
            ctx.dispersion_forecast(key[1])
        return True
    return False


def assert_list_is_what_the_battery_reads(ctx: AnalysisContext) -> None:
    declared = battery_views(ctx.dataset.active_families)
    assert len(set(declared)) == len(declared), "a key is listed twice"
    run_all(ctx, jobs=1)
    read = set(ctx.view_keys())
    assert read - set(declared) == set(), "the battery read keys off the list"
    unread = [key for key in declared if key not in read]
    assert [key for key in unread if not _may_go_unread(ctx, key)] == []


def assert_prewarmed_epochs_build_nothing(records, window, batch: int) -> None:
    """Each prewarmed live epoch answers the battery without a view build."""
    stream = StreamingDataset(window=window)
    for lo in range(0, len(records), batch):
        stream.append_batch(records[lo : lo + batch])
        ctx = stream.context(prewarm_jobs=1)
        before = set(ctx.view_keys())
        run_all(ctx, jobs=1)
        assert set(ctx.view_keys()) - before == set(), f"epoch {stream.epoch}"


def assert_no_unread_family_views(ds) -> None:
    """Shard builds, the merge and prewarm build no per-family durations
    or daily distributions: no experiment reads them."""
    sctx = ShardedAnalysisContext(ShardedDatasetStore.partition(ds, shards=4))
    sctx.build(jobs=1)
    ctxs = [sctx.merged(), *(sctx.shard_context(k) for k in range(sctx.n_shards))]
    warm = AnalysisContext(ds)
    warm.prewarm(jobs=1)
    ctxs.append(warm)
    for ctx in ctxs:
        unread = [
            key
            for key in ctx.view_keys()
            if key[0] in ("durations", "daily_distribution") and key[1:] not in ((), (None,))
        ]
        assert unread == []


def test_list_pins_a_generated_battery(tiny_ds):
    assert_list_is_what_the_battery_reads(AnalysisContext(tiny_ds))


def test_list_pins_a_five_family_stream_epoch(small_ds):
    assert_list_is_what_the_battery_reads(_five_family_epoch(small_ds))


def test_list_orders_every_key_after_what_its_extend_reads():
    keys = battery_views(["dirtjumper", "darkshell"])
    at = {key: i for i, key in enumerate(keys)}
    assert at[("target_links",)] < min(at[("collaborations",)], at[("chains",)])
    for family in ("dirtjumper", "darkshell"):
        assert at[("weekly_shift_pairs", family)] < at[("weekly_shift", family)]
        assert at[("family_intervals", family, False)] < at[("interval_buckets", family)]
    for key in keys:
        if key[0] == "rank_windows":
            assert at[key[1]] < at[key]


def test_prewarmed_live_epochs_build_no_view(tiny_ds):
    assert_prewarmed_epochs_build_nothing(list(tiny_ds.iter_attacks()), tiny_ds.window, 100)


def test_no_plane_builds_unread_family_views(tiny_ds):
    assert_no_unread_family_views(tiny_ds)


def test_groupings_off_the_list_are_not_carried(small_ds):
    """The per-botnet and per-target groupings have no extend path: they
    are off the list, so the carry drops them and they rebuild lazily."""
    declared = {key[0] for key in battery_views(small_ds.active_families)}
    assert not declared & {"botnet_attack_index", "target_attack_index"}
    records = list(small_ds.iter_attacks())
    stream = StreamingDataset(window=small_ds.window)
    stream.append_batch(records[:500])
    old = stream.context()
    old.botnet_attacks(int(old.dataset.botnet_id[0]))
    old.target_attacks(0)
    stream.append_batch(records[500:])
    new = stream.context()
    assert not {key[0] for key in new.view_keys()} & {"botnet_attack_index", "target_attack_index"}
    botnet = int(new.dataset.botnet_id[-1])
    flat = AnalysisContext(new.dataset)
    assert (new.botnet_attacks(botnet) == flat.botnet_attacks(botnet)).all()


def test_no_plane_builds_event_objects(small_ds, monkeypatch):
    """The battery reads the scans as CSRs: a run on the flat context, the
    shard merge and every prewarmed stream epoch builds no
    ``CollabEvent`` or ``AttackChain``; the public lists still do."""
    from repro.core.collaboration import CollabEvent, detect_collaborations
    from repro.core.consecutive import AttackChain, detect_chains

    built = []
    for cls in (CollabEvent, AttackChain):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__", lambda self, *a, _init=init, **kw: built.append(1) or _init(self, *a, **kw)
        )
    flat = AnalysisContext(small_ds)
    run_all(flat, jobs=1)
    sctx = ShardedAnalysisContext(ShardedDatasetStore.partition(small_ds, shards=4))
    sctx.build(jobs=1)
    run_all(sctx.merged(), jobs=1)
    records = list(small_ds.iter_attacks())
    stream = StreamingDataset(window=small_ds.window)
    for lo in range(0, len(records), 400):
        stream.append_batch(records[lo : lo + 400])
        run_all(stream.context(prewarm_jobs=1), jobs=1)
    assert built == []
    assert len(detect_collaborations(flat)) + len(detect_chains(flat)) == len(built) > 0


def test_battery_dedupes_integers_by_sort(small_ds, monkeypatch):
    """A plain ``np.unique`` of integers takes NumPy's hash-table path,
    far slower than a sort; the battery and the generator's participant
    sampler dedupe with :func:`repro.core.stats.sorted_unique` and
    ``unique_pairs``."""
    import traceback

    import numpy as np

    from repro import api

    unique = np.unique
    hashed = []

    def guarded(ar, *args, **kwargs):
        flags = dict(zip(("return_index", "return_inverse", "return_counts"), args))
        flags.update(kwargs)
        if np.issubdtype(np.asarray(ar).dtype, np.integer) and not any(
            flags.get(k) for k in ("return_index", "return_inverse", "return_counts")
        ):
            hashed.append(traceback.extract_stack(limit=2)[0])
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", guarded)
    api.run_all(AnalysisContext(small_ds))
    generate_dataset(DatasetConfig(seed=3, scale=0.005), jobs=1)
    assert hashed == []


@pytest.mark.slow
@needs_bench_scale
def test_bench_scale_list_pins_the_battery():
    ds = _bench_ds()
    assert_list_is_what_the_battery_reads(AnalysisContext(ds))
    assert_list_is_what_the_battery_reads(_five_family_epoch(ds))


@pytest.mark.slow
@needs_bench_scale
def test_bench_scale_prewarmed_live_epochs_build_no_view():
    ds = _bench_ds()
    assert_prewarmed_epochs_build_nothing(list(ds.iter_attacks()), ds.window, 500)


@pytest.mark.slow
@needs_bench_scale
def test_bench_scale_no_plane_builds_unread_family_views():
    assert_no_unread_family_views(_bench_ds())
