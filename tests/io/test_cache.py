"""Tests for dataset caching."""

from pathlib import Path

import numpy as np
import pytest

from repro.datagen.config import DatasetConfig
from repro.io.cache import (
    config_key,
    load_context_views,
    load_dataset,
    load_or_generate,
    load_or_generate_context,
    resolve_cache_dir,
    save_context_views,
    save_dataset,
)


class TestConfigKey:
    def test_stable(self):
        assert config_key(DatasetConfig.tiny()) == config_key(DatasetConfig.tiny())

    def test_seed_sensitivity(self):
        assert config_key(DatasetConfig.tiny(seed=1)) != config_key(DatasetConfig.tiny(seed=2))

    def test_scale_sensitivity(self):
        assert config_key(DatasetConfig.tiny()) != config_key(DatasetConfig.small())


class TestSaveLoad:
    def test_roundtrip(self, tiny_ds, tmp_path):
        path = save_dataset(tiny_ds, tmp_path / "ds.pkl.gz")
        loaded = load_dataset(path)
        assert loaded.n_attacks == tiny_ds.n_attacks
        assert np.array_equal(loaded.start, tiny_ds.start)
        assert np.array_equal(loaded.participants, tiny_ds.participants)

    def test_load_missing(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "missing.pkl.gz")


class TestLoadOrGenerate:
    def test_generates_then_caches(self, tmp_path):
        config = DatasetConfig.tiny(seed=41)
        first = load_or_generate(config, tmp_path)
        files = list(tmp_path.glob("dataset-*.npz"))
        assert len(files) == 1
        second = load_or_generate(config, tmp_path)
        assert np.array_equal(first.start, second.start)

    def test_corrupt_cache_regenerated(self, tmp_path):
        config = DatasetConfig.tiny(seed=43)
        load_or_generate(config, tmp_path)
        path = next(tmp_path.glob("dataset-*.npz"))
        path.write_bytes(b"garbage")
        ds = load_or_generate(config, tmp_path)
        assert ds.n_attacks > 0


class TestCacheDirResolution:
    def test_explicit_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir() == tmp_path / "env"

    def test_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache_dir() == Path(".repro-cache")

    def test_load_or_generate_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        config = DatasetConfig.tiny(seed=47)
        load_or_generate(config)
        assert list((tmp_path / "env").glob("dataset-*.npz"))


class TestContextViewSnapshots:
    def test_roundtrip(self, tmp_path):
        config = DatasetConfig.tiny(seed=48)
        ctx = load_or_generate_context(config, tmp_path)
        ctx.attack_intervals()
        ctx.collaborations()
        save_context_views(ctx, config, tmp_path)

        warm = load_or_generate_context(config, tmp_path)
        assert warm is not ctx  # separate object, same dataset bytes
        assert warm.n_views >= 2
        assert np.array_equal(warm.attack_intervals(), ctx.attack_intervals())
        assert warm.collaborations() == ctx.collaborations()

    def test_wrong_key_rejected(self, tmp_path):
        config = DatasetConfig.tiny(seed=48)
        ctx = load_or_generate_context(config, tmp_path)
        ctx.attack_intervals()
        path = save_context_views(ctx, config, tmp_path)
        with pytest.raises(ValueError):
            load_context_views(path, "deadbeefdeadbeef")

    def test_corrupt_snapshot_discarded(self, tmp_path):
        config = DatasetConfig.tiny(seed=48)
        ctx = load_or_generate_context(config, tmp_path)
        ctx.attack_intervals()
        path = save_context_views(ctx, config, tmp_path)
        path.write_bytes(b"garbage")
        warm = load_or_generate_context(config, tmp_path)
        assert warm.n_views == 0
        assert not path.exists()

    def test_v2_snapshot_of_event_lists_is_a_miss(self, tmp_path):
        """A v2 snapshot holds the scans as event lists: it is discarded
        and the scans rebuild as CSRs, never load as lists."""
        import gzip
        import pickle

        from repro.core.collaboration import detect_collaborations
        from repro.core.scans import ScanEvents
        from repro.io.colstore import UNSHARDED_LAYOUT

        config = DatasetConfig.tiny(seed=48)
        ctx = load_or_generate_context(config, tmp_path)
        path = save_context_views(ctx, config, tmp_path)
        legacy = {("collaborations",): detect_collaborations(ctx)}
        with gzip.open(path, "wb") as fh:
            pickle.dump((2, config_key(config), UNSHARDED_LAYOUT, legacy), fh)
        with pytest.raises(ValueError, match="format v2"):
            load_context_views(path, config_key(config))
        warm = load_or_generate_context(config, tmp_path)
        assert warm.n_views == 0
        assert not path.exists()
        assert isinstance(warm.collaborations(), ScanEvents)
        assert warm.collaborations() == ctx.collaborations()

    def test_sharded_snapshot_rejected_on_flat_load(self, tmp_path):
        """Views built under a sharding never restore against the flat path."""
        from repro.core.context import ShardedAnalysisContext
        from repro.io.colstore import ShardedDatasetStore

        config = DatasetConfig.tiny(seed=48)
        ds = load_or_generate_context(config, tmp_path).dataset
        store = ShardedDatasetStore.partition(ds, shards=2)
        sctx = ShardedAnalysisContext(store)
        sctx.build(jobs=1)
        path = save_context_views(sctx.merged(), config, tmp_path, shard_layout=store.layout_key())
        with pytest.raises(ValueError, match="shard layout"):
            load_context_views(path, config_key(config))
        # load_or_generate_context treats it as a miss and discards it
        warm = load_or_generate_context(config, tmp_path)
        assert warm.n_views == 0
        assert not path.exists()

    def test_snapshot_keyed_by_shard_count_and_edges(self, tmp_path):
        from repro.core.context import ShardedAnalysisContext
        from repro.io.colstore import ShardedDatasetStore

        config = DatasetConfig.tiny(seed=48)
        ds = load_or_generate_context(config, tmp_path).dataset
        two = ShardedDatasetStore.partition(ds, shards=2)
        four = ShardedDatasetStore.partition(ds, shards=4)
        sctx = ShardedAnalysisContext(two)
        sctx.build(jobs=1)
        path = save_context_views(sctx.merged(), config, tmp_path, shard_layout=two.layout_key())
        # same layout restores; any other sharding is rejected
        assert load_context_views(path, config_key(config), two.layout_key())
        with pytest.raises(ValueError, match="shard layout"):
            load_context_views(path, config_key(config), four.layout_key())
