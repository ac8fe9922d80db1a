"""Tests for dataset caching."""

from pathlib import Path

import numpy as np

from repro.datagen.config import DatasetConfig
from repro.io.cache import config_key, load_or_generate, resolve_cache_dir


class TestConfigKey:
    def test_stable(self):
        assert config_key(DatasetConfig.tiny()) == config_key(DatasetConfig.tiny())

    def test_seed_sensitivity(self):
        assert config_key(DatasetConfig.tiny(seed=1)) != config_key(DatasetConfig.tiny(seed=2))

    def test_scale_sensitivity(self):
        assert config_key(DatasetConfig.tiny()) != config_key(DatasetConfig.small())


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
