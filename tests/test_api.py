"""Tests for the stable ``repro.api`` facade."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this tree's repro."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return out.stdout


def test_importing_the_facade_and_cli_loads_no_scipy():
    """scipy loads on first use (an ARIMA fit or a Ljung-Box p-value),
    so a subcommand that fits nothing never pays for importing it."""
    code = (
        "import sys, repro.api, repro.cli, repro.serve; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(code).strip() == "[]"


def test_a_battery_that_fits_table_iv_loads_no_scipy_signal():
    """Table IV's ARIMA filter is scipy's C routine loaded from its own
    extension file, so a battery that fits it loads neither the
    ``scipy.signal`` package nor the ``optimize`` and ``stats`` packages
    that it imports; the package route, as in the loader's fallback,
    would load all three."""
    code = (
        "import sys\n"
        "from repro import api\n"
        "from repro.datagen.config import DatasetConfig\n"
        "from repro.datagen.generator import generate_dataset\n"
        "ds = generate_dataset(DatasetConfig.tiny(seed=7))\n"
        "results = api.run_all(api.context(ds))\n"
        "table4 = next(r for r in results if r.experiment_id == 'table4_prediction')\n"
        "print(sum(row.label.endswith('cosine similarity') for row in table4.rows))\n"
        "print(sorted(m for m in ('scipy.signal', 'scipy.optimize', 'scipy.stats')\n"
        "             if m in sys.modules))\n"
    )
    fitted, loaded = _fresh_python(code).splitlines()
    assert int(fitted) > 0
    assert loaded == "[]"


class TestFacade:
    def test_reexported_from_package_root(self):
        import repro

        assert repro.api is api

    def test_generate_without_cache(self, tiny_config):
        ds = api.generate(config=tiny_config, cache=False)
        assert ds.n_attacks > 0

    def test_generate_uses_cache(self, tiny_config, tmp_path):
        ds1 = api.generate(config=tiny_config, cache_dir=tmp_path)
        ds2 = api.generate(config=tiny_config, cache_dir=tmp_path)
        assert np.array_equal(ds1.start, ds2.start)
        assert any(p.name.startswith("dataset-") for p in tmp_path.iterdir())

    def test_context_is_shared(self, tiny_ds):
        assert api.context(tiny_ds) is api.context(tiny_ds)

    def test_ingest_roundtrip(self, tiny_ds):
        ds = api.ingest(tiny_ds.iter_attacks(), window=tiny_ds.window)
        assert ds.attack_columns_equal is not None
        assert ds.n_attacks == tiny_ds.n_attacks

    def test_stream_builder(self, tiny_ds):
        stream = api.stream(window=tiny_ds.window)
        stream.append_batch(list(tiny_ds.iter_attacks()))
        assert stream.n_attacks == tiny_ds.n_attacks

    def test_run_all_smoke(self, tiny_ds):
        results = list(api.run_all(api.context(tiny_ds)))
        assert len(results) > 0
        assert all(hasattr(r, "render") for r in results)


class TestLoad:
    def test_load_jsonl(self, tiny_ds, tmp_path):
        from repro.io.jsonlio import export_attacks_jsonl

        path = tmp_path / "attacks.jsonl"
        export_attacks_jsonl(tiny_ds, path)
        ds = api.load(path)
        assert ds.n_attacks == tiny_ds.n_attacks

    def test_load_csv(self, tiny_ds, tmp_path):
        from repro.io.csvio import export_attacks_csv

        path = tmp_path / "attacks.csv"
        export_attacks_csv(tiny_ds, path)
        ds = api.load(path)
        assert ds.n_attacks == tiny_ds.n_attacks

    def test_load_npz(self, tiny_ds, tmp_path):
        from repro.io.colstore import save_dataset_npz

        path = tmp_path / "ds.npz"
        save_dataset_npz(tiny_ds, path)
        ds = api.load(path)
        assert ds.n_attacks == tiny_ds.n_attacks
        assert ds.bots.n_bots == tiny_ds.bots.n_bots  # full round-trip

    def test_load_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError, match="cannot infer format"):
            api.load(tmp_path / "data.xml")

    def test_watch_factory(self, tmp_path):
        session = api.watch(tmp_path / "log.jsonl")
        assert session.poll() is None


class TestShardedDispatch:
    def test_load_with_shards_partitions(self, tiny_ds, tmp_path):
        from repro.io.colstore import ShardedDatasetStore, save_dataset_npz

        path = save_dataset_npz(tiny_ds, tmp_path / "flat.npz")
        store = api.load(path, shards=3)
        assert isinstance(store, ShardedDatasetStore)
        assert store.n_shards == 3

    def test_load_sharded_store_directory(self, tiny_ds, tmp_path):
        from repro.io.colstore import ShardedDatasetStore, save_sharded_npz

        path = save_sharded_npz(tiny_ds, tmp_path / "store", shards=2)
        store = api.load(path)
        assert isinstance(store, ShardedDatasetStore)
        assert store.n_attacks == tiny_ds.n_attacks

    def test_load_store_with_shards_rejected(self, tiny_ds, tmp_path):
        from repro.io.colstore import save_sharded_npz

        path = save_sharded_npz(tiny_ds, tmp_path / "store", shards=2)
        with pytest.raises(ValueError, match="already a sharded store"):
            api.load(path, shards=4)

    def test_context_wraps_store(self, tiny_ds, tmp_path):
        from repro.core.context import ShardedAnalysisContext
        from repro.io.colstore import ShardedDatasetStore

        store = ShardedDatasetStore.partition(tiny_ds, shards=2)
        sctx = api.context(store)
        assert isinstance(sctx, ShardedAnalysisContext)
        assert api.context(sctx) is sctx

    def test_run_all_map_reduce_smoke(self, tiny_ds):
        from repro.io.colstore import ShardedDatasetStore

        store = ShardedDatasetStore.partition(tiny_ds, shards=2)
        sharded = [r.render() for r in api.run_all(api.context(store))]
        flat = [r.render() for r in api.run_all(api.context(tiny_ds))]
        assert sharded == flat


class TestOpen:
    """``api.open`` unifies the load / stream / generate dispatch."""

    def test_open_nothing_starts_a_stream(self):
        from repro.stream import StreamingDataset

        stream = api.open()
        assert isinstance(stream, StreamingDataset)
        assert stream.n_attacks == 0

    def test_open_config_generates(self, tiny_config, tiny_ds):
        ds = api.open(tiny_config)
        assert ds.n_attacks == tiny_ds.n_attacks

    def test_open_path_loads(self, tiny_ds, tmp_path):
        from repro.io.jsonlio import export_attacks_jsonl

        path = tmp_path / "attacks.jsonl"
        export_attacks_jsonl(tiny_ds, path)
        assert api.open(path).n_attacks == tiny_ds.n_attacks

    def test_open_dataset_is_identity(self, tiny_ds):
        assert api.open(tiny_ds) is tiny_ds

    def test_open_dataset_with_shards_partitions(self, tiny_ds):
        from repro.io.colstore import ShardedDatasetStore

        store = api.open(tiny_ds, shards=2)
        assert isinstance(store, ShardedDatasetStore)
        assert store.n_shards == 2

    def test_open_store_passthrough_and_reshard_conflict(self, tiny_ds, tmp_path):
        from repro.errors import ShardLayoutError
        from repro.io.colstore import save_sharded_npz

        store = api.load(save_sharded_npz(tiny_ds, tmp_path / "store", shards=2))
        assert api.open(store) is store
        with pytest.raises(ShardLayoutError):
            api.open(store, shards=4)

    def test_open_nothing_with_shards_rejected(self):
        from repro.errors import ShardLayoutError

        with pytest.raises(ShardLayoutError):
            api.open(shards=2)

    def test_open_garbage_rejected(self):
        from repro.errors import FormatError

        with pytest.raises(FormatError):
            api.open(object())


class TestSurface:
    """The documented facade surface: version, alias, doc coverage."""

    def test_api_version_is_a_string(self):
        major, minor = api.__version__.split(".")
        assert int(major) >= 2

    def test_loaded_data_alias_members(self):
        from typing import get_args

        from repro.io.colstore import ShardedDatasetStore

        assert set(get_args(api.LoadedData)) == {
            api.AttackDataset,
            ShardedDatasetStore,
        }

    def test_errors_reachable_from_facade(self):
        from repro import errors

        assert api.ReproError is errors.ReproError
        assert api.FormatError is errors.FormatError
        assert api.ShardLayoutError is errors.ShardLayoutError
        assert api.IngestError is errors.IngestError

    def test_keyword_only_signatures(self):
        """Everything after the first positional argument is keyword-only."""
        import inspect

        for name in ("generate", "open", "load", "ingest", "stream", "watch",
                     "run_all", "serve"):
            func = getattr(api, name)
            params = list(inspect.signature(func).parameters.values())
            for param in params[1:]:
                assert param.kind in (
                    inspect.Parameter.KEYWORD_ONLY,
                    inspect.Parameter.VAR_KEYWORD,
                ), f"api.{name} parameter {param.name!r} is not keyword-only"

    def test_api_md_documents_every_export(self):
        from pathlib import Path

        doc = Path(__file__).resolve().parent.parent / "docs" / "API.md"
        text = doc.read_text()
        for name in api.__all__:
            assert f"api.{name}" in text, (
                f"docs/API.md is missing the facade export {name!r}"
            )
