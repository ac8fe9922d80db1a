"""Sharded store round-trips: partition, manifest, append and spill."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.cli import main
from repro.core.context import AnalysisContext, ShardedAnalysisContext
from repro.experiments.registry import run_all
from repro.io import colstore
from repro.io.colstore import (
    ColstoreError,
    ShardedDatasetStore,
    append_shard,
    is_sharded_store,
    save_sharded_npz,
    shard_edges,
)
from repro.stream import StreamingDataset

from ..datagen.test_parallel import assert_identical


@pytest.fixture()
def store_path(tiny_ds, tmp_path):
    return save_sharded_npz(tiny_ds, tmp_path / "store", shards=4)


class TestShardedRoundTrip:
    def test_merged_dataset_identical(self, tiny_ds, store_path):
        merged = ShardedDatasetStore(store_path).merged_dataset()
        assert_identical(tiny_ds, merged)
        assert merged.window == tiny_ds.window
        assert merged.families == tiny_ds.families

    def test_partition_matches_disk(self, tiny_ds, store_path):
        disk = ShardedDatasetStore(store_path)
        mem = ShardedDatasetStore.partition(tiny_ds, shards=4)
        assert disk.n_shards == mem.n_shards == 4
        np.testing.assert_array_equal(disk.edges, mem.edges)
        np.testing.assert_array_equal(disk._counts, mem._counts)
        for k in range(4):
            assert disk.load_shard(k).attack_columns_equal(mem.load_shard(k))

    def test_shards_keep_global_window_and_registries(self, tiny_ds, store_path):
        store = ShardedDatasetStore(store_path)
        bases = store.shard_bases()
        for k in range(store.n_shards):
            shard = store.load_shard(k)
            assert shard.window == tiny_ds.window
            assert shard.bots.ip.size == tiny_ds.bots.ip.size
            lo, hi = int(bases[k]), int(bases[k]) + shard.n_attacks
            np.testing.assert_array_equal(shard.start, tiny_ds.start[lo:hi])

    def test_manifest_contents(self, tiny_ds, store_path):
        manifest = json.loads((store_path / colstore.MANIFEST_NAME).read_text())
        assert manifest["n_shards"] == 4
        assert manifest["n_attacks"] == tiny_ds.n_attacks
        assert sum(e["n_attacks"] for e in manifest["shards"]) == tiny_ds.n_attacks
        for entry in manifest["shards"]:
            assert (store_path / entry["file"]).is_file()
            if entry["n_attacks"]:
                assert entry["t_lo"] <= entry["t_first"] <= entry["t_last"]

    def test_is_sharded_store(self, store_path, tmp_path):
        assert is_sharded_store(store_path)
        assert not is_sharded_store(tmp_path / "nowhere")
        assert not is_sharded_store(tmp_path)  # dir without a manifest

    def test_window_seconds_layout(self, tiny_ds, tmp_path):
        path = save_sharded_npz(tiny_ds, tmp_path / "by-window", window_seconds=30 * 86400)
        store = ShardedDatasetStore(path)
        want = shard_edges(tiny_ds.window, window_seconds=30 * 86400)
        np.testing.assert_array_equal(store.edges, want)
        assert_identical(tiny_ds, store.merged_dataset())


class TestMmapGauge:
    def test_gauge_tracks_mmap_engagement(self, tiny_ds, tmp_path):
        path = colstore.save_dataset_npz(tiny_ds, tmp_path / "ds.npz")
        obs.reset()
        try:
            colstore.load_dataset_npz(path)
            assert obs.registry().gauge("colstore.mmap").value == 1.0
            colstore.load_dataset_npz(path, mmap=False)
            assert obs.registry().gauge("colstore.mmap").value == 0.0
        finally:
            obs.reset()


class TestAppendShard:
    def test_appends_accumulate(self, tiny_ds, tmp_path):
        cut = tiny_ds.n_attacks // 2
        first = colstore._slice_dataset(tiny_ds, 0, cut)
        second = colstore._slice_dataset(tiny_ds, cut, tiny_ds.n_attacks)
        path = tmp_path / "grown"
        append_shard(path, first)
        append_shard(path, second)
        store = ShardedDatasetStore(path)
        assert store.n_shards == 2
        assert store.merged_dataset().attack_columns_equal(tiny_ds)

    def test_out_of_order_append_rejected(self, tiny_ds, tmp_path):
        cut = tiny_ds.n_attacks // 2
        path = tmp_path / "grown"
        append_shard(path, colstore._slice_dataset(tiny_ds, cut, tiny_ds.n_attacks))
        with pytest.raises(ValueError, match="strictly after"):
            append_shard(path, colstore._slice_dataset(tiny_ds, 0, cut))

    def test_empty_append_rejected(self, tiny_ds, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            append_shard(tmp_path / "empty", colstore._slice_dataset(tiny_ds, 0, 0))

    def test_sharded_version_skew_raises(self, tiny_ds, store_path, capsys):
        opened = ShardedDatasetStore(store_path)
        manifest_path = store_path / colstore.MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["sharded_version"] = colstore.SHARDED_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ColstoreError, match="sharded version"):
            ShardedDatasetStore(store_path)
        with pytest.raises(ColstoreError, match="sharded version"):
            opened.refresh()
        tail = colstore._slice_dataset(tiny_ds, tiny_ds.n_attacks - 1, tiny_ds.n_attacks)
        with pytest.raises(ColstoreError, match="sharded version"):
            append_shard(store_path, tail)
        assert main(["shard", "info", str(store_path)]) != 0
        assert "sharded version" in capsys.readouterr().err


class TestStreamSpill:
    def _stream(self, tiny_ds):
        s = StreamingDataset(window=tiny_ds.window)
        records = sorted(tiny_ds.iter_attacks(), key=lambda r: (r.timestamp, r.botnet_id))
        return s, records

    def test_spill_partitions_the_stream_prefix(self, tiny_ds, tmp_path):
        s, records = self._stream(tiny_ds)
        path = tmp_path / "spill"
        spilled = 0
        for lo in range(0, len(records), 50):
            s.append_batch(records[lo : lo + 50])
            spilled += s.spill_shards(path)
        assert spilled > 0
        store = ShardedDatasetStore(path)
        full = s.dataset()
        assert store.n_attacks == spilled
        merged = store.merged_dataset()
        np.testing.assert_array_equal(merged.start, full.start[:spilled])
        np.testing.assert_array_equal(merged.botnet_id, full.botnet_id[:spilled])

    def test_spill_refreshes_a_live_context(self, tiny_ds, tmp_path):
        """Each spill refreshes the context it is handed; a spill that
        interned new registry entries makes the next merge a full fold,
        and every merge renders the battery like a flat build."""

        def registries(ds):
            return (ds.window, ds.families, ds.bots.n_bots, ds.victims.ip.size,
                    len(ds.botnets))

        s, records = self._stream(tiny_ds)
        path = tmp_path / "spill"
        s.append_batch(records[:60])
        assert s.spill_shards(path) > 0
        store = ShardedDatasetStore(path)
        sctx = ShardedAnalysisContext(store)
        prev = sctx.merged().dataset
        modes = []
        for lo in range(60, len(records), 60):
            s.append_batch(records[lo : lo + 60])
            if not s.spill_shards(path, context=sctx):
                continue
            merged = sctx.merged()
            reset = registries(merged.dataset) != registries(prev)
            assert sctx.last_merge_stats["mode"] == ("full" if reset else "incremental")
            modes.append(sctx.last_merge_stats["mode"])
            got = [r.render() for r in run_all(merged)]
            want = [
                r.render() for r in run_all(AnalysisContext(store.merged_dataset()))
            ]
            assert got == want
            prev = merged.dataset
        assert "full" in modes

    def test_spill_without_new_frontier_is_noop(self, tiny_ds, tmp_path):
        s, records = self._stream(tiny_ds)
        s.append_batch(records[:80])
        path = tmp_path / "spill"
        assert s.spill_shards(path) > 0
        assert s.spill_shards(path) == 0  # frontier unchanged

    def test_empty_stream_spills_nothing(self, tiny_ds, tmp_path):
        s = StreamingDataset(window=tiny_ds.window)
        assert s.spill_shards(tmp_path / "spill") == 0
        assert not (tmp_path / "spill").exists()

    def test_late_batch_marks_spill_dirty(self, tiny_ds, tmp_path):
        s, records = self._stream(tiny_ds)
        s.append_batch(records[40:120])
        path = tmp_path / "spill"
        assert s.spill_shards(path) > 0
        s.append_batch(records[:40])  # lands before the spilled frontier
        with pytest.raises(ValueError, match="dirty"):
            s.spill_shards(path)

    def test_spilled_rows_counter(self, tiny_ds, tmp_path):
        obs.reset()
        try:
            s, records = self._stream(tiny_ds)
            s.append_batch(records[:100])
            spilled = s.spill_shards(tmp_path / "spill")
            assert obs.registry().counter("stream.spilled_rows").value == spilled
        finally:
            obs.reset()
