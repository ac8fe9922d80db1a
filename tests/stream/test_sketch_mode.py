"""Stream-layer sketch mode: bounded-memory builders and watch sessions.

Covers the two memory models documented in ``docs/STREAMING.md``:
``StreamingDataset(sketches=True)`` (exact columns *plus* a running
summary with per-epoch snapshots) and ``WatchSession(sketch=True)``
(the summary alone — no exact columns, no retained records).
"""

from __future__ import annotations

import pytest

from repro.io.jsonlio import append_attacks_jsonl
from repro.stream import StreamingDataset, WatchSession


@pytest.fixture(scope="module")
def records(tiny_ds):
    return sorted(tiny_ds.iter_attacks(), key=lambda r: r.timestamp)


class TestStreamingDatasetSketches:
    def test_disabled_by_default(self, records):
        stream = StreamingDataset()
        stream.append_batch(records[:10])
        assert stream.sketch is None
        with pytest.raises(ValueError, match="sketches"):
            stream.sketch_snapshot()

    def test_summary_tracks_appends(self, records):
        stream = StreamingDataset(sketches=True)
        stream.append_batch(records[:100])
        stream.append_batch(records[100:150])
        assert stream.sketch.n_records == 150
        assert stream.n_attacks == 150

    def test_snapshot_cached_per_epoch_and_frozen(self, records):
        stream = StreamingDataset(sketches=True)
        stream.append_batch(records[:50])
        snap = stream.sketch_snapshot()
        assert snap is stream.sketch_snapshot()  # same epoch -> same copy
        stream.append_batch(records[50:80])
        later = stream.sketch_snapshot()
        assert later is not snap
        assert snap.n_records == 50  # old snapshot unaffected
        assert later.n_records == 80

    def test_summary_matches_batch_fold(self, records, tiny_ds):
        from repro.sketch import summarize_dataset

        stream = StreamingDataset(sketches=True)
        for i in range(0, len(records), 64):
            stream.append_batch(records[i : i + 64])
        whole = summarize_dataset(tiny_ds)
        est_s, est_w = stream.sketch.estimate(), whole.estimate()
        assert est_s["n_records"] == est_w["n_records"]
        assert est_s["families"] == est_w["families"]
        assert est_s["distinct"] == est_w["distinct"]

    def test_resident_bytes_grows_with_columns(self, records):
        stream = StreamingDataset(sketches=True)
        base = stream.resident_bytes()
        assert base > 0
        stream.append_batch(records)
        assert stream.resident_bytes() >= base

    def test_rejected_batch_leaves_summary_unchanged(self, records):
        stream = StreamingDataset(sketches=True)
        stream.append_batch(records[:10])
        with pytest.raises(Exception):
            stream.append_batch([object()])
        assert stream.sketch.n_records == 10


class TestWatchSketchMode:
    def test_fold_and_render(self, records):
        session = WatchSession("never-written.jsonl", sketch=True)
        assert session.fold(records[:120]) == 120
        assert session.n_attacks == 120
        assert session.stream is None  # no exact columns in sketch mode
        text = session.render()
        assert text.startswith("Sketch summary over 120 attacks")

    def test_poll_tails_into_summary(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        session = WatchSession(path, sketch=True)
        append_attacks_jsonl(records[:25], path)
        rendered = session.poll()
        assert rendered and rendered.startswith("Sketch summary over 25 attacks")
        assert session.sketch.n_records == 25
        assert session.poll() is None  # nothing new -> no re-render
        append_attacks_jsonl(records[25:30], path)
        assert session.poll() is not None
        assert session.sketch.n_records == 30

    def test_exact_mode_unchanged(self, records):
        session = WatchSession("never.jsonl")
        session.fold(records[:5])
        assert session.sketch is None
        assert session.stream is not None
        assert session.n_attacks == 5

    def test_epoch_counts_folds(self, records):
        session = WatchSession("never.jsonl", sketch=True)
        assert session.epoch == 0
        session.fold(records[:5])
        session.fold(records[5:10])
        assert session.epoch == 2
        session.fold([])  # empty fold is not an epoch
        assert session.epoch == 2

    def test_memory_is_fixed_as_the_stream_grows(self, records):
        session = WatchSession("never.jsonl", sketch=True)
        session.fold(records)
        first = session.sketch.memory_bytes()
        for _ in range(4):
            session.fold(records)
        assert session.n_attacks == 5 * len(records)
        assert session.epoch == 5
        # The summary's resident bytes do not scale with n_attacks.
        assert session.sketch.memory_bytes() <= first * 1.25
        assert session.sketch.memory_bytes() < 32 << 10
