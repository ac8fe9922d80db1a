"""Tests for the JSONL tailer and the watch session."""

import json

import pytest

from repro.io.jsonlio import append_attacks_jsonl, record_to_json
from repro.stream import JsonlTail, WatchSession


@pytest.fixture(scope="module")
def records(tiny_ds):
    return list(tiny_ds.iter_attacks())


class TestJsonlTail:
    def test_missing_file_yields_nothing(self, tmp_path):
        tail = JsonlTail(tmp_path / "absent.jsonl")
        assert tail.poll() == []

    def test_exactly_once(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        tail = JsonlTail(path)
        append_attacks_jsonl(records[:5], path)
        first = tail.poll()
        assert [r.ddos_id for r in first] == [r.ddos_id for r in records[:5]]
        assert tail.poll() == []  # nothing new
        append_attacks_jsonl(records[5:8], path)
        second = tail.poll()
        assert [r.ddos_id for r in second] == [r.ddos_id for r in records[5:8]]

    def test_partial_line_left_for_next_poll(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        full = json.dumps(record_to_json(records[0]))
        torn = json.dumps(record_to_json(records[1]))
        path.write_text(full + "\n" + torn[: len(torn) // 2])
        tail = JsonlTail(path)
        assert len(tail.poll()) == 1  # only the complete line
        path.write_text(full + "\n" + torn + "\n")
        assert [r.ddos_id for r in tail.poll()] == [records[1].ddos_id]

    def test_truncation_restarts(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        append_attacks_jsonl(records[:10], path)
        tail = JsonlTail(path)
        assert len(tail.poll()) == 10
        path.write_text("")  # rotation
        append_attacks_jsonl(records[10:12], path)
        assert len(tail.poll()) == 2

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            JsonlTail(path).poll()


class TestWatchSession:
    def test_poll_renders_only_on_change(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        session = WatchSession(path)
        assert session.poll() is None  # no file yet
        append_attacks_jsonl(records[:20], path)
        report = session.poll()
        assert report is not None
        assert "attacks: 20" in report
        assert session.n_attacks == 20
        assert session.epoch == 1
        assert session.poll() is None  # unchanged file, no re-render
        assert session.epoch == 1

    def test_no_reprocessing_of_seen_records(self, tmp_path, records):
        path = tmp_path / "log.jsonl"
        session = WatchSession(path)
        append_attacks_jsonl(records[:20], path)
        session.poll()
        append_attacks_jsonl(records[20:25], path)
        session.poll()
        # 20 + 5, not 20 + 25: the first batch was never re-ingested.
        assert session.n_attacks == 25

    def test_render_before_any_data(self, tmp_path):
        session = WatchSession(tmp_path / "log.jsonl")
        assert "no attacks" in session.render()
