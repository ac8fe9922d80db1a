"""Tests for JSONL export/import."""

import pytest

from repro.errors import FormatError
from repro.io.jsonlio import export_attacks_jsonl, read_attacks_jsonl, record_to_json


class TestJsonl:
    def test_roundtrip(self, tiny_ds, tmp_path):
        path = tmp_path / "attacks.jsonl"
        n = export_attacks_jsonl(tiny_ds, path)
        records = read_attacks_jsonl(path)
        assert len(records) == n == tiny_ds.n_attacks
        mid = n // 2
        orig = tiny_ds.attack(mid)
        loaded = records[mid]
        assert loaded.botnet_id == orig.botnet_id
        assert loaded.family == orig.family
        assert loaded.target_ip == orig.target_ip
        assert loaded.end_time == pytest.approx(orig.end_time)

    def test_blank_lines_skipped(self, tiny_ds, tmp_path):
        path = tmp_path / "attacks.jsonl"
        export_attacks_jsonl(tiny_ds, path)
        content = path.read_text() + "\n\n"
        path.write_text(content)
        assert len(read_attacks_jsonl(path)) == tiny_ds.n_attacks

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            read_attacks_jsonl(path)

    @pytest.mark.parametrize(
        "bad",
        [
            "[1, 2]",
            "5",
            "null",
            lambda row: {k: v for k, v in row.items() if k != "timestamp"},
            lambda row: dict(row, timestamp="abc"),
            lambda row: dict(row, category=5),
        ],
        ids=["array", "number", "null", "missing-key", "bad-float", "bad-protocol"],
    )
    def test_malformed_row_names_its_line(self, tiny_ds, tmp_path, bad):
        import json

        row = record_to_json(tiny_ds.attack(0))
        line = bad if isinstance(bad, str) else json.dumps(bad(row))
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n\n" + line + "\n")
        with pytest.raises(FormatError, match=rf"^{path}:3: malformed row: "):
            read_attacks_jsonl(path)
