"""Tests for CSV schema export/import."""

import pytest

from repro.errors import FormatError
from repro.io.csvio import (
    ATTACK_FIELDS,
    export_attacks_csv,
    export_botlist_csv,
    export_botnetlist_csv,
    read_attacks_csv,
)


class TestAttacksCsv:
    def test_roundtrip(self, tiny_ds, tmp_path):
        path = tmp_path / "attacks.csv"
        n = export_attacks_csv(tiny_ds, path)
        assert n == tiny_ds.n_attacks
        records = read_attacks_csv(path)
        assert len(records) == n
        first = records[0]
        orig = tiny_ds.attack(0)
        assert first.ddos_id == orig.ddos_id
        assert first.botnet_id == orig.botnet_id
        assert first.category == orig.category
        assert first.target_ip == orig.target_ip
        assert first.timestamp == pytest.approx(orig.timestamp, abs=0.01)
        assert first.magnitude == orig.magnitude

    def test_header(self, tiny_ds, tmp_path):
        path = tmp_path / "attacks.csv"
        export_attacks_csv(tiny_ds, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ATTACK_FIELDS

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ddos_id,botnet_id\n1,2\n")
        with pytest.raises(ValueError):
            read_attacks_csv(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cells: cells[:3],
            lambda cells: [*cells[:5], "abc", *cells[6:]],
            lambda cells: [*cells[:-1], "x"],
        ],
        ids=["short-row", "bad-timestamp", "bad-magnitude"],
    )
    def test_malformed_row_names_its_line(self, tiny_ds, tmp_path, edit):
        path = tmp_path / "attacks.csv"
        export_attacks_csv(tiny_ds, path)
        header, first, second, *_ = path.read_text().splitlines()
        assert header.split(",")[5] == "timestamp"
        path.write_text("\n".join([header, first, ",".join(edit(second.split(",")))]) + "\n")
        with pytest.raises(FormatError, match=rf"^{path}:3: malformed row: "):
            read_attacks_csv(path)


class TestOtherSchemas:
    def test_botlist_limit(self, tiny_ds, tmp_path):
        path = tmp_path / "bots.csv"
        n = export_botlist_csv(tiny_ds, path, limit=50)
        assert n == 50
        assert len(path.read_text().splitlines()) == 51

    def test_botlist_full(self, tiny_ds, tmp_path):
        path = tmp_path / "bots.csv"
        n = export_botlist_csv(tiny_ds, path)
        assert n == tiny_ds.bots.n_bots

    def test_botnetlist(self, tiny_ds, tmp_path):
        path = tmp_path / "botnets.csv"
        n = export_botnetlist_csv(tiny_ds, path)
        assert n == len(tiny_ds.botnets)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("botnet_id,family")
