"""Tests for the columnar dataset container."""

import dataclasses

import numpy as np
import pytest

from repro.core.columns import ColumnStore
from repro.io.colstore import _slice_dataset, extend_dataset
from repro.monitor.schemas import Protocol


class TestAccessors:
    def test_attack_record_fields(self, tiny_ds):
        rec = tiny_ds.attack(0)
        assert rec.ddos_id == 0
        assert rec.family in tiny_ds.families
        assert isinstance(rec.category, Protocol)
        assert rec.end_time >= rec.timestamp
        assert rec.target_ip_str.count(".") == 3

    def test_attack_index_bounds(self, tiny_ds):
        with pytest.raises(IndexError):
            tiny_ds.attack(tiny_ds.n_attacks)
        with pytest.raises(IndexError):
            tiny_ds.attack(-1)

    def test_bot_record(self, tiny_ds):
        rec = tiny_ds.bot(0)
        assert rec.family in tiny_ds.families
        assert -85 <= rec.lat <= 85
        with pytest.raises(IndexError):
            tiny_ds.bot(tiny_ds.bots.n_bots)

    def test_iter_attacks_family_filter(self, tiny_ds):
        fam = tiny_ds.active_families[0]
        records = list(tiny_ds.iter_attacks(fam))
        assert len(records) == tiny_ds.attacks_of(fam).size
        assert all(r.family == fam for r in records)

    def test_family_id_roundtrip(self, tiny_ds):
        for name in tiny_ds.families:
            assert tiny_ds.family_name(tiny_ds.family_id(name)) == name
        with pytest.raises(KeyError):
            tiny_ds.family_id("nonexistent")

    def test_participant_coords_shape(self, tiny_ds):
        lats, lons = tiny_ds.participant_coords(0)
        assert lats.size == lons.size == tiny_ds.magnitude[0]

    def test_target_country_codes(self, tiny_ds):
        codes = tiny_ds.target_country_codes()
        assert codes.size == tiny_ds.n_attacks
        assert all(len(c) == 2 for c in codes[:20])


class TestSubset:
    def test_subset_preserves_rows(self, tiny_ds):
        fam = "dirtjumper"
        idx = tiny_ds.attacks_of(fam)
        sub = tiny_ds.subset(idx)
        assert sub.n_attacks == idx.size
        assert np.all(np.diff(sub.start) >= 0)
        assert np.all(sub.family_idx == tiny_ds.family_id(fam))

    def test_subset_participants_travel(self, tiny_ds):
        idx = tiny_ds.attacks_of("dirtjumper")[:5]
        sub = tiny_ds.subset(idx)
        order = np.argsort(tiny_ds.start[idx], kind="stable")
        for k, i in enumerate(idx[order]):
            assert np.array_equal(sub.participants_of(k), tiny_ds.participants_of(int(i)))

    def test_subset_shares_registries(self, tiny_ds):
        sub = tiny_ds.subset(np.arange(5))
        assert sub.bots is tiny_ds.bots
        assert sub.victims is tiny_ds.victims


class TestRowChecks:
    """An extend checks only the appended rows and the seam pair."""

    def test_out_of_order_appended_row_raises(self, tiny_ds):
        head = _slice_dataset(tiny_ds, 0, 100)
        tail = _slice_dataset(tiny_ds, 100, 200)
        start = tail.start.copy()
        start[50] = start[10]
        assert start[50] < tail.start[49]
        tail.start = start  # a part whose rows were altered after its check
        with pytest.raises(ValueError, match="sorted by start"):
            extend_dataset(ColumnStore(), head, [tail])

    def test_inverted_seam_raises(self, tiny_ds):
        head = _slice_dataset(tiny_ds, 0, 100)
        early = _slice_dataset(tiny_ds, 50, 80)
        assert early.start[0] < head.start[-1]
        with pytest.raises(ValueError, match="sorted by start"):
            extend_dataset(ColumnStore(), head, [early])

    def test_appended_end_before_start_raises(self, tiny_ds):
        head = _slice_dataset(tiny_ds, 0, 100)
        tail = _slice_dataset(tiny_ds, 100, 200)
        end = tail.end.copy()
        end[-1] = tail.start[-1] - 1.0
        tail.end = end
        with pytest.raises(ValueError, match="end precedes start"):
            extend_dataset(ColumnStore(), head, [tail])

    def test_checked_prefix_is_not_rechecked(self, tiny_ds):
        start = tiny_ds.start.copy()
        start[3] = start[4] + 1.0
        with pytest.raises(ValueError, match="sorted by start"):
            dataclasses.replace(tiny_ds, start=start)
        dataclasses.replace(tiny_ds, start=start, _checked_rows=10)
        # A 4-row checked prefix still checks its seam pair, rows 3 and 4.
        with pytest.raises(ValueError, match="sorted by start"):
            dataclasses.replace(tiny_ds, start=start, _checked_rows=4)

    def test_extend_equals_a_fresh_build(self, tiny_ds):
        n = tiny_ds.n_attacks
        parts = [_slice_dataset(tiny_ds, lo, min(lo + 60, n)) for lo in range(60, n, 60)]
        grown = extend_dataset(ColumnStore(), _slice_dataset(tiny_ds, 0, 60), parts)
        assert grown.attack_columns_equal(tiny_ds)
