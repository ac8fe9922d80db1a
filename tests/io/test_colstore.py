"""Colstore round-trips: generated and ingested datasets, mmap and buffered."""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.io import colstore
from repro.io.colstore import ColstoreError, load_dataset_npz, save_dataset_npz
from repro.io.ingest import dataset_from_records

from ..datagen.test_parallel import assert_identical


@pytest.fixture()
def archive(tiny_ds, tmp_path):
    return save_dataset_npz(tiny_ds, tmp_path / "ds.npz")


def test_round_trip_mmap(tiny_ds, archive):
    loaded = load_dataset_npz(archive)
    assert_identical(tiny_ds, loaded)
    # scalar state survives too
    assert loaded.window == tiny_ds.window
    assert loaded.families == tiny_ds.families
    assert loaded.active_families == tiny_ds.active_families
    assert loaded.world.countries == tiny_ds.world.countries
    assert loaded.world.cities == tiny_ds.world.cities
    assert loaded.world.organizations == tiny_ds.world.organizations
    # the rebuilt world serves the same per-country lookups
    c0 = tiny_ds.world.countries[0]
    assert loaded.world.cities_of(c0.index) == tiny_ds.world.cities_of(c0.index)
    assert (
        loaded.world.organizations_of(c0.index)
        == tiny_ds.world.organizations_of(c0.index)
    )


def test_round_trip_buffered(tiny_ds, archive):
    loaded = load_dataset_npz(archive, mmap=False)
    assert_identical(tiny_ds, loaded)


def test_mmap_load_is_memory_mapped(archive):
    obs.reset()
    loaded = load_dataset_npz(archive)
    assert isinstance(loaded.start, np.memmap)
    assert obs.registry().counter("colstore.loads", mmap="true").value == 1
    obs.reset()


def test_round_trip_ingested_dataset(tiny_ds, tmp_path):
    """Attack-table-only datasets (empty registries) round-trip as well."""
    ingested = dataset_from_records(tiny_ds.iter_attacks(), window=tiny_ds.window)
    path = save_dataset_npz(ingested, tmp_path / "ingested.npz")
    loaded = load_dataset_npz(path)
    assert loaded.attack_columns_equal(ingested)
    assert loaded.bots.ip.size == ingested.bots.ip.size == 0


def test_not_an_archive_raises(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not a zip archive at all")
    with pytest.raises(ColstoreError):
        load_dataset_npz(path)


def test_version_mismatch_raises(tiny_ds, tmp_path, monkeypatch):
    monkeypatch.setattr(colstore, "COLSTORE_VERSION", 999)
    path = save_dataset_npz(tiny_ds, tmp_path / "future.npz")
    monkeypatch.undo()
    with pytest.raises(ColstoreError, match="version"):
        load_dataset_npz(path)


def test_archive_members_and_meta_are_stable(tiny_ds, archive, tmp_path):
    """The flat archive holds exactly the column members plus ``__meta__``,
    and its ``__meta__`` is byte for byte a sharded store's registries'."""
    store = colstore.save_sharded_npz(tiny_ds, tmp_path / "store", shards=2)
    want = {"__meta__"}
    for prefix, names in (
        ("attacks", colstore._ATTACK_COLS),
        ("bots", colstore._BOT_COLS),
        ("victims", colstore._VICTIM_COLS),
    ):
        want |= {f"{prefix}.{name}" for name in names}
    with np.load(archive) as flat, np.load(store / "registries.npz") as regs:
        assert set(flat.files) == want
        assert bytes(flat["__meta__"]) == bytes(regs["__meta__"])


def test_truncated_archive_raises(tiny_ds, archive):
    data = archive.read_bytes()
    archive.write_bytes(data[: len(data) // 2])
    with pytest.raises(ColstoreError):
        load_dataset_npz(archive)
