"""Tests for the append-oriented dataset builder."""

import dataclasses

import numpy as np
import pytest

from repro.stream import IngestError, StreamingDataset


@pytest.fixture(scope="module")
def records(small_ds):
    return list(small_ds.iter_attacks())


class TestAppend:
    def test_empty_append_is_noop(self):
        stream = StreamingDataset()
        assert stream.append_batch([]) == 0
        assert stream.epoch == 0
        assert stream.n_attacks == 0

    def test_epoch_bumps_per_batch(self, records):
        stream = StreamingDataset()
        stream.append_batch(records[:10])
        assert stream.epoch == 1
        stream.append_batch(records[10:20])
        assert stream.epoch == 2
        stream.append_batch([])  # no records, no epoch
        assert stream.epoch == 2

    def test_accepts_generator(self, records):
        stream = StreamingDataset()
        n = stream.append_batch(r for r in records[:25])
        assert n == 25
        assert stream.n_attacks == 25

    def test_strict_raises_with_index(self, records):
        bad = dataclasses.replace(records[3], end_time=records[3].timestamp - 5)
        stream = StreamingDataset()
        with pytest.raises(IngestError) as exc_info:
            stream.append_batch(records[:3] + [bad])
        assert exc_info.value.index == 3
        assert "record #3" in str(exc_info.value)

    def test_strict_raises_on_wrong_type(self):
        stream = StreamingDataset()
        with pytest.raises(IngestError) as exc_info:
            stream.append_batch(["not a record"])
        assert exc_info.value.index == 0

    def test_non_strict_drops(self, records):
        bad = dataclasses.replace(records[0], end_time=records[0].timestamp - 5)
        stream = StreamingDataset()
        n = stream.append_batch([bad] + records[:4], strict=False)
        assert n == 4
        assert stream.n_attacks == 4

    @pytest.mark.parametrize("field", ["timestamp", "end_time"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_is_malformed(self, records, field, value):
        bad = dataclasses.replace(records[2], **{field: value})
        stream = StreamingDataset()
        with pytest.raises(IngestError) as exc_info:
            stream.append_batch(records[:2] + [bad])
        assert exc_info.value.index == 2
        assert "not finite" in str(exc_info.value)
        assert (stream.n_attacks, stream.epoch) == (0, 0)
        # Non-strict drops the row and the rest fold and analyse.
        assert stream.append_batch(records[:2] + [bad] + records[3:6], strict=False) == 5
        ds = stream.context().dataset
        assert np.isfinite(ds.start).all() and np.isfinite(ds.end).all()
        assert stream.context().daily_distribution().counts.sum() == 5

    def test_strict_failure_leaves_stream_unchanged(self, records):
        stream = StreamingDataset()
        stream.append_batch(records[:5])
        bad = dataclasses.replace(records[9], end_time=records[9].timestamp - 5)
        with pytest.raises(IngestError):
            stream.append_batch(records[5:9] + [bad])
        assert stream.n_attacks == 5
        assert stream.epoch == 1

    def test_failing_batch_interns_nothing(self, records):
        # The family sort raises on a non-string family, after the batch's
        # new countries, cities, organizations and victims were numbered.
        stream = StreamingDataset()
        stream.append_batch(records[:10])
        before = stream.context().dataset
        world = before.world
        sizes = (len(world.countries), len(world.cities), len(world.organizations))
        fresh = [
            dataclasses.replace(
                rec, target_ip=10**9 + i, country_code="ZZ", city="Nowhere", organization="none"
            )
            for i, rec in enumerate(records[10:14])
        ]
        bad = dataclasses.replace(records[14], family=5)
        with pytest.raises(TypeError):
            stream.append_batch(fresh + [bad])
        assert stream.epoch == 1 and stream.n_attacks == 10
        assert stream.families == before.families
        assert (len(world.countries), len(world.cities), len(world.organizations)) == sizes
        assert all(c.code != "ZZ" for c in world.countries)
        # The next good batch numbers from where the good one left off.
        stream.append_batch(fresh)
        after = stream.context().dataset
        assert after.victims.n_targets == before.victims.n_targets + 4
        np.testing.assert_array_equal(
            after.victims.ip[: before.victims.n_targets], before.victims.ip
        )
        assert [c.index for c in world.countries] == list(range(len(world.countries)))
        assert world.countries[-1].code == "ZZ"


class TestSnapshots:
    def test_context_cached_per_epoch(self, records):
        stream = StreamingDataset()
        stream.append_batch(records[:50])
        ctx1 = stream.context()
        assert stream.context() is ctx1
        assert ctx1.epoch == 1
        stream.append_batch(records[50:60])
        ctx2 = stream.context()
        assert ctx2 is not ctx1
        assert ctx2.epoch == 2

    def test_context_prewarm_jobs(self, records):
        """A prewarmed epoch snapshot matches an unwarmed one, and a warm
        epoch only prewarms what the carry invalidated."""
        stream = StreamingDataset()
        stream.append_batch(records[:60])
        plain = stream.context()
        plain_keys = set(plain.view_keys())

        warmed_stream = StreamingDataset()
        warmed_stream.append_batch(records[:60])
        warmed = warmed_stream.context()
        warmed.prewarm()
        assert set(warmed.view_keys()) >= plain_keys
        assert warmed.collaborations() == plain.collaborations()

        # Next epoch: carried views are already materialised, so the
        # prewarm only fills the invalidated keys; results still match a
        # scratch build over the same records.
        warmed_stream.append_batch(records[60:80])
        ctx2 = warmed_stream.context()
        ctx2.prewarm()
        assert ctx2.epoch == 2
        scratch = StreamingDataset()
        scratch.append_batch(records[:80])
        assert ctx2.chains() == scratch.context().chains()
        assert ctx2.collaborations() == scratch.context().collaborations()
        # cached-epoch call returns the same, already-warm context
        assert warmed_stream.context() is ctx2
        assert ctx2.prewarm() == 0

    def test_old_snapshot_survives_append(self, records):
        stream = StreamingDataset()
        stream.append_batch(records[:50])
        old = stream.dataset()
        old_starts = old.start.copy()
        stream.append_batch(records[50:200])
        assert old.n_attacks == 50
        assert np.array_equal(old.start, old_starts)

    def test_snapshot_columns_readonly(self, records):
        stream = StreamingDataset()
        stream.append_batch(records[:10])
        ds = stream.dataset()
        with pytest.raises(ValueError):
            ds.start[0] = 0.0

    def test_new_family_mid_alphabet_remaps(self, records):
        # Feed families in an order that forces a mid-list insertion and
        # check the committed family indices stay consistent.
        by_family: dict[str, list] = {}
        for rec in records:
            by_family.setdefault(rec.family, []).append(rec)
        fams = sorted(by_family)
        assert len(fams) >= 3
        stream = StreamingDataset()
        stream.append_batch(by_family[fams[0]] + by_family[fams[-1]])
        stream.append_batch(by_family[fams[1]])  # inserts between them
        ds = stream.dataset()
        for i in range(ds.n_attacks):
            assert ds.attack(i).family == ds.families[ds.family_idx[i]]

    def test_out_of_order_append_resorts(self, records):
        # Reversed chronological batches: content equal to the scratch
        # build, column order still sorted by start.
        stream = StreamingDataset(window=None)
        half = len(records) // 2
        stream.append_batch(records[half:])
        stream.append_batch(records[:half])
        ds = stream.dataset()
        assert ds.n_attacks == len(records)
        assert np.all(np.diff(ds.start) >= 0)
        assert np.array_equal(
            np.sort(ds.start), np.sort(np.asarray([r.timestamp for r in records]))
        )


def test_wire_columns_fold_like_records(records):
    """A stream fed wire columns equals one fed the same records, batch
    by batch, through a new family that sorts mid-list and a late batch."""
    from repro import api
    from repro.io.jsonlio import record_to_json
    from repro.monitor.schemas import columns_of_rows

    by_family: dict[str, list] = {}
    for rec in records:
        by_family.setdefault(rec.family, []).append(rec)
    fams = sorted(by_family)
    first = by_family[fams[0]][:30] + by_family[fams[-1]][:30]
    seen = {id(rec) for rec in first}
    rest = [rec for rec in records if id(rec) not in seen]
    batches = [first] + [rest[lo : lo + 250] for lo in range(0, len(rest), 250)]
    batches.insert(2, batches.pop())  # the latest rows arrive early
    assert fams[1] not in {rec.family for rec in first}

    by_records, by_wire = StreamingDataset(), StreamingDataset()
    for batch in batches:
        by_records.append_batch(batch)
        by_wire.append_batch(columns_of_rows([record_to_json(rec) for rec in batch]))
        ours, theirs = by_wire.dataset(), by_records.dataset()
        for name in ("start", "end", "family_idx", "botnet_id", "protocol",
                     "target_idx", "magnitude", "part_offsets"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
        for name in ("ip", "lat", "lon", "country_idx", "city_idx", "org_idx", "asn"):
            assert np.array_equal(getattr(ours.victims, name), getattr(theirs.victims, name))
        assert ours.world.countries == theirs.world.countries
        assert ours.world.cities == theirs.world.cities
        assert ours.world.organizations == theirs.world.organizations
        assert (ours.families, ours.botnets, ours.window) == (
            theirs.families, theirs.botnets, theirs.window
        )
    assert by_wire.families == fams
    rendered = [
        [r.render() for r in api.run_all(stream.context())]
        for stream in (by_wire, by_records)
    ]
    assert rendered[0] == rendered[1]
