"""Direct tests of the extend rules for the summary views.

The extend step's rules (:class:`repro.core.merge._Fold`) grow the
Table III summary, the simultaneous-attack events, the organization
types and the weekly shifts from a left operand plus new rows.  Streams carry no Botlist, so
the stream parity tests never see two (week, bot) pair tables meet at a
seam; here a generated dataset with participants is split inside a week
and every rule's result is compared with a flat build over all rows,
dtypes and key order included.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import merge, targets
from repro.core.columns import ColumnStore
from repro.core.context import AnalysisContext
from repro.core.intervals import simultaneous_attacks
from repro.io.colstore import _slice_dataset
from repro.simulation.clock import ObservationWindow

from .test_kernel_parity import (
    assert_family_views_match_reference,
    extend_one,
    thin_participants,
)
from .test_shard_merge import _assert_view_equal, render_view_keys

WEEK = 7 * 86400


def _split(ds, cut: int, prev_ds=None):
    """(left operand over rows ``[0, cut)``, right part, context being built)."""
    prev = AnalysisContext(_slice_dataset(prev_ds or ds, 0, cut))
    part = AnalysisContext(_slice_dataset(ds, cut, ds.n_attacks))
    ctx = AnalysisContext(ds)
    ctx._columns = ColumnStore()
    return prev, part, ctx


def _week_cut(ds) -> int:
    """A row in the middle of the dataset whose week continues past it."""
    weeks = (ds.start - ds.window.start) // WEEK
    cut = ds.n_attacks // 2
    while weeks[cut - 1] != weeks[cut]:
        cut += 1
    return cut


def test_weekly_pairs_meet_inside_a_week(small_ds):
    ds = small_ds
    cut = _week_cut(ds)
    seam_week = int((ds.start[cut] - ds.window.start) // WEEK)
    prev, part, ctx = _split(ds, cut)
    flat = AnalysisContext(ds)
    shared = 0
    for family in ds.active_families:
        in_prev = prev.family_attacks(family).size > 0
        key = ("weekly_shift_pairs", family)
        old = prev.weekly_shift_pairs(family) if in_prev else None
        pairs = extend_one(key, old, prev, [part], ctx)
        _assert_view_equal(str(key), pairs, flat.weekly_shift_pairs(family))
        ctx.seed_view(key, pairs)
        if in_prev and part.family_attacks(family).size:
            left = {(w, b) for w, b in zip(*old[1:]) if w == seam_week}
            right = {(w, b) for w, b in zip(*part.weekly_shift_pairs(family)[1:])}
            shared += len(left & right)
        key = ("weekly_shift", family)
        old = prev.weekly_shift(family) if in_prev else None
        shift = extend_one(key, old, prev, [part], ctx)
        _assert_view_equal(str(key), shift, flat.weekly_shift(family))
    # The seam week's pairs on both sides overlap, so the merge deduped.
    assert shared > 0


def test_weekly_rules_rebuild_when_the_window_start_moves(small_ds):
    ds = small_ds
    cut = _week_cut(ds)
    earlier = ObservationWindow(start=ds.window.start - WEEK, end=ds.window.end)
    prev, part, ctx = _split(ds, cut, dataclasses.replace(ds, window=earlier))
    flat = AnalysisContext(ds)
    family = ds.family_name(int(ds.family_idx[0]))
    for head in ("weekly_shift_pairs", "weekly_shift"):
        key = (head, family)
        old = merge.view_value(prev, key)
        value = extend_one(key, old, prev, [part], ctx)
        _assert_view_equal(str(key), value, merge.view_value(flat, key))
        ctx.seed_view(key, value)


@pytest.mark.parametrize("cut", [1, 137, 500, -1])
def test_summary_rules_match_the_flat_build(small_ds, cut):
    ds = small_ds
    cut = cut % ds.n_attacks
    prev, part, ctx = _split(ds, cut)
    flat = AnalysisContext(ds)
    for key in (("target_org_counts",), ("victim_org_type_counts",), ("workload_summary",)):
        got = extend_one(key, merge.view_value(prev, key), prev, [part], ctx)
        _assert_view_equal(str(key), got, merge.view_value(flat, key))
    got = extend_one(
        ("simultaneous_attacks",), simultaneous_attacks(prev), prev, [part], ctx
    )
    _assert_view_equal("simultaneous_attacks", got, simultaneous_attacks(flat))


@pytest.mark.parametrize("cut", [1, 2, 137, 500, -1])
def test_render_rules_match_the_flat_build(small_ds, cut):
    """Rank windows and interval buckets extended from a left operand equal
    a flat build, and each window holds exactly its sorted ranks."""
    ds = small_ds
    cut = cut % ds.n_attacks
    prev, part, ctx = _split(ds, cut)
    flat = AnalysisContext(ds)
    for key in render_view_keys(ds):
        got = extend_one(key, merge.view_value(prev, key), prev, [part], ctx)
        _assert_view_equal(str(key), got, merge.view_value(flat, key))
        if key[0] == "rank_windows":
            ordered = np.sort(merge.view_value(flat, key[1]))
            for lo, w in got.windows:
                np.testing.assert_array_equal(w, ordered[lo : lo + w.size])


def test_render_rules_for_a_family_first_seen_in_the_batch(small_ds):
    ds = small_ds
    # The family whose first attack comes last, and a cut just before it.
    first = {
        f: int(np.flatnonzero(ds.family_idx == ds.family_id(f))[0])
        for f in ds.active_families
    }
    family, cut = max(first.items(), key=lambda kv: kv[1])
    assert cut > 0
    prev, part, ctx = _split(ds, cut)
    flat = AnalysisContext(ds)
    assert prev.family_attacks(family).size == 0
    for key in (
        ("rank_windows", ("durations", family)),
        ("rank_windows", ("family_intervals", family, True)),
        ("interval_buckets", family),
    ):
        old = merge.view_value(prev, key)
        assert (old.n if key[0] == "rank_windows" else old.sum()) == 0
        got = extend_one(key, old, prev, [part], ctx)
        _assert_view_equal(str(key), got, merge.view_value(flat, key))
        # ... and from no left value at all, as a re-merge passes it.
        got = extend_one(key, None, prev, [part], ctx)
        _assert_view_equal(f"{key} from None", got, merge.view_value(flat, key))


def test_org_types_reorder_when_a_type_gains_an_earlier_organization():
    world = SimpleNamespace(
        organizations=[SimpleNamespace(org_type=t) for t in ("hosting", "isp", "hosting")]
    )
    before = targets._org_type_counts(world, [(np.array([1, 2]), np.array([3, 4]))])
    assert list(before.items()) == [("isp", 3), ("hosting", 4)]
    # Organization 0 is hosting's first now, ahead of isp's organization 1.
    after = targets._org_type_counts(world, [(np.array([0, 1]), np.array([1, 1]))], before)
    flat = targets._org_type_counts(world, [(np.array([0, 1, 2]), np.array([1, 4, 4]))])
    assert list(after.items()) == list(flat.items()) == [("hosting", 5), ("isp", 4)]
    assert after.first_org == flat.first_org == {"hosting": 0, "isp": 1}


def test_busiest_day_top_family_at_a_day_boundary():
    """The busiest day's top family comes from that day's rows only, found
    by ``searchsorted``: rows one second either side of the day's edges
    would flip it, so the result must equal the full-column pass."""
    from repro.io.ingest import dataset_from_records
    from repro.stream import StreamingDataset

    from .test_kernel_parity import _record

    day = 86400.0
    plan = [("alpha", day - 1), ("alpha", day - 1), ("beta", day), ("beta", day),
            ("alpha", 2 * day - 1), ("alpha", 2 * day), ("alpha", 2 * day + 1)]
    records = [
        _record(i, botnet=i + 1, family=family, target=i, start=start, duration=5.0)
        for i, (family, start) in enumerate(plan)
    ]
    window = ObservationWindow(start=0, end=4 * 86400)
    ds = dataset_from_records(records, window)
    flat = AnalysisContext(ds).daily_distribution()
    assert (flat.max_day_index, flat.max_day_top_family) == (1, "beta")
    _assert_view_equal("finish", merge.finish_daily_distribution(flat.counts, ds, None), flat)
    # Carried across a cut on each side of the busiest day.
    for cut in (2, 5):
        stream = StreamingDataset(window=window)
        stream.append_batch(records[:cut])
        stream.context().daily_distribution()
        stream.append_batch(records[cut:])
        _assert_view_equal(f"carry at {cut}", stream.context().daily_distribution(), flat)


@pytest.mark.parametrize("cut", [1, 137, -1])
def test_family_views_match_the_per_family_reference(small_ds, cut):
    """The family views sliced from one all-families pass equal the
    per-family builds they replaced, dtypes included: on the rows from
    ``cut`` on (``-1`` leaves one family with one row), for the families
    without a row there, and with participant lists that mix empty and
    full ones."""
    for ds in (small_ds, thin_participants(small_ds)):
        part = _slice_dataset(ds, cut % ds.n_attacks, ds.n_attacks)
        sizes = assert_family_views_match_reference(part)
        assert 0 in sizes
        if cut == -1:
            assert max(sizes) == 1


@pytest.mark.parametrize("run", [1, 5, 64])
def test_family_pass_gathers_in_short_runs(tiny_ds, run, monkeypatch):
    """The family pass gathers its CSR in runs of whole segments; runs of
    a few participations, with empty lists among the segments, give the
    same views as the per-family reference."""
    from repro.core import geolocation

    monkeypatch.setattr(geolocation, "_RUN_PARTICIPATIONS", run)
    for ds in (tiny_ds, thin_participants(tiny_ds)):
        assert_family_views_match_reference(ds)
