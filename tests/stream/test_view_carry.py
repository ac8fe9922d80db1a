"""The summary views carried across stream appends.

The Table III summary, the simultaneous-attack events, the victim
organization types and the per-family weekly shifts extend at every
in-order carry instead of rebuilding over all rows.  Hand-built streams
put the changes these views can see at a batch seam; each epoch's
carried view must equal a scratch build over the same records, key
order included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core import merge
from repro.core.context import AnalysisContext
from repro.core.durations import duration_summary
from repro.core.intervals import interval_summary, simultaneous_attacks
from repro.core.stats import RankWindows
from repro.core.targets import OrgTypeCounts
from repro.experiments.registry import battery_views
from repro.io.ingest import dataset_from_records
from repro.simulation.clock import ObservationWindow
from repro.stream import StreamingDataset

from ..core.test_kernel_parity import _record
from .test_parity import touch_views, views_equal

WINDOW = ObservationWindow(start=0, end=3 * 86400)

#: The view kinds the carry used to drop at every epoch.
SUMMARY_KINDS = {
    "target_org_counts",
    "victim_org_type_counts",
    "workload_summary",
    "simultaneous_attacks",
    "weekly_shift_pairs",
    "weekly_shift",
}


def _touch_summaries(ctx: AnalysisContext) -> None:
    ctx.target_org_counts()
    ctx.victim_org_type_counts()
    ctx.workload_summary()
    simultaneous_attacks(ctx)
    for family in ctx.dataset.families:
        ctx.weekly_shift(family)


def _assert_carried(ctx: AnalysisContext, reference: AnalysisContext, previous) -> None:
    """The summary views the ``previous`` context held were carried to
    ``ctx``, and every summary view of ``ctx`` equals ``reference``'s."""
    carried = ctx.materialized()
    _touch_summaries(reference)
    _touch_summaries(ctx)
    for key, expected in reference.materialized().items():
        if key[0] in SUMMARY_KINDS:
            assert key in carried or key not in previous, f"view {key} was not carried"
            assert views_equal(ctx.materialized()[key], expected), f"view {key} differs"


def _stream(batches, *, types: dict[str, str] | None = None):
    """Stream ``batches``, checking the carried summaries every epoch.

    ``types`` names the organization type of each organization: stream
    and scratch worlds take it as soon as the organization is interned.
    """

    def typed(world) -> None:
        for i, org in enumerate(world.organizations):
            if types and org.name in types:
                world.organizations[i] = dataclasses.replace(org, org_type=types[org.name])

    stream = StreamingDataset(window=WINDOW)
    seen = []
    previous = None
    for batch in batches:
        stream.append_batch(batch)
        seen.extend(batch)
        if previous is not None:
            # Snapshots share the stream's world, which interned the
            # batch's organizations; type them before the carry.
            typed(previous.dataset.world)
        ctx = stream.context()
        typed(ctx.dataset.world)
        scratch = dataset_from_records(seen, WINDOW)
        typed(scratch.world)
        if previous is not None:
            _assert_carried(ctx, AnalysisContext(scratch), previous.materialized())
        _touch_summaries(ctx)
        previous = ctx
    return stream


def test_in_order_epoch_drops_no_view(small_ds):
    from repro.experiments.registry import run_all

    records = list(small_ds.iter_attacks())
    # Split after every family has appeared, so the second batch brings
    # only rows of families the first epoch already built views for.
    first_seen = {}
    for i, rec in enumerate(records):
        first_seen.setdefault(rec.family, i)
    cut = max(first_seen.values()) + 1 + (len(records) - max(first_seen.values())) // 2
    stream = StreamingDataset()
    stream.append_batch(records[:cut])
    ctx = stream.context()
    ctx.prewarm()
    run_all(ctx)
    touch_views(ctx)
    invalidated = obs.registry().counter("stream.views_invalidated")
    before = invalidated.value
    stream.append_batch(records[cut:])
    new_ctx = stream.context()
    assert invalidated.value == before
    assert set(ctx.view_keys()) <= set(new_ctx.view_keys())
    # The carry leaves the prewarm only the forecasts to build.
    missing = set(battery_views(new_ctx.dataset.active_families)) - set(new_ctx.view_keys())
    assert {key[0] for key in missing} <= {"dispersion_forecast"}
    _assert_carried(
        new_ctx, AnalysisContext(dataset_from_records(records)), ctx.materialized()
    )


def test_simultaneous_event_formed_across_a_seam():
    # One alpha attack closes the first batch at t=1000; a second alpha
    # attack at t=1000 opens the next: a single-family event that no
    # batch holds on its own.
    first = [
        _record(0, botnet=1, family="alpha", target=1, start=500.0, duration=60.0),
        _record(1, botnet=2, family="alpha", target=2, start=1_000.0, duration=60.0),
    ]
    second = [
        _record(2, botnet=3, family="alpha", target=3, start=1_000.0, duration=60.0),
        _record(3, botnet=4, family="beta", target=4, start=2_000.0, duration=60.0),
    ]
    stream = _stream([first, second])
    report = simultaneous_attacks(stream.context())
    assert report.single_family_events == 1
    assert report.single_family_names == ["alpha"]
    assert report.multi_family_events == 0


def test_seam_event_turns_multi_family():
    # Alpha's only single-family event sits at the end of the first
    # batch; a beta attack at the same start joins it across the seam,
    # so alpha leaves the single-family names and the pair gains one.
    first = [
        _record(0, botnet=1, family="alpha", target=1, start=1_000.0, duration=60.0),
        _record(1, botnet=2, family="alpha", target=2, start=1_000.0, duration=60.0),
    ]
    second = [
        _record(2, botnet=3, family="beta", target=3, start=1_000.0, duration=60.0),
        _record(3, botnet=4, family="beta", target=4, start=3_000.0, duration=60.0),
        _record(4, botnet=5, family="beta", target=5, start=3_000.0, duration=60.0),
    ]
    stream = StreamingDataset(window=WINDOW)
    stream.append_batch(first)
    before = simultaneous_attacks(stream.context())
    assert before.single_family_names == ["alpha"]
    stream.append_batch(second)
    report = simultaneous_attacks(stream.context())
    reference = simultaneous_attacks(AnalysisContext(dataset_from_records(first + second, WINDOW)))
    assert views_equal(report, reference)
    assert report.single_family_names == ["beta"]
    assert report.multi_family_events == 1
    assert report.pair_counts == [(("alpha", "beta"), 1)]


def test_batch_brings_a_new_organization_type():
    def rec(i, start, org):
        return dataclasses.replace(
            _record(i, botnet=i + 1, family="alpha", target=i, start=start, duration=60.0),
            organization=org,
        )

    types = {"h1": "hosting", "i1": "isp", "h2": "hosting", "c1": "cloud"}
    batches = [
        [rec(0, 100.0, "h1"), rec(1, 200.0, "i1")],
        [rec(2, 300.0, "h2"), rec(3, 400.0, "c1"), rec(4, 500.0, "i1")],
    ]
    stream = _stream(batches, types=types)
    counts = stream.context().victim_org_type_counts()
    assert list(counts.items()) == [("hosting", 2), ("isp", 2), ("cloud", 1)]


def test_family_interned_mid_alphabet():
    batches = [
        [
            _record(0, botnet=1, family="alpha", target=1, start=100.0, duration=60.0),
            _record(1, botnet=2, family="gamma", target=1, start=100.0, duration=60.0),
            _record(2, botnet=3, family="gamma", target=2, start=200.0, duration=60.0),
        ],
        [
            # "beta" lands between the two: gamma's index moves.
            _record(3, botnet=4, family="beta", target=2, start=200.0, duration=60.0),
            _record(4, botnet=5, family="gamma", target=3, start=90_000.0, duration=60.0),
            _record(5, botnet=6, family="gamma", target=4, start=90_000.0, duration=60.0),
        ],
        [_record(6, botnet=7, family="alpha", target=5, start=180_000.0, duration=60.0)],
    ]
    stream = _stream(batches)
    ctx = stream.context()
    assert ctx.dataset.families == ["alpha", "beta", "gamma"]
    report = simultaneous_attacks(ctx)
    assert report.pair_counts == [(("alpha", "gamma"), 1), (("beta", "gamma"), 1)]
    assert report.single_family_names == ["gamma"]


def test_rank_windows_rarely_rebuild_on_an_in_order_stream():
    """A paper-like stream carries its order statistics: the windows the
    duration and interval summaries read are rebuilt from all rows on
    only a small share of epochs."""
    rng = np.random.default_rng(3)
    n, batch = 6000, 100
    starts = np.cumsum(np.round(rng.exponential(40.0, n), 0))
    durations = np.round(rng.lognormal(7.5, 1.2, n), 0) + 1.0
    records = [
        _record(i, botnet=int(rng.integers(1, 40)), family=("alpha", "beta")[i % 2],
                target=int(rng.integers(1, 400)), start=float(starts[i]),
                duration=float(durations[i]))
        for i in range(n)
    ]
    window = ObservationWindow(start=0, end=int(starts[-1]) + 86400)
    rebuilt = obs.registry().counter("context.rank_windows.rebuilt")
    before = rebuilt.value
    stream = StreamingDataset(window=window)
    epochs = 0
    for lo in range(0, n, batch):
        stream.append_batch(records[lo : lo + batch])
        ctx = stream.context()
        duration_summary(ctx)
        interval_summary(ctx)
        interval_summary(ctx, family="alpha")
        epochs += 1
    # Three series, three windows each, extended at every epoch but the first.
    share = (rebuilt.value - before) / (9 * (epochs - 1))
    assert share <= 0.05
    reference = AnalysisContext(dataset_from_records(records, window))
    assert duration_summary(ctx) == duration_summary(reference)
    assert interval_summary(ctx, family="alpha") == interval_summary(reference, family="alpha")


def _bitwise(a, b) -> bool:
    """Equal type, dtype, shape and bytes, and dict keys in the same order.

    Rank windows compare by their own equality: a carried window may keep
    a different margin around the ranks it reads than a fresh one.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, RankWindows):
        return a == b
    if isinstance(a, dict):
        extra = [(a.first_org, b.first_org)] if isinstance(a, OrgTypeCounts) else []
        return list(a) == list(b) and all(_bitwise(a[k], b[k]) for k in a) and all(
            _bitwise(x, y) for x, y in extra
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return all(
            _bitwise(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_bitwise(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def _carry_records() -> list:
    """Four families over three days; ``beta`` sorts mid-alphabet and is
    first seen two thirds of the way in.  Starts repeat (simultaneous
    events) and targets recur (scan runs) so seams cut through both;
    victims sit in three countries."""
    rng = np.random.default_rng(27)
    starts = np.sort(rng.integers(0, 3 * 86400 - 3600, 48)).astype(float)
    starts[10:13] = starts[10]
    starts[30:33] = starts[30]
    records = []
    for i, start in enumerate(starts):
        families = ("alpha", "delta", "gamma") + (("beta",) if i >= 32 else ())
        target = int(rng.integers(0, 12))
        rec = _record(i, botnet=int(rng.integers(1, 9)), family=families[i % len(families)],
                      target=target, start=float(start), duration=float(rng.integers(60, 5000)))
        records.append(dataclasses.replace(rec, country_code=("US", "DE", "BR")[target % 3]))
    records.sort(key=lambda rec: (rec.timestamp, rec.botnet_id))
    return records


CARRY_RECORDS = _carry_records()


@st.composite
def _batch_cuts(draw):
    """Batch sizes covering every record, with at least one one-row batch."""
    sizes, left = [], len(CARRY_RECORDS)
    while left:
        size = min(left, draw(st.integers(1, 12)))
        sizes.append(size)
        left -= size
    single = draw(st.integers(0, len(sizes) - 1))
    if sizes[single] > 1:
        sizes[single : single + 1] = [1, sizes[single] - 1]
    return np.cumsum([0, *sizes]).tolist()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_batch_cuts())
def test_random_batch_cuts_carry_every_view_bitwise(cuts):
    stream = StreamingDataset(window=WINDOW)
    previous = None
    for lo, hi in zip(cuts, cuts[1:]):
        stream.append_batch(CARRY_RECORDS[lo:hi])
        ctx = stream.context()
        carried = ctx.materialized()
        if previous is not None:
            expected = [k for k in battery_views(ctx.dataset.active_families) if k in previous]
            assert list(carried) == [k for k in expected if k[0] != "dispersion_forecast"]
        fresh = AnalysisContext(dataset_from_records(CARRY_RECORDS[:hi], WINDOW))
        for key, value in carried.items():
            assert _bitwise(value, merge.view_value(fresh, key)), f"{key} at rows {lo}:{hi}"
        touch_views(ctx)
        previous = ctx.materialized()
    assert stream.context().dataset.families == ["alpha", "beta", "delta", "gamma"]
