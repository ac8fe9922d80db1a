"""The collaboration and chain scans carried across stream appends.

Hand-built streams whose runs cross batch seams: each epoch's carried
scan must equal a scratch build over the same records, event for event
and in the same order.
"""

from __future__ import annotations

import os

import pytest

import repro.obs as obs
from repro.core.collaboration import detect_collaborations
from repro.core.consecutive import detect_chains
from repro.core.context import AnalysisContext
from repro.io.ingest import dataset_from_records
from repro.simulation.clock import ObservationWindow
from repro.stream import StreamingDataset

from ..core.test_kernel_parity import _record

WINDOW = ObservationWindow(start=0, end=3 * 86400)


def _scratch(records) -> AnalysisContext:
    return AnalysisContext(dataset_from_records(records, WINDOW))


def _stream_batches(batches, *, expect_carried):
    """Append ``batches`` one by one, checking both scans every epoch.

    ``expect_carried[i]`` says whether epoch ``i``'s context must arrive
    with the scans already seeded by the carry.
    """
    stream = StreamingDataset(window=WINDOW)
    seen = []
    for batch, carried in zip(batches, expect_carried):
        stream.append_batch(batch)
        seen.extend(batch)
        ctx = stream.context()
        views = ctx.materialized()
        assert (("collaborations",) in views) is carried
        assert (("chains",) in views) is carried
        reference = _scratch(seen)
        assert ctx.collaborations() == reference.collaborations()
        assert ctx.chains() == reference.chains()
    return stream


def _stitched() -> int:
    return obs.registry().counter("stream.carry.stitched_targets").value


def test_collaboration_and_chain_straddle_a_seam():
    stitched = _stitched()
    first = [
        _record(0, botnet=5, family="alpha", target=2, start=1_000.0, duration=300.0),
        _record(1, botnet=1, family="alpha", target=1, start=1_290.0, duration=600.0),
    ]
    second = [
        # Starts 10 s after row 0 ends on target 2: a chain.
        _record(2, botnet=5, family="alpha", target=2, start=1_310.0, duration=300.0),
        # 40 s after row 1 on target 1, by another botnet: a collaboration.
        _record(3, botnet=2, family="beta", target=1, start=1_330.0, duration=600.0),
        _record(4, botnet=5, family="alpha", target=2, start=1_620.0, duration=300.0),
    ]
    stream = _stream_batches([first, second], expect_carried=[False, True])
    ctx = stream.context()
    assert [e.attack_indices for e in detect_collaborations(ctx)] == [(1, 3)]
    assert [c.attack_indices for c in detect_chains(ctx)] == [(0, 2, 4)]
    assert _stitched() - stitched == 2


def test_chain_predecessor_many_batches_back():
    # A day-long attack on target 1 hands off to one that starts 30 s
    # after it ends, four batches later; the batches between never
    # touch target 1.
    long_attack = [_record(0, botnet=1, family="alpha", target=1, start=100.0, duration=86_400.0)]
    filler = [
        [_record(10 + i, botnet=2, family="beta", target=2, start=1_000.0 + 20_000.0 * i,
                 duration=60.0)]
        for i in range(4)
    ]
    handoff = [
        _record(20, botnet=3, family="alpha", target=1, start=86_530.0, duration=300.0),
        _record(21, botnet=3, family="alpha", target=1, start=86_840.0, duration=300.0),
    ]
    batches = [long_attack, *filler, handoff]
    stream = _stream_batches(batches, expect_carried=[False] + [True] * 5)
    chains = detect_chains(stream.context())
    assert [c.attack_indices for c in chains] == [(0, 5, 6)]


def test_equal_starts_across_a_seam_keep_target_order():
    # Both collaborations start at t=1000; the one on target 3 (interned
    # first, in the opening batch) sorts first although its rows arrive
    # after target 5's.
    opening = [_record(0, botnet=9, family="beta", target=3, start=100.0, duration=60.0)]
    first = [
        _record(1, botnet=1, family="alpha", target=5, start=1_000.0, duration=60.0),
        _record(2, botnet=2, family="alpha", target=5, start=1_000.0, duration=60.0),
    ]
    second = [
        _record(3, botnet=3, family="beta", target=3, start=1_000.0, duration=60.0),
        _record(4, botnet=4, family="beta", target=3, start=1_000.0, duration=60.0),
    ]
    stream = _stream_batches([opening, first, second], expect_carried=[False, True, True])
    events = detect_collaborations(stream.context())
    assert [e.target_index for e in events] == [0, 1]


def test_carry_resumes_after_an_out_of_order_batch():
    def rec(i, start, target=1, botnet=1):
        return _record(i, botnet=botnet, family="alpha", target=target, start=start,
                       duration=300.0)

    batches = [
        [rec(0, 10_000.0), rec(1, 10_310.0)],
        [rec(2, 10_620.0), rec(3, 10_650.0, botnet=2)],
        # Lands before everything so far: the stream re-sorts and the
        # next snapshot rebuilds its scans from scratch.
        [rec(4, 9_690.0), rec(5, 9_700.0, target=2), rec(6, 9_730.0, target=2, botnet=3)],
        # In order again: the carry picks up from the rebuilt scans.
        [rec(7, 10_930.0), rec(8, 10_950.0, target=2, botnet=4)],
        [rec(9, 11_240.0)],
    ]
    _stream_batches(batches, expect_carried=[False, True, False, True, True])


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the bench-scale stream carry sweep",
)
def test_bench_scale_stream_carry_matches_scratch():
    from repro import api
    from repro.datagen.config import DatasetConfig
    from repro.datagen.generator import generate_dataset

    from ..core.test_shard_merge import assert_render_views_match
    from .test_parity import views_equal
    from .test_view_carry import SUMMARY_KINDS, _touch_summaries

    scale = float(os.environ["REPRO_BENCH_SCALE"])
    ds = generate_dataset(DatasetConfig(seed=7, scale=scale))
    records = list(ds.iter_attacks())
    stream = StreamingDataset(window=ds.window)
    previous = None
    for lo in range(0, len(records), 500):
        stream.append_batch(records[lo : lo + 500])
        ctx = stream.context()
        ctx.prewarm()
        fresh = AnalysisContext(stream.dataset())
        assert ctx.collaborations() == fresh.collaborations(), f"epoch {stream.epoch}"
        assert ctx.chains() == fresh.chains(), f"epoch {stream.epoch}"
        # The summary views the carry extends (built by the first
        # epoch's prewarm, carried ever after) equal a fresh build.
        _touch_summaries(fresh)
        views = ctx.materialized()
        for key, expected in fresh.materialized().items():
            if key[0] in SUMMARY_KINDS:
                assert key in views, f"epoch {stream.epoch}: {key} not carried"
                assert views_equal(views[key], expected), f"epoch {stream.epoch}: {key}"
        # The rank windows and interval buckets the battery reads (built
        # on the first epoch, carried ever after) equal a fresh build's.
        assert_render_views_match(ctx, fresh, previous)
        previous = ctx
    scratch = dataset_from_records(records, window=ds.window)
    streamed = [r.render() for r in api.run_all(stream.context())]
    flat = [r.render() for r in api.run_all(AnalysisContext(scratch))]
    assert streamed == flat
