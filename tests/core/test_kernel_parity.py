"""Parity tests pinning the sweep-line kernels to their reference scans.

The vectorized kernels in ``core.collaboration``, ``core.consecutive``,
``core.shift``, ``core.geolocation`` and ``core.targets`` (the scans,
Figs 16 and 18's per-event and per-chain passes among them) replaced
straightforward Python
loops; the originals are kept in ``tests/oracles/kernels.py`` and these
tests pin the two implementations equal — exactly for the integer/tuple
kernels, ``allclose`` only for the per-snapshot dispersion loop (its
float summation order differs) — across randomized datasets and the
boundary cases the window arithmetic is most likely to get wrong.  The
per-attack dispersion kernel is pinned byte for byte to its form before
the per-bot trigonometry moved into the bot geo matrix, and the family
views the accessors slice from one all-families pass bitwise to the
per-family builds they replaced.

The dispersion kernel's runs are pinned the same way with the run size
cut to a few participations, and its ``np.mod``-free sign at the wrap
points.  The weekly pairs' per-week bitmap is pinned to ``unique_pairs``
on random layouts.  The collaboration sweep that skips runs of one row,
and both scans over a context's shared target order, are pinned to the
reference loops on layouts built from the shapes the pruning must not
misread, and Fig 3's simultaneous-start tally, which skips untied rows,
to a loop over start-time groups.  The bench-scale pins, the full-scale sweep and the
battery's heap guard (marked ``slow``) only run when
``REPRO_BENCH_SCALE`` names a scale, as in the CI parity step.
"""

from __future__ import annotations

import dataclasses
import os
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import geolocation as geo
from repro.core import merge
from repro.core.collaboration import (
    DURATION_WINDOW_SECONDS,
    START_WINDOW_SECONDS,
    _detect_collaborations,
    collab_events,
    detect_collaborations,
    pair_analysis,
)
from repro.core.consecutive import (
    CHAIN_MARGIN_SECONDS,
    _detect_chains,
    attack_chains,
    chain_magnitude_spread,
    chain_timeline,
    detect_chains,
)
from repro.core.context import AnalysisContext, ShardedAnalysisContext
from repro.core.intervals import _simultaneous_tally
from repro.core.scans import ScanEvents
from repro.core.shift import _weekly_pairs, _weekly_shift
from repro.core.targets import organization_affinity
from repro.datagen.config import DatasetConfig
from repro.datagen.generator import generate_dataset
from repro.geo.haversine import dispersion_km
from repro.io.colstore import ShardedDatasetStore, _slice_dataset
from repro.io.ingest import dataset_from_records
from repro.monitor.schemas import DDoSAttackRecord, Protocol
from repro.simulation.clock import ObservationWindow, to_datetime
from repro.stream import StreamingDataset

from ..oracles.kernels import (
    REFERENCE_FAMILY_VIEWS,
    reference_chain_timeline,
    reference_detect_chains,
    reference_detect_collaborations,
    reference_organization_affinity,
    reference_pair_analysis,
    reference_segment_centers,
    reference_segment_dispersions,
    reference_segment_dispersions_of,
    reference_simultaneous_tally,
    reference_snapshot_dispersions,
    reference_stable_chain_count,
    reference_weekly_pairs,
    reference_weekly_shift,
)

RANDOM_SEEDS = [11, 23, 47, 101]


def extend_one(key, old, prev, parts, ctx):
    """View ``key`` extended from ``prev``'s value ``old`` by ``parts``
    into ``ctx``: the extend step's rule for one key, in a fold of its
    own."""
    return merge._Fold(prev, parts, ctx).extend(key, old)


def assert_family_views_match_reference(ds) -> list[int]:
    """Every family's five family view kinds, on a fresh context and on a
    fold's part, equal the per-family reference build, dtypes included.
    Returns each family's row count."""
    from .test_shard_merge import _assert_view_equal

    ref = AnalysisContext(ds)
    ctxs = (AnalysisContext(ds), merge._Part(AnalysisContext(ds)))
    for family in ds.families:
        for key in (
            ("family_starts", family),
            ("family_intervals", family, True),
            ("family_intervals", family, False),
            ("family_participants", family),
            ("family_target_country_counts", family),
            ("weekly_shift_pairs", family),
        ):
            want = REFERENCE_FAMILY_VIEWS[key[0]](ref, *key[1:])
            for ctx in ctxs:
                _assert_view_equal(f"{type(ctx).__name__} {key}", merge.view_value(ctx, key), want)
    return [ref.family_attacks(f).size for f in ds.families]


def thin_participants(ds, every: int = 3):
    """``ds`` with the participant lists of every ``every``-th attack,
    and of the last one, emptied."""
    counts = np.diff(ds.part_offsets)
    keep = np.arange(ds.n_attacks) % every != 0
    keep[-1] = False
    offsets = np.zeros_like(ds.part_offsets)
    np.cumsum(np.where(keep, counts, 0), out=offsets[1:])
    return dataclasses.replace(
        ds, part_offsets=offsets, participants=ds.participants[np.repeat(keep, counts)]
    )


def _record(
    i: int,
    *,
    botnet: int,
    family: str,
    target: int,
    start: float,
    duration: float,
) -> DDoSAttackRecord:
    return DDoSAttackRecord(
        ddos_id=i,
        botnet_id=botnet,
        family=family,
        category=Protocol.TCP,
        target_ip=target,
        timestamp=start,
        end_time=start + duration,
        asn=64500 + target % 7,
        country_code="US",
        city="Testville",
        organization="org",
        lat=0.0,
        lon=0.0,
        magnitude=3,
    )


def _random_attack_table(seed: int):
    """A dense random attack table: few targets, clustered starts.

    Small target and botnet pools plus exponential start gaps around the
    60 s windows make candidate runs, duplicate botnets, and margin-edge
    gaps all common, so the kernels' branchy paths are actually hit.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 160))
    t = 0.0
    records = []
    for i in range(n):
        t += float(rng.exponential(45.0))
        records.append(
            _record(
                i,
                botnet=int(rng.integers(1, 6)),
                family=str(rng.choice(["alpha", "beta", "gamma"])),
                target=int(rng.integers(1, 5)),
                start=t,
                duration=float(rng.exponential(1200.0)) + 1.0,
            )
        )
    return dataset_from_records(records)


def _assert_shift_equal(got, ref):
    assert got.family == ref.family
    np.testing.assert_array_equal(got.weeks, ref.weeks)
    np.testing.assert_array_equal(got.bots_existing, ref.bots_existing)
    np.testing.assert_array_equal(got.bots_new, ref.bots_new)
    np.testing.assert_array_equal(got.new_countries, ref.new_countries)


def _collabs(ds, start_window: float, duration_window: float):
    """The columnar collaboration scan as a list of events."""
    return collab_events(ds, _detect_collaborations(ds, start_window, duration_window))


def _chains(ds, margin: float, min_length: int):
    """The columnar chain scan as a list of chains."""
    return attack_chains(ds, _detect_chains(ds, margin, min_length))


def _assert_dataset_parity(ds):
    """Exact collaboration/chain parity on one dataset."""
    assert _collabs(
        ds, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS
    ) == reference_detect_collaborations(
        ds, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS
    )
    assert _chains(ds, CHAIN_MARGIN_SECONDS, 2) == reference_detect_chains(
        ds, CHAIN_MARGIN_SECONDS, 2
    )


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_scan_kernels(self, seed):
        _assert_dataset_parity(_random_attack_table(seed))

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_nondefault_windows(self, seed):
        ds = _random_attack_table(seed)
        assert _collabs(ds, 120.0, 300.0) == (
            reference_detect_collaborations(ds, 120.0, 300.0)
        )
        assert _chains(ds, 15.0, 3) == reference_detect_chains(ds, 15.0, 3)

    def test_generated_dataset(self, tiny_ds):
        """The generated tiny dataset exercises the full Botlist side."""
        _assert_dataset_parity(tiny_ds)
        ctx = AnalysisContext(tiny_ds)
        for family in tiny_ds.active_families:
            _assert_shift_equal(
                _weekly_shift(ctx, family), reference_weekly_shift(ctx, family)
            )
            ts, values = geo.snapshot_dispersions(ctx, family)
            ref_ts, ref_values = reference_snapshot_dispersions(ctx, family)
            np.testing.assert_array_equal(ts, ref_ts)
            np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-6)
            _assert_affinity_parity(ctx, family)


#: The run shapes :func:`_pruning_layout` draws from.
PRUNING_SHAPES = (
    "singleton",
    "all_but_first_fail_duration",
    "botnet_repeated",
    "equal_starts_one_target",
    "equal_starts_across_targets",
    "gap_of_exactly_60s",
)


def _pruning_layout(seed: int, *, linked: bool = True):
    """An attack table built block by block from :data:`PRUNING_SHAPES`,
    and the shapes drawn.

    Each block is one shape the candidate-only collaboration sweep must
    read as the reference loop does: a run of one row (on a target of
    its own), a run whose members all fail the duration filter but the
    first, one botnet attacking again inside a run, equal starts on one
    target and across targets, and two starts exactly 60.0 s apart on
    one target (linked: the split is ``>``).  Blocks start 0 s to
    5,000 s apart, so runs on one target may grow across blocks and
    runs on different targets interleave.  With ``linked`` False every
    attack gets a target of its own, so no two rows are linked.
    """
    rng = np.random.default_rng(seed)
    fresh = iter(range(100, 100_000))
    rows: list[tuple[float, int, int, float]] = []  # start, botnet, target, duration
    shapes = []
    t = 100.0
    for _ in range(int(rng.integers(10, 24))):
        shape = PRUNING_SHAPES[int(rng.integers(len(PRUNING_SHAPES)))]
        shapes.append(shape)
        target = int(rng.integers(1, 4))
        duration = float(rng.choice([60.0, 600.0, 1800.0, 4000.0]))
        size = int(rng.integers(2, 5))
        if shape == "singleton":
            rows.append((t, int(rng.integers(1, 6)), next(fresh), duration))
        elif shape == "all_but_first_fail_duration":
            rows.append((t, 1, target, duration))
            rows.extend((t + 10.0 * k, 1 + k, target, duration + 1800.5 + 100.0 * k)
                        for k in range(1, size))
        elif shape == "botnet_repeated":
            botnet = int(rng.integers(1, 6))
            rows.extend((t + 20.0 * k, botnet, target, duration) for k in range(size))
            if rng.random() < 0.5:
                rows.append((t + 5.0, botnet % 5 + 1, target, duration))
        elif shape == "equal_starts_one_target":
            rows.extend((t, 1 + k, target, duration) for k in range(size))
        elif shape == "equal_starts_across_targets":
            rows.extend((t, int(rng.integers(1, 6)), 1 + k, duration) for k in range(size))
        else:
            rows.extend([(t, 1, target, duration), (t + 60.0, 2, target, duration)])
        t += float(rng.choice([0.0, 30.0, 60.0, 61.0, 400.0, 5000.0]))
    rows.sort(key=lambda r: r[0])
    records = [
        _record(
            i,
            botnet=botnet,
            family=("alpha", "beta", "gamma")[botnet % 3],
            target=target if linked else next(fresh),
            start=start,
            duration=duration,
        )
        for i, (start, botnet, target, duration) in enumerate(rows)
    ]
    return dataset_from_records(records), shapes


def _assert_pruned_parity(ds):
    """Both scans, with and without a context's shared target order,
    equal the reference loops; the order is the kernels' own lexsort."""
    _assert_dataset_parity(ds)
    order = AnalysisContext(ds).target_order()
    assert order.tobytes() == np.lexsort((ds.start, ds.target_idx)).tobytes()
    for start_window, duration_window in ((START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS),
                                          (120.0, 300.0)):
        shared = _detect_collaborations(ds, start_window, duration_window, order)
        assert shared == _detect_collaborations(ds, start_window, duration_window)
        assert collab_events(ds, shared) == reference_detect_collaborations(
            ds, start_window, duration_window
        )
    for margin, min_length in ((CHAIN_MARGIN_SECONDS, 2), (15.0, 3)):
        shared = _detect_chains(ds, margin, min_length, order)
        assert shared == _detect_chains(ds, margin, min_length)
        assert attack_chains(ds, shared) == reference_detect_chains(ds, margin, min_length)


class TestPrunedScans:
    """The collaboration sweep over runs of two or more rows only, and
    both scans over a shared target order, are the reference loops'."""

    @pytest.mark.parametrize("seed", range(16))
    def test_random_layouts(self, seed):
        ds, _shapes = _pruning_layout(seed)
        _assert_pruned_parity(ds)

    def test_layouts_draw_every_shape(self):
        drawn = {shape for seed in range(16) for shape in _pruning_layout(seed)[1]}
        assert drawn == set(PRUNING_SHAPES)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_linked_pair(self, seed):
        ds, _shapes = _pruning_layout(seed, linked=False)
        assert np.unique(ds.target_idx).size == ds.n_attacks
        assert _detect_collaborations(ds, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS) == (
            ScanEvents.empty()
        )
        _assert_pruned_parity(ds)

    def test_one_shape_per_dataset(self):
        """Each shape alone, next to a lone attack on another target."""

        def table(rows):
            lone = _record(99, botnet=9, family="beta", target=9, start=5.0, duration=60.0)
            return dataset_from_records(
                [lone] + [
                    _record(i, botnet=b, family="alpha", target=1, start=s, duration=d)
                    for i, (s, b, d) in enumerate(rows)
                ]
            )

        cases = {
            # The second start lies exactly 60.0 s after the first: linked.
            "gap_of_exactly_60s": ([(10.0, 1, 600.0), (70.0, 2, 600.0)], [(1, 2)]),
            "gap_past_60s": ([(10.0, 1, 600.0), (70.5, 2, 600.0)], []),
            "all_but_first_fail_duration": (
                [(10.0, 1, 600.0), (20.0, 2, 2400.5), (30.0, 3, 3000.0)], []),
            "botnet_repeated": ([(10.0, 1, 600.0), (20.0, 1, 600.0)], []),
            "botnet_repeated_beside_another": (
                [(10.0, 1, 600.0), (20.0, 1, 600.0), (30.0, 2, 600.0)], [(1, 3)]),
            "equal_starts_one_target": ([(10.0, 1, 600.0), (10.0, 2, 600.0)], [(1, 2)]),
        }
        for name, (rows, want) in cases.items():
            ds = table(rows)
            got = _collabs(ds, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS)
            assert [e.attack_indices for e in got] == want, name
            _assert_pruned_parity(ds)


def _random_segments(seed: int):
    """Bot coordinates (degrees) and a CSR segment layout over them.

    The pool holds the poles, both signs of the date line and an
    antipodal pair; segments draw bots with replacement (repeated
    bots), and the counts include single-bot and zero-count segments,
    one of them last so the ``reduceat`` clamp is hit.
    """
    rng = np.random.default_rng(seed)
    n_bots = int(rng.integers(8, 40))
    lat = rng.uniform(-90.0, 90.0, n_bots)
    lon = rng.uniform(-180.0, 180.0, n_bots)
    lat[:6] = [90.0, -90.0, 0.0, 45.0, -45.0, 0.0]
    lon[:6] = [0.0, 123.0, 180.0, -180.0, 0.0, 0.0]
    counts = rng.integers(0, 9, int(rng.integers(5, 30)))
    counts[:4] = [0, 1, 2, 2]
    counts[-1] = 0
    bots = rng.integers(0, n_bots, int(counts.sum()))
    # Segments 2 and 3: the two poles, then an antipodal pair on the
    # equator (a zero-norm centre).
    bots[1:5] = [0, 1, 2, 5]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return lat, lon, bots, offsets, counts


def _wrap_point_segments():
    """Segments of equator bots (longitudes in degrees) whose ``dlon + π``
    lands on 0, π, 2π and 3π and on their neighbours, then two that
    leave the sign's fast domain: a longitude of 700° and a NaN one.

    A tiny longitude tilts a segment's centre off 0 or −π by an ulp or
    two; ±180° and one ulp inside it reach the wrap points themselves,
    and three ulps past 180° reach the ulp above 3π (the centre cannot
    lie below −π).
    """
    inside = np.nextafter(180.0, 0.0)
    past = 180.0
    for _ in range(3):
        past = np.nextafter(past, 360.0)
    in_domain = [
        [0.0, 0.0, 4e-14, -180.0],
        [0.0, 0.0, 0.0, -180.0],
        [0.0, 0.0, 1e-14, -inside],
        [0.0, 0.0, 0.0, inside],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -inside],
        [0.0, 0.0, 0.0, 180.0],
        [0.0, 0.0, -1e-14, np.nextafter(180.0, 360.0)],
        [-180.0, -180.0, -179.9999999999998, inside],
        [-180.0, -180.0, -180.0, 180.0],
        [-180.0, -180.0, -180.0, past],
    ]
    return in_domain, [[0.0, 0.0, 10.0, 700.0], [0.0, np.nan, 30.0]]


def _equator_layout(segments):
    """Bot coordinates (degrees) and CSR layout of ``segments``."""
    lon = np.array([v for seg in segments for v in seg])
    counts = np.array([len(seg) for seg in segments])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return np.zeros(lon.size), lon, np.arange(lon.size), offsets, counts


def _wrap_arguments(segments):
    """``dlon + π`` of every bot of ``segments``, with the oracle's
    segment centres."""
    lat, lon, _, offsets, counts = _equator_layout(segments)
    lat_r, lon_r = np.radians(lat), np.radians(lon)
    _, lon_c = reference_segment_centers(lat_r, lon_r, offsets, counts)
    return (lon_r - np.repeat(lon_c, counts)) + np.pi


def _assert_dispersions_bytes_equal(ctx_factory, families, monkeypatch):
    """Per-attack and per-snapshot dispersions equal, byte for byte, a
    build on a fresh context whose kernel is the pre-hoist oracle."""
    fresh = ctx_factory()
    with monkeypatch.context() as m:
        m.setattr(geo, "_segment_dispersions", reference_segment_dispersions_of)
        oracle = ctx_factory()
        want = {f: (oracle.attack_dispersions(f), oracle.snapshot_dispersions(f))
                for f in families}
    for family in families:
        for got, ref in zip(
            (fresh.attack_dispersions(family), fresh.snapshot_dispersions(family)),
            want[family],
        ):
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), family


class TestDispersionKernelBytes:
    """The hoisted dispersion kernel is the pre-hoist one, to the byte."""

    @pytest.mark.parametrize("seed", RANDOM_SEEDS + [5, 6, 7, 8])
    def test_random_segments(self, seed):
        lat, lon, bots, offsets, counts = _random_segments(seed)
        coords = geo.bot_coords(SimpleNamespace(lat=lat, lon=lon))
        got = geo._segment_dispersions(coords, bots, offsets, counts)
        want = reference_segment_dispersions(
            np.radians(lat)[bots], np.radians(lon)[bots], offsets, counts
        )
        assert got.tobytes() == want.tobytes()

    def test_empty_layouts(self):
        lat, lon, _, _, _ = _random_segments(RANDOM_SEEDS[0])
        coords = geo.bot_coords(SimpleNamespace(lat=lat, lon=lon))
        none = np.zeros(0, dtype=np.int64)
        assert geo._segment_dispersions(coords, none, np.zeros(1, np.int64), none).size == 0
        zeros = np.zeros(3, dtype=np.int64)
        got = geo._segment_dispersions(coords, none, np.zeros(4, np.int64), zeros)
        assert got.tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_empty_segments_leave_the_others_whole(self, seed):
        """Zero-count segments, a trailing one among them, read 0 and
        change no other segment's value."""
        lat, lon, bots, offsets, counts = _random_segments(seed)
        coords = geo.bot_coords(SimpleNamespace(lat=lat, lon=lon))
        got = geo._segment_dispersions(coords, bots, offsets, counts)
        full = counts > 0
        packed = np.concatenate(([0], np.cumsum(counts[full])))
        want = geo._segment_dispersions(coords, bots, packed, counts[full])
        assert got[full].tobytes() == want.tobytes()
        assert not got[~full].any()

    def test_trailing_empty_segment_keeps_the_last_bot(self):
        lat, lon = np.array([10.0, -20.0, 35.0]), np.array([-100.0, 40.0, 120.0])
        coords = geo.bot_coords(SimpleNamespace(lat=lat, lon=lon))
        bots = np.arange(3)
        got = geo._segment_dispersions(coords, bots, np.array([0, 3, 3]), np.array([3, 0]))
        np.testing.assert_allclose(got, [dispersion_km(lat, lon), 0.0], rtol=1e-9)

    def test_generated_dataset(self, tiny_ds, monkeypatch):
        _assert_dispersions_bytes_equal(
            lambda: AnalysisContext(tiny_ds), tiny_ds.active_families, monkeypatch
        )

    @pytest.mark.parametrize("run", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", RANDOM_SEEDS + [5, 6, 7, 8])
    def test_runs_of_a_few_participations(self, seed, run, monkeypatch):
        """Runs of a few participations cut every layout many times, and
        segments longer than a run stand alone: still the oracle's bytes."""
        monkeypatch.setattr(geo, "_RUN_PARTICIPATIONS", run)
        lat, lon, bots, offsets, counts = _random_segments(seed)
        assert counts.max() > run and counts.sum() > 4 * run
        coords = geo.bot_coords(SimpleNamespace(lat=lat, lon=lon))
        got = geo._segment_dispersions(coords, bots, offsets, counts)
        want = reference_segment_dispersions(
            np.radians(lat)[bots], np.radians(lon)[bots], offsets, counts
        )
        assert got.tobytes() == want.tobytes()

    def test_run_edges(self, monkeypatch):
        """Runs hold whole non-empty segments, at most the run size of
        them unless one segment alone is longer; zero-count segments at
        run edges and at the end read 0."""
        monkeypatch.setattr(geo, "_RUN_PARTICIPATIONS", 5)
        seen = []
        run_dispersions = geo._run_dispersions

        def spy(coords, bots, starts, sizes):
            seen.append(sizes.tolist())
            return run_dispersions(coords, bots, starts, sizes)

        monkeypatch.setattr(geo, "_run_dispersions", spy)
        lat, lon, _, _, _ = _random_segments(RANDOM_SEEDS[1])
        counts = np.array([0, 2, 3, 0, 0, 12, 1, 0, 4, 4, 0, 5, 6, 0])
        offsets = np.concatenate(([0], np.cumsum(counts)))
        bots = np.random.default_rng(3).integers(0, lat.size, int(counts.sum()))
        coords = geo.bot_coords(SimpleNamespace(lat=lat, lon=lon))
        got = geo._segment_dispersions(coords, bots, offsets, counts)
        want = reference_segment_dispersions(
            np.radians(lat)[bots], np.radians(lon)[bots], offsets, counts
        )
        assert got.tobytes() == want.tobytes()
        assert seen == [[2, 3], [12], [1, 4], [4], [5], [6]]
        assert not got[counts == 0].any()

    def test_generated_dataset_in_short_runs(self, tiny_ds, monkeypatch):
        monkeypatch.setattr(geo, "_RUN_PARTICIPATIONS", 64)
        _assert_dispersions_bytes_equal(
            lambda: AnalysisContext(tiny_ds), tiny_ds.active_families, monkeypatch
        )


    @pytest.mark.parametrize("run", [1, None])
    def test_sign_at_its_wrap_points(self, run, monkeypatch):
        """The sign's masked wrap is ``np.mod``'s, to the byte: on ``dlon
        + π`` of 0, π, 2π and 3π and their neighbours, and through the
        ``np.mod`` fallback for a longitude outside ±180° and a NaN one.
        With one segment per run each segment takes its own path; in one
        run, the in-domain segments alone take the masked wrap and all of
        them together the fallback."""
        in_domain, fallback = _wrap_point_segments()
        t = _wrap_arguments(in_domain)
        ulp_pi = np.spacing(np.pi)
        for value in (-ulp_pi, 0.0, ulp_pi):
            assert value in t, value
        for point in (np.pi, 2 * np.pi, 3 * np.pi):
            for value in (np.nextafter(point, 0.0), point, np.nextafter(point, 10.0)):
                assert value in t, value
        assert -2 * np.pi < t.min() and t.max() < 4 * np.pi
        assert _wrap_arguments(fallback[:1]).max() >= 4 * np.pi

        if run is not None:
            monkeypatch.setattr(geo, "_RUN_PARTICIPATIONS", run)
        for segments in (in_domain, in_domain + fallback):
            lat, lon, bots, offsets, counts = _equator_layout(segments)
            coords = geo.bot_coords(SimpleNamespace(lat=lat, lon=lon))
            got = geo._segment_dispersions(coords, bots, offsets, counts)
            want = reference_segment_dispersions(
                np.radians(lat), np.radians(lon), offsets, counts
            )
            assert got.tobytes() == want.tobytes()
        assert np.isnan(got[-1]) and not np.isnan(got[:-1]).any()


def _random_participants(ds, seed: int, dtype=np.int64):
    """``ds`` with a random participant CSR of ``dtype``.

    Half the draws come from a pool of eight bots, so bots repeat within
    attacks and weeks; the first and last bot indices both occur; the
    attack counts include zeros, and unless the rows span one week,
    every attack of one mid-trace week has none.
    """
    rng = np.random.default_rng(seed)
    n_bots = ds.bots.n_bots
    counts = rng.integers(0, 7, ds.n_attacks)
    weeks = (ds.start - ds.window.start) // (7 * 86400)
    mid = weeks == weeks[ds.n_attacks // 2]
    if not mid.all():
        counts[mid] = 0
    total = int(counts.sum())
    bots = np.where(
        rng.random(total) < 0.5,
        rng.choice(rng.integers(0, n_bots, 8), total),
        rng.integers(0, n_bots, total),
    )
    bots[[0, -1]] = [0, n_bots - 1]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return dataclasses.replace(ds, part_offsets=offsets, participants=bots.astype(dtype))


def _assert_weekly_pairs_match_reference(ds) -> list[tuple]:
    """Every family's weekly pairs, dtypes included, and its finished
    shift equal the references.  Returns the families' pairs."""
    from .test_shard_merge import _assert_view_equal

    ctx = AnalysisContext(ds)
    pairs = []
    for family in ds.families:
        got = _weekly_pairs(ctx, family)
        _assert_view_equal(family, got, reference_weekly_pairs(ctx, family))
        if ctx.family_attacks(family).size:
            _assert_shift_equal(_weekly_shift(ctx, family), reference_weekly_shift(ctx, family))
        pairs.append(got)
    return pairs


class TestWeeklyPairs:
    """The per-week bitmap dedupe is ``unique_pairs``' pair table."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_layouts(self, tiny_ds, seed, dtype):
        ds = _random_participants(tiny_ds, seed, dtype)
        pairs = _assert_weekly_pairs_match_reference(ds)
        u_bot = np.concatenate([p[2] for p in pairs])
        assert {0, ds.bots.n_bots - 1} <= set(u_bot.tolist())
        # Repeats were deduped, and some week with attacks kept no pair.
        assert u_bot.size < ds.participants.size
        assert any(np.setdiff1d(p[0], p[1]).size for p in pairs)

    def test_one_week_families(self, tiny_ds):
        week_end = tiny_ds.window.start + 7 * 86400
        rows = _slice_dataset(tiny_ds, 0, int(np.searchsorted(tiny_ds.start, week_end)))
        for weeks_u, _, _ in _assert_weekly_pairs_match_reference(rows):
            assert weeks_u.size <= 1
        _assert_weekly_pairs_match_reference(_random_participants(rows, 3))

    def test_thin_participants(self, tiny_ds):
        _assert_weekly_pairs_match_reference(thin_participants(tiny_ds))

    def test_bot_out_of_range_raises(self, tiny_ds):
        ds = _random_participants(tiny_ds, 5)
        ds.participants[-1] = ds.bots.n_bots
        owner = np.searchsorted(ds.part_offsets, ds.participants.size - 1, side="right") - 1
        family = ds.family_name(int(ds.family_idx[owner]))
        for pairs in (_weekly_pairs, reference_weekly_pairs):
            with pytest.raises(ValueError):
                pairs(AnalysisContext(ds), family)


def _assert_tally_equal(got, want, label=""):
    """Equal tallies: the same contents, key order and element types."""
    assert got == want, label
    for g, w in ((got[0], want[0]), (got[2], want[2])):
        assert list(g) == list(w), label
        assert all(type(v) is int for v in g.values()), label
    assert type(got[1]) is int, label


def _tied_table(seed: int):
    """A random attack table whose starts tie often: gaps of 0, 0.5, 1
    and 30 s, four families, so single- and multi-family events of
    every size occur, and events cross the random cuts."""
    rng = np.random.default_rng(seed)
    t = 0.0
    records = []
    for i in range(int(rng.integers(60, 200))):
        t += float(rng.choice([0.0, 0.0, 0.0, 0.5, 1.0, 30.0, 400.0]))
        records.append(
            _record(
                i,
                botnet=int(rng.integers(1, 9)),
                family=str(rng.choice(["alpha", "beta", "gamma", "delta"])),
                target=int(rng.integers(1, 50)),
                start=t,
                duration=60.0,
            )
        )
    return dataset_from_records(records)


def _tally_ranges(ds, seed: int, count: int = 12) -> list[tuple[int, int]]:
    """The whole range, ranges cut inside an event (between two tied
    starts) on either side, and random ranges."""
    rng = np.random.default_rng(seed)
    n = ds.n_attacks
    ranges = [(0, n), (0, 0), (n // 2, n // 2 + 1)]
    ties = np.flatnonzero(np.diff(ds.start) == 0) + 1
    for cut in rng.choice(ties, min(count, ties.size), replace=False).tolist():
        ranges += [(int(rng.integers(0, cut)), cut), (cut, int(rng.integers(cut + 1, n + 1)))]
    for _ in range(count):
        lo, hi = sorted(rng.integers(0, n + 1, 2).tolist())
        ranges.append((lo, hi))
    return ranges


def _assert_tallies_match_reference(ds, seed: int, tolerances=(0.0,)) -> int:
    """Every range of :func:`_tally_ranges` tallies as the reference loop
    does, under each tolerance.  Returns the multi-family events seen."""
    multi = 0
    for lo, hi in _tally_ranges(ds, seed):
        for tolerance in tolerances:
            got = _simultaneous_tally(ds, lo, hi, tolerance)
            _assert_tally_equal(
                got, reference_simultaneous_tally(ds, lo, hi, tolerance), (lo, hi, tolerance)
            )
            multi += got[1]
    return multi


class TestSimultaneousTally:
    """The tally over tied rows only is the loop over start-time groups."""

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_ranges(self, seed):
        ds = _tied_table(seed)
        assert _assert_tallies_match_reference(ds, seed) > 0

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_tolerance(self, seed):
        ds = _tied_table(seed)
        _assert_tallies_match_reference(ds, seed, (0.5, 1.0, 30.0, 1000.0))

    def test_generated_dataset(self, small_ds):
        assert _assert_tallies_match_reference(small_ds, 5, (0.0, 60.0)) > 0

    def test_all_unique_starts(self):
        ds = dataset_from_records(
            [_record(i, botnet=i % 3 + 1, family=("alpha", "beta")[i % 2], target=1,
                     start=10.0 * i, duration=5.0) for i in range(12)]
        )
        for lo, hi in ((0, 12), (3, 9), (5, 6)):
            for tolerance in (0.0, 9.5):
                got = _simultaneous_tally(ds, lo, hi, tolerance)
                assert got == ({}, 0, {})
                _assert_tally_equal(got, reference_simultaneous_tally(ds, lo, hi, tolerance))
        # A tolerance that spans the 10 s gaps makes one event of them all.
        _assert_tally_equal(
            _simultaneous_tally(ds, 0, 12, 10.0), reference_simultaneous_tally(ds, 0, 12, 10.0)
        )
        assert _simultaneous_tally(ds, 0, 12, 10.0)[1] == 1


def _assert_render_pass_parity(ctx):
    """Fig 18's dots and magnitude spreads and Fig 16's pair series equal
    their per-row loops, element types included."""
    chains = ctx.chains()
    chain_list = attack_chains(ctx.dataset, chains)
    dots = chain_timeline(ctx, chains)
    ref_dots = reference_chain_timeline(ctx, chain_list)
    assert dots == ref_dots
    assert [tuple(map(type, d)) for d in dots] == [tuple(map(type, d)) for d in ref_dots]
    stable = np.count_nonzero(chain_magnitude_spread(ctx, chains) <= 0.3)
    assert stable == reference_stable_chain_count(ctx, chain_list)
    events = ctx.collaborations()
    event_list = collab_events(ctx.dataset, events)
    for a, b in combinations(ctx.dataset.active_families, 2):
        for x, y in ((a, b), (b, a)):
            got = pair_analysis(ctx, x, y, events)
            want = reference_pair_analysis(ctx, x, y, event_list)
            assert got == want
            assert [tuple(map(type, e)) for e in got.series] == [
                tuple(map(type, e)) for e in want.series
            ]


class TestRenderPassParity:
    def test_generated_datasets(self, tiny_ds, small_ds):
        for ds in (tiny_ds, small_ds):
            _assert_render_pass_parity(AnalysisContext(ds))

    def test_family_index_order_differs_from_name_order(self, small_ds):
        """The dots sort by family *name*: reversing the dataset's family
        index order must not move them."""
        n = len(small_ds.families)
        flipped = dataclasses.replace(
            small_ds,
            families=small_ds.families[::-1],
            family_idx=(n - 1 - small_ds.family_idx).astype(small_ds.family_idx.dtype),
        )
        ctx = AnalysisContext(flipped)
        assert list(flipped.families) != sorted(flipped.families)
        assert chain_timeline(ctx) == chain_timeline(AnalysisContext(small_ds))
        _assert_render_pass_parity(ctx)

    def test_no_chains(self):
        ds = dataset_from_records(
            [_record(0, botnet=1, family="alpha", target=1, start=30.0, duration=60.0)]
        )
        ctx = AnalysisContext(ds)
        assert chain_timeline(ctx) == []
        assert chain_magnitude_spread(ctx).size == 0
        _assert_render_pass_parity(ctx)


def _assert_affinity_parity(ctx, family):
    """Fig 14's spots equal the per-organization loop's, whole window and
    every month the family attacked in."""
    ds = ctx.dataset
    assert organization_affinity(ctx, family) == reference_organization_affinity(ctx, family)
    months = {(d.year, d.month) for d in map(to_datetime, ds.start[ctx.family_attacks(family)])}
    for year, month in sorted(months):
        assert organization_affinity(ctx, family, year, month) == (
            reference_organization_affinity(ctx, family, year, month)
        )


class TestEdgeCases:
    def test_single_attack(self):
        ds = dataset_from_records(
            [_record(0, botnet=1, family="alpha", target=1, start=30.0, duration=60.0)]
        )
        assert _collabs(ds, 60.0, 1800.0) == []
        assert _chains(ds, 60.0, 2) == []
        _assert_dataset_parity(ds)

    def test_all_simultaneous_starts(self):
        """Identical starts collaborate but never chain (no >1 s stagger)."""
        ds = dataset_from_records(
            [
                _record(i, botnet=i + 1, family="alpha", target=1, start=100.0, duration=600.0)
                for i in range(6)
            ]
        )
        events = _collabs(ds, 60.0, 1800.0)
        assert len(events) == 1 and len(events[0].attack_indices) == 6
        assert _chains(ds, 60.0, 2) == []
        _assert_dataset_parity(ds)

    def test_chain_margin_boundaries(self):
        """Gaps exactly at the margin link; one past it break the chain."""
        base = [
            # end-to-start gap exactly +60 s: links.
            _record(0, botnet=1, family="alpha", target=1, start=0.0, duration=100.0),
            _record(1, botnet=2, family="alpha", target=1, start=160.0, duration=100.0),
            # gap 60.5 s: breaks.
            _record(2, botnet=3, family="alpha", target=1, start=320.5, duration=100.0),
            # overlap with gap exactly -60 s and start stagger > 1 s: links.
            _record(3, botnet=4, family="alpha", target=1, start=360.5, duration=100.0),
            # start stagger exactly 1 s: simultaneous, never links.
            _record(4, botnet=5, family="alpha", target=1, start=361.5, duration=100.0),
        ]
        ds = dataset_from_records(base)
        chains = _chains(ds, 60.0, 2)
        assert [c.attack_indices for c in chains] == [(0, 1), (2, 3)]
        _assert_dataset_parity(ds)

    def test_duration_window_boundary(self):
        """Durations exactly 1800 s from the first member stay; beyond drop."""
        ds = dataset_from_records(
            [
                _record(0, botnet=1, family="alpha", target=1, start=0.0, duration=600.0),
                _record(1, botnet=2, family="alpha", target=1, start=10.0, duration=2400.0),
                _record(2, botnet=3, family="alpha", target=1, start=20.0, duration=2400.5),
            ]
        )
        events = _collabs(ds, 60.0, 1800.0)
        assert [e.attack_indices for e in events] == [(0, 1)]
        _assert_dataset_parity(ds)

    def test_botnet_retry_after_duration_miss(self):
        """A botnet whose first attack fails the duration filter may still
        contribute a later conforming attack (dedupe runs after the filter)."""
        ds = dataset_from_records(
            [
                _record(0, botnet=1, family="alpha", target=1, start=0.0, duration=600.0),
                _record(1, botnet=2, family="alpha", target=1, start=10.0, duration=9000.0),
                _record(2, botnet=2, family="alpha", target=1, start=20.0, duration=700.0),
            ]
        )
        events = _collabs(ds, 60.0, 1800.0)
        assert [e.attack_indices for e in events] == [(0, 2)]
        _assert_dataset_parity(ds)

    def test_family_without_participants(self):
        """Ingested datasets carry no Botlist: shift and snapshots agree on
        the degenerate zero-participant family."""
        ds = _random_attack_table(RANDOM_SEEDS[0])
        ctx = AnalysisContext(ds)
        family = ds.active_families[0]
        _assert_shift_equal(
            _weekly_shift(ctx, family), reference_weekly_shift(ctx, family)
        )
        ts, values = geo.snapshot_dispersions(ctx, family)
        ref_ts, ref_values = reference_snapshot_dispersions(ctx, family)
        np.testing.assert_array_equal(ts, ref_ts)
        np.testing.assert_array_equal(values, ref_values)
        assert values.size == 0


class TestPrewarmIdentity:
    def test_prewarmed_battery_renders_as_lazy(self, tiny_ds):
        from repro.experiments.registry import run_all

        lazy = [r.render() for r in run_all(AnalysisContext(tiny_ds))]
        ctx = AnalysisContext(tiny_ds)
        assert ctx.prewarm() == ctx.n_views > 0
        assert [r.render() for r in run_all(ctx)] == lazy

    def test_prewarmed_forecast_is_predict_family_dispersion(self, small_ds):
        from repro.core.prediction import predict_family_dispersion

        ctx = AnalysisContext(small_ds)  # unshared: keep session fixtures clean
        ctx.prewarm()
        forecasts = {
            key[1]: value
            for key, value in ctx.materialized().items()
            if key[0] == "dispersion_forecast"
        }
        assert forecasts  # at least one family has enough points at this scale
        for family, forecast in forecasts.items():
            # Table IV's memoized accessor returns the prewarmed value.
            assert ctx.dispersion_forecast(family) is forecast
            direct = predict_family_dispersion(AnalysisContext(small_ds), family)
            np.testing.assert_array_equal(forecast.prediction, direct.prediction)
            assert forecast.comparison == direct.comparison

    def test_prewarm_skips_short_forecast_series(self, small_ds):
        from repro.core.prediction import MIN_SERIES_POINTS, _dispersion_series
        from repro.experiments.table4_prediction import PAPER_TABLE4

        ctx = AnalysisContext(small_ds)
        ctx.prewarm()
        eligible = {
            family
            for family in small_ds.active_families
            if family in PAPER_TABLE4
            and _dispersion_series(ctx, family, True).size >= MIN_SERIES_POINTS
        }
        held = {k[1] for k in ctx.view_keys() if k[0] == "dispersion_forecast"}
        assert held == eligible
        assert set(small_ds.active_families) & set(PAPER_TABLE4) - eligible, (
            "no family is too short at this scale: the skip went untested"
        )

    def test_prewarm_skips_materialized_views(self, tiny_ds):
        ctx = AnalysisContext(tiny_ds)
        ctx.prewarm()
        keys = set(ctx.view_keys())
        assert ctx.prewarm() == 0
        assert set(ctx.view_keys()) == keys


SCANS = ("collaborations", "chains")


def _stitched_at_rows(ds, cuts) -> dict:
    """Both scans of ``ds`` as the extend step builds them from row
    slices cut at ``cuts``: the first slice is the left operand, the
    rest its right parts (the shard merge's and the re-merge's shape)."""
    bounds = [0, *cuts, ds.n_attacks]
    prev = AnalysisContext(_slice_dataset(ds, 0, bounds[1]))
    parts = [AnalysisContext(_slice_dataset(ds, lo, hi)) for lo, hi in zip(bounds[1:], bounds[2:])]
    ctx = AnalysisContext(ds)
    return {
        kind: extend_one((kind,), merge.view_value(prev, (kind,)), prev, parts, ctx)
        for kind in SCANS
    }


def _streamed_at_rows(records, window, cuts) -> list[dict]:
    """Both scans of every epoch of a stream fed ``records`` cut at
    ``cuts``; each epoch reads them, so the next one carries them."""
    bounds = [0, *cuts, len(records)]
    stream = StreamingDataset(window=window)
    epochs = []
    for lo, hi in zip(bounds, bounds[1:]):
        stream.append_batch(records[lo:hi])
        ctx = stream.context()
        carried = ctx.materialized()
        assert all(((kind,) in carried) == (lo > 0) for kind in SCANS)
        epochs.append({kind: merge.view_value(ctx, (kind,)) for kind in SCANS})
    return epochs


def _assert_stitches_match_flat(records, window, cuts) -> None:
    """The stream carry and the row-slice extend at ``cuts`` equal a flat
    scan of the same rows, every stream epoch included."""
    records = sorted(records, key=lambda r: (r.timestamp, r.botnet_id))
    flat = AnalysisContext(dataset_from_records(records, window))
    for kind, events in _stitched_at_rows(flat.dataset, cuts).items():
        assert events == merge.view_value(flat, (kind,)), kind
    bounds = [*cuts, len(records)]
    for hi, epoch in zip(bounds, _streamed_at_rows(records, window, cuts)):
        scratch = AnalysisContext(dataset_from_records(records[:hi], window))
        for kind in SCANS:
            assert epoch[kind] == merge.view_value(scratch, (kind,)), (hi, kind)


PROPERTY_WINDOW = ObservationWindow(start=0, end=2 * 86400)


@st.composite
def _scan_tables(draw):
    """Small attack tables that hit every branch of both scans: few
    targets, tied and window-edge starts, durations near the chain
    margin and the duration window, and botnets that attack again."""
    n = draw(st.integers(1, 36))
    gaps = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 30.0, 59.0, 60.0, 61.0, 90.0, 400.0, 3000.0])
    durations = st.sampled_from([1.0, 30.0, 60.0, 61.0, 89.0, 120.0, 1800.0, 2000.0, 4000.0])
    t = 10.0
    records = []
    for i in range(n):
        t += draw(gaps)
        botnet = draw(st.integers(1, 4))
        records.append(
            _record(
                i,
                botnet=botnet,
                family=("alpha", "beta", "gamma")[botnet % 3],
                target=draw(st.integers(1, 3)),
                start=t,
                duration=draw(durations),
            )
        )
    cuts = draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=4, unique=True))
    return records, sorted(c for c in cuts if c < n)


class TestScanProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_scan_tables())
    def test_lists_match_the_reference_loops(self, table):
        records, _cuts = table
        ds = dataset_from_records(records, PROPERTY_WINDOW)
        _assert_dataset_parity(ds)
        ctx = AnalysisContext(ds)
        assert detect_collaborations(ctx) == reference_detect_collaborations(
            ds, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS
        )
        assert detect_chains(ctx) == reference_detect_chains(ds, CHAIN_MARGIN_SECONDS, 2)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_scan_tables())
    def test_stitches_at_random_cuts_match_flat(self, table):
        records, cuts = table
        _assert_stitches_match_flat(records, PROPERTY_WINDOW, cuts)


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the bench-scale scan stitch sweep",
)
def test_bench_scale_scan_stitches():
    """At bench scale: the lists equal the reference loops, and the stream
    carry, the row-slice extend and an 8-shard merge at random cuts all
    stitch to the flat scans."""
    ds = generate_dataset(DatasetConfig(seed=7, scale=float(os.environ["REPRO_BENCH_SCALE"])))
    records = list(ds.iter_attacks())
    rng = np.random.default_rng(20)
    cuts = sorted(rng.choice(np.arange(1, len(records)), size=7, replace=False).tolist())
    _assert_stitches_match_flat(records, ds.window, cuts)
    flat = AnalysisContext(ds)
    assert detect_collaborations(flat) == reference_detect_collaborations(
        ds, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS
    )
    assert detect_chains(flat) == reference_detect_chains(ds, CHAIN_MARGIN_SECONDS, 2)
    sctx = ShardedAnalysisContext(ShardedDatasetStore.partition(ds, shards=8))
    sctx.build()
    merged = sctx.merged()
    for kind in SCANS:
        assert merge.view_value(merged, (kind,)) == merge.view_value(flat, (kind,)), kind


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the bench-scale dispersion byte pin",
)
def test_bench_scale_dispersion_bytes(monkeypatch):
    """Every family's per-attack and per-snapshot dispersions at bench
    scale are the pre-hoist kernel's bytes."""
    ds = generate_dataset(DatasetConfig(seed=7, scale=float(os.environ["REPRO_BENCH_SCALE"])))
    _assert_dispersions_bytes_equal(
        lambda: AnalysisContext(ds), ds.active_families, monkeypatch
    )


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the bench-scale family view pin",
)
def test_bench_scale_family_views():
    """At bench scale, every family's views sliced from the family pass
    equal the per-family reference: over all rows, over a live batch's
    500-row tail, and with participant lists that mix empty and full."""
    ds = generate_dataset(DatasetConfig(seed=7, scale=float(os.environ["REPRO_BENCH_SCALE"])))
    for rows in (ds, _slice_dataset(ds, ds.n_attacks - 500, ds.n_attacks), thin_participants(ds)):
        assert_family_views_match_reference(rows)


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the bench-scale weekly pairs pin",
)
def test_bench_scale_weekly_pairs():
    """At bench scale, every family's weekly pairs and shift equal the
    references: on the generated participants, on a random layout of
    int32 bots, and with every third attack's participants emptied."""
    ds = generate_dataset(DatasetConfig(seed=7, scale=float(os.environ["REPRO_BENCH_SCALE"])))
    for rows in (ds, _random_participants(ds, 11, np.int32), thin_participants(ds)):
        _assert_weekly_pairs_match_reference(rows)


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the full-scale parity sweep",
)
def test_full_scale_parity():
    scale = float(os.environ["REPRO_BENCH_SCALE"])
    ds = generate_dataset(DatasetConfig(seed=7, scale=scale))
    _assert_dataset_parity(ds)
    ctx = AnalysisContext(ds)
    busiest = max(ds.active_families, key=lambda f: ctx.family_attacks(f).size)
    _assert_shift_equal(
        _weekly_shift(ctx, busiest), reference_weekly_shift(ctx, busiest)
    )
    ts, values = geo.snapshot_dispersions(ctx, busiest)
    ref_ts, ref_values = reference_snapshot_dispersions(ctx, busiest)
    np.testing.assert_array_equal(ts, ref_ts)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-6)
    for family in ds.active_families:
        _assert_affinity_parity(ctx, family)
    _assert_render_pass_parity(ctx)


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the bench-scale simultaneous tally pin",
)
def test_bench_scale_simultaneous_tally():
    """At bench scale, the tally of the whole trace, of ranges cut inside
    an event and of random ranges equals the loop over start-time
    groups, with and without a tolerance; both scans over the shared
    target order equal the reference loops."""
    ds = generate_dataset(DatasetConfig(seed=7, scale=float(os.environ["REPRO_BENCH_SCALE"])))
    assert _assert_tallies_match_reference(ds, 13, (0.0, 60.0)) > 0
    _assert_pruned_parity(ds)


#: Traced heap an experiment of the flat battery may allocate, at scale
#: 0.05, beyond what it leaves held.  The run-sized dispersion kernel,
#: whose run gathers six-column geo rows, and the two-temporary family
#: pass stay near 2.4 MB (Fig 9); an
#: all-at-once dispersion kernel reads 6.7 MB there, and a family pass
#: holding four full-length gather arrays 3.4 MB at Fig 3.
HEAP_OVERSHOOT_BYTES = 3_000_000


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the bench-scale heap guard",
)
def test_bench_scale_battery_heap_peak():
    """Each experiment of the flat battery, at scale 0.05 (the bound's
    scale, whatever ``REPRO_BENCH_SCALE`` names), peaks at most
    ``HEAP_OVERSHOOT_BYTES`` of traced heap above what the context holds
    after it: no view builder allocates per-participation temporaries
    over the whole trace at once."""
    import tracemalloc

    from repro.experiments.registry import ALL_EXPERIMENTS

    ctx = AnalysisContext(generate_dataset(DatasetConfig(seed=7, scale=0.05)))
    over = {}
    results = []
    tracemalloc.start()
    try:
        for experiment in ALL_EXPERIMENTS:
            tracemalloc.reset_peak()
            results.append(experiment.run(ctx))
            held, peak = tracemalloc.get_traced_memory()
            over[experiment.id] = peak - held
    finally:
        tracemalloc.stop()
    assert len(results) == len(ALL_EXPERIMENTS)
    assert {k: v for k, v in over.items() if v > HEAP_OVERSHOOT_BYTES} == {}, over
