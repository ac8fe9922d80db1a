"""Sketch merge algebra: shard-split parity, order invariance, full scale.

Mirrors ``tests/core/test_shard_merge.py``: a summary reduced over
K ∈ {1, 2, 5} time-window shards must answer like the one-pass summary
over the unsharded stream, merge order must not matter for the
order-free members (the exact counters and HLL are exactly commutative
and associative), the family and country counts equal the ``np.unique``
truth under any batch cut and any merge order, and the ``slow``-marked
sweep re-pins the documented bounds at the scale named by
``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.merge import sketch_summaries
from repro.io.colstore import ShardedDatasetStore
from repro.sketch import AttackStreamSummary, summarize_dataset


def _shard_summaries(ds, k: int) -> list:
    store = ShardedDatasetStore.partition(ds, shards=k)
    return [summarize_dataset(store.load_shard(i)) for i in range(store.n_shards)]


def _truth(ds) -> tuple[dict, dict]:
    """Exact attacks per family and per target country, by ``np.unique``."""
    family = np.asarray(ds.families, dtype=object)[ds.family_idx]
    codes = np.asarray([c.code for c in ds.world.countries], dtype=object)
    country = codes[np.asarray(ds.victims.country_idx)[ds.target_idx]]
    return tuple(
        dict(zip(*(a.tolist() for a in np.unique(keys, return_counts=True))))
        for keys in (family, country)
    )


def _assert_exact_counts(summary, ds) -> None:
    families, countries = _truth(ds)
    est = summary.estimate(top_countries=len(countries))
    assert est["families"] == families
    assert est["top_countries"] == countries
    assert est["distinct"]["countries"] == len(countries)


@pytest.fixture(scope="module")
def whole(tiny_ds):
    return summarize_dataset(tiny_ds)


class TestShardParity:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_reduced_equals_one_pass(self, tiny_ds, whole, k):
        merged = sketch_summaries(_shard_summaries(tiny_ds, k))
        assert merged.n_records == whole.n_records
        assert merged.families == whole.families
        assert merged.countries == whole.countries
        # CMS tables and HLL registers add/maximise exactly, so the
        # counting answers are bit-equal to the one-pass summary.
        est_m, est_w = merged.estimate(), whole.estimate()
        assert est_m["families"] == est_w["families"]
        assert est_m["top_countries"] == est_w["top_countries"]
        assert est_m["distinct"] == est_w["distinct"]

    @pytest.mark.parametrize("k", [2, 5])
    def test_interval_stream_loses_only_boundaries(self, tiny_ds, whole, k):
        merged = sketch_summaries(_shard_summaries(tiny_ds, k))
        # Each shard boundary drops exactly one spanning interval.
        assert merged.kll_interval.n == whole.kll_interval.n - (k - 1)
        assert merged.kll_duration.n == whole.kll_duration.n


class TestOrderInvariance:
    def test_counting_members_commute(self, tiny_ds):
        parts = _shard_summaries(tiny_ds, 5)
        forward = sketch_summaries([p.copy() for p in parts])
        reversed_ = sketch_summaries([p.copy() for p in reversed(parts)])
        ef, er = forward.estimate(), reversed_.estimate()
        assert ef["families"] == er["families"]
        assert ef["distinct"] == er["distinct"]
        assert ef["n_records"] == er["n_records"]
        assert ef["top_countries"] == er["top_countries"]
        np.testing.assert_array_equal(
            forward.hll_victims._registers, reversed_.hll_victims._registers
        )

    def test_associativity_of_counting_members(self, tiny_ds):
        a, b, c = _shard_summaries(tiny_ds, 3)
        left = a.copy().merge(b.copy()).merge(c.copy())
        right = a.copy().merge(b.copy().merge(c.copy()))
        assert left.to_dict()["families"] == right.to_dict()["families"]
        assert left.to_dict()["countries"] == right.to_dict()["countries"]
        np.testing.assert_array_equal(
            left.hll_botnets._registers, right.hll_botnets._registers
        )
        assert left.n_records == right.n_records

    def test_merge_does_not_mutate_right_operand(self, tiny_ds):
        a, b = _shard_summaries(tiny_ds, 2)
        b_state = b.to_dict()
        a.merge(b)
        assert b.to_dict() == b_state

    def test_merge_rejects_mismatched_params(self, tiny_ds):
        a = summarize_dataset(tiny_ds)
        for params in ({"precision": 10}, {"k": 100}, {"seed": 8}):
            with pytest.raises(ValueError, match="different params"):
                a.merge(AttackStreamSummary(**params))

    def test_reduce_rejects_empty(self):
        with pytest.raises(ValueError):
            sketch_summaries([])


class TestExactCounts:
    """Family and country counts equal the truth, however the stream is cut."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_batch_cuts(self, tiny_ds, seed):
        rng = np.random.default_rng(seed)
        records = sorted(tiny_ds.iter_attacks(), key=lambda r: r.timestamp)
        cuts = np.sort(rng.choice(len(records), size=6, replace=False))
        summary = AttackStreamSummary()
        for lo, hi in zip([0, *cuts], [*cuts, len(records)]):
            summary.update(records[lo:hi])
        _assert_exact_counts(summary, tiny_ds)

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_any_merge_order(self, tiny_ds, k, seed):
        parts = _shard_summaries(tiny_ds, k)
        order = np.random.default_rng(seed).permutation(k)
        merged = sketch_summaries([parts[i] for i in order])
        _assert_exact_counts(merged, tiny_ds)


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_SCALE"),
    reason="set REPRO_BENCH_SCALE to run the full-scale sketch parity sweep",
)
def test_full_scale_bounds():
    """The documented contract at benchmark scale."""
    from repro import api

    scale = float(os.environ["REPRO_BENCH_SCALE"])
    ds = api.generate(scale=scale)
    summary = summarize_dataset(ds)
    assert summary.n_records == ds.n_attacks

    # Family and country counts: exact.
    _assert_exact_counts(summary, ds)
    est = summary.estimate()

    # HLL: distincts within the 3-sigma band.
    true_botnets = len(set(r.botnet_id for r in ds.iter_attacks()))
    rse = summary.hll_botnets.relative_error
    got = est["distinct"]["botnets"]
    assert abs(got - true_botnets) <= max(3 * rse * true_botnets, 3)

    # KLL: duration quantiles within the documented rank error.
    durations = np.sort(np.asarray(ds.end) - np.asarray(ds.start))
    err = summary.kll_duration.rank_error
    for key, q in (("p10", 0.1), ("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        got = est["duration_seconds"][key]
        true_rank = np.searchsorted(durations, got, side="right") / durations.size
        assert abs(true_rank - q) <= err, key
