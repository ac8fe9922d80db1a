"""AttackStreamSummary: parity with exact answers on a known dataset.

The summary's exact-vs-sketch parity is checked against the generator's
ground truth at test scale: distinct counts within the HLL band,
quantiles within the KLL rank error, and the exact bookkeeping (record
count, family and country counts) bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch import AttackStreamSummary, render_sketch_report, summarize_dataset


@pytest.fixture(scope="module")
def summary(tiny_ds):
    return summarize_dataset(tiny_ds)


class TestParity:
    def test_exact_bookkeeping(self, tiny_ds, summary):
        assert summary.n_records == tiny_ds.n_attacks
        assert summary.families == sorted(tiny_ds.active_families)

    def test_family_counts_are_exact(self, tiny_ds, summary):
        est = summary.estimate()
        idx = np.asarray(tiny_ds.family_idx)
        for i, fam in enumerate(tiny_ds.families):
            true = int(np.sum(idx == i))
            assert est["families"].get(fam, 0) == true, fam

    def test_distinct_within_hll_band(self, tiny_ds, summary):
        est = summary.estimate()["distinct"]
        true_botnets = len(set(r.botnet_id for r in tiny_ds.iter_attacks()))
        true_victims = len(set(r.target_ip for r in tiny_ds.iter_attacks()))
        rse = summary.hll_botnets.relative_error
        assert abs(est["botnets"] - true_botnets) <= max(3 * rse * true_botnets, 3)
        assert abs(est["victims"] - true_victims) <= max(3 * rse * true_victims, 3)

    def test_duration_quantiles_within_rank_error(self, tiny_ds, summary):
        est = summary.estimate()
        durations = np.sort(np.asarray(tiny_ds.end) - np.asarray(tiny_ds.start))
        err = summary.kll_duration.rank_error
        for key, q in (("p10", 0.1), ("p50", 0.5), ("p90", 0.9)):
            got = est["duration_seconds"][key]
            true_rank = np.searchsorted(durations, got, side="right") / durations.size
            assert abs(true_rank - q) <= err + 1.0 / durations.size, key

    def test_interval_count(self, tiny_ds, summary):
        # One pass over a sorted stream sees exactly n-1 consecutive gaps.
        assert summary.kll_interval.n == tiny_ds.n_attacks - 1

    def test_batched_equals_single_pass(self, tiny_ds, summary):
        batched = AttackStreamSummary()
        records = sorted(tiny_ds.iter_attacks(), key=lambda r: r.timestamp)
        for i in range(0, len(records), 37):
            batched.update(records[i : i + 37])
        assert batched.n_records == summary.n_records
        # In-order batching preserves the interval stream (boundary gaps
        # stitch the batches), so distincts and family counts agree.
        assert batched.estimate()["distinct"] == summary.estimate()["distinct"]
        assert batched.estimate()["families"] == summary.estimate()["families"]
        assert batched.kll_interval.n == summary.kll_interval.n


class TestContractAndState:
    def test_contract_shape(self, summary):
        contract = summary.contract()
        assert set(contract) == {"hll", "kll"}
        assert contract["hll"]["relative_standard_error"] == pytest.approx(
            1.04 / np.sqrt(4096)
        )
        assert contract["kll"]["rank_error"] == pytest.approx(2.3 / 200 ** 0.9)
        for structure in contract.values():
            assert "bound" in structure

    def test_memory_is_bounded_and_reported(self, summary):
        # Two 4 KiB HLL register arrays, two KLL sketches and two small
        # name counters: the bundle stays under 32 KiB.
        assert 0 < summary.memory_bytes() < 32 << 10
        assert summary.memory_bytes() > 2 * summary.hll_botnets.memory_bytes + (
            summary.kll_duration.memory_bytes + summary.kll_interval.memory_bytes
        )

    def test_roundtrip_preserves_estimates(self, summary):
        revived = AttackStreamSummary.from_dict(summary.to_dict())
        assert revived.n_records == summary.n_records
        assert revived.estimate() == summary.estimate()
        assert revived.params == summary.params

    def test_copy_is_independent(self, summary, tiny_ds):
        dup = summary.copy()
        dup.update(list(tiny_ds.iter_attacks())[:10])
        assert dup.n_records == summary.n_records + 10
        assert summary.n_records == tiny_ds.n_attacks

    def test_empty_summary(self):
        est = AttackStreamSummary().estimate()
        assert est["n_records"] == 0
        assert est["families"] == {}
        assert np.isnan(est["duration_seconds"]["p50"])


class TestReport:
    def test_render_mentions_scale_and_budget(self, summary):
        text = render_sketch_report(summary)
        assert text.startswith(f"Sketch summary over {summary.n_records:,} attacks")
        assert "approximate" in text
        assert "resident sketch memory" in text

    def test_render_empty(self):
        text = render_sketch_report(AttackStreamSummary())
        assert "0 attacks" in text
