"""Tests for target analyses (Table V, Fig 14)."""

from datetime import datetime, timezone

import numpy as np
import pytest

from repro.core.targets import (
    _month_mask,
    country_breakdown,
    organization_affinity,
    top_target_countries,
    victim_org_types,
)


class TestCountryBreakdown:
    def test_counts_sum(self, small_ds):
        b = country_breakdown(small_ds, "dirtjumper")
        assert b.total_attacks == small_ds.attacks_of("dirtjumper").size
        assert sum(n for _cc, n in b.top) <= b.total_attacks

    def test_top_sorted_descending(self, small_ds):
        b = country_breakdown(small_ds, "dirtjumper")
        counts = [n for _cc, n in b.top]
        assert counts == sorted(counts, reverse=True)

    def test_preferred_country_matches_profile(self, small_ds):
        # Table V calibration: Dirtjumper prefers the US, Pandora Russia.
        assert country_breakdown(small_ds, "dirtjumper").top[0][0] in ("US", "RU")
        assert country_breakdown(small_ds, "pandora").top[0][0] == "RU"

    def test_no_attacks_raises(self, small_ds):
        with pytest.raises(ValueError):
            country_breakdown(small_ds, "zemra")


class TestGlobalTop:
    def test_global_top5(self, small_ds):
        top = top_target_countries(small_ds)
        assert len(top) == 5
        codes = [cc for cc, _n in top]
        # RU and US dominate the calibrated mix.
        assert "RU" in codes and "US" in codes


class TestOrganizationAffinity:
    def test_unfiltered_spots(self, small_ds):
        spots = organization_affinity(small_ds, "pandora")
        assert spots
        assert sum(s.attack_count for s in spots) == small_ds.attacks_of("pandora").size
        counts = [s.attack_count for s in spots]
        assert counts == sorted(counts, reverse=True)

    def test_month_filter_subset(self, small_ds):
        all_spots = organization_affinity(small_ds, "pandora")
        feb = organization_affinity(small_ds, "pandora", year=2013, month=2)
        assert sum(s.attack_count for s in feb) <= sum(s.attack_count for s in all_spots)

    def test_half_month_spec_rejected(self, small_ds):
        with pytest.raises(ValueError):
            organization_affinity(small_ds, "pandora", year=2013)

    def test_empty_month(self, small_ds):
        # July 2014 is outside the observation window.
        assert organization_affinity(small_ds, "pandora", year=2014, month=7) == []

    @pytest.mark.parametrize("year, month", [(2013, 2), (2012, 12)])
    def test_month_mask_matches_datetime_at_bounds(self, year, month):
        # fromtimestamp rounds to microseconds, so bound - 1e-7 is dated
        # in the next month; the mask must agree start for start.
        edges = [
            datetime(year, month, 1, tzinfo=timezone.utc).timestamp(),
            datetime(year + month // 12, month % 12 + 1, 1, tzinfo=timezone.utc).timestamp(),
        ]
        starts = np.array([e + d for e in edges for d in (-1e-7, 0.0, 1e-7)] + [edges[0] + 86400.0])
        expected = [
            (d.year, d.month) == (year, month)
            for d in (datetime.fromtimestamp(ts, tz=timezone.utc) for ts in starts)
        ]
        assert _month_mask(starts, year, month).tolist() == expected
        assert expected == [True, True, True, False, False, False, True]

    def test_month_mask_matches_datetime_on_data(self, small_ds):
        starts = small_ds.start
        for year, month in [(2012, 8), (2013, 2), (2013, 12), (2014, 7), (2013, 13)]:
            expected = [
                (d.year, d.month) == (year, month)
                for d in (datetime.fromtimestamp(ts, tz=timezone.utc) for ts in starts)
            ]
            assert _month_mask(starts, year, month).tolist() == expected


class TestOrgTypes:
    def test_covers_all_attacks(self, small_ds):
        types = victim_org_types(small_ds)
        assert sum(types.values()) == small_ds.n_attacks

    def test_infrastructure_dominates(self, small_ds):
        types = victim_org_types(small_ds)
        infra = sum(types.get(t, 0) for t in
                    ("hosting", "cloud", "datacenter", "registrar", "backbone"))
        assert infra / small_ds.n_attacks > 0.6
