"""Target analyses: country- and organization-level victims (§IV-B).

* Table V — per-family victim-country breakdown with top-5 lists;
* the global top-5 target countries (USA, Russia, Germany, Ukraine, the
  Netherlands in the paper);
* Fig 14 — organization-level affinity: attacks per victim organization
  for one family in one calendar month, with map coordinates.

The victim country/organization marginals are memoized on the shared
:class:`AnalysisContext` and reused across Table V, Fig 14 and the
report renderers.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .context import AnalysisContext, AnalysisSource

__all__ = [
    "CountryBreakdown",
    "country_breakdown",
    "top_target_countries",
    "OrganizationSpot",
    "organization_affinity",
    "victim_org_types",
]


@dataclass(frozen=True)
class CountryBreakdown:
    """Table V row group for one family."""

    family: str
    n_countries: int
    #: (ISO2 code, attack count) sorted by count descending.
    top: list[tuple[str, int]]
    total_attacks: int


def country_breakdown(
    source: AnalysisSource, family: str, top_n: int = 5
) -> CountryBreakdown:
    """Table V: victim countries of one family with its top-``top_n`` list."""
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    if ctx.family_attacks(family).size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    uniq, counts = ctx.family_target_country_counts(family)
    order = np.argsort(-counts, kind="stable")
    top = [
        (ds.world.countries[int(uniq[i])].code, int(counts[i]))
        for i in order[:top_n]
    ]
    return CountryBreakdown(
        family=family,
        n_countries=int(uniq.size),
        top=top,
        total_attacks=int(ctx.family_attacks(family).size),
    )


def top_target_countries(source: AnalysisSource, top_n: int = 5) -> list[tuple[str, int]]:
    """The globally most-attacked countries (§IV-B1's USA/Russia/... list)."""
    ctx = AnalysisContext.of(source)
    uniq, counts = ctx.target_country_counts()
    order = np.argsort(-counts, kind="stable")
    return [
        (ctx.dataset.world.countries[int(uniq[i])].code, int(counts[i]))
        for i in order[:top_n]
    ]


@dataclass(frozen=True)
class OrganizationSpot:
    """One marker of the Fig 14 map: a victim organization under attack."""

    organization: str
    org_type: str
    country_code: str
    city: str
    lat: float
    lon: float
    attack_count: int
    n_targets: int


def organization_affinity(
    source: AnalysisSource,
    family: str,
    year: int | None = None,
    month: int | None = None,
) -> list[OrganizationSpot]:
    """Fig 14: attacks per victim organization (optionally one month).

    The paper plots Pandora's February 2013 hotspots; pass ``year=2013,
    month=2`` to reproduce that view.  Spots are sorted by attack count
    descending, mapped to the organization's home city coordinates.
    """
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if idx.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    if (year is None) != (month is None):
        raise ValueError("pass both year and month, or neither")
    if year is not None:
        idx = idx[_month_mask(ds.start[idx], year, month)]
        if idx.size == 0:
            return []
    targets = ds.target_idx[idx]
    orgs = ds.victims.org_idx[targets]
    # One sort of the (org, target) pairs gives each organization's
    # attacks and its distinct targets.
    order = np.lexsort((targets, orgs))
    orgs, targets = orgs[order], targets[order]
    new_org = np.ones(orgs.size, dtype=bool)
    new_org[1:] = orgs[1:] != orgs[:-1]
    new_pair = new_org.copy()
    new_pair[1:] |= targets[1:] != targets[:-1]
    heads = np.flatnonzero(new_org)
    counts = np.diff(np.append(heads, orgs.size))
    distinct = np.bincount(np.cumsum(new_org)[new_pair] - 1, minlength=heads.size)
    spots = []
    for org_index, count, n_targets in zip(
        orgs[heads].tolist(), counts.tolist(), distinct.tolist()
    ):
        org = ds.world.organizations[org_index]
        city = ds.world.cities[org.city_index]
        country = ds.world.countries[org.country_index]
        spots.append(
            OrganizationSpot(
                organization=org.name,
                org_type=org.org_type,
                country_code=country.code,
                city=city.name,
                lat=city.lat,
                lon=city.lon,
                attack_count=count,
                n_targets=n_targets,
            )
        )
    spots.sort(key=lambda s: (-s.attack_count, s.organization))
    return spots


def _month_mask(starts: np.ndarray, year: int, month: int) -> np.ndarray:
    """Which ``starts`` fall in UTC ``year``-``month``.

    Exactly the month ``datetime.fromtimestamp`` dates each start in, at
    the cost of two comparisons: only a start within a microsecond of a
    month bound, which ``fromtimestamp``'s rounding to microseconds can
    carry across it, takes the ``datetime`` check.
    """
    try:
        lo = datetime(year, month, 1, tzinfo=timezone.utc).timestamp()
        hi = datetime(year + month // 12, month % 12 + 1, 1, tzinfo=timezone.utc).timestamp()
    except (ValueError, OverflowError):  # no such month, or past year 9999
        return np.zeros(starts.size, dtype=bool)
    keep = (starts >= lo) & (starts < hi)
    near = (np.abs(starts - lo) < 1e-6) | (np.abs(starts - hi) < 1e-6)
    for i in np.flatnonzero(near):
        d = datetime.fromtimestamp(starts[i], tz=timezone.utc)
        keep[i] = (d.year, d.month) == (year, month)
    return keep


def victim_org_types(source: AnalysisSource) -> dict[str, int]:
    """Attacks per victim-organization *type* (§IV-B2's finding that
    hosting services, clouds, data centers, registrars and backbones
    absorb most attacks)."""
    return AnalysisContext.of(source).victim_org_type_counts()


class OrgTypeCounts(dict):
    """Attacks per organization type, types in ascending order of their
    first attacked organization's index.

    ``first_org`` maps each type to that index, so an extend can place a
    type that newly appears, or moves forward, without walking the
    organizations already counted.
    """

    def __init__(self, counts=(), first_org: dict[str, int] | None = None) -> None:
        super().__init__(counts)
        self.first_org = dict(first_org or {})


def _victim_org_types(ctx: AnalysisContext) -> OrgTypeCounts:
    # Built from the memoized per-organization marginal, which the
    # sharded merge seeds, so both builds count the same marginal.
    return _org_type_counts(ctx.dataset.world, [ctx.target_org_counts()])


def _org_type_counts(
    world, marginals, prev: OrgTypeCounts | None = None
) -> OrgTypeCounts:
    """``prev`` plus ``(org indices, counts)`` marginals, by org type.

    Loops over the marginals' organizations only: the order of ``prev``
    comes from its ``first_org``, not from re-walking its organizations.
    """
    counts = dict(prev or {})
    first = dict(prev.first_org) if prev is not None else {}
    for uniq, n in marginals:
        for org_index, count in zip(uniq.tolist(), n.tolist()):
            org_type = world.organizations[org_index].org_type
            counts[org_type] = counts.get(org_type, 0) + count
            if org_index < first.get(org_type, org_index + 1):
                first[org_type] = org_index
    order = sorted(counts, key=first.__getitem__)
    return OrgTypeCounts({t: counts[t] for t in order}, first)
