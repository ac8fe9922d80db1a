"""Reference loops for the vectorised analysis kernels.

The sweep-line collaboration and chain scans, Fig 3's simultaneous-start
tally, the weekly-shift pass,
the batched snapshot-dispersion kernel, Fig 14's per-organization
target count, Fig 16's per-event pair walk and Fig 18's per-chain dot
and magnitude loops replaced these straightforward Python loops.  They
are kept here, unchanged, as the comparison target of
``tests/core/test_kernel_parity.py``: exact for the integer/tuple
kernels, ``allclose`` for the dispersion kernel (its float summation
order differs).  The CSS fit through ``scipy.optimize.minimize`` is the
bitwise target of ``tests/timeseries/test_arima_vectorized.py``, the
dispersion kernel as it was before its per-bot trigonometry moved into
the bot geo matrix is the byte target of the hoisted one, and the
per-family view builds from before the family pass are the bitwise
target of the accessors that slice it.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import optimize, signal

from repro.core.collaboration import CollabEvent, PairAnalysis
from repro.core.consecutive import AttackChain
from repro.core.context import AnalysisContext, AnalysisSource
from repro.core.shift import WeeklyShift
from repro.core.stats import sorted_unique, unique_pairs
from repro.core.targets import OrganizationSpot, _month_mask
from repro.geo.haversine import EARTH_RADIUS_KM
from repro.timeseries.arima import ARIMAFit, _instability
from repro.timeseries.differencing import difference
from repro.timeseries.hannan_rissanen import hannan_rissanen


def reference_detect_collaborations(
    ds, start_window: float, duration_window: float
) -> list[CollabEvent]:
    """Reference implementation (pre-vectorization); kept for parity tests."""
    events: list[CollabEvent] = []
    order = np.lexsort((ds.start, ds.target_idx))
    targets = ds.target_idx[order]
    boundaries = np.flatnonzero(np.diff(targets) != 0) + 1
    for group in np.split(order, boundaries):
        if group.size < 2:
            continue
        starts = ds.start[group]
        # Runs of near-simultaneous starts on this target.
        run_break = np.flatnonzero(np.diff(starts) > start_window) + 1
        for run in np.split(group, run_break):
            if run.size < 2:
                continue
            base_duration = float(ds.end[run[0]] - ds.start[run[0]])
            keep: list[int] = []
            seen_botnets: set[int] = set()
            for i in run:
                botnet = int(ds.botnet_id[i])
                duration = float(ds.end[i] - ds.start[i])
                if botnet in seen_botnets:
                    continue
                if abs(duration - base_duration) > duration_window:
                    continue
                seen_botnets.add(botnet)
                keep.append(int(i))
            if len(keep) < 2:
                continue
            families = tuple(
                sorted({ds.family_name(int(ds.family_idx[i])) for i in keep})
            )
            events.append(
                CollabEvent(
                    attack_indices=tuple(keep),
                    target_index=int(ds.target_idx[keep[0]]),
                    families=families,
                    botnet_ids=tuple(int(ds.botnet_id[i]) for i in keep),
                    start=float(min(ds.start[i] for i in keep)),
                    is_inter_family=len(families) > 1,
                )
            )
    events.sort(key=lambda e: e.start)
    return events


def reference_detect_chains(ds, margin: float, min_length: int) -> list[AttackChain]:
    """Reference implementation (pre-vectorization); kept for parity tests."""
    chains: list[AttackChain] = []
    order = np.lexsort((ds.start, ds.target_idx))
    targets = ds.target_idx[order]
    boundaries = np.flatnonzero(np.diff(targets) != 0) + 1
    for group in np.split(order, boundaries):
        if group.size < min_length:
            continue
        current: list[int] = [int(group[0])]
        gaps: list[float] = []

        def flush() -> None:
            if len(current) >= min_length:
                chains.append(
                    AttackChain(
                        attack_indices=tuple(current),
                        target_index=int(ds.target_idx[current[0]]),
                        families=tuple(
                            ds.family_name(int(ds.family_idx[i])) for i in current
                        ),
                        start=float(ds.start[current[0]]),
                        end=float(ds.end[current[-1]]),
                        gaps=tuple(gaps),
                    )
                )

        for i in group[1:]:
            prev = current[-1]
            gap = float(ds.start[i] - ds.end[prev])
            starts_apart = float(ds.start[i] - ds.start[prev])
            if abs(gap) <= margin and starts_apart > 1.0:
                current.append(int(i))
                gaps.append(gap)
            else:
                flush()
                current = [int(i)]
                gaps = []
        flush()
    chains.sort(key=lambda c: c.start)
    return chains


def reference_simultaneous_tally(
    ds, lo: int, hi: int, tolerance: float = 0.0
) -> tuple[dict[str, int], int, dict[tuple[str, str], int]]:
    """Reference loop over the start-time groups of rows ``[lo, hi)``.

    Rows are taken in start order (ties in row order); a row joins the
    open group when its start is within ``tolerance`` of the previous
    row's.  A group of two or more rows is an event: single-family when
    one family holds all its rows, else one co-occurrence for every
    unordered pair of its families.  Returns ``(single, multi, pairs)``
    as ``intervals._simultaneous_tally`` does: ``single`` keyed by
    family name in family-index order, ``pairs`` in the order the
    events first credit them.
    """
    starts = [float(s) for s in ds.start[lo:hi]]
    fams = [int(f) for f in ds.family_idx[lo:hi]]
    groups: list[list[int]] = []
    for i in sorted(range(len(starts)), key=lambda k: starts[k]):
        if groups and not starts[i] - starts[groups[-1][-1]] > tolerance:
            groups[-1].append(i)
        else:
            groups.append([i])
    single_by_index: dict[int, int] = {}
    multi = 0
    pairs: dict[tuple[str, str], int] = {}
    for group in groups:
        if len(group) < 2:
            continue
        present = sorted({fams[i] for i in group})
        if len(present) == 1:
            single_by_index[present[0]] = single_by_index.get(present[0], 0) + 1
            continue
        multi += 1
        for pair in combinations(sorted(ds.family_name(f) for f in present), 2):
            pairs[pair] = pairs.get(pair, 0) + 1
    single = {ds.family_name(f): single_by_index[f] for f in sorted(single_by_index)}
    return single, multi, pairs


def reference_weekly_shift(ctx: AnalysisContext, family: str) -> WeeklyShift:
    """Reference per-week loop (pre-vectorization); kept for parity tests."""
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if idx.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    weeks_of_attack = ((ds.start[idx] - ds.window.start) // (7 * 86400)).astype(np.int64)

    weeks: list[int] = []
    existing_counts: list[int] = []
    new_counts: list[int] = []
    new_country_counts: list[int] = []
    seen: set[int] = set()
    for week in np.unique(weeks_of_attack):
        attack_ids = idx[weeks_of_attack == week]
        bots = np.unique(
            np.concatenate([ds.participants_of(int(i)) for i in attack_ids])
        )
        countries = ds.bots.country_idx[bots]
        if seen:
            known = np.isin(countries, list(seen))
        else:
            known = np.ones(countries.size, dtype=bool)  # baseline week
        fresh = {int(c) for c in np.unique(countries[~known])}
        weeks.append(int(week))
        existing_counts.append(int(np.sum(known)))
        new_counts.append(int(np.sum(~known)))
        new_country_counts.append(len(fresh))
        seen.update(int(c) for c in np.unique(countries))
    return WeeklyShift(
        family=family,
        weeks=np.asarray(weeks, dtype=np.int64),
        bots_existing=np.asarray(existing_counts, dtype=np.int64),
        bots_new=np.asarray(new_counts, dtype=np.int64),
        new_countries=np.asarray(new_country_counts, dtype=np.int64),
    )


def reference_family_starts(ctx: AnalysisContext, family: str) -> np.ndarray:
    """The per-family accessor bodies before the family pass: each
    family's starts, gaps, participant CSR, victim-country marginal and
    weekly pairs built from its own attack indices."""
    return np.sort(ctx.dataset.start[ctx.family_attacks(family)])


def reference_family_intervals(
    ctx: AnalysisContext, family: str, include_simultaneous: bool = True
) -> np.ndarray:
    if include_simultaneous:
        starts = reference_family_starts(ctx, family)
        if starts.size < 2:
            return np.zeros(0)
        return np.diff(starts)
    gaps = reference_family_intervals(ctx, family, include_simultaneous=True)
    return gaps[gaps > 0]


def reference_family_participants(
    ctx: AnalysisContext, family: str
) -> tuple[np.ndarray, np.ndarray]:
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    counts = (ds.part_offsets[idx + 1] - ds.part_offsets[idx]).astype(np.int64)
    offsets = np.zeros(idx.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # One gather instead of a per-attack slice loop: element j of
    # segment k lives at ``part_offsets[idx[k]] + j`` in the
    # dataset-wide CSR, so the source positions are the segment
    # bases repeated per element plus each element's within-
    # segment rank.
    total = int(offsets[-1])
    base = np.repeat(ds.part_offsets[idx].astype(np.int64), counts)
    rank = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    flat = np.asarray(ds.participants)[base + rank]
    return offsets, flat


def reference_family_target_country_counts(
    ctx: AnalysisContext, family: str
) -> tuple[np.ndarray, np.ndarray]:
    return np.unique(ctx.target_country_idx()[ctx.family_attacks(family)], return_counts=True)


def reference_weekly_pairs(
    ctx: AnalysisContext, family: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if idx.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.int64)
    weeks_of_attack = ((ds.start[idx] - ds.window.start) // (7 * 86400)).astype(np.int64)

    offsets, flat = reference_family_participants(ctx, family)
    counts = np.diff(offsets)
    week_rep = np.repeat(weeks_of_attack, counts)

    # Unique (week, bot) pairs: a bot counts once per active week.
    u_week, u_bot = unique_pairs(week_rep, flat, ds.bots.n_bots)
    return sorted_unique(weeks_of_attack), u_week, u_bot


#: Family view kind -> its reference build.
REFERENCE_FAMILY_VIEWS = {
    "family_starts": reference_family_starts,
    "family_intervals": reference_family_intervals,
    "family_participants": reference_family_participants,
    "family_target_country_counts": reference_family_target_country_counts,
    "weekly_shift_pairs": reference_weekly_pairs,
}


def reference_snapshot_dispersions(
    source: AnalysisSource, family: str
) -> tuple[np.ndarray, np.ndarray]:
    """Reference per-snapshot loop (pre-vectorization); kept for parity tests.

    The batched kernel and this loop sum floating-point terms in
    different orders, so parity is asserted with ``np.allclose`` rather
    than bitwise equality.
    """
    from repro.geo.haversine import dispersion_km
    from repro.monitor.snapshots import iter_hourly_snapshots

    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if idx.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    offsets, flat = ctx.family_participants(family)
    times: list[float] = []
    values: list[float] = []
    for snap in iter_hourly_snapshots(ds.start[idx], offsets, flat, ds.window, family):
        if snap.n_bots < 2:
            continue
        times.append(snap.timestamp)
        values.append(
            dispersion_km(ds.bots.lat[snap.bot_indices], ds.bots.lon[snap.bot_indices])
        )
    return np.asarray(times), np.asarray(values)


def reference_segment_centers(
    lats_r: np.ndarray, lons_r: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Geographic centre per CSR segment (3-D unit-vector mean)."""
    x = np.cos(lats_r) * np.cos(lons_r)
    y = np.cos(lats_r) * np.sin(lons_r)
    z = np.sin(lats_r)
    # Zero-count segments (attacks with no recorded participants, e.g.
    # on ingested attack-table-only datasets) have nothing to reduce:
    # the rollups run over the other segments, and their centres stay 0.
    full = counts > 0
    starts = offsets[:-1][full]
    sx = np.add.reduceat(x, starts) / counts[full]
    sy = np.add.reduceat(y, starts) / counts[full]
    sz = np.add.reduceat(z, starts) / counts[full]
    norm = np.sqrt(sx * sx + sy * sy + sz * sz)
    norm = np.maximum(norm, 1e-12)
    lat_c = np.zeros(counts.size)
    lon_c = np.zeros(counts.size)
    lat_c[full] = np.arcsin(np.clip(sz / norm, -1.0, 1.0))
    lon_c[full] = np.arctan2(sy, sx)
    return lat_c, lon_c


def reference_segment_dispersions(
    lats_r: np.ndarray, lons_r: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Geolocation-distribution value per CSR segment (radian coords).

    The shared kernel behind the per-attack and per-snapshot dispersion
    analyses: segment centres via the 3-D unit-vector mean, a broadcast
    signed haversine from every point to its segment's centre, and one
    ``np.add.reduceat`` rollup of the signed sums.
    """
    if counts.size == 0 or lats_r.size == 0:
        return np.zeros(counts.size)
    lat_c, lon_c = reference_segment_centers(lats_r, lons_r, offsets, counts)

    # Broadcast each segment's centre back onto its participants.
    seg = np.repeat(np.arange(counts.size), counts)
    clat = lat_c[seg]
    clon = lon_c[seg]
    dlat = lats_r - clat
    dlon = lons_r - clon
    a = np.sin(dlat / 2.0) ** 2 + np.cos(clat) * np.cos(lats_r) * np.sin(dlon / 2.0) ** 2
    dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    # Paper's sign convention: east positive, west negative; ties by north/south.
    wrapped = np.mod(dlon + np.pi, 2.0 * np.pi) - np.pi
    sign = np.sign(wrapped)
    sign = np.where(sign == 0, np.sign(dlat), sign)
    # Zero-count segments stay 0, as in the centre kernel (see above).
    full = counts > 0
    values = np.zeros(counts.size)
    values[full] = np.abs(np.add.reduceat(sign * dist, offsets[:-1][full]))
    return values


def reference_segment_dispersions_of(coords, bots, offsets, counts) -> np.ndarray:
    """:func:`reference_segment_dispersions` with the hoisted kernel's
    signature: the bots' radian coordinates gathered first, as the
    callers did before the hoist."""
    return reference_segment_dispersions(coords.lat[bots], coords.lon[bots], offsets, counts)


def reference_organization_affinity(
    source: AnalysisSource, family: str, year: int | None = None, month: int | None = None
) -> list[OrganizationSpot]:
    """Reference per-organization loop (pre-vectorization); kept for parity tests."""
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if year is not None:
        idx = idx[_month_mask(ds.start[idx], year, month)]
        if idx.size == 0:
            return []
    targets = ds.target_idx[idx]
    orgs = ds.victims.org_idx[targets]
    uniq, counts = np.unique(orgs, return_counts=True)
    spots = []
    for org_index, count in zip(uniq, counts):
        org = ds.world.organizations[int(org_index)]
        city = ds.world.cities[org.city_index]
        country = ds.world.countries[org.country_index]
        n_targets = int(np.unique(targets[orgs == org_index]).size)
        spots.append(
            OrganizationSpot(
                organization=org.name,
                org_type=org.org_type,
                country_code=country.code,
                city=city.name,
                lat=city.lat,
                lon=city.lon,
                attack_count=int(count),
                n_targets=n_targets,
            )
        )
    spots.sort(key=lambda s: (-s.attack_count, s.organization))
    return spots


def reference_chain_timeline(
    source: AnalysisSource, chains: list[AttackChain]
) -> list[tuple[float, int, str, int]]:
    """Reference per-row dot loop (pre-vectorization); kept for parity tests."""
    ds = AnalysisContext.of(source).dataset
    dots: list[tuple[float, int, str, int]] = []
    for chain in chains:
        for i in chain.attack_indices:
            dots.append(
                (
                    float(ds.start[i]),
                    int(ds.target_idx[i]),
                    ds.family_name(int(ds.family_idx[i])),
                    int(ds.magnitude[i]),
                )
            )
    dots.sort()
    return dots


def reference_stable_chain_count(source: AnalysisSource, chains: list[AttackChain]) -> int:
    """Reference per-chain magnitude loop of Fig 18; kept for parity tests."""
    ds = AnalysisContext.of(source).dataset
    stable = 0
    for chain in chains:
        mags = np.array([ds.magnitude[i] for i in chain.attack_indices], dtype=float)
        if mags.size and (mags.max() - mags.min()) / max(mags.max(), 1.0) <= 0.3:
            stable += 1
    return stable


def reference_pair_analysis(
    source: AnalysisSource, family_a: str, family_b: str, events: list[CollabEvent]
) -> PairAnalysis:
    """Reference per-event row walk of Fig 16 (pre-vectorization)."""
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    pair = tuple(sorted((family_a, family_b)))
    mine = [e for e in events if e.is_inter_family and set(pair) <= set(e.families)]

    targets = sorted({e.target_index for e in mine})
    countries = ds.victims.country_idx[targets] if targets else np.zeros(0, dtype=int)
    uniq_c, counts_c = (
        np.unique(countries, return_counts=True) if targets else (np.zeros(0), np.zeros(0))
    )
    order = np.argsort(-counts_c, kind="stable")
    top_countries = [
        (ds.world.countries[int(uniq_c[i])].code, int(counts_c[i])) for i in order[:5]
    ]

    series: list[tuple[float, float, float, int, int]] = []
    durations_a: list[float] = []
    durations_b: list[float] = []
    for event in mine:
        per_family: dict[str, tuple[float, int]] = {}
        for i in event.attack_indices:
            fam = ds.family_name(int(ds.family_idx[i]))
            if fam in (family_a, family_b) and fam not in per_family:
                per_family[fam] = (float(ds.end[i] - ds.start[i]), int(ds.magnitude[i]))
        if family_a in per_family and family_b in per_family:
            dur_a, mag_a = per_family[family_a]
            dur_b, mag_b = per_family[family_b]
            durations_a.append(dur_a)
            durations_b.append(dur_b)
            series.append((event.start, dur_a, dur_b, mag_a, mag_b))

    starts = [s for s, *_ in series]
    span_weeks = (max(starts) - min(starts)) / (7 * 86400.0) if len(starts) > 1 else 0.0
    return PairAnalysis(
        family_a=family_a,
        family_b=family_b,
        n_events=len(series),
        n_targets=len(targets),
        n_countries=int(uniq_c.size),
        n_organizations=int(np.unique(ds.victims.org_idx[targets]).size) if targets else 0,
        n_asns=int(np.unique(ds.victims.asn[targets]).size) if targets else 0,
        top_countries=top_countries,
        mean_duration_a=float(np.mean(durations_a)) if durations_a else 0.0,
        mean_duration_b=float(np.mean(durations_b)) if durations_b else 0.0,
        series=sorted(series),
        span_weeks=float(span_weeks),
    )


def reference_css_fit(order, series, maxiter: int = 500):
    """``ARIMA(order).fit(series, maxiter)`` with every objective call
    evaluated afresh (no memo) through the public ``scipy.signal.lfilter``
    and ``scipy.optimize.minimize``; returns ``(fit, optimize result)``."""
    p, d, q = order
    y_orig = np.asarray(series, dtype=float)
    y = difference(y_orig, d) if d else y_orig.copy()
    phi0, theta0 = hannan_rissanen(y - y.mean(), p, q)
    const0 = float(y.mean()) * (1.0 - float(np.sum(phi0)))
    x0 = np.concatenate(([const0], phi0, theta0))

    n = y.size
    y_tail = y[p:]
    lags = [y[p - 1 - i : n - 1 - i] for i in range(p)]
    a_full = np.empty(q + 1)
    a_full[0] = 1.0

    def objective(x: np.ndarray) -> float:
        const = x[0]
        phi = x[1 : 1 + p]
        theta = x[1 + p :]
        z = y_tail - const
        for i in range(p):
            z -= phi[i] * lags[i]
        if q:
            a_full[1:] = theta
            eps = signal.lfilter([1.0], a_full, z)
        else:
            eps = z
        css = float(np.dot(eps, eps))
        violation = _instability(phi) + _instability(-theta)
        return css * (1.0 + 1e4 * violation)

    result = None
    if x0.size == 1:
        best = np.array([float(y.mean())])
    else:
        result = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter * max(1, x0.size), "xatol": 1e-6, "fatol": 1e-8},
        )
        best = result.x

    const = float(best[0])
    phi = np.asarray(best[1 : 1 + p], dtype=float)
    theta = np.asarray(best[1 + p :], dtype=float)
    # ``_css_residuals``, through the public filter.
    z = y - const
    for i in range(p):
        z[p:] -= phi[i] * y[p - 1 - i : n - 1 - i]
    z[:p] = 0.0
    eps = signal.lfilter([1.0], np.concatenate(([1.0], theta)), z) if q else z
    n_eff = max(y.size - p, 1)
    sigma2 = max(float(np.dot(eps[p:], eps[p:])) / n_eff, 1e-12)
    loglike = -0.5 * n_eff * (np.log(2.0 * np.pi * sigma2) + 1.0)
    diff_tail = np.empty(d)
    level = y_orig.copy()
    for lvl in range(d):
        diff_tail[lvl] = level[-1]
        level = np.diff(level)
    fit = ARIMAFit(
        order=(p, d, q),
        const=const,
        phi=phi,
        theta=theta,
        sigma2=sigma2,
        n_obs=int(y.size),
        loglike=float(loglike),
        train_tail=y[-max(p, 1) :].copy(),
        diff_tail=diff_tail,
        eps_tail=eps[-q:].copy() if q else np.zeros(0),
    )
    return fit, result
