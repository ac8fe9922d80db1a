"""Source geolocation analyses (§IV-A, Figs 8-11).

For every attack, the paper takes the geographic centre of the
participating bots, sums the *signed* Haversine distances from that
centre (east/north positive, west/south negative) and uses the absolute
value of the sum — the *geolocation distribution value* — to profile how
dispersed, and how symmetric, a family's firepower is.  A (near-)zero
value means the bots are geographically symmetric around their centre.

Everything here is vectorised over the dataset's CSR participant layout;
the full 50k-attack dataset (≈2.7 M participations) profiles in well
under a second.  The kernel walks the segments in runs of whole
segments of at most ``_RUN_PARTICIPATIONS`` participations, so its
per-participation temporaries stay a few MB whatever the trace's size,
and every value is the one an all-at-once pass gives, to the byte.
The per-family dispersion series is memoized on the
:class:`AnalysisContext`, so the profile, CDF, histogram and the ARIMA
predictor all share one computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..geo.haversine import EARTH_RADIUS_KM
from ..simulation.clock import SECONDS_PER_HOUR
from .context import AnalysisContext, AnalysisSource
from .stats import ecdf, segment_positions, segment_runs, unique_pairs

__all__ = [
    "SYMMETRY_TOLERANCE_KM",
    "attack_dispersions",
    "snapshot_dispersions",
    "DispersionProfile",
    "dispersion_profile",
    "dispersion_cdf",
    "dispersion_histogram",
]

#: Dispersion values below this are treated as "zero" (symmetric).  The
#: paper's histograms bin distances in km; sub-tolerance residuals land
#: in the zero bin.
SYMMETRY_TOLERANCE_KM = 100.0

#: An hourly monitoring snapshot holds the bots of the attacks that
#: started in the trailing 24 hours (§II-B).
LOOKBACK_SECONDS = 24 * SECONDS_PER_HOUR


class BotCoords(NamedTuple):
    """Per-bot geo columns, radians: the participant geo matrix.

    ``matrix`` holds one row-major row per bot, ``(lat, lon, x, y, z,
    cos_lat)`` with ``(x, y, z)`` the bot's 3-D unit vector, so the
    dispersion kernel gathers all six with one ``take`` by bot index and
    its per-bot trigonometry runs once per bot rather than once per
    participation.  The named columns are strided views of it.
    """

    matrix: np.ndarray

    @property
    def lat(self) -> np.ndarray:
        return self.matrix[:, 0]

    @property
    def lon(self) -> np.ndarray:
        return self.matrix[:, 1]


def bot_coords(bots) -> BotCoords:
    """The :class:`BotCoords` of a bot registry."""
    # Column by column through two reused full-length buffers, so no
    # more than those two are alive beside the matrix.  Every ufunc
    # reads a contiguous buffer, never a strided matrix column, so each
    # value rounds as in the plain expression form.
    lat = np.radians(bots.lat)
    matrix = np.empty((lat.size, 6), dtype=np.result_type(lat, 1.0))
    matrix[:, 0] = lat
    tmp = np.sin(lat)
    matrix[:, 4] = tmp
    cos_lat = np.cos(lat, out=lat)
    matrix[:, 5] = cos_lat
    lon = np.radians(bots.lon, out=tmp)
    matrix[:, 1] = lon
    np.cos(lon, out=tmp)
    tmp *= cos_lat
    matrix[:, 2] = tmp
    np.radians(bots.lon, out=tmp)
    np.sin(tmp, out=tmp)
    tmp *= cos_lat
    matrix[:, 3] = tmp
    return BotCoords(matrix)


#: Participations one run of :func:`_segment_dispersions` evaluates at
#: once, and one run of the family pass's CSR gather
#: (``context._build_family_pass``) copies.  A dispersion run holds at
#: most its gathered six-column geo rows and three float64 buffers of its
#: length, about 2.3 MB; a gather run one int64 positions array.  So both
#: working sets stay the same at any trace size.
_RUN_PARTICIPATIONS = 1 << 15

_TWO_PI = 2.0 * np.pi


def _segment_dispersions(
    coords: BotCoords, bots: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Geolocation-distribution value per CSR segment of bot indices.

    The shared kernel behind the per-attack and per-snapshot dispersion
    analyses.  The non-empty segments are cut into runs of consecutive
    whole segments of at most ``_RUN_PARTICIPATIONS`` participations (a
    larger segment is a run of its own), and :func:`_run_dispersions`
    evaluates one run at a time, so the per-participation temporaries
    stay run-sized however many participations the segments hold.  Every
    segment is still reduced over its own contiguous slice by the same
    expressions in the same order, so the values do not depend on the
    cut.  Zero-count segments (attacks with no recorded participants,
    e.g. on ingested attack-table-only datasets) read 0.
    """
    values = np.zeros(counts.size)
    full = np.flatnonzero(counts)
    starts = offsets[full]
    stops = starts + counts[full]
    for lo, hi in segment_runs(starts, stops, _RUN_PARTICIPATIONS):
        first = starts[lo]
        values[full[lo:hi]] = _run_dispersions(
            coords, bots[first : stops[hi - 1]], starts[lo:hi] - first, counts[full[lo:hi]]
        )
    return values


def _run_dispersions(
    coords: BotCoords, bots: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Dispersion of each segment of one run: ``bots`` split at
    ``starts`` into non-empty segments of ``sizes``.

    Segment centres via the 3-D unit-vector mean, a broadcast signed
    haversine from every point to its segment's centre, and one
    ``np.add.reduceat`` rollup of the signed sums.  The haversine runs
    in place in run-sized buffers; ``* 0.5`` for ``/ 2.0`` and ``a *= a``
    for ``a ** 2`` round the same, so the values are the ones the
    expression form gives, to the byte.
    """
    rows = coords.matrix.take(bots, axis=0)
    lat, lon, x, y, z, cos_lat = rows.T
    # Geographic centre per segment (3-D unit-vector mean).
    sx = np.add.reduceat(x, starts) / sizes
    sy = np.add.reduceat(y, starts) / sizes
    sz = np.add.reduceat(z, starts) / sizes
    norm = np.sqrt(sx * sx + sy * sy + sz * sz)
    norm = np.maximum(norm, 1e-12)
    lat_c = np.arcsin(np.clip(sz / norm, -1.0, 1.0))
    lon_c = np.arctan2(sy, sx)

    # Broadcast each segment's centre back onto its participants, then
    # let the gathered rows go before the haversine's two buffers.
    dlat = np.repeat(lat_c, sizes)
    np.subtract(lat, dlat, out=dlat)
    dlon = np.repeat(lon_c, sizes)
    np.subtract(lon, dlon, out=dlon)
    cos_prod = np.repeat(np.cos(lat_c), sizes)
    np.multiply(cos_prod, cos_lat, out=cos_prod)
    del rows, lat, lon, x, y, z, cos_lat
    # sin²(dlat/2) + cos(lat_c)·cos(lat)·sin²(dlon/2), in that order.
    dist = np.multiply(dlat, 0.5)
    np.sin(dist, out=dist)
    dist *= dist
    term = np.multiply(dlon, 0.5)
    np.sin(term, out=term)
    term *= term
    term *= cos_prod
    dist += term
    np.clip(dist, 0.0, 1.0, out=dist)
    np.sqrt(dist, out=dist)
    np.arcsin(dist, out=dist)
    dist *= 2.0 * EARTH_RADIUS_KM

    # Paper's sign convention: east positive, west negative; ties by
    # north/south.  The sign is that of mod(dlon + π, 2π) − π.
    wrapped = _wrap_2pi(np.add(dlon, np.pi, out=term))
    wrapped -= np.pi
    # Out of place: numpy's in-place ``sign`` misses its SIMD loop.
    sign = np.sign(wrapped, out=cos_prod)
    np.sign(dlat, out=sign, where=sign == 0)
    sign *= dist
    return np.abs(np.add.reduceat(sign, starts))


def _wrap_2pi(t: np.ndarray) -> np.ndarray:
    """``np.mod(t, 2π)`` in place, to the bit for every ``t`` but −0.0
    (which ``dlon + π`` never is: an exact cancellation rounds to +0.0).

    For ``t`` in (−2π, 4π) numpy's remainder is ``t + 2π`` where ``t <
    0`` (the same rounded sum), ``t − 2π`` where ``t ≥ 2π`` (exact by
    Sterbenz's lemma) and ``t`` elsewhere, so two masked in-place ops
    give it; the upper mask is taken before the add, since ``t + 2π``
    may round up to 2π itself.  A run whose ``t`` leaves that range (a
    longitude far outside ±180°, which ingested rows may carry) or holds
    a NaN takes ``np.mod``.
    """
    if t.min() > -_TWO_PI and t.max() < 2.0 * _TWO_PI:
        over = t >= _TWO_PI
        np.add(t, _TWO_PI, out=t, where=t < 0)
        np.subtract(t, _TWO_PI, out=t, where=over)
    else:
        np.mod(t, _TWO_PI, out=t)
    return t


def attack_dispersions(
    source: AnalysisSource, family: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-attack dispersion values for one family, in time order.

    Returns ``(start timestamps, dispersion values in km)``; both arrays
    are aligned and sorted chronologically.  Memoized per family on the
    shared context.
    """
    return AnalysisContext.of(source).attack_dispersions(family)


def _attack_dispersions(
    ctx: AnalysisContext, family: str
) -> tuple[np.ndarray, np.ndarray]:
    """The raw computation behind :func:`attack_dispersions`."""
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if idx.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    offsets, flat = ctx.family_participants(family)
    counts = np.diff(offsets)

    values = _segment_dispersions(ctx.bot_coords_radians(), flat, offsets, counts)
    # Single-bot attacks have no dispersion by definition.
    values[counts < 2] = 0.0
    return ds.start[idx], values


def snapshot_dispersions(
    source: AnalysisSource, family: str
) -> tuple[np.ndarray, np.ndarray]:
    """Dispersion per hourly monitoring snapshot (the §II-B view).

    The paper's collection produces hourly reports whose bot sets are
    cumulative over 24 hours; this computes the geolocation-distribution
    value of each such snapshot instead of each attack.  Returns aligned
    ``(snapshot timestamps, dispersion values)`` for snapshots with at
    least two bots.  Memoized per family on the shared context.
    """
    return AnalysisContext.of(source).snapshot_dispersions(family)


def _snapshot_dispersions(
    ctx: AnalysisContext, family: str
) -> tuple[np.ndarray, np.ndarray]:
    """The raw computation behind :func:`snapshot_dispersions`.

    Evaluates every snapshot on the window's hourly grid.
    """
    ds = ctx.dataset
    idx = ctx.family_attacks(family)
    if idx.size == 0:
        raise ValueError(f"family {family!r} launched no attacks")
    offsets, flat = ctx.family_participants(family)
    starts = ds.start[idx]
    window = ds.window

    # All snapshot windows at once: attacks starting in (t - 24h, t].
    ts = window.start + np.arange(1, window.n_hours + 1, dtype=float) * SECONDS_PER_HOUR
    lo = np.searchsorted(starts, ts - LOOKBACK_SECONDS, side="right")
    hi = np.searchsorted(starts, ts, side="right")
    nonempty = hi > lo
    ts, lo, hi = ts[nonempty], lo[nonempty], hi[nonempty]
    if ts.size == 0:
        return np.zeros(0), np.zeros(0)

    coords = ctx.bot_coords_radians()
    out_times: list[np.ndarray] = []
    out_values: list[np.ndarray] = []
    # Every attack participation lands in up to 24 hourly snapshots, so
    # the expanded (snapshot, bot) pair table is ~24x the family's
    # participation count; chunking over snapshots bounds the peak.
    chunk = 256
    for c0 in range(0, ts.size, chunk):
        c1 = min(c0 + chunk, ts.size)
        plo = offsets[lo[c0:c1]]
        sizes = offsets[hi[c0:c1]] - plo
        seg = np.concatenate(([0], np.cumsum(sizes)))
        if seg[-1] == 0:
            # Attacks with zero recorded participants (e.g. ingested
            # attack-table-only datasets) contribute no snapshot sets.
            continue
        snap = np.repeat(np.arange(c1 - c0), sizes)
        bots = np.asarray(flat)[segment_positions(plo, seg)]

        # Per-snapshot unique bot sets (the 24-hour reports are sets).
        u_snap, u_bot = unique_pairs(snap, bots, coords.lat.size)
        u_counts = np.bincount(u_snap, minlength=c1 - c0)
        good = u_counts >= 2
        sel = good[u_snap]
        counts_sel = u_counts[good]
        if counts_sel.size == 0:
            continue
        u_offsets = np.concatenate(([0], np.cumsum(counts_sel)))
        bot_sel = u_bot[sel]
        vals = _segment_dispersions(coords, bot_sel, u_offsets, counts_sel)
        out_times.append(ts[c0:c1][good])
        out_values.append(vals)
    if not out_times:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(out_times), np.concatenate(out_values)


@dataclass(frozen=True)
class DispersionProfile:
    """Fig 9-11 headline numbers for one family."""

    family: str
    n_attacks: int
    symmetric_fraction: float
    mean_km: float
    std_km: float
    asymmetric_mean_km: float
    asymmetric_std_km: float


def dispersion_profile(
    source: AnalysisSource, family: str, tolerance_km: float = SYMMETRY_TOLERANCE_KM
) -> DispersionProfile:
    """Summarise a family's dispersion values.

    ``symmetric_fraction`` is the share of attacks with dispersion below
    ``tolerance_km`` (the paper reports 76.7 % for Pandora and 89.5 % for
    Blackenergy); the asymmetric statistics cover the rest — what
    Figs 10-11 plot after "removing the symmetric distributions".
    """
    _, values = attack_dispersions(source, family)
    symmetric = values < tolerance_km
    asym = values[~symmetric]
    return DispersionProfile(
        family=family,
        n_attacks=int(values.size),
        symmetric_fraction=float(np.mean(symmetric)),
        mean_km=float(np.mean(values)),
        std_km=float(np.std(values)),
        asymmetric_mean_km=float(np.mean(asym)) if asym.size else 0.0,
        asymmetric_std_km=float(np.std(asym)) if asym.size else 0.0,
    )


def dispersion_cdf(source: AnalysisSource, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Fig 9: the CDF of a family's dispersion values."""
    _, values = attack_dispersions(source, family)
    return ecdf(values)


def dispersion_histogram(
    source: AnalysisSource,
    family: str,
    bin_km: float = 500.0,
    tolerance_km: float = SYMMETRY_TOLERANCE_KM,
) -> tuple[np.ndarray, np.ndarray]:
    """Figs 10-11: histogram of *asymmetric* dispersion values.

    Returns ``(bin left edges, counts)``; symmetric (sub-tolerance)
    values are removed first, as in the paper.
    """
    if bin_km <= 0:
        raise ValueError(f"bin_km must be positive, got {bin_km}")
    _, values = attack_dispersions(source, family)
    asym = values[values >= tolerance_km]
    if asym.size == 0:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    n_bins = int(np.ceil(asym.max() / bin_km)) + 1
    edges = np.arange(n_bins + 1) * bin_km
    counts, _ = np.histogram(asym, bins=edges)
    return edges[:-1], counts
