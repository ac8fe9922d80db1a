"""Per-family bot pools: placement, recruitment, and participant sampling.

A :class:`BotPool` holds every bot the monitoring service ever enumerates
for one family (the Botlist side of the dataset) and implements the
sampling used when the family launches an attack.  Three properties of
the paper's data are engineered here:

* **Geolocation affinity** (§IV-A): bots are placed in the family's home
  countries (plus a thin global tail), so weekly country footprints are
  sticky.

* **Dispersion control** (Figs 9-11, Table IV): sampling is
  *closed-loop*.  The base draw takes bots from one city cluster, whose
  tight jitter makes the signed-distance sum naturally small; the loop
  then recomputes the exact dispersion the analysis will measure
  (geographic centre of the sample, absolute signed Haversine sum) and
  appends bots picked *by value* from a per-attack candidate ladder —
  same-city bots offer fine rungs, random pool bots offer coarse ones —
  until the measured value lands at the target: ≈0 for symmetric
  attacks, the drawn residual for asymmetric ones.  The per-bot effect
  is attenuated by the centre shifting toward each addition, so the loop
  estimates that gain adaptively from observed effects.

* **Shift patterns** (Fig 8): a small share of bots is recruited
  mid-window from *expansion countries*, producing the rare new-country
  shifts the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.stats import sorted_unique
from ..geo.haversine import geographic_center, signed_distances_km
from ..geo.ipam import SequentialAssigner
from ..geo.mapping import GeoIPService
from ..geo.world import World
from ..simulation.clock import ObservationWindow
from .family import FamilyProfile

__all__ = ["BotPool", "BotPoolPlan"]

#: Fraction of the pool recruited after the window start (growth), and
#: fraction of the window over which that growth is spread.
_GROWTH_FRACTION = 0.15
_GROWTH_SPAN = 0.6

#: Expansion-country bots as a fraction of the pool (at least 12 per country).
_EXPANSION_FRACTION = 0.02

#: Feedback rounds, candidate-ladder size and base acceptance band (km).
_FEEDBACK_ROUNDS = 18
_CANDIDATES = 192
_FEEDBACK_TOL_KM = 40.0

#: Initial estimate of the effective per-bot gain: adding a bot with
#: local signed distance ``s`` moves the measured residual by roughly
#: ``gain * s`` (the sample centre shifts toward the new bot).  Refined
#: adaptively from observed effects.
_FEEDBACK_GAIN0 = 0.45


@dataclass
class BotPoolPlan:
    """The parent-process half of a :class:`BotPool` build.

    Captures every draw that touches shared mutable state — the
    country/org multinomials and the :class:`SequentialAssigner` IP
    takes — as a list of placement batches plus the mid-state generator,
    so :meth:`BotPool.finish` can complete the pool in a worker process
    without coordinating address space across families.
    """

    family: str
    #: ``(org_index, country_index, city_index, asn, ips, expansion_flag)``
    #: in placement order.
    batches: list[tuple[int, int, int, int, np.ndarray, bool]]
    #: expansion-country index -> bot count (drives the recruit bursts).
    exp_counts: dict[int, int]
    #: The family's ``bots.<name>`` stream, mid-state; ``finish``
    #: continues it so plan+finish draws exactly match a one-shot build.
    rng: np.random.Generator


@dataclass
class BotPool:
    """All bots of one family, with the sampling structures precomputed."""

    family: str
    # Per-bot arrays (length n_bots).
    ip: np.ndarray = field(repr=False, default=None)
    lat: np.ndarray = field(repr=False, default=None)
    lon: np.ndarray = field(repr=False, default=None)
    country_idx: np.ndarray = field(repr=False, default=None)
    city_idx: np.ndarray = field(repr=False, default=None)
    org_idx: np.ndarray = field(repr=False, default=None)
    asn: np.ndarray = field(repr=False, default=None)
    botnet_id: np.ndarray = field(repr=False, default=None)
    recruit_ts: np.ndarray = field(repr=False, default=None)
    # Core bots sorted by recruit time (the sampling universe).
    core_by_recruit: np.ndarray = field(repr=False, default=None)
    core_recruit: np.ndarray = field(repr=False, default=None)
    # Per-city structures: bots of each city sorted by recruit time.
    city_ids: np.ndarray = field(repr=False, default=None)
    city_weights: np.ndarray = field(repr=False, default=None)
    city_bots: dict = field(repr=False, default_factory=dict)
    city_recruits: dict = field(repr=False, default_factory=dict)
    #: country index -> its city ids, largest bot population first.
    country_cities: dict = field(repr=False, default_factory=dict)
    # Expansion bots sorted by recruit time.
    expansion_idx: np.ndarray = field(repr=False, default=None)
    expansion_recruit: np.ndarray = field(repr=False, default=None)
    center: tuple[float, float] = (0.0, 0.0)

    @property
    def n_bots(self) -> int:
        return self.ip.size

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        profile: FamilyProfile,
        world: World,
        assigner: SequentialAssigner,
        geoip: GeoIPService,
        rng: np.random.Generator,
        window: ObservationWindow,
        attacker_country_indices: np.ndarray,
        attacker_country_weights: np.ndarray,
        botnet_ids: np.ndarray,
        home_share: float = 0.90,
    ) -> "BotPool":
        """Place the family's bots and precompute the sampling structures.

        ``attacker_country_indices/weights`` define the global tail pool
        (Table III: bots across all families span 186 countries); each
        family draws ``1 - home_share`` of its bots from it.

        Implemented as :meth:`plan` (parent-only: multinomials + shared
        IP assigner) followed by :meth:`finish` (world-local: coords,
        recruitment, sampling structures) so generation shards can run
        the second half in worker processes; the split is draw-for-draw
        identical to the historical one-shot build.
        """
        plan = cls.plan(
            profile, world, assigner, rng,
            attacker_country_indices, attacker_country_weights,
            home_share=home_share,
        )
        return cls.finish(plan, profile, world, geoip, window, botnet_ids)

    @classmethod
    def plan(
        cls,
        profile: FamilyProfile,
        world: World,
        assigner: SequentialAssigner,
        rng: np.random.Generator,
        attacker_country_indices: np.ndarray,
        attacker_country_weights: np.ndarray,
        home_share: float = 0.90,
    ) -> BotPoolPlan:
        """Draw the country/org placement and take the IP batches (parent-side)."""
        n_total = profile.n_bots
        expansion = list(profile.expansion_countries)
        n_expansion = 0
        if expansion:
            n_expansion = max(12 * len(expansion), int(n_total * _EXPANSION_FRACTION))
            n_expansion = min(n_expansion, n_total // 4)
        n_core = n_total - n_expansion

        # --- country assignment for core bots --------------------------
        home_idx = np.array(
            [world.country_by_code(cc).index for cc, _w in profile.home_countries],
            dtype=np.int64,
        )
        home_w = np.array([w for _cc, w in profile.home_countries], dtype=float)
        home_w = home_w / home_w.sum()
        n_home = int(round(n_core * home_share))
        n_tail = n_core - n_home
        counts: dict[int, int] = {}
        home_draw = rng.multinomial(n_home, home_w)
        for c_idx, cnt in zip(home_idx, home_draw):
            counts[int(c_idx)] = counts.get(int(c_idx), 0) + int(cnt)
        if n_tail > 0:
            tail_w = attacker_country_weights / attacker_country_weights.sum()
            tail_draw = rng.multinomial(n_tail, tail_w)
            for c_idx, cnt in zip(attacker_country_indices, tail_draw):
                if cnt:
                    counts[int(c_idx)] = counts.get(int(c_idx), 0) + int(cnt)

        # --- expansion-country bots ------------------------------------
        exp_counts: dict[int, int] = {}
        if n_expansion:
            per = n_expansion // len(expansion)
            leftover = n_expansion - per * len(expansion)
            for j, cc in enumerate(expansion):
                c_idx = world.country_by_code(cc).index
                exp_counts[c_idx] = per + (1 if j < leftover else 0)

        # --- materialise bots country by country, org by org -----------
        batches: list[tuple[int, int, int, int, np.ndarray, bool]] = []

        def place(country_index: int, n: int, expansion_flag: bool) -> None:
            org_ids, org_w = world.org_weights_of(country_index)
            if org_ids.size == 0:
                raise RuntimeError(f"country {country_index} has no organizations")
            per_org = rng.multinomial(n, org_w)
            order = np.argsort(-per_org)
            remainder = 0
            for pos in order:
                want = int(per_org[pos]) + remainder
                remainder = 0
                if want == 0:
                    continue
                org_index = int(org_ids[pos])
                available = assigner.remaining(org_index)
                got = min(want, available)
                if got < want:
                    remainder = want - got
                if got == 0:
                    continue
                batch = assigner.take(org_index, got)
                org = world.organizations[org_index]
                batches.append(
                    (org_index, country_index, org.city_index, org.asn, batch, expansion_flag)
                )
            if remainder:
                raise RuntimeError(
                    f"{profile.name}: country {country_index} address space "
                    f"exhausted ({remainder} bots unplaced)"
                )

        for c_idx in sorted(counts):
            place(c_idx, counts[c_idx], expansion_flag=False)
        for c_idx in sorted(exp_counts):
            place(c_idx, exp_counts[c_idx], expansion_flag=True)

        return BotPoolPlan(
            family=profile.name, batches=batches, exp_counts=exp_counts, rng=rng
        )

    @classmethod
    def finish(
        cls,
        plan: BotPoolPlan,
        profile: FamilyProfile,
        world: World,
        geoip: GeoIPService,
        window: ObservationWindow,
        botnet_ids: np.ndarray,
    ) -> "BotPool":
        """Complete a planned pool: coords, recruitment, sampling structures.

        Continues ``plan.rng`` exactly where :meth:`plan` stopped; safe
        to run in a forked worker because nothing here touches shared
        state (``coords_for_city`` is a pure function of the IP).
        """
        rng = plan.rng
        exp_counts = plan.exp_counts
        ips: list[np.ndarray] = []
        lats: list[np.ndarray] = []
        lons: list[np.ndarray] = []
        country_col: list[np.ndarray] = []
        city_col: list[np.ndarray] = []
        org_col: list[np.ndarray] = []
        asn_col: list[np.ndarray] = []
        is_expansion: list[np.ndarray] = []
        for org_index, country_index, city_index, asn, batch, expansion_flag in plan.batches:
            got = batch.size
            blats, blons = geoip.coords_for_city(city_index, batch)
            ips.append(batch)
            lats.append(blats)
            lons.append(blons)
            country_col.append(np.full(got, country_index, dtype=np.int16))
            city_col.append(np.full(got, city_index, dtype=np.int32))
            org_col.append(np.full(got, org_index, dtype=np.int32))
            asn_col.append(np.full(got, asn, dtype=np.int32))
            is_expansion.append(np.full(got, expansion_flag, dtype=bool))

        pool = cls(family=profile.name)
        pool.ip = np.concatenate(ips)
        pool.lat = np.concatenate(lats)
        pool.lon = np.concatenate(lons)
        pool.country_idx = np.concatenate(country_col)
        pool.city_idx = np.concatenate(city_col)
        pool.org_idx = np.concatenate(org_col)
        pool.asn = np.concatenate(asn_col)
        exp_mask = np.concatenate(is_expansion)
        n = pool.ip.size

        # --- botnet membership and recruitment --------------------------
        pool.botnet_id = botnet_ids[rng.integers(0, botnet_ids.size, size=n)].astype(np.int32)
        recruit = np.full(n, float(window.start))
        growth = rng.random(n) < _GROWTH_FRACTION
        span = window.duration * _GROWTH_SPAN
        recruit[growth] = window.start + rng.random(int(growth.sum())) * span
        # Expansion bots arrive in country-level bursts in the second
        # half of the family's active window.
        lo, hi = profile.active_window
        act_start = window.start + lo * window.duration
        act_end = window.start + hi * window.duration
        for c_idx in sorted(exp_counts):
            sel = exp_mask & (pool.country_idx == c_idx)
            burst = act_start + (0.4 + 0.5 * rng.random()) * (act_end - act_start)
            recruit[sel] = burst + rng.random(int(sel.sum())) * 7 * 86400.0
        pool.recruit_ts = recruit

        # --- sampling structures -----------------------------------------
        core = ~exp_mask
        pool.center = geographic_center(pool.lat[core], pool.lon[core])

        core_idx = np.flatnonzero(core)
        order = core_idx[np.argsort(recruit[core_idx], kind="stable")]
        pool.core_by_recruit = order.astype(np.int64)
        pool.core_recruit = recruit[order]

        cities, city_counts = np.unique(pool.city_idx[core_idx], return_counts=True)
        pool.city_ids = cities.astype(np.int64)
        pool.city_weights = city_counts.astype(float) / city_counts.sum()
        city_country: dict[int, int] = {}
        for city in cities:
            members = core_idx[pool.city_idx[core_idx] == city]
            members = members[np.argsort(recruit[members], kind="stable")]
            pool.city_bots[int(city)] = members.astype(np.int64)
            pool.city_recruits[int(city)] = recruit[members]
            city_country[int(city)] = int(pool.country_idx[members[0]])
        for city, country in city_country.items():
            pool.country_cities.setdefault(country, []).append(city)
        for country, members in pool.country_cities.items():
            members.sort(key=lambda c: -pool.city_bots[c].size)

        exp_idx = np.flatnonzero(exp_mask)
        exp_sort = np.argsort(recruit[exp_idx], kind="stable")
        pool.expansion_idx = exp_idx[exp_sort].astype(np.int64)
        pool.expansion_recruit = recruit[exp_idx][exp_sort]
        return pool

    # ------------------------------------------------------------------

    def _draw_city_base(
        self, rng: np.random.Generator, ts: float, magnitude: int
    ) -> np.ndarray:
        """Base draw: ``magnitude`` bots, preferably from ONE city cluster.

        A single-cluster base keeps the starting signed-distance residual
        within the cluster's jitter scale, which the feedback loop can
        then steer precisely.  Up to eight weighted draws look for a city
        with enough recruited bots; only if none is found does the base
        spill over multiple cities.
        """
        def recruited(city: int) -> int:
            n_rec = int(np.searchsorted(self.city_recruits[city], ts, side="right"))
            if n_rec == 0:
                n_rec = min(4, self.city_bots[city].size)  # pre-window fallback
            return n_rec

        best_city = -1
        best_n = 0
        for _ in range(10):
            city = int(self.city_ids[rng.choice(self.city_ids.size, p=self.city_weights)])
            n_rec = recruited(city)
            if n_rec >= magnitude:
                best_city = city
                best_n = n_rec
                break
            if n_rec > best_n:
                best_city = city
                best_n = n_rec

        picked: list[np.ndarray] = []
        need = magnitude
        if best_city >= 0 and best_n > 0:
            take = min(need, best_n)
            sel = rng.choice(best_n, size=take, replace=False)
            picked.append(self.city_bots[best_city][sel])
            need -= take
        if need > 0 and best_city >= 0:
            # Same-country spill-over first: keeps the base compact, so
            # the starting residual stays within the feedback loop's reach.
            country = int(self.country_idx[self.city_bots[best_city][0]])
            for city in self.country_cities.get(country, []):
                if need <= 0:
                    break
                if city == best_city:
                    continue
                n_rec = recruited(city)
                if n_rec == 0:
                    continue
                take = min(need, n_rec)
                sel = rng.choice(n_rec, size=take, replace=False)
                picked.append(self.city_bots[city][sel])
                need -= take
        if need > 0:
            # Last resort: top up from the recruited pool at large.
            n_rec = int(np.searchsorted(self.core_recruit, ts, side="right"))
            if n_rec == 0:
                n_rec = min(magnitude, self.core_by_recruit.size)
            sel = rng.integers(0, n_rec, size=need)
            picked.append(self.core_by_recruit[sel])
        return sorted_unique(np.concatenate(picked))

    def _candidate_ladder(
        self, rng: np.random.Generator, ts: float, sample: np.ndarray
    ) -> np.ndarray:
        """Candidate bots for feedback additions: fine/mid/coarse rungs.

        Same-city neighbours of the base sample give fine (tens of km)
        rungs, other cities of the same country give mid-range
        (hundreds of km) rungs, and a random slice of the recruited pool
        gives coarse (continental) ones — without the mid rungs,
        deficits of a few hundred km can only be chipped away slowly.
        """
        parts: list[np.ndarray] = []
        base_bot = int(sample[0])
        city = int(self.city_idx[base_bot])
        local = self.city_bots.get(city)
        if local is not None and local.size:
            k = min(local.size, _CANDIDATES // 2)
            parts.append(local[rng.integers(0, local.size, size=k)])
        country = int(self.country_idx[base_bot])
        siblings = self.country_cities.get(country, [])
        if len(siblings) > 1:
            for _ in range(min(6, len(siblings))):
                other = siblings[int(rng.integers(0, len(siblings)))]
                if other == city:
                    continue
                bots = self.city_bots[other]
                k = min(bots.size, _CANDIDATES // 8)
                parts.append(bots[rng.integers(0, bots.size, size=k)])
        n_rec = int(np.searchsorted(self.core_recruit, ts, side="right"))
        if n_rec == 0:
            n_rec = min(64, self.core_by_recruit.size)
        k = min(n_rec, _CANDIDATES)
        parts.append(self.core_by_recruit[rng.integers(0, n_rec, size=k)])
        cand = sorted_unique(np.concatenate(parts))
        return cand[~np.isin(cand, sample)]

    def _scan_candidates(
        self, sample: np.ndarray, candidates: np.ndarray, target: float
    ) -> tuple[int, float]:
        """Exact trial deficits for *every* candidate, vectorised.

        For each candidate, computes the deficit the sample would have
        after adding it — recomputed centre included — and returns the
        position and deficit of the best candidate.  Used when the cheap
        reach heuristic stalls.
        """
        s_lat = np.radians(self.lat[sample])
        s_lon = np.radians(self.lon[sample])
        c_lat = np.radians(self.lat[candidates])
        c_lon = np.radians(self.lon[candidates])
        # Per-candidate centre: sample unit-vector sum plus the candidate.
        sx = float(np.sum(np.cos(s_lat) * np.cos(s_lon)))
        sy = float(np.sum(np.cos(s_lat) * np.sin(s_lon)))
        sz = float(np.sum(np.sin(s_lat)))
        nx = sx + np.cos(c_lat) * np.cos(c_lon)
        ny = sy + np.cos(c_lat) * np.sin(c_lon)
        nz = sz + np.sin(c_lat)
        norm = np.maximum(np.sqrt(nx * nx + ny * ny + nz * nz), 1e-12)
        ctr_lat = np.arcsin(np.clip(nz / norm, -1.0, 1.0))
        ctr_lon = np.arctan2(ny, nx)

        def signed_sum(lat_r: np.ndarray, lon_r: np.ndarray) -> np.ndarray:
            """Signed sums of the given points against every centre."""
            dlat = lat_r[None, :] - ctr_lat[:, None]
            dlon = lon_r[None, :] - ctr_lon[:, None]
            a = (
                np.sin(dlat / 2.0) ** 2
                + np.cos(ctr_lat)[:, None] * np.cos(lat_r)[None, :] * np.sin(dlon / 2.0) ** 2
            )
            dist = 2.0 * 6371.0088 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
            wrapped = np.mod(dlon + np.pi, 2.0 * np.pi) - np.pi
            sign = np.sign(wrapped)
            sign = np.where(sign == 0, np.sign(dlat), sign)
            return np.sum(sign * dist, axis=1)

        residual = signed_sum(s_lat, s_lon)
        # Plus each candidate's own contribution against its centre.
        dlat = c_lat - ctr_lat
        dlon = c_lon - ctr_lon
        a = np.sin(dlat / 2.0) ** 2 + np.cos(ctr_lat) * np.cos(c_lat) * np.sin(dlon / 2.0) ** 2
        dist = 2.0 * 6371.0088 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
        wrapped = np.mod(dlon + np.pi, 2.0 * np.pi) - np.pi
        sign = np.sign(wrapped)
        sign = np.where(sign == 0, np.sign(dlat), sign)
        residual = residual + sign * dist
        deficits = target - residual
        pos = int(np.argmin(np.abs(deficits)))
        return pos, float(deficits[pos])

    def sample_participants(
        self,
        rng: np.random.Generator,
        ts: float,
        magnitude: int,
        symmetric: bool,
        target_residual_km: float = 0.0,
    ) -> np.ndarray:
        """Sample the bot indices participating in one attack.

        ``magnitude`` is the desired number of bots (the realised count
        can differ by a few after de-duplication and feedback additions).
        The sample's *measured* dispersion — geographic centre recomputed
        from the sample, absolute signed-distance sum — is steered to
        ``0`` for symmetric attacks and to ``target_residual_km`` for
        asymmetric ones.
        """
        if magnitude < 4:
            magnitude = 4
        sample = self._draw_city_base(rng, ts, magnitude)
        if not symmetric:
            # A few expansion bots ride along on asymmetric attacks.
            n_exp = int(np.searchsorted(self.expansion_recruit, ts, side="right"))
            if n_exp and rng.random() < 0.5:
                k = int(rng.integers(1, min(4, n_exp) + 1))
                sel = self.expansion_idx[rng.integers(0, n_exp, size=k)]
                sample = sorted_unique(np.concatenate([sample, sel]))

        target = 0.0 if symmetric else float(target_residual_km)
        tol = _FEEDBACK_TOL_KM if symmetric else max(_FEEDBACK_TOL_KM, 0.08 * target)
        candidates = self._candidate_ladder(rng, ts, sample)
        if candidates.size == 0:
            return np.sort(sample)

        def measure(arr: np.ndarray) -> float:
            """|target - residual| for a candidate sample (the analysis view)."""
            lats = self.lat[arr]
            lons = self.lon[arr]
            center = geographic_center(lats, lons)
            return target - float(np.sum(signed_distances_km(lats, lons, *center)))

        budget = max(6, magnitude // 2)
        deficit = measure(sample)
        for _ in range(_FEEDBACK_ROUNDS):
            if abs(deficit) <= tol or budget <= 0 or candidates.size == 0:
                break
            lats = self.lat[sample]
            lons = self.lon[sample]
            center = geographic_center(lats, lons)
            cand_s = signed_distances_km(
                self.lat[candidates], self.lon[candidates], *center
            )
            # Try a few reach levels (the per-bot effect is attenuated by
            # the centre shifting toward the addition); keep the trial
            # that shrinks the measured deficit the most, and stop when
            # no trial improves — the loop is monotone by construction.
            best_pos = -1
            best_deficit = deficit
            for reach in (1.0, 1.0 / _FEEDBACK_GAIN0, 2.0 / _FEEDBACK_GAIN0):
                want = deficit * reach
                pos = int(np.argmin(np.abs(cand_s - want)))
                trial = np.concatenate([sample, candidates[pos : pos + 1]])
                trial_deficit = measure(trial)
                if abs(trial_deficit) < abs(best_deficit):
                    best_deficit = trial_deficit
                    best_pos = pos
            if best_pos < 0:
                # The reach heuristic stalled (typically a ladder without
                # rungs in the needed range): scan every candidate exactly.
                pos, trial_deficit = self._scan_candidates(sample, candidates, target)
                if abs(trial_deficit) < abs(deficit):
                    best_deficit = trial_deficit
                    best_pos = pos
            if best_pos < 0:
                break
            sample = np.concatenate([sample, candidates[best_pos : best_pos + 1]])
            candidates = np.delete(candidates, best_pos)
            deficit = best_deficit
            budget -= 1
        return np.sort(sample)
