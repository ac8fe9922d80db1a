"""AttackStreamSummary: the paper's questions at fixed memory.

One object bundling every sketch the streaming layer maintains, keyed
to the quantities the DSN 2015 characterization actually reports:

* **per-key frequencies** (Count-Min): attacks per family, per victim
  IP, per target country;
* **distinct cardinalities** (HyperLogLog): botnets, victim IPs, and
  target countries seen;
* **distributions** (KLL + reservoir): attack duration and inter-attack
  interval seconds — the paper's Fig. 4/5 axes.

Family and country *name sets* are kept exactly — those domains are
tiny (23 families, ~200 ISO codes) and bounded by the world, not the
stream — which lets :meth:`AttackStreamSummary.estimate` enumerate
per-family and per-country counts without a heavy-hitters structure.
Everything keyed by stream-sized domains (victim IPs, botnet ids) stays
strictly approximate.

The summary is itself a mergeable value: :meth:`AttackStreamSummary.merge`
folds a peer built with the same parameters, so per-shard summaries
reduce exactly like the shard layer's exact views
(:func:`repro.core.merge.sketch_summaries`).  The one approximation a
merge introduces beyond the member sketches' own contracts: the single
inter-attack interval spanning the boundary between the two summaries
is not observed (each side only knows its own arrivals).
"""

from __future__ import annotations

import numpy as np

from ..monitor.schemas import columns_of_records
from ..obs import registry as _obs_registry
from .cms import CountMinSketch
from .hll import HyperLogLog
from .quantiles import KLLSketch, ReservoirSample

__all__ = ["AttackStreamSummary", "summarize_dataset"]

_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


class AttackStreamSummary:
    """Every streaming sketch over an attack stream, in one mergeable value.

    >>> from repro import api
    >>> from repro.sketch import AttackStreamSummary
    >>> ds = api.generate(scale=0.005)
    >>> summary = AttackStreamSummary(seed=7)
    >>> summary.update(ds.iter_attacks()) == ds.n_attacks
    True
    >>> est = summary.estimate()
    >>> est["n_records"] == ds.n_attacks
    True
    >>> sorted(est["families"]) == sorted(ds.active_families)
    True
    """

    __slots__ = (
        "_params",
        "cms_family",
        "cms_victim",
        "cms_country",
        "hll_botnets",
        "hll_victims",
        "hll_countries",
        "kll_duration",
        "kll_interval",
        "reservoir_duration",
        "_families",
        "_countries",
        "_n_records",
        "_last_start",
    )

    def __init__(
        self,
        *,
        epsilon: float = 0.001,
        delta: float = 0.01,
        precision: int = 12,
        k: int = 200,
        reservoir_size: int = 4096,
        seed: int = 7,
    ) -> None:
        self._params = {
            "epsilon": float(epsilon),
            "delta": float(delta),
            "precision": int(precision),
            "k": int(k),
            "reservoir_size": int(reservoir_size),
            "seed": int(seed),
        }
        self.cms_family = CountMinSketch(epsilon=epsilon, delta=delta, seed=seed)
        self.cms_victim = CountMinSketch(epsilon=epsilon, delta=delta, seed=seed + 1)
        self.cms_country = CountMinSketch(epsilon=epsilon, delta=delta, seed=seed + 2)
        self.hll_botnets = HyperLogLog(precision=precision, seed=seed)
        self.hll_victims = HyperLogLog(precision=precision, seed=seed + 1)
        self.hll_countries = HyperLogLog(precision=precision, seed=seed + 2)
        self.kll_duration = KLLSketch(k=k, seed=seed)
        self.kll_interval = KLLSketch(k=k, seed=seed + 1)
        self.reservoir_duration = ReservoirSample(size=reservoir_size, seed=seed)
        self._families: set[str] = set()
        self._countries: set[str] = set()
        self._n_records = 0
        self._last_start = -np.inf
        reg = _obs_registry()
        reg.gauge("sketch.error_budget", structure="cms").set(self.cms_family.epsilon)
        reg.gauge("sketch.error_budget", structure="hll").set(
            self.hll_botnets.relative_error
        )
        reg.gauge("sketch.error_budget", structure="kll").set(
            self.kll_duration.rank_error
        )

    # -- shape -------------------------------------------------------------

    @property
    def params(self) -> dict:
        """The construction parameters (merges require equal params)."""
        return dict(self._params)

    @property
    def n_records(self) -> int:
        """Records folded in so far (exact)."""
        return self._n_records

    @property
    def families(self) -> list:
        """Family names seen so far (exact — the domain is tiny), sorted."""
        return sorted(self._families)

    @property
    def countries(self) -> list:
        """Country codes seen so far (exact — the domain is tiny), sorted."""
        return sorted(self._countries)

    def memory_bytes(self) -> int:
        """Total resident bytes across all member sketches."""
        return int(
            self.cms_family.memory_bytes
            + self.cms_victim.memory_bytes
            + self.cms_country.memory_bytes
            + self.hll_botnets.memory_bytes
            + self.hll_victims.memory_bytes
            + self.hll_countries.memory_bytes
            + self.kll_duration.memory_bytes
            + self.kll_interval.memory_bytes
            + self.reservoir_duration.memory_bytes
        )

    # -- updates -----------------------------------------------------------

    def update(self, records) -> int:
        """Fold an iterable of :class:`~repro.monitor.schemas.DDoSAttackRecord`.

        Records are sorted by timestamp before the interval sketch sees
        them (matching the stream layer's per-batch sort); returns the
        number folded.
        """
        batch = sorted(records, key=lambda r: r.timestamp)
        if not batch:
            return 0
        cols = columns_of_records(batch)
        return self.update_arrays(
            start=cols["timestamp"], end=cols["end_time"], family=cols["family"],
            country=cols["country_code"], victim=cols["target_ip"], botnet=cols["botnet_id"],
        )

    def update_arrays(self, *, start, end, family, country, victim, botnet) -> int:
        """Vectorised fold of one batch given as parallel per-attack arrays.

        ``start``/``end`` are epoch seconds (``start`` must be
        non-decreasing within the batch — the stream layer's sort
        guarantees it); ``family``/``country`` are per-attack string
        arrays; ``victim``/``botnet`` integer arrays.  The inter-arrival
        sketch observes consecutive ``start`` differences, plus the
        boundary gap to the previous batch when the stream is in order
        (a regression is dropped, not folded as a negative interval).
        Counts into ``sketch.updates`` and refreshes the
        ``sketch.memory_bytes`` gauge; returns the batch size.
        """
        start = np.asarray(start, dtype=np.float64)
        n = int(start.size)
        if n == 0:
            return 0
        end = np.asarray(end, dtype=np.float64)

        fam_labels, fam_counts = np.unique(np.asarray(family, dtype=object),
                                           return_counts=True)
        self.cms_family.update(fam_labels.tolist(), fam_counts)
        self._families.update(fam_labels.tolist())

        cc_labels, cc_counts = np.unique(np.asarray(country, dtype=object),
                                         return_counts=True)
        self.cms_country.update(cc_labels.tolist(), cc_counts)
        self.hll_countries.update(cc_labels.tolist())
        self._countries.update(cc_labels.tolist())

        victim = np.asarray(victim).astype(np.uint64, copy=False)
        self.cms_victim.update(victim)
        self.hll_victims.update(victim)
        self.hll_botnets.update(np.asarray(botnet).astype(np.int64, copy=False))

        durations = end - start
        self.kll_duration.update(durations)
        self.reservoir_duration.update(durations)

        intervals = np.diff(start)
        if np.isfinite(self._last_start):
            boundary = start[0] - self._last_start
            if boundary >= 0.0:
                intervals = np.concatenate([[boundary], intervals])
        self.kll_interval.update(intervals)
        self._last_start = max(self._last_start, float(start[-1]))

        self._n_records += n
        reg = _obs_registry()
        reg.counter("sketch.updates").inc(n)
        reg.gauge("sketch.memory_bytes").set(self.memory_bytes())
        return n

    # -- queries -----------------------------------------------------------

    def estimate(self, *, top_countries: int = 10) -> dict:
        """The paper-shaped approximate answers, as one JSON-able dict.

        Keys: exact ``n_records``; per-family attack counts (every
        family — the set is exact, the counts are Count-Min estimates);
        the ``top_countries`` most-attacked target countries; distinct
        botnet/victim/country cardinalities (HLL); duration and
        inter-attack-interval quantiles (KLL).
        """
        families = {
            fam: int(est)
            for fam, est in zip(
                self.families, self.cms_family.estimate_many(self.families)
            )
        }
        cc = self.countries
        cc_est = self.cms_country.estimate_many(cc)
        order = np.argsort(cc_est, kind="stable")[::-1][:top_countries]
        countries = {cc[i]: int(cc_est[i]) for i in order}
        return {
            "n_records": self._n_records,
            "families": families,
            "top_countries": countries,
            "distinct": {
                "botnets": round(self.hll_botnets.estimate()),
                "victims": round(self.hll_victims.estimate()),
                "countries": round(self.hll_countries.estimate()),
            },
            "duration_seconds": {
                f"p{int(q * 100)}": self.kll_duration.quantile(q)
                for q in _QUANTILES
            },
            "interval_seconds": {
                f"p{int(q * 100)}": self.kll_interval.quantile(q)
                for q in _QUANTILES
            },
        }

    def contract(self) -> dict:
        """The accuracy contract of every member structure, as data.

        Mirrors the table in ``docs/STREAMING.md`` (the docs test keeps
        the two in sync): Count-Min over-counts by at most
        ``epsilon * total`` w.p. ``>= 1 - delta``; HLL is within
        ``3 * rse`` relative w.p. ~99.7 %; KLL quantile *ranks* are off
        by at most ``rank_error`` (additive) w.p. ~99 %.
        """
        return {
            "cms": {
                "epsilon": self.cms_family.epsilon,
                "delta": self.cms_family.delta,
                "bound": "true <= estimate <= true + epsilon * total, "
                         "w.p. >= 1 - delta",
            },
            "hll": {
                "relative_standard_error": self.hll_botnets.relative_error,
                "bound": "|estimate - true| <= 3 * rse * true, w.p. ~99.7%",
            },
            "kll": {
                "rank_error": self.kll_duration.rank_error,
                "bound": "|rank(estimate) - q| <= rank_error, w.p. ~99%",
            },
        }

    # -- algebra -----------------------------------------------------------

    def merge(self, other: "AttackStreamSummary") -> "AttackStreamSummary":
        """Fold another summary in; returns ``self``.

        Requires equal construction params.  All member sketches merge
        under their own algebra; the exact family/country sets union;
        the one interval spanning the boundary between the two summaries
        is dropped (neither side observed it).  Counts into
        ``sketch.merges``.
        """
        if not isinstance(other, AttackStreamSummary):
            raise TypeError(
                f"cannot merge AttackStreamSummary with {type(other).__name__}"
            )
        if self._params != other._params:
            raise ValueError(
                "cannot merge summaries with different params: "
                f"{self._params} vs {other._params}"
            )
        self.cms_family.merge(other.cms_family)
        self.cms_victim.merge(other.cms_victim)
        self.cms_country.merge(other.cms_country)
        self.hll_botnets.merge(other.hll_botnets)
        self.hll_victims.merge(other.hll_victims)
        self.hll_countries.merge(other.hll_countries)
        self.kll_duration.merge(other.kll_duration)
        self.kll_interval.merge(other.kll_interval)
        self.reservoir_duration.merge(other.reservoir_duration)
        self._families |= other._families
        self._countries |= other._countries
        self._n_records += other._n_records
        self._last_start = max(self._last_start, other._last_start)
        reg = _obs_registry()
        reg.counter("sketch.merges").inc()
        reg.gauge("sketch.memory_bytes").set(self.memory_bytes())
        return self

    def copy(self) -> "AttackStreamSummary":
        """An independent deep copy (same params and state)."""
        dup = AttackStreamSummary(**self._params)
        dup.cms_family = self.cms_family.copy()
        dup.cms_victim = self.cms_victim.copy()
        dup.cms_country = self.cms_country.copy()
        dup.hll_botnets = self.hll_botnets.copy()
        dup.hll_victims = self.hll_victims.copy()
        dup.hll_countries = self.hll_countries.copy()
        dup.kll_duration = self.kll_duration.copy()
        dup.kll_interval = self.kll_interval.copy()
        dup.reservoir_duration = self.reservoir_duration.copy()
        dup._families = set(self._families)
        dup._countries = set(self._countries)
        dup._n_records = self._n_records
        dup._last_start = self._last_start
        return dup

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able state: params + every member sketch's own state."""
        return {
            "kind": "attack_stream_summary",
            "params": dict(self._params),
            "n_records": self._n_records,
            "last_start": None if not np.isfinite(self._last_start)
            else float(self._last_start),
            "families": self.families,
            "countries": self.countries,
            "cms_family": self.cms_family.to_dict(),
            "cms_victim": self.cms_victim.to_dict(),
            "cms_country": self.cms_country.to_dict(),
            "hll_botnets": self.hll_botnets.to_dict(),
            "hll_victims": self.hll_victims.to_dict(),
            "hll_countries": self.hll_countries.to_dict(),
            "kll_duration": self.kll_duration.to_dict(),
            "kll_interval": self.kll_interval.to_dict(),
            "reservoir_duration": self.reservoir_duration.to_dict(),
        }

    @classmethod
    def from_dict(cls, state: dict) -> "AttackStreamSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        summary = cls(**state["params"])
        summary.cms_family = CountMinSketch.from_dict(state["cms_family"])
        summary.cms_victim = CountMinSketch.from_dict(state["cms_victim"])
        summary.cms_country = CountMinSketch.from_dict(state["cms_country"])
        summary.hll_botnets = HyperLogLog.from_dict(state["hll_botnets"])
        summary.hll_victims = HyperLogLog.from_dict(state["hll_victims"])
        summary.hll_countries = HyperLogLog.from_dict(state["hll_countries"])
        summary.kll_duration = KLLSketch.from_dict(state["kll_duration"])
        summary.kll_interval = KLLSketch.from_dict(state["kll_interval"])
        summary.reservoir_duration = ReservoirSample.from_dict(
            state["reservoir_duration"]
        )
        summary._families = set(state["families"])
        summary._countries = set(state["countries"])
        summary._n_records = int(state["n_records"])
        summary._last_start = (
            -np.inf if state["last_start"] is None else float(state["last_start"])
        )
        return summary


def summarize_dataset(ds, **params) -> AttackStreamSummary:
    """Sketch an existing :class:`~repro.core.dataset.AttackDataset`.

    Column-vectorised: per-attack family and country strings are gathered
    through the dataset's index columns, so a full-scale dataset sketches
    in one pass without materialising record objects.  ``params`` are
    forwarded to :class:`AttackStreamSummary`.
    """
    summary = AttackStreamSummary(**params)
    if ds.n_attacks == 0:
        return summary
    family = np.asarray(ds.families, dtype=object)[ds.family_idx]
    codes = np.asarray([c.code for c in ds.world.countries], dtype=object)
    country = codes[np.asarray(ds.victims.country_idx)[ds.target_idx]]
    order = np.argsort(ds.start, kind="stable")
    summary.update_arrays(
        start=np.asarray(ds.start)[order],
        end=np.asarray(ds.end)[order],
        family=family[order],
        country=country[order],
        victim=np.asarray(ds.victims.ip)[ds.target_idx][order],
        botnet=np.asarray(ds.botnet_id)[order],
    )
    return summary
