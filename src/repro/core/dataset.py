"""The joined attack dataset: the object every analysis operates on.

The paper joins its three schemas (Botlist, Botnetlist, DDoSattack) into
one comprehensive dataset (§II-A).  :class:`AttackDataset` is that join,
stored columnar (numpy arrays) for the analyses, with row-level accessors
that materialise the Table I records on demand.

Attacks are stored sorted by start time; ``ddos_id`` is the chronological
index.  Participants use a CSR layout: ``participants[part_offsets[i] :
part_offsets[i + 1]]`` are the bot-registry indices involved in attack
``i``.

Ground-truth columns (``collab_group``, ``collab_kind``, ``chain_id``,
``symmetric``) record what the generator staged.  Analyses never read
them — they exist so tests can compare *detected* structure against
*staged* structure.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterator

import numpy as np

from ..geo.world import World
from ..monitor.schemas import BotnetRecord, BotRecord, DDoSAttackRecord, Protocol
from ..simulation.clock import ObservationWindow

__all__ = ["BotRegistry", "VictimRegistry", "AttackDataset"]


@dataclass
class BotRegistry:
    """All bots across all families, columnar (the joined Botlist).

    >>> from repro import api
    >>> bots = api.generate(scale=0.005).bots
    >>> bots.n_bots == bots.ip.size
    True
    """

    ip: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    country_idx: np.ndarray
    city_idx: np.ndarray
    org_idx: np.ndarray
    asn: np.ndarray
    family_idx: np.ndarray
    botnet_id: np.ndarray
    recruit_ts: np.ndarray

    def __post_init__(self) -> None:
        n = self.ip.size
        for name in ("lat", "lon", "country_idx", "city_idx", "org_idx",
                     "asn", "family_idx", "botnet_id", "recruit_ts"):
            if getattr(self, name).size != n:
                raise ValueError(f"BotRegistry column {name} length mismatch")

    @property
    def n_bots(self) -> int:
        return self.ip.size


@dataclass
class VictimRegistry:
    """All victim IPs, columnar.

    >>> from repro import api
    >>> victims = api.generate(scale=0.005).victims
    >>> victims.n_targets == victims.ip.size
    True
    """

    ip: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    country_idx: np.ndarray
    city_idx: np.ndarray
    org_idx: np.ndarray
    asn: np.ndarray
    owner_family_idx: np.ndarray

    def __post_init__(self) -> None:
        n = self.ip.size
        for name in ("lat", "lon", "country_idx", "city_idx", "org_idx",
                     "asn", "owner_family_idx"):
            if getattr(self, name).size != n:
                raise ValueError(f"VictimRegistry column {name} length mismatch")

    @property
    def n_targets(self) -> int:
        return self.ip.size


@dataclass
class AttackDataset:
    """The full joined dataset over one observation window.

    >>> from repro import api
    >>> ds = api.generate(scale=0.005)
    >>> ds.n_attacks == ds.start.size == ds.end.size
    True
    """

    window: ObservationWindow
    world: World
    families: list[str]                      # index -> family name
    active_families: list[str]
    bots: BotRegistry
    victims: VictimRegistry
    botnets: list[BotnetRecord]
    # Per-attack columns, sorted by start time.
    start: np.ndarray = field(repr=False, default=None)
    end: np.ndarray = field(repr=False, default=None)
    family_idx: np.ndarray = field(repr=False, default=None)
    botnet_id: np.ndarray = field(repr=False, default=None)
    protocol: np.ndarray = field(repr=False, default=None)
    target_idx: np.ndarray = field(repr=False, default=None)
    magnitude: np.ndarray = field(repr=False, default=None)
    part_offsets: np.ndarray = field(repr=False, default=None)
    participants: np.ndarray = field(repr=False, default=None)
    # Ground-truth labels (generator-side; analyses must not read them).
    truth_collab_group: np.ndarray = field(repr=False, default=None)
    truth_collab_kind: np.ndarray = field(repr=False, default=None)
    truth_chain_id: np.ndarray = field(repr=False, default=None)
    truth_symmetric: np.ndarray = field(repr=False, default=None)
    truth_residual_km: np.ndarray = field(repr=False, default=None)
    #: Leading rows whose order and spans the caller already checked: an
    #: extend of a checked dataset passes the old row count, so only the
    #: appended rows and the seam pair are checked again.
    _checked_rows: InitVar[int] = 0

    def __post_init__(self, _checked_rows: int) -> None:
        n = self.start.size
        for name in ("end", "family_idx", "botnet_id", "protocol", "target_idx",
                     "magnitude", "truth_collab_group", "truth_collab_kind",
                     "truth_chain_id", "truth_symmetric", "truth_residual_km"):
            col = getattr(self, name)
            if col is None or col.size != n:
                raise ValueError(f"attack column {name} missing or length mismatch")
        if self.part_offsets is None or self.part_offsets.size != n + 1:
            raise ValueError("part_offsets must have length n_attacks + 1")
        lo = max(min(_checked_rows, n) - 1, 0)
        start = self.start[lo:]
        if start.size and np.any(np.diff(start) < 0):
            raise ValueError("attacks must be sorted by start time")
        if np.any(self.end[lo:] < start):
            raise ValueError("attack end precedes start")
        self._family_index = {name: i for i, name in enumerate(self.families)}

    def __getstate__(self) -> dict:
        # The attached AnalysisContext (see context.AnalysisContext.of)
        # is a derived cache and must not travel with the pickle.
        state = self.__dict__.copy()
        state.pop("_analysis_context", None)
        return state

    # -- basic shape -----------------------------------------------------

    @property
    def n_attacks(self) -> int:
        return self.start.size

    @property
    def durations(self) -> np.ndarray:
        return self.end - self.start

    def family_id(self, name: str) -> int:
        """Index of ``name`` in :attr:`families` (raises ``KeyError``)."""
        try:
            return self._family_index[name]
        except KeyError:
            raise KeyError(
                f"unknown family {name!r}; known: {', '.join(self.families)}"
            ) from None

    def family_name(self, idx: int) -> str:
        """Family name for a :attr:`family_idx` value."""
        return self.families[idx]

    def attacks_of(self, family: str) -> np.ndarray:
        """Attack indices (chronological) launched by ``family``.

        Served from the dataset's shared :class:`AnalysisContext`, whose
        one-pass grouped index replaces a full-column scan per call.
        """
        from .context import AnalysisContext

        return AnalysisContext.of(self).family_attacks(family)

    def participants_of(self, attack_index: int) -> np.ndarray:
        """Bot-registry indices participating in one attack."""
        lo = self.part_offsets[attack_index]
        hi = self.part_offsets[attack_index + 1]
        return self.participants[lo:hi]

    # -- row-level accessors (Table I views) -------------------------------

    def attack(self, attack_index: int) -> DDoSAttackRecord:
        """Materialise one DDoSattack row."""
        i = int(attack_index)
        if not 0 <= i < self.n_attacks:
            raise IndexError(f"attack index {i} out of range [0, {self.n_attacks})")
        t = int(self.target_idx[i])
        world = self.world
        return DDoSAttackRecord(
            ddos_id=i,
            botnet_id=int(self.botnet_id[i]),
            family=self.families[int(self.family_idx[i])],
            category=Protocol(int(self.protocol[i])),
            target_ip=int(self.victims.ip[t]),
            timestamp=float(self.start[i]),
            end_time=float(self.end[i]),
            asn=int(self.victims.asn[t]),
            country_code=world.countries[int(self.victims.country_idx[t])].code,
            city=world.cities[int(self.victims.city_idx[t])].name,
            organization=world.organizations[int(self.victims.org_idx[t])].name,
            lat=float(self.victims.lat[t]),
            lon=float(self.victims.lon[t]),
            magnitude=int(self.magnitude[i]),
        )

    def iter_attacks(self, family: str | None = None) -> Iterator[DDoSAttackRecord]:
        """Lazily yield attack records, optionally for one family."""
        indices = range(self.n_attacks) if family is None else self.attacks_of(family)
        for i in indices:
            yield self.attack(int(i))

    def bot(self, bot_index: int) -> BotRecord:
        """Materialise one Botlist row."""
        b = int(bot_index)
        if not 0 <= b < self.bots.n_bots:
            raise IndexError(f"bot index {b} out of range [0, {self.bots.n_bots})")
        world = self.world
        return BotRecord(
            bot_index=b,
            ip=int(self.bots.ip[b]),
            botnet_id=int(self.bots.botnet_id[b]),
            family=self.families[int(self.bots.family_idx[b])],
            country_code=world.countries[int(self.bots.country_idx[b])].code,
            city=world.cities[int(self.bots.city_idx[b])].name,
            organization=world.organizations[int(self.bots.org_idx[b])].name,
            asn=int(self.bots.asn[b]),
            lat=float(self.bots.lat[b]),
            lon=float(self.bots.lon[b]),
            recruited_at=float(self.bots.recruit_ts[b]),
            left_at=float(self.window.end),
        )

    # -- common derived views ----------------------------------------------

    def target_country_codes(self) -> np.ndarray:
        """Per-attack ISO2 code of the victim country (object array)."""
        codes = np.array([c.code for c in self.world.countries])
        return codes[self.victims.country_idx[self.target_idx]]

    def participant_coords(self, attack_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(lats, lons) of one attack's participating bots."""
        idx = self.participants_of(attack_index)
        return self.bots.lat[idx], self.bots.lon[idx]

    def attack_columns_equal(self, other: "AttackDataset") -> bool:
        """Exact equality of the joined attack table against ``other``.

        Compares the observation window, the family index space, every
        per-attack column (including the CSR participant layout) and the
        victim registry.  Registries built by different code paths (e.g.
        a streaming build vs a scratch batch build) must agree cell for
        cell for this to hold — the streaming parity tests rely on it.
        """
        if (self.window.start, self.window.end) != (other.window.start, other.window.end):
            return False
        if self.families != other.families or self.active_families != other.active_families:
            return False
        attack_cols = ("start", "end", "family_idx", "botnet_id", "protocol",
                       "target_idx", "magnitude", "part_offsets", "participants")
        if any(not np.array_equal(getattr(self, c), getattr(other, c)) for c in attack_cols):
            return False
        victim_cols = ("ip", "lat", "lon", "country_idx", "city_idx", "org_idx", "asn")
        return all(
            np.array_equal(getattr(self.victims, c), getattr(other.victims, c))
            for c in victim_cols
        )

    def subset(self, attack_indices: np.ndarray) -> "AttackDataset":
        """A new dataset restricted to the given attacks (sorted copy).

        Registries and world are shared, not copied; ground-truth labels
        travel with the attacks.
        """
        idx = np.asarray(attack_indices, dtype=np.int64)
        idx = idx[np.argsort(self.start[idx], kind="stable")]
        counts = (self.part_offsets[idx + 1] - self.part_offsets[idx]).astype(np.int64)
        offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        parts = np.empty(int(offsets[-1]), dtype=self.participants.dtype)
        for k, i in enumerate(idx):
            parts[offsets[k] : offsets[k + 1]] = self.participants_of(int(i))
        return AttackDataset(
            window=self.window,
            world=self.world,
            families=self.families,
            active_families=self.active_families,
            bots=self.bots,
            victims=self.victims,
            botnets=self.botnets,
            start=self.start[idx],
            end=self.end[idx],
            family_idx=self.family_idx[idx],
            botnet_id=self.botnet_id[idx],
            protocol=self.protocol[idx],
            target_idx=self.target_idx[idx],
            magnitude=self.magnitude[idx],
            part_offsets=offsets,
            participants=parts,
            truth_collab_group=self.truth_collab_group[idx],
            truth_collab_kind=self.truth_collab_kind[idx],
            truth_chain_id=self.truth_chain_id[idx],
            truth_symmetric=self.truth_symmetric[idx],
            truth_residual_km=self.truth_residual_km[idx],
        )
