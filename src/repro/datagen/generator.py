"""End-to-end dataset generation.

``generate_dataset(config, jobs=N)`` runs the whole pipeline:

1. build the world, the IPv4 plan and the GeoIP service;
2. build botnet rosters (674 generations) and plan per-family bot pools
   (310,950 bots at full scale) against the shared address space;
3. build the victim registry (9,026 targets) and per-family target pools;
4. plan the inter-family collaborations, then fan one *shard* per family
   across the worker pool: each shard finishes its bot pool, plans the
   family's attacks (waves/sessions, staged collaborations, chains, the
   2012-08-30 surge), assigns protocols (exact Table II multisets) and
   targets (Table V country weights, full coverage of the victim
   registry), resolves (botnet, target) timing conflicts, cuts its
   attacks into raw pulses labelled by the family's roster, and joins
   them back with the 60 s segmentation rule;
5. merge the shards deterministically (concatenate in family order,
   stable sort by start, renumber collaboration groups);
6. sample per-attack participants from the bot pools, fanned across the
   pool in index chunks;
7. assemble the columnar :class:`~repro.core.dataset.AttackDataset`.

Everything is driven by named seed streams — per-family streams for
planning and monitoring, a per-attack stream for participant sampling —
so a dataset is a pure function of its
:class:`~repro.datagen.config.DatasetConfig`: ``jobs`` only chooses how
the work is executed, never what is generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import par
from ..botnet.bots import BotPool, BotPoolPlan
from ..botnet.cnc import BotnetRoster
from ..botnet.scheduler import CollabKind, FamilyScheduler, PlannedAttack
from ..core.dataset import AttackDataset, BotRegistry
from ..geo.ipam import IPAllocator, SequentialAssigner
from ..geo.mapping import GeoIPService
from ..geo.world import World
from ..monitor.labeling import FamilyLabeler
from ..monitor.schemas import AttackPulse, BotnetRecord, Protocol
from ..monitor.segmentation import segment_pulses
from ..obs import registry as _obs_registry
from ..simulation.clock import ObservationWindow
from ..simulation.rng import SeededStreams, derive_seed
from .config import DatasetConfig
from .victims import TargetPool, build_victims

__all__ = ["generate_dataset", "GenerationError"]


class GenerationError(RuntimeError):
    """Internal consistency failure during generation (a bug, not data)."""


def _attacker_country_pool(world: World, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``n`` countries by internet weight: the global bot tail pool."""
    order = sorted(world.countries, key=lambda c: -c.weight)[:n]
    idx = np.array([c.index for c in order], dtype=np.int64)
    w = np.array([c.weight for c in order], dtype=float)
    return idx, w


def _plan_inter_family(
    collabs: list[tuple[str, str, int]],
    profiles,
    pools: dict[str, TargetPool],
    rosters: dict[str, BotnetRoster],
    window: ObservationWindow,
    rng: np.random.Generator,
    next_group: int,
) -> tuple[list[PlannedAttack], int]:
    """Stage the inter-family concurrent collaborations (§V-A, Fig 16).

    Dirtjumper×Pandora ran from October to December 2012 against 96
    unique targets; each event pairs one attack from each family with
    near-identical magnitudes and durations differing by 10-28 minutes.
    Group ids are numbered locally from ``next_group``; the shard merge
    renumbers them after the total intra-family group count is known.
    """
    attacks: list[PlannedAttack] = []
    # Oct 1 / Dec 31 2012 as fractions of the paper window.
    season = (0.159, 0.599)
    for fam_a, fam_b, count in collabs:
        prof_a, prof_b = profiles[fam_a], profiles[fam_b]
        lo = max(prof_a.active_window[0], prof_b.active_window[0], season[0])
        hi = min(prof_a.active_window[1], prof_b.active_window[1], season[1])
        if hi <= lo:  # fall back to the plain activity overlap
            lo = max(prof_a.active_window[0], prof_b.active_window[0])
            hi = min(prof_a.active_window[1], prof_b.active_window[1])
            if hi <= lo:
                raise GenerationError(
                    f"{fam_a} and {fam_b} never active together; cannot stage collabs"
                )
        t0 = window.start + lo * window.duration
        span = (hi - lo) * window.duration

        pool_a = pools[fam_a]
        n_targets = max(1, min(int(round(count * 96.0 / 118.0)), pool_a.n_targets, count))
        target_sel = rng.choice(pool_a.target_indices.size, size=n_targets, replace=False)
        targets = pool_a.target_indices[target_sel]
        for e in range(count):
            # First cover every designated target once, then revisit.
            target = int(targets[e]) if e < n_targets else int(targets[rng.integers(0, n_targets)])
            base = t0 + rng.random() * span
            dur_a = float(rng.lognormal(np.log(4800.0), 0.4))
            dur_b = dur_a + float(rng.uniform(600.0, 1700.0))
            magnitude = int(max(4, round(rng.lognormal(np.log(40.0), 0.4))))
            bot_a = int(rosters[fam_a].pick(rng, base, k=1)[0])
            bot_b = int(rosters[fam_b].pick(rng, base, k=1)[0])
            sym = bool(rng.random() < 0.6)
            residual = 0.0 if sym else float(rng.lognormal(np.log(800.0), 0.5))
            for fam, bot, dur in ((fam_a, bot_a, dur_a), (fam_b, bot_b, dur_b)):
                attacks.append(
                    PlannedAttack(
                        start=base + float(rng.random() * 50.0),
                        duration=dur,
                        family=fam,
                        botnet_id=bot,
                        target_index=target,
                        magnitude=magnitude,
                        symmetric=sym,
                        residual_km=residual,
                        collab_group=next_group,
                        collab_kind=CollabKind.INTER,
                    )
                )
            next_group += 1
    return attacks, next_group


def _assign_protocols(
    name: str, attacks: list[PlannedAttack], profile, rng: np.random.Generator
) -> None:
    """Give every attack a protocol; exact Table II multiset per family."""
    counts = profile.protocol_counts
    multiset: list[Protocol] = []
    for proto in sorted(counts, key=lambda p: p.value):
        multiset.extend([proto] * counts[proto])
    if len(multiset) != len(attacks):
        raise GenerationError(
            f"{name}: planned {len(attacks)} attacks but protocol "
            f"multiset holds {len(multiset)}"
        )
    order = rng.permutation(len(multiset))
    for attack, pos in zip(attacks, order):
        attack.protocol = multiset[pos]


def _assign_targets(
    attacks: list[PlannedAttack], pool: TargetPool, rng: np.random.Generator
) -> None:
    """Fill in targets: staged structures first, then full pool coverage.

    Mega-day attacks (marked ``chain_id == -2``) round-robin over the
    designated Russian subnet; each chain and each intra-family collab
    group shares a single target; the remaining ("regular") attacks first
    cover every not-yet-attacked victim once, then draw country-weighted
    Zipf targets.
    """
    used: set[int] = set()
    regular: list[PlannedAttack] = []
    by_chain: dict[int, list[PlannedAttack]] = {}
    by_group: dict[int, list[PlannedAttack]] = {}
    mega: list[PlannedAttack] = []
    for attack in attacks:
        if attack.target_index >= 0:  # inter-family collabs arrive pre-assigned
            used.add(attack.target_index)
            continue
        if attack.chain_id == -2:
            mega.append(attack)
        elif attack.chain_id >= 0:
            by_chain.setdefault(attack.chain_id, []).append(attack)
        elif attack.collab_group >= 0:
            by_group.setdefault(attack.collab_group, []).append(attack)
        else:
            regular.append(attack)

    if mega:
        targets = pool.mega_targets if pool.mega_targets.size else pool.target_indices
        for i, attack in enumerate(mega):
            attack.target_index = int(targets[i % targets.size])
            used.add(attack.target_index)
    for members in by_chain.values():
        target = pool.sample_target(rng)
        for attack in members:
            attack.target_index = target
        used.add(target)
    for members in by_group.values():
        target = pool.sample_target(rng)
        for attack in members:
            attack.target_index = target
        used.add(target)

    uncovered = [int(t) for t in pool.target_indices if int(t) not in used]
    rng.shuffle(uncovered)
    rng.shuffle(regular)
    for attack in regular:
        if uncovered:
            attack.target_index = uncovered.pop()
        else:
            attack.target_index = pool.sample_target(rng)
    if uncovered:
        # Not enough regular attacks to cover the pool: hand leftovers to
        # staged attacks (overrides their shared-target property for the
        # overflow only; only reachable at extreme scale-down).
        overflow = mega + [a for ms in by_chain.values() for a in ms]
        for attack, target in zip(overflow, uncovered):
            attack.target_index = int(target)
        uncovered = uncovered[len(overflow):]
    for attack in attacks:
        if attack.target_index < 0:
            raise GenerationError(f"{attack.family}: unassigned target survived")


def _resolve_conflicts(
    attacks: list[PlannedAttack], window: ObservationWindow, rng: np.random.Generator
) -> None:
    """Ensure no two attacks share (botnet, target) within the 60 s rule.

    The segmentation stage merges same-botnet-same-target activity with
    gaps <= 60 s; planned attacks that would merge are pushed apart, so
    the verified-attack count stays exact.  Botnet ids are unique to one
    family, so per-family resolution partitions exactly like a global
    pass would.
    """
    groups: dict[tuple[int, int], list[PlannedAttack]] = {}
    for attack in attacks:
        groups.setdefault((attack.botnet_id, attack.target_index), []).append(attack)
    for members in groups.values():
        if len(members) < 2:
            continue
        members.sort(key=lambda a: a.start)
        prev_end = members[0].end
        for attack in members[1:]:
            min_start = prev_end + 61.0
            if attack.start < min_start:
                attack.start = min_start + float(rng.random() * 30.0)
            prev_end = max(prev_end, attack.end)


def _clamp_to_window(attacks: list[PlannedAttack], window: ObservationWindow) -> None:
    """Keep every attack's *start* inside the observation window.

    Runs before conflict resolution (which only ever pushes starts
    later, never earlier, so it cannot undo this).  An attack may end
    after the window closes — the monitoring service records the end
    time it eventually observes, exactly as the real collection did.
    """
    horizon = float(window.end - 1)
    for attack in attacks:
        if attack.start >= horizon:
            attack.start = horizon - 1.0
        if attack.start < window.start:
            attack.start = float(window.start)


def _emit_pulses(
    attacks: list[PlannedAttack],
    labeler: FamilyLabeler,
    rng: np.random.Generator,
    split_prob: float,
) -> list[AttackPulse]:
    """Cut each planned attack into 1-3 raw pulses, labelled by ``labeler``.

    The label is the verification step of §II-B: a pulse is recorded
    only under the family its botnet is attributed to, so a botnet
    missing from the roster is a generation bug.
    """
    pulses: list[AttackPulse] = []
    for tag, attack in enumerate(attacks):
        try:
            family = labeler.label(attack.botnet_id)
        except KeyError:
            raise GenerationError(
                f"{attack.family}: botnet {attack.botnet_id} is not on the "
                "family's roster"
            ) from None
        # Splitting carves short (<= 50 s) gaps strictly *inside* the
        # planned span, so the merged record reproduces the attack
        # exactly and never bleeds into a neighbouring attack.
        cuts: list[tuple[float, float]] = [(attack.start, attack.end)]
        if attack.duration > 300.0 and rng.random() < split_prob:
            n_cuts = 2 if (attack.duration > 900.0 and rng.random() < 0.5) else 1
            centers = np.sort(rng.uniform(0.25, 0.75, size=n_cuts)) * attack.duration
            if n_cuts == 1 or (centers[1] - centers[0]) > 110.0:
                gaps = rng.uniform(5.0, 50.0, size=n_cuts)
                cuts = []
                edge = attack.start
                for center, gap in zip(centers, gaps):
                    cuts.append((edge, attack.start + float(center - gap / 2.0)))
                    edge = attack.start + float(center + gap / 2.0)
                cuts.append((edge, attack.end))
        for lo, hi in cuts:
            pulses.append(
                AttackPulse(
                    botnet_id=attack.botnet_id,
                    family=family,
                    target_index=attack.target_index,
                    start=lo,
                    end=hi,
                    protocol=attack.protocol,
                    attack_tag=tag,
                )
            )
    return pulses


# ---------------------------------------------------------------------------
# family shards (phase A): pool finish + planning + monitoring, per family
# ---------------------------------------------------------------------------


@dataclass
class _ShardPayload:
    """Read-only state every family shard needs (fork-inherited)."""

    seed: int
    window: ObservationWindow
    profiles: dict
    world: World
    geoip: GeoIPService
    rosters: dict[str, BotnetRoster]
    target_pools: dict[str, TargetPool]
    plans: dict[str, BotPoolPlan]
    inter_by_family: dict[str, list[PlannedAttack]]
    reserve: dict[str, int]
    mega: dict
    active: frozenset[str]
    pulse_split_prob: float
    gap_seconds: float


@dataclass
class _ShardResult:
    """One family's contribution: its finished pool and attack columns."""

    pool: BotPool
    n_groups: int = 0
    columns: dict[str, np.ndarray] | None = None


def _segment_columns(
    attacks: list[PlannedAttack], segments
) -> dict[str, np.ndarray]:
    """Per-family attack columns in segment (start-sorted) order.

    ``planned_magnitude`` is transient — participant sampling consumes
    it and replaces it with the realised sample size.  ``group`` holds
    family-local collaboration ids; the merge renumbers them.
    """
    n = len(segments)
    cols = {
        "start": np.empty(n),
        "end": np.empty(n),
        "botnet": np.empty(n, dtype=np.int32),
        "protocol": np.empty(n, dtype=np.int8),
        "target": np.empty(n, dtype=np.int32),
        "planned_magnitude": np.empty(n, dtype=np.int64),
        "group": np.empty(n, dtype=np.int32),
        "kind": np.empty(n, dtype=np.int8),
        "chain": np.empty(n, dtype=np.int32),
        "sym": np.empty(n, dtype=bool),
        "residual": np.empty(n, dtype=np.float64),
    }
    for i, seg in enumerate(segments):
        planned = attacks[seg.tags[0]]
        cols["start"][i] = seg.start
        cols["end"][i] = seg.end
        cols["botnet"][i] = seg.botnet_id
        cols["protocol"][i] = int(planned.protocol)
        cols["target"][i] = planned.target_index
        cols["planned_magnitude"][i] = planned.magnitude
        cols["group"][i] = planned.collab_group
        cols["kind"][i] = planned.collab_kind
        cols["chain"][i] = planned.chain_id if planned.chain_id >= 0 else -1
        cols["sym"][i] = planned.symmetric
        cols["residual"][i] = planned.residual_km
    return cols


def _family_shard(payload: _ShardPayload, name: str) -> _ShardResult:
    """Finish one family's bot pool and, if active, plan + monitor its attacks.

    All randomness comes from streams named after the family
    (``schedule.<name>``, ``protocols.<name>``, ``targets.<name>``,
    ``conflicts.<name>``, ``pulses.<name>``) plus the mid-state pool
    stream captured in the plan, so the result is independent of which
    process runs the shard or in what order.
    """
    profile = payload.profiles[name]
    window = payload.window
    streams = SeededStreams(payload.seed)
    roster = payload.rosters[name]
    pool = BotPool.finish(
        payload.plans[name], profile, payload.world, payload.geoip, window, roster.ids
    )
    if name not in payload.active:
        return _ShardResult(pool=pool)

    scheduler = FamilyScheduler(
        profile, window, roster,
        streams.stream(f"schedule.{name}"),
        reserve_for_inter=payload.reserve.get(name, 0),
        mega_extra=payload.mega["extra_attacks"] if name == payload.mega["family"] else 0,
    )
    plan, n_groups = scheduler.plan(0)
    attacks = plan.attacks
    attacks.extend(payload.inter_by_family.get(name, ()))

    _assign_protocols(name, attacks, profile, streams.stream(f"protocols.{name}"))
    _assign_targets(attacks, payload.target_pools[name], streams.stream(f"targets.{name}"))
    _clamp_to_window(attacks, window)
    _resolve_conflicts(attacks, window, streams.stream(f"conflicts.{name}"))

    # Monitoring round trip.  Segmentation groups by (botnet, target) and
    # botnets belong to exactly one family, so per-family segmentation
    # produces the same segments a global pass would.
    labeler = FamilyLabeler({int(bid): name for bid in roster.ids})
    pulses = _emit_pulses(
        attacks, labeler, streams.stream(f"pulses.{name}"), payload.pulse_split_prob
    )
    segments = segment_pulses(pulses, payload.gap_seconds)

    if len(segments) != len(attacks):
        raise GenerationError(
            f"{name}: segmentation produced {len(segments)} attacks from "
            f"{len(attacks)} planned (conflict resolution failed)"
        )
    seen_tags: set[int] = set()
    for seg in segments:
        if len(seg.tags) != 1:
            raise GenerationError(f"{name}: segment merged distinct attacks: tags={seg.tags}")
        seen_tags.add(seg.tags[0])
    if len(seen_tags) != len(attacks):
        raise GenerationError(f"{name}: segmentation lost attacks")

    return _ShardResult(
        pool=pool, n_groups=n_groups, columns=_segment_columns(attacks, segments)
    )


# ---------------------------------------------------------------------------
# participant sampling (phase B): per-attack streams, chunked by index
# ---------------------------------------------------------------------------


@dataclass
class _ParticipantPayload:
    """Merged attack columns + finished pools (fork-inherited)."""

    seed: int
    pools: dict[str, BotPool]
    family_names: list[str]
    pool_offset: np.ndarray = field(repr=False, default=None)  # by global family idx
    family_idx: np.ndarray = field(repr=False, default=None)
    start: np.ndarray = field(repr=False, default=None)
    magnitude: np.ndarray = field(repr=False, default=None)
    symmetric: np.ndarray = field(repr=False, default=None)
    residual: np.ndarray = field(repr=False, default=None)


def _participant_chunk(
    payload: _ParticipantPayload, bounds: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Sample participants for attacks ``[lo, hi)`` of the merged order.

    Each attack gets its own generator derived from the config seed and
    its merged index, so the result is invariant to chunking and worker
    count.
    """
    lo, hi = bounds
    sizes = np.empty(hi - lo, dtype=np.int64)
    parts: list[np.ndarray] = []
    for i in range(lo, hi):
        fam = int(payload.family_idx[i])
        pool = payload.pools[payload.family_names[fam]]
        rng = np.random.default_rng(derive_seed(payload.seed, f"participants.{i}"))
        local = pool.sample_participants(
            rng, float(payload.start[i]), int(payload.magnitude[i]),
            bool(payload.symmetric[i]), float(payload.residual[i]),
        )
        parts.append(local + payload.pool_offset[fam])
        sizes[i - lo] = local.size
    merged = (
        np.concatenate(parts).astype(np.int64) if parts else np.zeros(0, dtype=np.int64)
    )
    return sizes, merged


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def generate_dataset(config: DatasetConfig | None = None, jobs: int = 1) -> AttackDataset:
    """Generate the full synthetic dataset for ``config`` (see module docs).

    ``jobs`` controls how many worker processes run the family shards
    and participant chunks; the output is array-identical for every
    value (randomness is keyed by stream name and attack index, never by
    worker).  The run is observable: the whole build times under a
    ``generate`` stage span with one child phase per pipeline step
    (``world``, ``rosters``, ``victims``, ``pool_plans``, ``inter``,
    ``par.shards``, ``merge``, ``par.participants``, ``assemble``), and
    the attack count lands in the ``generate.attacks`` counter.

    >>> from repro import DatasetConfig, generate_dataset
    >>> ds = generate_dataset(DatasetConfig.tiny())
    >>> ds.n_attacks > 0
    True
    """
    reg = _obs_registry()
    with reg.span("generate"), reg.phases() as phase:
        ds = _generate(config, phase, jobs)
    reg.counter("generate.attacks").inc(ds.n_attacks)
    return ds


def _generate(config: DatasetConfig | None, phase, jobs: int = 1) -> AttackDataset:
    """The generation pipeline (``phase(name)`` marks the stage spans)."""
    if config is None:
        config = DatasetConfig()
    jobs = par.resolve_jobs(jobs)
    phase("world")
    streams = SeededStreams(config.seed)
    window = config.window
    profiles = config.resolved_profiles()
    family_names = list(profiles.keys())
    family_index = {name: i for i, name in enumerate(family_names)}
    active_names = [n for n in family_names if profiles[n].active]

    world = World.build(streams)
    allocator = IPAllocator(world, streams)
    geoip = GeoIPService(world, allocator)
    assigner = SequentialAssigner(allocator)
    attacker_idx, attacker_w = _attacker_country_pool(world, config.n_attacker_countries)

    # --- rosters -----------------------------------------------------------
    phase("rosters")
    rosters: dict[str, BotnetRoster] = {}
    next_botnet_id = 1
    for name in family_names:
        roster = BotnetRoster.build(
            profiles[name], world, assigner,
            streams.stream(f"roster.{name}"), window, next_botnet_id,
        )
        rosters[name] = roster
        next_botnet_id += roster.n_botnets

    # --- victims -----------------------------------------------------------
    phase("victims")
    mega = config.resolved_mega()
    victims, target_pools = build_victims(
        profiles, world, assigner, geoip, streams.stream("victims"),
        config.n_victim_countries, mega_family=mega["family"],
    )
    # build_victims numbers owners by active-family position; remap global.
    active_to_global = np.array([family_index[n] for n in active_names], dtype=np.int16)
    owned = victims.owner_family_idx >= 0
    victims.owner_family_idx[owned] = active_to_global[victims.owner_family_idx[owned]]

    # --- bot pool plans (shared address space stays parent-side) -----------
    phase("pool_plans")
    plans: dict[str, BotPoolPlan] = {}
    for name in family_names:
        plans[name] = BotPool.plan(
            profiles[name], world, assigner,
            streams.stream(f"bots.{name}"),
            attacker_idx, attacker_w, home_share=config.home_share,
        )

    # --- inter-family collaborations ---------------------------------------
    phase("inter")
    inter = config.resolved_inter_collabs()
    reserve: dict[str, int] = {}
    for fam_a, fam_b, count in inter:
        reserve[fam_a] = reserve.get(fam_a, 0) + count
        reserve[fam_b] = reserve.get(fam_b, 0) + count
    inter_attacks, _ = _plan_inter_family(
        inter, profiles, target_pools, rosters, window, streams.stream("inter"), 0
    )
    inter_by_family: dict[str, list[PlannedAttack]] = {}
    for attack in inter_attacks:
        inter_by_family.setdefault(attack.family, []).append(attack)

    # --- family shards -------------------------------------------------------
    phase("par.shards")
    shard_payload = _ShardPayload(
        seed=config.seed, window=window, profiles=profiles, world=world,
        geoip=geoip, rosters=rosters, target_pools=target_pools, plans=plans,
        inter_by_family=inter_by_family, reserve=reserve, mega=mega,
        active=frozenset(active_names), pulse_split_prob=config.pulse_split_prob,
        gap_seconds=config.gap_seconds,
    )
    shards = dict(zip(
        family_names,
        par.parallel_map(
            _family_shard, family_names, jobs=jobs,
            payload=shard_payload, label="shards",
        ),
    ))
    pools = {name: shards[name].pool for name in family_names}

    # --- merge ---------------------------------------------------------------
    phase("merge")
    # Intra-family collaboration groups are numbered locally from 0 in
    # each shard; lay them out family after family (in active order),
    # then the inter-family groups after all of them.
    total_intra = sum(shards[name].n_groups for name in active_names)
    merged: dict[str, list[np.ndarray]] = {}
    family_parts: list[np.ndarray] = []
    group_offset = 0
    for name in active_names:
        cols = shards[name].columns
        intra = cols["kind"] == int(CollabKind.INTRA)
        cols["group"][intra] += group_offset
        inter_mask = cols["kind"] == int(CollabKind.INTER)
        cols["group"][inter_mask] += total_intra
        group_offset += shards[name].n_groups
        for key, arr in cols.items():
            merged.setdefault(key, []).append(arr)
        family_parts.append(
            np.full(cols["start"].size, family_index[name], dtype=np.int16)
        )
    cols = {key: np.concatenate(arrs) for key, arrs in merged.items()}
    family_col = np.concatenate(family_parts)
    order = np.argsort(cols["start"], kind="stable")
    cols = {key: arr[order] for key, arr in cols.items()}
    family_col = family_col[order]
    n = family_col.size

    # --- participants --------------------------------------------------------
    phase("par.participants")
    pool_offset = np.zeros(len(family_names), dtype=np.int64)
    offset = 0
    for i, name in enumerate(family_names):
        pool_offset[i] = offset
        offset += pools[name].n_bots
    part_payload = _ParticipantPayload(
        seed=config.seed, pools=pools, family_names=family_names,
        pool_offset=pool_offset, family_idx=family_col, start=cols["start"],
        magnitude=cols["planned_magnitude"], symmetric=cols["sym"],
        residual=cols["residual"],
    )
    # Several chunks per worker even out the skew between heavyweight
    # and lightweight families; chunk boundaries never affect output.
    n_chunks = 1 if jobs == 1 else max(1, min(n, jobs * 4))
    bounds = np.linspace(0, n, n_chunks + 1).astype(int)
    chunk_results = par.parallel_map(
        _participant_chunk,
        list(zip(bounds[:-1].tolist(), bounds[1:].tolist())),
        jobs=jobs, payload=part_payload, label="participants",
    )
    magnitude_col = (
        np.concatenate([sizes for sizes, _p in chunk_results])
        if chunk_results else np.zeros(0, dtype=np.int64)
    ).astype(np.int32)
    participants = (
        np.concatenate([p for _s, p in chunk_results])
        if chunk_results else np.zeros(0, dtype=np.int64)
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(magnitude_col, out=offsets[1:])

    # --- registries ------------------------------------------------------------
    phase("assemble")
    bots = BotRegistry(
        ip=np.concatenate([pools[n].ip for n in family_names]),
        lat=np.concatenate([pools[n].lat for n in family_names]),
        lon=np.concatenate([pools[n].lon for n in family_names]),
        country_idx=np.concatenate([pools[n].country_idx for n in family_names]),
        city_idx=np.concatenate([pools[n].city_idx for n in family_names]),
        org_idx=np.concatenate([pools[n].org_idx for n in family_names]),
        asn=np.concatenate([pools[n].asn for n in family_names]),
        family_idx=np.concatenate(
            [np.full(pools[n].n_bots, family_index[n], dtype=np.int16) for n in family_names]
        ),
        botnet_id=np.concatenate([pools[n].botnet_id for n in family_names]),
        recruit_ts=np.concatenate([pools[n].recruit_ts for n in family_names]),
    )
    botnet_records = [
        BotnetRecord(
            botnet_id=int(rosters[name].ids[j]),
            family=name,
            controller_ip=int(rosters[name].controller_ip[j]),
            first_seen=float(rosters[name].first_seen[j]),
            last_seen=float(rosters[name].last_seen[j]),
        )
        for name in family_names
        for j in range(rosters[name].n_botnets)
    ]

    return AttackDataset(
        window=window,
        world=world,
        families=family_names,
        active_families=active_names,
        bots=bots,
        victims=victims,
        botnets=botnet_records,
        start=cols["start"],
        end=cols["end"],
        family_idx=family_col,
        botnet_id=cols["botnet"],
        protocol=cols["protocol"],
        target_idx=cols["target"],
        magnitude=magnitude_col,
        part_offsets=offsets,
        participants=participants,
        truth_collab_group=cols["group"],
        truth_collab_kind=cols["kind"],
        truth_chain_id=cols["chain"],
        truth_symmetric=cols["sym"],
        truth_residual_km=cols["residual"],
    )
