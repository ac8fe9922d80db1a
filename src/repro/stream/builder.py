"""StreamingDataset: the append path of the reproduction.

The paper's vendor pipeline is a *continuous* monitoring service —
attacks accumulate over 207 days — while the batch builders
(:func:`repro.io.ingest.dataset_from_records`,
:func:`repro.datagen.generator.generate_dataset`) rebuild everything
from scratch.  :class:`StreamingDataset` closes that gap: it accepts
batches of :class:`~repro.monitor.schemas.DDoSAttackRecord`\\ s, keeps
the per-attack columns sorted by start time with amortized merges, and
materialises :class:`~repro.core.dataset.AttackDataset` snapshots whose
:class:`~repro.core.context.AnalysisContext` views are maintained
*incrementally* (see :mod:`repro.stream.incremental`).

Equivalence contract: after any sequence of ``append_batch`` calls, the
materialised dataset equals ``dataset_from_records`` over the same
records in the same arrival order — the batch builder is in fact a
one-batch stream.  When batches arrive in chronological order (each
batch's first record not earlier than the previous batch's last), the
appends take the in-place fast path and snapshot views are carried
forward in O(batch); an out-of-order batch triggers a stable merge and
a cold (lazy) view rebuild for the next snapshot.

Entity interning (world countries/cities/organizations, victims,
botnets) happens in arrival order.  For in-order streams that is the
same first-appearance order the scratch build uses, so snapshots are
cell-for-cell identical; out-of-order streams keep the same joined
*content* but may number entities differently.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable

import numpy as np

from ..core.columns import GrowableColumn
from ..core.context import AnalysisContext
from ..core.dataset import AttackDataset, BotRegistry, VictimRegistry
from ..errors import IngestError
from ..geo.world import COUNTRY_TABLE, City, Country, Organization, World
from ..monitor.schemas import BotnetRecord, DDoSAttackRecord
from ..obs import registry as _obs_registry
from ..simulation.clock import ObservationWindow

#: Re-exported for compatibility — the class moved to :mod:`repro.errors`
#: when the taxonomy was unified; this module is its historical home.
__all__ = ["IngestError", "StreamingDataset"]

_KNOWN_CENTROIDS = {code: (lat, lon) for code, _n, lat, lon, _w in COUNTRY_TABLE}

_SECONDS_PER_DAY = 86400

#: The attack columns a batch fills: ``AttackDataset`` field -> dtype.
_FILLED = {
    "start": float,
    "end": float,
    "family_idx": np.int16,
    "botnet_id": np.int32,
    "protocol": np.int8,
    "target_idx": np.int32,
    "magnitude": np.int32,
}

#: The victim registry's columns, in :meth:`StreamingDataset._intern_victim`
#: row order: ``VictimRegistry`` field -> dtype.
_VICTIM = {
    "ip": np.uint64,
    "lat": float,
    "lon": float,
    "country_idx": np.int16,
    "city_idx": np.int32,
    "org_idx": np.int32,
    "asn": np.int32,
}

#: The per-row attack columns a stream has nothing to fill with (no
#: Botlist, no ground truth): name -> (dtype, constant).  They grow with
#: the rows like the others, so every snapshot views one buffer instead
#: of allocating its own.  ``part_offsets`` has one more row (the CSR
#: end), and ``participants`` stays empty.
_UNFILLED = {
    "part_offsets": (np.int64, 0),
    "truth_collab_group": (np.int32, -1),
    "truth_collab_kind": (np.int8, 0),
    "truth_chain_id": (np.int32, -1),
    "truth_symmetric": (bool, False),
    "truth_residual_km": (np.float64, 0.0),
}


def _validated(records: Iterable[DDoSAttackRecord], strict: bool) -> list[DDoSAttackRecord]:
    """Materialise and validate an input iterable.

    With ``strict`` (the default) a malformed record raises
    :class:`IngestError` carrying its position; otherwise malformed
    records are dropped.  A record is malformed when it is not a
    :class:`DDoSAttackRecord`, when its start or end time is not finite
    (JSON bodies may carry ``NaN`` or ``Infinity``) or when it ends
    before it starts.
    """
    out: list[DDoSAttackRecord] = []
    for index, rec in enumerate(records):
        if not isinstance(rec, DDoSAttackRecord):
            if strict:
                raise IngestError(
                    f"expected DDoSAttackRecord, got {type(rec).__name__}", index
                )
            continue
        if not (math.isfinite(rec.timestamp) and math.isfinite(rec.end_time)):
            if strict:
                raise IngestError(
                    f"start or end time is not finite (ddos_id={rec.ddos_id})", index
                )
            continue
        if rec.end_time < rec.timestamp:
            if strict:
                raise IngestError(
                    f"ends before it starts (ddos_id={rec.ddos_id})", index
                )
            continue
        out.append(rec)
    return out


class StreamingDataset:
    """Builds an attack-table-only dataset incrementally from records.

    >>> from repro import api
    >>> from repro.stream import StreamingDataset
    >>> records = list(api.generate(scale=0.005).iter_attacks())
    >>> stream = StreamingDataset()
    >>> stream.append_batch(records[:100])
    100
    >>> stream.context().dataset.n_attacks  # snapshot, views carried in O(batch)
    100

    Like ingested datasets, streamed datasets have no Botlist side: the
    participant arrays are empty, so bot-geolocation analyses degrade as
    documented in :mod:`repro.io.ingest`.
    """

    def __init__(
        self,
        window: ObservationWindow | None = None,
        *,
        sketches: bool = False,
    ) -> None:
        self._window_fixed = window
        self._min_start: float | None = None
        self._max_end: float | None = None

        #: Optional fixed-memory summary maintained alongside the exact
        #: columns (see :mod:`repro.sketch`); per-epoch snapshot copies
        #: are cached so concurrent readers get immutable state.
        self._summary = None
        if sketches:
            from ..sketch import AttackStreamSummary

            self._summary = AttackStreamSummary()
        self._sketch_cache: tuple[int, object] | None = None

        self._world = World()
        self._country_of: dict[str, int] = {}
        self._city_of: dict[str, int] = {}
        self._org_of: dict[str, int] = {}

        self._families: list[str] = []
        self._family_of: dict[str, int] = {}

        #: No Botlist on the wire: every snapshot shares this empty
        #: registry, so carried views see the bot side unchanged.
        empty = np.zeros(0)
        self._bots = BotRegistry(
            ip=np.zeros(0, dtype=np.uint64),
            lat=empty,
            lon=empty,
            country_idx=np.zeros(0, dtype=np.int16),
            city_idx=np.zeros(0, dtype=np.int32),
            org_idx=np.zeros(0, dtype=np.int32),
            asn=np.zeros(0, dtype=np.int32),
            family_idx=np.zeros(0, dtype=np.int16),
            botnet_id=np.zeros(0, dtype=np.int32),
            recruit_ts=empty,
        )

        self._target_of: dict[int, int] = {}
        self._victims = {name: GrowableColumn(dtype) for name, dtype in _VICTIM.items()}

        #: botnet_id -> [family, first_seen, last_seen]; family is the
        #: first arrival's, matching the batch builder's setdefault.
        self._botnet_seen: dict[int, list] = {}
        self._botnets_cache: list[BotnetRecord] | None = None
        self._botnet_pos: dict[int, int] = {}
        self._botnets_dirty: set[int] = set()

        #: The attack table, one column per ``AttackDataset`` field.
        self._attacks = {name: GrowableColumn(dtype) for name, dtype in _FILLED.items()}
        for name, (dtype, _) in _UNFILLED.items():
            self._attacks[name] = GrowableColumn(dtype)
        self._attacks["part_offsets"].append([0])

        self._epoch = 0
        #: Snapshot state: the context served at `_snapshot_epoch`, the
        #: attack count it covered, and whether rows since then were
        #: appended strictly in order (carry is only sound if so).
        self._snapshot_ctx: AnalysisContext | None = None
        self._snapshot_epoch = -1
        self._carry_ok = True

        #: Spill state: rows [0, _spilled_rows) have been written out as
        #: time shards; _spill_max_start is the largest start among them.
        #: A later batch landing at or before that start would have to be
        #: merged into rows already on disk, so it marks the spill dirty
        #: and further spills refuse until a fresh store is chosen.
        self._spilled_rows = 0
        self._spill_max_start = -np.inf
        self._spill_dirty = False

    # -- shape -------------------------------------------------------------

    @property
    def n_attacks(self) -> int:
        return len(self._attacks["start"])

    @property
    def epoch(self) -> int:
        """Revision counter: bumped once per non-empty ``append_batch``."""
        return self._epoch

    @property
    def families(self) -> list[str]:
        """Families seen so far, sorted (the snapshot index space)."""
        return list(self._families)

    # -- interning ---------------------------------------------------------

    def _intern_family(self, name: str) -> int:
        idx = self._family_of.get(name)
        if idx is not None:
            return idx
        # Families stay alphabetically sorted (the batch builder's
        # contract), so a new family can land mid-list and shift the
        # indices after it.  The committed column is rewritten through
        # replace() so snapshots taken earlier keep their own indexing.
        import bisect

        pos = bisect.bisect_left(self._families, name)
        self._families.insert(pos, name)
        self._family_of = {fam: i for i, fam in enumerate(self._families)}
        if pos < len(self._families) - 1 and self.n_attacks:
            col = self._attacks["family_idx"]
            idx = col.view()
            col.replace(np.where(idx >= pos, idx + 1, idx).astype(np.int16))
        return pos

    def _intern_country(self, rec: DDoSAttackRecord) -> int:
        idx = self._country_of.get(rec.country_code)
        if idx is not None:
            return idx
        lat, lon = _KNOWN_CENTROIDS.get(rec.country_code, (rec.lat, rec.lon))
        country = Country(
            index=len(self._world.countries),
            code=rec.country_code,
            name=rec.country_code,
            lat=lat,
            lon=lon,
            weight=1.0,
        )
        self._world.countries.append(country)
        self._world._country_by_code[rec.country_code] = country.index
        self._world._cities_by_country[country.index] = []
        self._world._orgs_by_country[country.index] = []
        self._country_of[rec.country_code] = country.index
        return country.index

    def _intern_city(self, rec: DDoSAttackRecord, country_idx: int) -> int:
        idx = self._city_of.get(rec.city)
        if idx is not None:
            return idx
        city = City(
            index=len(self._world.cities),
            name=rec.city,
            country_index=country_idx,
            lat=rec.lat,
            lon=rec.lon,
            weight=1.0,
        )
        self._world.cities.append(city)
        self._world._cities_by_country[country_idx].append(city.index)
        self._city_of[rec.city] = city.index
        return city.index

    def _intern_org(self, rec: DDoSAttackRecord, country_idx: int, city_idx: int) -> int:
        idx = self._org_of.get(rec.organization)
        if idx is not None:
            return idx
        org = Organization(
            index=len(self._world.organizations),
            name=rec.organization,
            org_type="unknown",
            country_index=country_idx,
            city_index=city_idx,
            asn=rec.asn,
            weight=1.0,
        )
        self._world.organizations.append(org)
        self._world._orgs_by_country[country_idx].append(org.index)
        self._org_of[rec.organization] = org.index
        return org.index

    def _intern_victim(
        self, rec: DDoSAttackRecord, c_idx: int, city_idx: int, org_idx: int, new: list
    ) -> None:
        """Number a victim on first sight; its row joins ``new``, which
        :meth:`append_batch` appends to the victim columns once per batch."""
        if rec.target_ip not in self._target_of:
            self._target_of[rec.target_ip] = len(self._target_of)
            new.append((rec.target_ip, rec.lat, rec.lon, c_idx, city_idx, org_idx, rec.asn))

    # -- the append path ---------------------------------------------------

    def append_batch(
        self, records: Iterable[DDoSAttackRecord], *, strict: bool = True
    ) -> int:
        """Fold a batch of records into the stream; returns the count added.

        The batch may be any iterable (a generator is consumed once).
        An empty batch is a no-op and does not bump the epoch.  Records
        may arrive in any order; chronologically non-decreasing batches
        take the O(batch) fast path, others trigger a stable merge of
        the sorted columns.

        Each non-empty fold counts into ``stream.records_appended`` and
        ``stream.batches`` (labelled by whether it took the in-order
        fast path), observes its latency into ``stream.append_seconds``,
        and updates the ``stream.epoch`` gauge.
        """
        t0 = time.perf_counter()
        batch = _validated(records, strict)
        if not batch:
            return 0
        batch.sort(key=lambda r: (r.timestamp, r.botnet_id))

        cols = self._attacks
        last_key = (
            (float(cols["start"].view()[-1]), int(cols["botnet_id"].view()[-1]))
            if self.n_attacks
            else None
        )

        new_victims: list[tuple] = []
        for rec in batch:
            c_idx = self._intern_country(rec)
            city_idx = self._intern_city(rec, c_idx)
            org_idx = self._intern_org(rec, c_idx, city_idx)
            self._intern_victim(rec, c_idx, city_idx, org_idx, new_victims)
            self._intern_family(rec.family)
            entry = self._botnet_seen.setdefault(
                rec.botnet_id, [rec.family, rec.timestamp, rec.end_time]
            )
            entry[1] = min(entry[1], rec.timestamp)
            entry[2] = max(entry[2], rec.end_time)
            self._botnets_dirty.add(rec.botnet_id)
            if self._min_start is None or rec.timestamp < self._min_start:
                self._min_start = rec.timestamp
            if self._max_end is None or rec.end_time > self._max_end:
                self._max_end = rec.end_time

        if new_victims:
            for column, values in zip(self._victims.values(), zip(*new_victims)):
                column.append(values)

        # Family indices are resolved after the whole batch is interned:
        # a new family landing mid-alphabet shifts indices assigned to
        # earlier rows of this very batch.
        values = {
            "start": [r.timestamp for r in batch],
            "end": [r.end_time for r in batch],
            "family_idx": [self._family_of[r.family] for r in batch],
            "botnet_id": [r.botnet_id for r in batch],
            "protocol": [int(r.category) for r in batch],
            "target_idx": [self._target_of[r.target_ip] for r in batch],
            "magnitude": [r.magnitude for r in batch],
        }
        rows = {name: np.asarray(values[name], dtype=dtype) for name, dtype in _FILLED.items()}
        for name, (dtype, value) in _UNFILLED.items():
            rows[name] = np.full(len(batch), value, dtype=dtype)
        start, botnet = rows["start"], rows["botnet_id"]

        if self._spilled_rows and start[0] <= self._spill_max_start:
            self._spill_dirty = True

        if self._summary is not None:
            self._summary.update_arrays(
                start=start,
                end=rows["end"],
                family=np.asarray([r.family for r in batch], dtype=object),
                country=np.asarray([r.country_code for r in batch], dtype=object),
                victim=np.asarray([r.target_ip for r in batch], dtype=np.uint64),
                botnet=botnet,
            )

        in_order = last_key is None or (start[0], int(botnet[0])) >= last_key
        for name, values in rows.items():
            cols[name].append(values)

        if not in_order:
            # Stable merge: equivalent to stable-sorting the records in
            # arrival order by (start, botnet_id) — exactly what the
            # scratch batch build does.  The unfilled columns hold one
            # constant each and need no re-order.
            order = np.lexsort((cols["botnet_id"].view(), cols["start"].view()))
            for name in _FILLED:
                cols[name].replace(cols[name].view()[order])
            self._carry_ok = False

        self._epoch += 1
        reg = _obs_registry()
        reg.counter("stream.records_appended").inc(len(batch))
        reg.counter("stream.batches", in_order="true" if in_order else "false").inc()
        reg.gauge("stream.epoch").set(self._epoch)
        reg.histogram("stream.append_seconds").observe(time.perf_counter() - t0)
        return len(batch)

    # -- snapshots ---------------------------------------------------------

    def _window(self) -> ObservationWindow:
        if self._window_fixed is not None:
            return self._window_fixed
        if self._min_start is None:
            return ObservationWindow()
        start = int(self._min_start)
        end = int(self._max_end) + 1
        span = max(end - start, _SECONDS_PER_DAY)
        n_days = (span + _SECONDS_PER_DAY - 1) // _SECONDS_PER_DAY
        return ObservationWindow(start=start, end=start + n_days * _SECONDS_PER_DAY)

    def _botnets(self) -> list[BotnetRecord]:
        if self._botnets_cache is None:
            self._botnets_cache = [
                BotnetRecord(
                    botnet_id=bid, family=fam, controller_ip=0, first_seen=lo, last_seen=hi
                )
                for bid, (fam, lo, hi) in sorted(self._botnet_seen.items())
            ]
            self._botnet_pos = {
                rec.botnet_id: i for i, rec in enumerate(self._botnets_cache)
            }
            self._botnets_dirty.clear()
        elif self._botnets_dirty:
            # Patch only the botnets the batch touched.  The list is
            # copied first: snapshots materialised earlier hold the old
            # one and must keep their first/last_seen values.
            cache = list(self._botnets_cache)
            new_ids = False
            for bid in self._botnets_dirty:
                fam, lo, hi = self._botnet_seen[bid]
                rec = BotnetRecord(
                    botnet_id=bid, family=fam, controller_ip=0, first_seen=lo, last_seen=hi
                )
                pos = self._botnet_pos.get(bid)
                if pos is None:
                    cache.append(rec)
                    new_ids = True
                else:
                    cache[pos] = rec
            if new_ids:
                cache.sort(key=lambda rec: rec.botnet_id)
                self._botnet_pos = {rec.botnet_id: i for i, rec in enumerate(cache)}
            self._botnets_cache = cache
            self._botnets_dirty.clear()
        return self._botnets_cache

    def _materialize(self) -> AttackDataset:
        families = list(self._families)
        victims = VictimRegistry(
            **{name: col.view() for name, col in self._victims.items()},
            owner_family_idx=np.full(len(self._victims["ip"]), -1, dtype=np.int16),
        )
        return AttackDataset(
            window=self._window(),
            world=self._world,
            families=families,
            active_families=list(families),
            bots=self._bots,
            victims=victims,
            botnets=self._botnets(),
            participants=np.zeros(0, dtype=np.int64),
            **{name: col.view() for name, col in self._attacks.items()},
            # Appends since the last snapshot left its rows a prefix
            # unless a late batch re-sorted them.
            _checked_rows=(
                self._snapshot_ctx.dataset.n_attacks
                if self._snapshot_ctx is not None and self._carry_ok
                else 0
            ),
        )

    def context(self, *, prewarm_jobs: int | None = None) -> AnalysisContext:
        """The current snapshot's shared analysis context.

        Cached per epoch: repeated calls between appends return the same
        context (and the same dataset instance).  After an append, a new
        snapshot is materialised and the previous snapshot's views are
        carried forward in O(batch): the collaboration and chain scans
        regenerate only their runs that cross the seam, and the global
        summaries and weekly shifts re-count only what the batch can
        change.  The forecasts, which have no extend rule, are left to
        rebuild under the new epoch tag.

        ``prewarm_jobs`` builds the views the new snapshot still lacks
        via :meth:`AnalysisContext.prewarm` when a *new* snapshot is
        materialised: the prewarm seeds via ``seed_view``, so carried
        views are untouched, and after an in-order append only the
        forecasts (and a new family's views) are built (pass 1 for
        serial, N for the worker-pool fan-out).  A cached snapshot is
        returned as-is — its views are already warm.

        A carry counts the views it seeded into ``stream.views_carried``
        and the ones it had to drop into ``stream.views_invalidated``,
        and observes its latency into ``stream.carry_seconds``.
        """
        if self._snapshot_ctx is not None and self._snapshot_epoch == self._epoch:
            return self._snapshot_ctx
        from .incremental import carry_views  # late: keeps module import light

        ctx = AnalysisContext.attach(self._materialize(), epoch=self._epoch)
        if self._snapshot_ctx is not None and self._carry_ok:
            t0 = time.perf_counter()
            n_old = self._snapshot_ctx.n_views
            seeded = carry_views(self._snapshot_ctx, ctx)
            reg = _obs_registry()
            reg.counter("stream.views_carried").inc(seeded)
            reg.counter("stream.views_invalidated").inc(n_old - seeded)
            reg.histogram("stream.carry_seconds").observe(time.perf_counter() - t0)
        self._snapshot_ctx = ctx
        self._snapshot_epoch = self._epoch
        self._carry_ok = True
        if prewarm_jobs is not None:
            ctx.prewarm(jobs=prewarm_jobs)
        return ctx

    def dataset(self) -> AttackDataset:
        """The current snapshot dataset (see :meth:`context`)."""
        return self.context().dataset

    # -- sketches ----------------------------------------------------------

    @property
    def sketch(self):
        """The live fixed-memory summary, or ``None`` in exact-only mode.

        Only present when the stream was built with ``sketches=True``;
        it is the *mutable* summary the append path feeds — readers that
        need immutable state should take :meth:`sketch_snapshot`.
        """
        return self._summary

    def sketch_snapshot(self):
        """An immutable copy of the summary at the current epoch.

        Cached per epoch, like :meth:`context`: repeated calls between
        appends return the same object, so concurrent readers share one
        frozen copy while the live summary keeps absorbing batches.
        Raises ``ValueError`` when the stream was built without
        ``sketches=True``.
        """
        if self._summary is None:
            raise ValueError(
                "this stream has no sketches; build it with "
                "StreamingDataset(sketches=True)"
            )
        if self._sketch_cache is None or self._sketch_cache[0] != self._epoch:
            self._sketch_cache = (self._epoch, self._summary.copy())
        return self._sketch_cache[1]

    def resident_bytes(self) -> int:
        """Resident bytes of the stream's own buffers.

        Counts the attack-column and victim-column backing buffers (at
        capacity, i.e. what is actually allocated) plus the sketch
        summary when enabled.  Interning dicts and snapshot contexts are
        not included — this is the number the serve layer's per-tenant
        memory ceiling compares against.
        """
        total = sum(
            col.nbytes for table in (self._attacks, self._victims) for col in table.values()
        )
        if self._summary is not None:
            total += self._summary.memory_bytes()
        return int(total)

    # -- spilling ----------------------------------------------------------

    def spill_shards(self, path, *, context=None) -> int:
        """Spill the closed prefix of the stream into the sharded store.

        Every row whose start is *strictly before* the stream's current
        maximum start is closed — no in-order batch can ever land among
        those rows again — so the not-yet-spilled closed rows are
        appended as the store's next time shard
        (:func:`repro.io.colstore.append_shard`; the store is created on
        the first spill).  Rows tied at the maximum stay in memory until
        a later batch moves the frontier past them.  Returns the number
        of rows spilled (0 when the frontier has not advanced), counted
        into ``stream.spilled_rows``.

        Spilling never frees memory — the stream keeps serving full
        snapshots — it bounds what a *restart* would lose and feeds the
        map-reduce path (:class:`~repro.io.colstore.ShardedDatasetStore`).
        Pass the store's live
        :class:`~repro.core.context.ShardedAnalysisContext` as
        ``context`` and it is refreshed after the append, so its next
        ``merged()`` covers the spilled rows: incrementally when the
        spill left the registries as they were, by a full fold when the
        spilled rows' batches interned new bots, victims or families.

        Raises ``ValueError`` if a batch arrived at or before the spilled
        frontier since the last spill: those rows were merged into a
        prefix that is already on disk, so the store no longer partitions
        the stream and further spills would corrupt it.
        """
        from ..io import colstore

        if self._spill_dirty:
            raise ValueError(
                "spill is dirty: a batch arrived at or before the spilled "
                "frontier; the store no longer partitions this stream"
            )
        if self.n_attacks == 0:
            return 0
        start_col = self._attacks["start"].view()
        cut = int(np.searchsorted(start_col, start_col[-1], side="left"))
        if cut <= self._spilled_rows:
            return 0
        chunk = colstore._slice_dataset(self.context().dataset, self._spilled_rows, cut)
        colstore.append_shard(path, chunk)
        spilled = cut - self._spilled_rows
        self._spilled_rows = cut
        self._spill_max_start = float(start_col[cut - 1])
        _obs_registry().counter("stream.spilled_rows").inc(spilled)
        if context is not None:
            context.refresh()
        return spilled
