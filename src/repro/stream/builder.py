"""StreamingDataset: the append path of the reproduction.

The paper's vendor pipeline is a *continuous* monitoring service —
attacks accumulate over 207 days — while the batch builders
(:func:`repro.io.ingest.dataset_from_records`,
:func:`repro.datagen.generator.generate_dataset`) rebuild everything
from scratch.  :class:`StreamingDataset` closes that gap: it accepts
batches of Table I rows, keeps the per-attack columns sorted by start
time with amortized merges, and materialises
:class:`~repro.core.dataset.AttackDataset` snapshots whose
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

There is one ingest path.  A batch is columns, one array per record
field: the serve codec decodes them straight from the wire
(:func:`~repro.monitor.schemas.columns_of_rows`), and a batch of
:class:`~repro.monitor.schemas.DDoSAttackRecord`\\ s is converted once
on entry (:func:`~repro.monitor.schemas.columns_of_records`).  The
checks are masks over the batch, and entities (world
countries/cities/organizations, victims, families, botnets) are
interned once per distinct value, in first-appearance order of the
batch sorted by (start, botnet_id).  For in-order streams that is the
same first-appearance order the scratch build uses, so snapshots are
cell-for-cell identical; out-of-order streams keep the same joined
*content* but may number entities differently.
"""

from __future__ import annotations

import time
from collections.abc import Mapping

import numpy as np

from ..core.columns import GrowableColumn
from ..core.context import AnalysisContext
from ..core.dataset import AttackDataset, BotRegistry, VictimRegistry
from ..errors import IngestError
from ..geo.world import COUNTRY_TABLE, City, Country, Organization, World
from ..monitor.schemas import BotnetRecord, DDoSAttackRecord, columns_of_records
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

#: The victim registry's columns: ``VictimRegistry`` field -> dtype, in
#: the order :meth:`StreamingDataset.append_batch` fills them.
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


def _checked(batch, strict: bool) -> dict[str, np.ndarray]:
    """The batch as Table I columns, its malformed rows checked.

    ``batch`` is either columns (:func:`~repro.monitor.schemas.columns_of_rows`)
    or an iterable of records, converted once here.  A row is malformed
    when it is not a :class:`DDoSAttackRecord`, when its start or end
    time is not finite (JSON bodies may carry ``NaN`` or ``Infinity``)
    or when it ends before it starts.  With ``strict`` the first
    malformed row raises :class:`IngestError` carrying its input
    position; otherwise malformed rows are dropped.
    """
    if isinstance(batch, Mapping):
        cols = batch
    else:
        records = list(batch)
        typed = [rec for rec in records if isinstance(rec, DDoSAttackRecord)]
        if strict and len(typed) < len(records):
            index = next(
                i for i, rec in enumerate(records) if not isinstance(rec, DDoSAttackRecord)
            )
            _checked(columns_of_records(records[:index]), strict)  # an earlier fault wins
            raise IngestError(
                f"expected DDoSAttackRecord, got {type(records[index]).__name__}", index
            )
        cols = columns_of_records(typed)
    start, end = cols["timestamp"], cols["end_time"]
    finite = np.isfinite(start) & np.isfinite(end)
    keep = finite & (end >= start)
    if keep.all():
        return cols
    if strict:
        index = int(np.argmin(keep))
        fault = "ends before it starts" if finite[index] else "start or end time is not finite"
        raise IngestError(f"{fault} (ddos_id={cols['ddos_id'][index]})", index)
    return {name: col[keep] for name, col in cols.items()}


def _distinct(values: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """A column's distinct values in first-appearance order, each row's
    slot among them, and the first row of each."""
    slots: dict = {}
    inverse = np.fromiter(
        (slots.setdefault(v, len(slots)) for v in values.tolist()), np.intp, len(values)
    )
    return list(slots), inverse, np.unique(inverse, return_index=True)[1]


def _lists(rows: np.ndarray, *columns: np.ndarray) -> list[list]:
    """The given rows of each column, as Python scalars."""
    return [column[rows].tolist() for column in columns]


def _number(numbers: dict, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Number a column's values: known ones as ``numbers`` has them, new
    ones from ``len(numbers)`` on in first-appearance order.  Returns
    each row's number, the first row of every new value and the new
    numbers, which the caller commits into ``numbers``."""
    keys, inverse, first = _distinct(values)
    new = [slot for slot, key in enumerate(keys) if key not in numbers]
    fresh = {keys[slot]: len(numbers) + i for i, slot in enumerate(new)}
    numbered = np.array([fresh[key] if key in fresh else numbers[key] for key in keys])
    return numbered[inverse], first[new], fresh


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

    # -- the append path ---------------------------------------------------

    def append_batch(self, batch, *, strict: bool = True) -> int:
        """Fold a batch into the stream; returns the count added.

        ``batch`` is columns as :func:`~repro.monitor.schemas.columns_of_rows`
        decodes them from the wire, or any iterable of
        :class:`DDoSAttackRecord` (a generator is consumed once), which
        is converted to columns on entry.  An empty batch is a no-op and
        does not bump the epoch.  Rows may arrive in any order;
        chronologically non-decreasing batches take the O(batch) fast
        path, others trigger a stable merge of the sorted columns.

        The batch is sorted by (start, botnet_id), and its countries,
        cities, organizations, victims, families and botnets are
        interned once per distinct value, new ones in their order of
        first appearance.  Every new entry and row is worked out before
        any is committed, so a batch that raises leaves the stream,
        its registries and its world as they were.

        Each non-empty fold counts into ``stream.records_appended`` and
        ``stream.batches`` (labelled by whether it took the in-order
        fast path), observes its latency into ``stream.append_seconds``,
        and updates the ``stream.epoch`` gauge.
        """
        t0 = time.perf_counter()
        cols = _checked(batch, strict)
        n = len(cols["timestamp"])
        if not n:
            return 0
        order = np.lexsort((cols["botnet_id"], cols["timestamp"]))
        cols = {name: col[order] for name, col in cols.items()}
        start, end, botnet = cols["timestamp"], cols["end_time"], cols["botnet_id"]
        lat, lon, asn = cols["lat"], cols["lon"], cols["asn"]

        attacks = self._attacks
        in_order = not self.n_attacks or (start[0], botnet[0]) >= (
            attacks["start"].view()[-1], attacks["botnet_id"].view()[-1]
        )

        # A new country, city or organization takes its coordinates and
        # ASN from its first row (a country its known centroid, if any).
        world = self._world
        country_idx, new, countries = _number(self._country_of, cols["country_code"])
        new_countries = [
            Country(index, code, code, *_KNOWN_CENTROIDS.get(code, (y, x)), 1.0)
            for index, code, y, x in zip(
                countries.values(), cols["country_code"][new], *_lists(new, lat, lon)
            )
        ]
        city_idx, new, cities = _number(self._city_of, cols["city"])
        new_cities = [
            City(index, name, c, y, x, 1.0)
            for index, name, c, y, x in zip(
                cities.values(), cols["city"][new], *_lists(new, country_idx, lat, lon)
            )
        ]
        org_idx, new, orgs = _number(self._org_of, cols["organization"])
        new_orgs = [
            Organization(index, name, "unknown", c, ci, a, 1.0)
            for index, name, c, ci, a in zip(
                orgs.values(), cols["organization"][new], *_lists(new, country_idx, city_idx, asn)
            )
        ]
        target_idx, new, targets = _number(self._target_of, cols["target_ip"])
        new_victims = [
            values[new].astype(dtype, copy=False)
            for values, dtype in zip(
                (cols["target_ip"], lat, lon, country_idx, city_idx, org_idx, asn),
                _VICTIM.values(),
            )
        ]

        # Families stay alphabetically sorted (the batch builder's
        # contract), so a new family can land mid-list and shift the
        # indices after it.
        names, family_slot, _ = _distinct(cols["family"])
        added = [name for name in names if name not in self._family_of]
        families = sorted(self._families + added) if added else self._families
        family_of = {fam: i for i, fam in enumerate(families)} if added else self._family_of
        family_idx = np.array([family_of[name] for name in names])[family_slot]

        # Botnets: first/last seen in one grouped reduction.  The batch
        # is sorted by start, so a botnet's first row is its earliest
        # and its family is the first arrival's (the batch builder's
        # setdefault).
        ids, first = np.unique(botnet, return_index=True)
        by_id = np.argsort(botnet, kind="stable")
        last = np.maximum.reduceat(end[by_id], np.searchsorted(botnet[by_id], ids))
        seen = list(zip(
            ids.tolist(), cols["family"][first].tolist(), start[first].tolist(), last.tolist()
        ))

        rows = dict(
            start=start, end=end, family_idx=family_idx, botnet_id=botnet,
            protocol=cols["category"], target_idx=target_idx, magnitude=cols["magnitude"],
        )
        for name, dtype in _FILLED.items():
            rows[name] = np.asarray(rows[name]).astype(dtype, copy=False)
        for name, (dtype, value) in _UNFILLED.items():
            rows[name] = np.full(n, value, dtype=dtype)

        if self._summary is not None:
            self._summary.update_arrays(
                start=start, end=end, family=cols["family"], country=cols["country_code"],
                victim=cols["target_ip"], botnet=botnet,
            )

        # Nothing below raises: commit.
        for country in new_countries:
            world._country_by_code[country.code] = country.index
            world.countries.append(country)
            world._cities_by_country[country.index], world._orgs_by_country[country.index] = [], []
        for city in new_cities:
            world._cities_by_country[city.country_index].append(city.index)
            world.cities.append(city)
        for org in new_orgs:
            world._orgs_by_country[org.country_index].append(org.index)
            world.organizations.append(org)
        for numbers, fresh in (
            (self._country_of, countries), (self._city_of, cities),
            (self._org_of, orgs), (self._target_of, targets),
        ):
            numbers.update(fresh)
        for column, values in zip(self._victims.values(), new_victims):
            column.append(values)
        if added:
            # The committed column is rewritten through replace() so
            # snapshots taken earlier keep their own indexing.
            remap = np.array([family_of[fam] for fam in self._families], dtype=np.int16)
            if np.any(remap != np.arange(len(self._families))):
                column = attacks["family_idx"]
                column.replace(remap[column.view()])
            self._families, self._family_of = families, family_of
        for bid, fam, lo, hi in seen:
            entry = self._botnet_seen.setdefault(bid, [fam, lo, hi])
            entry[1] = min(entry[1], lo)
            entry[2] = max(entry[2], hi)
        self._botnets_dirty.update(ids.tolist())
        lo, hi = float(start[0]), float(end.max())
        self._min_start = lo if self._min_start is None else min(self._min_start, lo)
        self._max_end = hi if self._max_end is None else max(self._max_end, hi)

        if self._spilled_rows and start[0] <= self._spill_max_start:
            self._spill_dirty = True

        for name, values in rows.items():
            attacks[name].append(values)

        if not in_order:
            # Stable merge: equivalent to stable-sorting the records in
            # arrival order by (start, botnet_id) — exactly what the
            # scratch batch build does.  The unfilled columns hold one
            # constant each and need no re-order.
            order = np.lexsort((attacks["botnet_id"].view(), attacks["start"].view()))
            for name in _FILLED:
                attacks[name].replace(attacks[name].view()[order])
            self._carry_ok = False

        self._epoch += 1
        reg = _obs_registry()
        reg.counter("stream.records_appended").inc(n)
        reg.counter("stream.batches", in_order="true" if in_order else "false").inc()
        reg.gauge("stream.epoch").set(self._epoch)
        reg.histogram("stream.append_seconds").observe(time.perf_counter() - t0)
        return n

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

    def context(self) -> AnalysisContext:
        """The current snapshot's shared analysis context.

        Cached per epoch: repeated calls between appends return the same
        context (and the same dataset instance).  After an append, a new
        snapshot is materialised and the previous snapshot's views are
        carried forward in O(batch): the collaboration and chain scans
        regenerate only their runs that cross the seam, and the global
        summaries and weekly shifts re-count only what the batch can
        change.  The forecasts, which have no extend rule, are left to
        rebuild under the new epoch tag.

        :meth:`AnalysisContext.prewarm` on the result builds the views
        the new snapshot still lacks: carried views are held, so after
        an in-order append only the forecasts (and a new family's views)
        are built.

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
