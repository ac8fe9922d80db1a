"""AnalysisContext: the shared derived-view layer over one dataset.

Nearly every table and figure of the paper re-derives the same
intermediates from the raw attack columns — per-family attack indices,
sorted interval arrays, per-family dispersion series, victim marginals,
the collaboration/chain structures.  :class:`AnalysisContext` wraps an
immutable :class:`~repro.core.dataset.AttackDataset` and memoizes those
views so they are computed **once** and shared by every consumer: the
``core`` analyses, all 18 experiment modules, the CLI and the defense
policies.

Design notes:

* Views are lazy: nothing is computed until a consumer asks.
* Memoization is thread-safe with per-key locks, so independent
  experiments can run concurrently (``registry.run_all(jobs=N)``) while
  still computing each shared view exactly once.
* The actual analysis code stays in the domain modules (``intervals``,
  ``geolocation``, ``collaboration``, …) as module-private ``_impl``
  functions; the context only orchestrates and caches.  Builders resolve
  the impls through the module object at call time, so tests can spy on
  them with ``monkeypatch``.
* A view is built in one of two ways: by its accessor, on first access
  or through :meth:`prewarm`, or by extending the same view of an
  earlier context (:func:`repro.core.merge.extend_views`, behind the
  shard merge and the stream carry).  Views live only in memory: a new
  process builds them again from the memory-mapped columns.

``AnalysisContext.of`` attaches the context to the dataset instance, so
code that still passes a raw ``AttackDataset`` around transparently
shares one context per dataset.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Hashable, Union

import numpy as np

from ..obs import registry as _obs_registry
from . import stats as _stats
from .dataset import AttackDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..monitor.schemas import Protocol
    from .columns import ColumnStore
    from .geolocation import BotCoords
    from .intervals import SimultaneousReport
    from .overview import DailyDistribution, WorkloadSummary
    from .prediction import DispersionForecast
    from .scans import ScanEvents
    from .shift import WeeklyShift

__all__ = ["AnalysisContext", "AnalysisSource", "ShardedAnalysisContext"]

#: Anything the analyses accept: the raw dataset or its context.
AnalysisSource = Union[AttackDataset, "AnalysisContext"]

#: Attribute used to attach the shared context to a dataset instance.
_CONTEXT_ATTR = "_analysis_context"
_ATTACH_LOCK = threading.Lock()


class AnalysisContext:
    """Lazily-computed, memoized derived views over one dataset.

    ``epoch`` tags the context with the revision of the data it was built
    from.  Batch datasets are epoch 0; the streaming layer
    (:mod:`repro.stream`) bumps the epoch on every append and hands out a
    fresh context per snapshot, so consumers holding an older context
    keep a coherent (if stale) set of views while new consumers see the
    incrementally-updated ones.

    >>> from repro import api
    >>> ctx = api.context(api.generate(scale=0.005))
    >>> ctx.epoch
    0
    >>> ctx.view(("durations",), lambda: ctx.dataset.end - ctx.dataset.start).size
    258
    """

    def __init__(self, ds: AttackDataset, *, epoch: int = 0) -> None:
        if not isinstance(ds, AttackDataset):
            raise TypeError(f"AnalysisContext wraps an AttackDataset, got {type(ds).__name__}")
        self._ds = ds
        self.epoch = int(epoch)
        self._views: dict[Hashable, Any] = {}
        self._meta_lock = threading.Lock()
        self._key_locks: dict[Hashable, threading.Lock] = {}
        #: Per-view-kind (hit counter, miss counter, build histogram),
        #: resolved from the default registry once per kind and cached so
        #: the hot hit path costs one dict lookup + one counter add.
        self._view_obs: dict[str, tuple] = {}
        #: Where this context's extended views grow (see
        #: :func:`repro.core.merge.extend_view`): ``None`` for a context
        #: built from scratch; a merge or stream carry passes its store
        #: on, so the next extension of this context grows in place.
        self._columns: "ColumnStore | None" = None

    # -- construction ------------------------------------------------------

    @classmethod
    def of(cls, source: AnalysisSource) -> "AnalysisContext":
        """Coerce a dataset (or context) to the dataset's shared context.

        The context is attached to the dataset instance on first use, so
        every consumer of the same dataset shares one set of views.  Use
        the plain constructor instead when an *unshared* context is
        needed (e.g. cold-start benchmarks).
        """
        if isinstance(source, AnalysisContext):
            return source
        if not isinstance(source, AttackDataset):
            raise TypeError(
                f"expected AttackDataset or AnalysisContext, got {type(source).__name__}"
            )
        ctx = source.__dict__.get(_CONTEXT_ATTR)
        if ctx is None:
            with _ATTACH_LOCK:
                ctx = source.__dict__.get(_CONTEXT_ATTR)
                if ctx is None:
                    ctx = cls(source)
                    source.__dict__[_CONTEXT_ATTR] = ctx
        return ctx

    @classmethod
    def attach(cls, ds: AttackDataset, *, epoch: int = 0) -> "AnalysisContext":
        """Create a context and install it as the dataset's shared one.

        Unlike :meth:`of`, the caller controls the epoch tag; used by the
        streaming layer when it materialises a snapshot.  Raises if the
        dataset already carries a context.
        """
        ctx = cls(ds, epoch=epoch)
        with _ATTACH_LOCK:
            if ds.__dict__.get(_CONTEXT_ATTR) is not None:
                raise ValueError("dataset already has an attached AnalysisContext")
            ds.__dict__[_CONTEXT_ATTR] = ctx
        return ctx

    @property
    def dataset(self) -> AttackDataset:
        return self._ds

    # -- memoization core --------------------------------------------------

    def _view_instruments(self, kind: str) -> tuple:
        """The (hit, miss, build-time) instruments for one view kind."""
        entry = self._view_obs.get(kind)
        if entry is None:
            reg = _obs_registry()
            entry = self._view_obs[kind] = (
                reg.counter("context.view.hit", view=kind),
                reg.counter("context.view.miss", view=kind),
                reg.histogram("context.view.build_seconds", view=kind),
            )
        return entry

    def view(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the memoized view for ``key``, building it at most once.

        Double-checked per-key locking: concurrent readers of a missing
        view serialise on that view's lock only, so two experiments can
        build *different* views in parallel while never building the
        *same* view twice.

        Every call records a ``context.view.hit`` / ``context.view.miss``
        counter tick (labelled by the key's first element — the view
        kind), and each build's latency lands in the
        ``context.view.build_seconds`` histogram under a ``view:<kind>``
        stage span.
        """
        kind = key[0] if isinstance(key, tuple) and key else str(key)
        views = self._views
        try:
            value = views[key]
        except KeyError:
            pass
        else:
            self._view_instruments(kind)[0].inc()
            return value
        with self._meta_lock:
            lock = self._key_locks.setdefault(key, threading.Lock())
        with lock:
            if key in views:
                self._view_instruments(kind)[0].inc()  # lost the build race
            else:
                _hit, miss, build_hist = self._view_instruments(kind)
                miss.inc()
                started = time.perf_counter()
                with _obs_registry().span(f"view:{kind}"):
                    views[key] = build()
                build_hist.observe(time.perf_counter() - started)
        return views[key]

    @property
    def n_views(self) -> int:
        """Number of materialised views (diagnostics / tests)."""
        return len(self._views)

    def view_keys(self) -> list[Hashable]:
        """Keys of the materialised views, in creation order."""
        return list(self._views)

    def materialized(self) -> dict[Hashable, Any]:
        """Shallow copy of the materialised views.

        The extend fold (:func:`repro.core.merge.extend_views`) reads its
        left operand's views from this, and the prewarm workers return
        what they built through it.
        """
        return dict(self._views)

    def seed_view(self, key: Hashable, value: Any) -> bool:
        """Install a precomputed value for ``key`` if it is not built yet.

        Returns True when the value was installed.  The caller guarantees
        the value equals what the builder would produce — the streaming
        layer's incremental updaters derive it from the previous epoch's
        view plus the appended rows.
        """
        with self._meta_lock:
            if key in self._views:
                return False
            self._views[key] = value
            return True

    # -- attack groupings --------------------------------------------------

    def _groups_by(self, key: str, column: np.ndarray) -> dict[int, np.ndarray]:
        """One grouping pass: column value -> sorted attack indices."""

        def build() -> dict[int, np.ndarray]:
            order = np.argsort(column, kind="stable")
            boundaries = np.flatnonzero(np.diff(column[order]) != 0) + 1
            out: dict[int, np.ndarray] = {}
            # Stable sort keeps ascending attack indices within each
            # group, i.e. chronological order.
            for group in np.split(order, boundaries) if order.size else []:
                out[int(column[group[0]])] = group
            return out

        return self.view((key,), build)

    def family_attack_index(self) -> dict[int, np.ndarray]:
        """Family index -> attack indices (chronological), one grouping pass."""
        return self._groups_by("family_attack_index", self._ds.family_idx)

    def family_attacks(self, family: str) -> np.ndarray:
        """Attack indices (chronological) launched by ``family``.

        One grouping pass over ``family_idx`` serves every family —
        unlike :meth:`AttackDataset.attacks_of`, which scans the full
        column per call.
        """
        fam = self._ds.family_id(family)
        return self.family_attack_index().get(fam, np.zeros(0, dtype=np.int64))

    def botnet_attacks(self, botnet_id: int) -> np.ndarray:
        """Attack indices (chronological) launched by one botnet."""
        groups = self._groups_by("botnet_attack_index", self._ds.botnet_id)
        return groups.get(int(botnet_id), np.zeros(0, dtype=np.int64))

    def target_attacks(self, target_index: int) -> np.ndarray:
        """Attack indices (chronological) against one victim."""
        groups = self._groups_by("target_attack_index", self._ds.target_idx)
        return groups.get(int(target_index), np.zeros(0, dtype=np.int64))

    def target_links(self) -> tuple[np.ndarray, np.ndarray]:
        """``(last, prev)`` attack indices along each victim's attacks.

        ``last[t]`` is target ``t``'s last attack and ``prev[i]`` the
        attack on attack ``i``'s target just before it, ``-1`` for none.
        The scan stitch of :func:`repro.core.merge.extend_view` probes
        these, so finding where appended rows continue earlier runs costs
        O(appended rows), not O(targets).
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            targets = self._ds.target_idx
            order = np.argsort(targets, kind="stable")
            same = targets[order[1:]] == targets[order[:-1]]
            prev = np.full(order.size, -1, dtype=np.int64)
            prev[order[1:][same]] = order[:-1][same]
            last = np.full(self._ds.victims.n_targets, -1, dtype=np.int64)
            if order.size:
                tails = order[np.append(~same, True)]
                last[targets[tails]] = tails
            return last, prev

        return self.view(("target_links",), build)

    # -- intervals and durations -------------------------------------------

    def attack_intervals(self) -> np.ndarray:
        """Gaps between consecutive attacks across all families."""
        ds = self._ds
        return self.view(
            ("attack_intervals",),
            lambda: np.diff(ds.start) if ds.n_attacks >= 2 else np.zeros(0),
        )

    def family_starts(self, family: str) -> np.ndarray:
        """Sorted start times of one family's attacks."""
        return self.view(
            ("family_starts", family),
            lambda: np.sort(self._ds.start[self.family_attacks(family)]),
        )

    def family_intervals(self, family: str, include_simultaneous: bool = True) -> np.ndarray:
        """Gaps between consecutive attacks of one family."""

        def build() -> np.ndarray:
            if include_simultaneous:
                starts = self.family_starts(family)
                if starts.size < 2:
                    return np.zeros(0)
                return np.diff(starts)
            gaps = self.family_intervals(family, include_simultaneous=True)
            return gaps[gaps > 0]

        return self.view(("family_intervals", family, bool(include_simultaneous)), build)

    def durations(self, family: str | None = None) -> np.ndarray:
        """Per-attack durations in seconds, optionally for one family."""
        if family is None:
            return self.view(("durations",), lambda: self._ds.end - self._ds.start)
        return self.view(
            ("durations", family),
            lambda: self.durations()[self.family_attacks(family)],
        )

    def rank_windows(self, series_key: tuple) -> _stats.RankWindows:
        """Sorted rank windows around the median, p80 and p95 of a series.

        ``series_key`` names a float series view that only grows at its
        end: ``("durations",)``, ``("durations", family)``,
        ``("attack_intervals",)`` or ``("family_intervals", family,
        True)``.  :func:`repro.core.stats.summarize` reads its order
        statistics from these windows, which an extend grows by the new
        rows instead of re-partitioning the series.
        """
        return self.view(
            ("rank_windows", series_key),
            lambda: _stats.rank_windows(getattr(self, series_key[0])(*series_key[1:])),
        )

    def interval_buckets(self, family: str) -> np.ndarray:
        """Fig 4's per-bucket counts of one family's non-simultaneous gaps."""

        def build() -> np.ndarray:
            from . import intervals as _intervals

            return _intervals._bucket_counts(self.family_intervals(family, False))

        return self.view(("interval_buckets", family), build)

    # -- participants and geolocation --------------------------------------

    def bot_coords_radians(self) -> BotCoords:
        """Every bot's lat/lon in radians and the per-bot columns the
        dispersion kernel gathers — the participant geo matrix."""

        def build() -> BotCoords:
            from .geolocation import bot_coords

            return bot_coords(self._ds.bots)

        return self.view(("bot_coords_radians",), build)

    def family_participants(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """CSR participant layout restricted to one family's attacks.

        Returns ``(offsets, flat)`` where ``flat[offsets[k] :
        offsets[k + 1]]`` are the bot indices of the family's ``k``-th
        attack (chronological order, as in :meth:`family_attacks`).
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            ds = self._ds
            idx = self.family_attacks(family)
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

        return self.view(("family_participants", family), build)

    def attack_dispersions(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-attack dispersion values for one family, in time order."""

        def build() -> tuple[np.ndarray, np.ndarray]:
            from . import geolocation as _geolocation

            return _geolocation._attack_dispersions(self, family)

        return self.view(("attack_dispersions", family), build)

    def snapshot_dispersions(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """Hourly-snapshot dispersion series for one family (§II-B view)."""

        def build() -> tuple[np.ndarray, np.ndarray]:
            from . import geolocation as _geolocation

            return _geolocation._snapshot_dispersions(self, family)

        return self.view(("snapshot_dispersions", family), build)

    # -- victim marginals --------------------------------------------------

    def target_country_idx(self) -> np.ndarray:
        """Per-attack country index of the victim."""
        return self.view(
            ("target_country_idx",),
            lambda: self._ds.victims.country_idx[self._ds.target_idx],
        )

    def target_org_idx(self) -> np.ndarray:
        """Per-attack organization index of the victim."""
        return self.view(
            ("target_org_idx",),
            lambda: self._ds.victims.org_idx[self._ds.target_idx],
        )

    def target_country_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Global victim-country marginal: ``(country indices, counts)``."""
        return self.view(
            ("target_country_counts",),
            lambda: np.unique(self.target_country_idx(), return_counts=True),
        )

    def target_org_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Global victim-organization marginal: ``(org indices, counts)``."""
        return self.view(
            ("target_org_counts",),
            lambda: np.unique(self.target_org_idx(), return_counts=True),
        )

    def family_target_country_counts(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        """One family's victim-country marginal."""
        return self.view(
            ("family_target_country_counts", family),
            lambda: np.unique(
                self.target_country_idx()[self.family_attacks(family)], return_counts=True
            ),
        )

    def victim_org_type_counts(self) -> dict[str, int]:
        """Attacks per victim-organization type."""

        def build() -> dict[str, int]:
            from . import targets as _targets

            return _targets._victim_org_types(self)

        return self.view(("victim_org_type_counts",), build)

    def simultaneous_attacks(self) -> "SimultaneousReport":
        """§III-B simultaneous events (attacks with equal start times)."""

        def build():
            from . import intervals as _intervals

            return _intervals._simultaneous_attacks(self._ds, 0.0)

        return self.view(("simultaneous_attacks",), build)

    # -- overview ----------------------------------------------------------

    def workload_summary(self) -> "WorkloadSummary":
        """Table III populations (computed once)."""

        def build():
            from . import overview as _overview

            return _overview._workload_summary(self._ds)

        return self.view(("workload_summary",), build)

    def protocol_breakdown(self) -> "list[tuple[Protocol, str, int]]":
        """Table II cells (protocol, family, attacks)."""

        def build():
            from . import overview as _overview

            return _overview._protocol_breakdown(self._ds)

        return self.view(("protocol_breakdown",), build)

    def protocol_popularity(self) -> "dict[Protocol, int]":
        """Fig 1 totals per protocol."""

        def build():
            from . import overview as _overview

            return _overview._protocol_popularity(self._ds)

        return self.view(("protocol_popularity",), build)

    def daily_distribution(self, family: str | None = None) -> "DailyDistribution":
        """Fig 2 daily series (all attacks or one family)."""

        def build():
            from . import overview as _overview

            return _overview._daily_attack_counts(self, family)

        return self.view(("daily_distribution", family), build)

    # -- shift -------------------------------------------------------------

    def weekly_shift_pairs(self, family: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The mergeable half of the weekly shift: attack weeks plus
        unique (week, bot) participation pairs (see ``shift._weekly_pairs``)."""

        def build():
            from . import shift as _shift

            return _shift._weekly_pairs(self, family)

        return self.view(("weekly_shift_pairs", family), build)

    def weekly_shift(self, family: str) -> "WeeklyShift":
        """Fig 8 weekly source-shift series for one family."""

        def build():
            from . import shift as _shift

            return _shift._weekly_shift(self, family)

        return self.view(("weekly_shift", family), build)

    # -- detected structure ------------------------------------------------

    def collaborations(self) -> "ScanEvents":
        """Concurrent collaborations under the paper's default windows.

        One :class:`~repro.core.scans.ScanEvents` CSR; a list of
        :class:`~repro.core.collaboration.CollabEvent` objects comes from
        :func:`~repro.core.collaboration.detect_collaborations`.
        """

        def build():
            from . import collaboration as _collaboration

            return _collaboration._detect_collaborations(
                self._ds,
                _collaboration.START_WINDOW_SECONDS,
                _collaboration.DURATION_WINDOW_SECONDS,
            )

        return self.view(("collaborations",), build)

    def chains(self) -> "ScanEvents":
        """Consecutive-attack chains under the paper's default margin.

        One :class:`~repro.core.scans.ScanEvents` CSR; a list of
        :class:`~repro.core.consecutive.AttackChain` objects comes from
        :func:`~repro.core.consecutive.detect_chains`.
        """

        def build():
            from . import consecutive as _consecutive

            return _consecutive._detect_chains(
                self._ds, _consecutive.CHAIN_MARGIN_SECONDS, 2
            )

        return self.view(("chains",), build)

    # -- prediction --------------------------------------------------------

    def dispersion_forecast(self, family: str) -> "DispersionForecast":
        """Table IV ARIMA forecast for one family (default protocol).

        Raises ``ValueError`` for families with too few points; the
        *exception* is not memoized, but the underlying dispersion
        series is, so retries stay cheap.
        """

        def build():
            from . import prediction as _prediction

            return _prediction._predict_family_dispersion(self, family)

        return self.view(("dispersion_forecast", family), build)

    # -- prewarm -----------------------------------------------------------

    def prewarm(self, jobs: int | None = 1) -> int:
        """Build the views the battery reads ahead of time.

        The views are :func:`~repro.experiments.registry.battery_views`
        over the active families, minus those already materialised (for
        example carried across a streaming epoch).  They are built as
        one task per whole-dataset view and one per family, fanned
        across the :mod:`repro.par` pool (``jobs=None`` picks the
        default worker count; on platforms without ``fork``, or with
        fewer CPUs than workers, the same tasks run serially).  Results
        are installed via :meth:`seed_view`, so a materialised view is
        neither rebuilt nor overwritten.  A Table IV forecast that
        raises for lack of points is skipped, as the paper skips
        Darkshell.  Returns the number of views that became
        materialised; the result set is identical for every ``jobs``.

        Observability: the whole pass runs under a ``prewarm`` stage
        span; ``prewarm.tasks`` counts the tasks dispatched and
        ``prewarm.seeded`` the views newly installed.
        """
        from .. import par
        from ..experiments.registry import battery_views

        reg = _obs_registry()
        with reg.span("prewarm"):
            # Cheap shared dependencies built in the parent so forked
            # workers inherit them instead of rebuilding per task.
            self.family_attack_index()
            self.bot_coords_radians()
            self.durations()
            views = self._views
            whole = battery_views(())
            tasks = [[key] for key in whole if key not in views]
            for family in self._ds.active_families:
                keys = [k for k in battery_views((family,))[len(whole):] if k not in views]
                if keys:
                    tasks.append(keys)
            reg.counter("prewarm.tasks").inc(len(tasks))
            before = set(views)
            if tasks:
                results = par.parallel_map(
                    _prewarm_worker,
                    tasks,
                    jobs=par.resolve_jobs(jobs),
                    payload=self,
                    label="prewarm",
                )
                for pairs in results:
                    for key, value in pairs:
                        self.seed_view(key, value)
            seeded = len(set(views) - before)
            reg.counter("prewarm.seeded").inc(seeded)
        return seeded


class ShardedAnalysisContext:
    """Map-reduce analysis over a time-sharded dataset.

    Wraps a :class:`~repro.io.colstore.ShardedDatasetStore` and owns one
    :class:`AnalysisContext` per shard.  :meth:`build` fans the
    per-shard view derivations across the :mod:`repro.par` pool, and
    :meth:`merged` combines them — through the
    :mod:`repro.core.merge` combinators, bitwise-identically to an
    unsharded build — into a single :class:`AnalysisContext` over the
    concatenated dataset, which downstream consumers (the experiment
    battery, the report renderers) use unchanged.

    Every merge is one left fold of the extend step
    (:func:`repro.core.merge.combine_partials` over
    :func:`~repro.core.merge.extend_view`): a left operand grows by the
    shards after it.  The full merge folds shards ``1..K-1`` into shard
    0; after :meth:`refresh` picks up appended shards, the re-merge
    extends the previous merged context by the new shards only — unless
    the append reset the registries, which makes the next merge a full
    fold again.  The merged attack columns and concatenation views live
    in a :class:`~repro.core.columns.ColumnStore` the merged
    context keeps, so a re-merge grows them in place.  Interval arrays
    gain the boundary gaps, and the collaboration/chain scans
    regenerate only the runs that cross a seam.  Which views are built
    per shard and merged comes from
    :func:`~repro.experiments.registry.battery_views`.  Views no
    experiment reads — the hourly-snapshot dispersions, the per-family
    durations and daily distributions, the per-botnet and per-target
    groupings — are neither built per shard nor merged: they build
    lazily on the merged context, with the same kernel a flat context
    uses.

    Observability: each per-shard build runs under a ``shard:<i>`` span
    inside the ``shard.build`` stage; the merge runs under
    ``shard.merge`` and ticks ``shard.merge.views`` per seeded view and
    ``shard.merge.stitched_targets`` per boundary-stitched target.

    >>> from repro import api
    >>> from repro.io.colstore import ShardedDatasetStore
    >>> store = ShardedDatasetStore.partition(api.generate(scale=0.005), shards=2)
    >>> sctx = api.context(store)
    >>> sctx.merged().dataset.n_attacks == store.n_attacks
    True
    """

    def __init__(self, store) -> None:
        self._store = store
        self._shard_ctxs: list[AnalysisContext | None] = [None] * store.n_shards
        #: The last merge: (shards it covers, merged context).
        self._merge: tuple[int, AnalysisContext] | None = None
        self._shared_coords: BotCoords | None = None
        self._lock = threading.Lock()
        #: Shards whose mergeable views are built.
        self._built: set[int] = set()
        #: What the last :meth:`merged` call actually did (diagnostics):
        #: ``{"mode", "levels", "reused", "combined"}``, see :meth:`merged`.
        self.last_merge_stats: dict[str, Any] | None = None

    @property
    def store(self):
        return self._store

    @property
    def n_shards(self) -> int:
        return self._store.n_shards

    @property
    def _merged(self) -> AnalysisContext | None:
        """The merged context if it covers every shard, else None.

        ``perfbench/tracing.py`` reads it to tell a :meth:`merged` call
        that merges from one that returns the kept context.
        """
        if self._merge is not None and self._merge[0] == self.n_shards:
            return self._merge[1]
        return None

    def refresh(self) -> int:
        """Adopt shards appended to the backing store since construction.

        Re-reads the store's manifest (:meth:`ShardedDatasetStore.refresh`);
        appended shards get fresh (lazy) contexts while every
        already-built shard keeps its views, so the next :meth:`merged`
        call only maps the new shards and extends the previous merged
        context by them.  If the append rewrote the shared registries
        (new families/bots/victims interned), all per-shard state and the
        previous merge are dropped — the old contexts index into the old
        registries — and the next :meth:`merged` is a full fold.
        Returns the number of shards adopted.
        """
        with self._lock:
            appended, reset = self._store.refresh()
            if reset:
                self._shard_ctxs = [None] * self._store.n_shards
                self._shared_coords = None
                self._built = set()
                self._merge = None
            else:
                self._shard_ctxs.extend([None] * appended)
        return appended

    # -- per-shard layer ---------------------------------------------------

    def _shared_bot_coords(self) -> BotCoords:
        """The bot geo matrix, computed once (registries are shared)."""
        if self._shared_coords is None:
            from .geolocation import bot_coords

            self._shared_coords = bot_coords(self._store.load_shard(0).bots)
        return self._shared_coords

    def shard_context(self, index: int) -> AnalysisContext:
        """The (lazily created) analysis context of one shard."""
        ctx = self._shard_ctxs[index]
        if ctx is None:
            with self._lock:
                ctx = self._shard_ctxs[index]
                if ctx is None:
                    ctx = AnalysisContext.of(self._store.load_shard(index))
                    # Shards share the registries, so the (large) geo
                    # matrix is computed once and seeded everywhere.
                    ctx.seed_view(("bot_coords_radians",), self._shared_bot_coords())
                    self._shard_ctxs[index] = ctx
        return ctx

    def shard_families(self, index: int) -> list[str]:
        """Families with at least one attack in shard ``index``."""
        ctx = self.shard_context(index)
        return [ctx.dataset.family_name(k) for k in sorted(ctx.family_attack_index())]

    def shard_snapshot_dispersions(
        self, index: int, family: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shard's hourly-snapshot dispersion series, built lazily.

        Nothing in the package calls this: no experiment reads snapshot
        dispersions, so neither :meth:`build` nor :meth:`merged` derives
        them, and the merged context builds its own on demand.  It stays
        because ``perfbench/tracing.py`` wraps it by name.
        """
        return self.shard_context(index).snapshot_dispersions(family)

    def shard_scan_events(self, index: int, kind: str) -> "ScanEvents":
        """One shard's collaboration/chain events in global rows.

        The shard's own scan (built and memoized on its context, in the
        map phase) with its rows moved up by the shard's base.
        """
        from . import merge as _merge

        base = int(self._store.shard_bases()[index])
        return _merge.view_value(self.shard_context(index), (kind,)).shifted(base)

    def build_shard(self, index: int) -> AnalysisContext:
        """Materialise one shard's mergeable views (idempotent)."""
        _shard_build_worker(self, index)
        self._built.add(index)
        return self.shard_context(index)

    def build(self, jobs: int | None = 1) -> int:
        """Build the mergeable views of every shard not built yet.

        Fans :func:`_shard_build_worker` across the :mod:`repro.par`
        pool (same serial fallback rules as prewarm) and seeds each
        worker's view delta back into the parent's shard contexts.
        Returns the total number of views materialised across shards.
        """
        from .. import par

        indices = [i for i in range(self.n_shards) if i not in self._built]
        with _obs_registry().span("shard.build"):
            # Touch every shard context in the parent so forked workers
            # inherit the datasets (and shared geo matrix) copy-on-write.
            for index in indices:
                self.shard_context(index)
            results = par.parallel_map(
                _shard_build_worker,
                indices,
                jobs=par.resolve_jobs(jobs),
                payload=self,
                label="shard_build",
            )
            for index, pairs in zip(indices, results):
                ctx = self.shard_context(index)
                for key, value in pairs:
                    ctx.seed_view(key, value)
            self._built.update(indices)
        return sum(self.shard_context(i).n_views for i in range(self.n_shards))

    # -- the reduce step ---------------------------------------------------

    def merged(self, jobs: int | None = 1) -> AnalysisContext:
        """The merged context: every mergeable view seeded, bitwise equal
        to an unsharded build over the concatenated dataset.

        First :meth:`build` maps the shards not built yet (across
        ``jobs`` workers); then one left fold,
        :func:`repro.core.merge.combine_partials`, extends shard 0 by
        shards ``1..K-1``.  The result is kept with the number of shards
        it covers and returned as long as it covers them all.  After
        :meth:`refresh` adopted appended shards, the kept context is the
        left operand instead: only the appended rows are copied and only
        the new seams are stitched.  A refresh that reset the registries
        drops the kept context, so the next call folds from shard 0
        again.  Views off the battery's list, and on a full merge the
        kinds of :data:`repro.core.merge.MERGED_CONTEXT_KINDS`, build
        lazily on the returned context.

        :attr:`last_merge_stats` records what the last merge did:
        ``mode`` (``"full"`` or ``"incremental"``), ``combined`` (right
        parts folded: K-1 on a full merge, the appended count on a
        re-merge), ``reused`` (shards covered by the extended previous
        merged context, 0 on a full merge) and ``levels`` (1 if anything
        was folded, else 0).
        """
        current = self._merged
        if current is not None:
            return current
        from . import merge as _merge

        self.build(jobs)
        with _obs_registry().span("shard.merge"):
            mode = "full" if self._merge is None else "incremental"
            first, prev = self._merge or (1, self.shard_context(0))
            families = sorted(
                {f for k in range(self.n_shards) for f in self.shard_families(k)}
            )
            parts = [self.shard_context(k) for k in range(first, self.n_shards)]
            ctx = _merge.combine_partials(prev, parts, families)
            combined = self.n_shards - first
            self._merge = (self.n_shards, ctx)
            self.last_merge_stats = {
                "mode": mode,
                "levels": int(combined > 0),
                "reused": 0 if mode == "full" else first,
                "combined": combined,
            }
        return ctx


def _shard_build_worker(
    sctx: "ShardedAnalysisContext", index: int
) -> list[tuple[Hashable, Any]]:
    """Build one shard's mergeable views; return the view delta.

    The views are :func:`~repro.experiments.registry.battery_views` over
    the shard's families, minus the kinds whose extend step reads the
    merged context (:data:`repro.core.merge.MERGED_CONTEXT_KINDS`).  The
    scans are built here, in the (parallel) map phase, so the merge only
    has to stitch the seams.  Runs in-process or in a
    forked worker (same contract as :func:`_prewarm_worker`): views
    memoize on the shard's own context, and the delta — minus the
    pre-seeded shared geo matrix — is the only pickle a forked fan-out
    pays for.
    """
    from . import merge as _merge
    from ..experiments.registry import battery_views

    ctx = sctx.shard_context(index)
    before = set(ctx._views)
    with _obs_registry().span(f"shard:{index}"):
        for key in battery_views(sctx.shard_families(index)):
            if key[0] in _merge.MERGED_CONTEXT_KINDS:
                continue
            if key[0] in _merge._SCANS:
                sctx.shard_scan_events(index, key[0])
            else:
                _merge.view_value(ctx, key)
    return [(k, v) for k, v in ctx.materialized().items() if k not in before]


def _prewarm_worker(ctx: "AnalysisContext", keys: list) -> list[tuple[Hashable, Any]]:
    """One prewarm task: build ``keys``, return the view delta.

    Runs in-process (serial mode) or in a forked worker; either way it
    builds through the context's own accessors, so the views memoize and
    instrument exactly as a lazy build would.  The return value is the
    set of views this task materialised — the only pickle a forked
    fan-out pays for.  Forecasts mirror the paper's Darkshell call:
    families with too few points are skipped, not raised.
    """
    from . import merge as _merge

    before = set(ctx._views)
    for key in keys:
        try:
            _merge.view_value(ctx, key)
        except ValueError:
            if key[0] != "dispersion_forecast":
                raise
    return [(k, v) for k, v in ctx.materialized().items() if k not in before]
