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
* Memoization is thread-safe with per-key locks, so the service's
  request threads can read one context concurrently while each shared
  view is still computed exactly once.
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
from typing import TYPE_CHECKING, Any, Callable, Hashable, NamedTuple, Union

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

__all__ = ["AnalysisContext", "AnalysisSource", "FamilyPass", "ShardedAnalysisContext"]

#: Anything the analyses accept: the raw dataset or its context.
AnalysisSource = Union[AttackDataset, "AnalysisContext"]

#: Attribute used to attach the shared context to a dataset instance.
_CONTEXT_ATTR = "_analysis_context"
_ATTACH_LOCK = threading.Lock()


class FamilyPass(NamedTuple):
    """The rows of :meth:`AnalysisContext.family_attack_index` placed back
    to back: ``runs`` maps a family index to its ``(lo, hi)`` run, and
    the rows' starts and participant CSR ``(offsets, flat)`` follow."""

    runs: dict[int, tuple[int, int]]
    starts: np.ndarray
    offsets: np.ndarray
    flat: np.ndarray


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
        #: :func:`repro.core.merge.extend_views`): ``None`` for a context
        #: built from scratch; a merge or stream carry passes its store
        #: on, so the next extension of this context grows in place.
        self._columns: "ColumnStore | None" = None
        #: Built on first use; not views, so never carried or counted.
        self._family_pass: FamilyPass | None = None
        self._family_pass_lock = threading.Lock()
        self._target_order: np.ndarray | None = None
        self._target_order_lock = threading.Lock()

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
        left operand's views from this.
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

    def family_pass(self) -> FamilyPass:
        """The :class:`FamilyPass` the per-family accessors slice: built
        once, under its own lock, and held outside the views."""
        if self._family_pass is None:
            groups = self.family_attack_index()
            with self._family_pass_lock:
                if self._family_pass is None:
                    self._family_pass = _build_family_pass(self._ds, groups)
        return self._family_pass

    def _family_run(self, family: str) -> tuple[FamilyPass, int, int]:
        """The family pass and ``family``'s ``(lo, hi)`` run in it; an
        empty run for a family with no rows."""
        fp = self.family_pass()
        lo, hi = fp.runs.get(self._ds.family_id(family), (0, 0))
        return fp, lo, hi

    def botnet_attacks(self, botnet_id: int) -> np.ndarray:
        """Attack indices (chronological) launched by one botnet."""
        groups = self._groups_by("botnet_attack_index", self._ds.botnet_id)
        return groups.get(int(botnet_id), np.zeros(0, dtype=np.int64))

    def target_attacks(self, target_index: int) -> np.ndarray:
        """Attack indices (chronological) against one victim."""
        groups = self._groups_by("target_attack_index", self._ds.target_idx)
        return groups.get(int(target_index), np.zeros(0, dtype=np.int64))

    def target_order(self) -> np.ndarray:
        """The rows in ``(target, start)`` order: ``np.lexsort((start,
        target_idx))``, the sweep order of both §V scans and of
        :meth:`target_links`.

        Built once, under its own lock, and held outside the views like
        :meth:`family_pass`: it is never carried, merged or counted, so
        a merged or streamed context holds the same views a flat build
        does.  The dataset keeps ``start`` sorted, so this is also the
        stable sort by target alone.
        """
        if self._target_order is None:
            with self._target_order_lock:
                if self._target_order is None:
                    self._target_order = np.lexsort((self._ds.start, self._ds.target_idx))
        return self._target_order

    def target_links(self) -> tuple[np.ndarray, np.ndarray]:
        """``(last, prev)`` attack indices along each victim's attacks.

        ``last[t]`` is target ``t``'s last attack and ``prev[i]`` the
        attack on attack ``i``'s target just before it, ``-1`` for none.
        The scan stitch of :func:`repro.core.merge.extend_views` probes
        these, so finding where appended rows continue earlier runs costs
        O(appended rows), not O(targets).

        The walk follows :meth:`target_order`, which equals
        ``np.argsort(target_idx, kind="stable")`` because
        :class:`~repro.core.dataset.AttackDataset` rejects unsorted
        starts.  A NaN start would pass that check and sort last in the
        lexsort, but no constructor admits one: ingest goes through
        :class:`~repro.stream.StreamingDataset`, whose row check
        (``stream.builder._checked``) rejects non-finite times, and the
        generator and the column store load only what they wrote.
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            targets = self._ds.target_idx
            order = self.target_order()
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
        """Sorted start times of one family's attacks (its rows are
        chronological and the dataset keeps ``start`` sorted)."""

        def build() -> np.ndarray:
            fp, lo, hi = self._family_run(family)
            return fp.starts[lo:hi]

        return self.view(("family_starts", family), build)

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
        """The participant geo matrix: one row-major ``(lat, lon, x, y, z,
        cos_lat)`` row per bot, in radians, which the dispersion kernel
        gathers with one ``take``."""

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
            fp, lo, hi = self._family_run(family)
            offsets = fp.offsets[lo : hi + 1]
            return offsets - offsets[0], fp.flat[offsets[0] : offsets[-1]]

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
                self.target_order(),
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
                self._ds, _consecutive.CHAIN_MARGIN_SECONDS, 2, self.target_order()
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

    def prewarm(self) -> int:
        """Build the views the battery reads ahead of time.

        Walks :func:`~repro.experiments.registry.battery_views` over the
        active families in order and builds each key this context does
        not hold yet (a view carried across a streaming epoch is held)
        through its accessor, so a materialised view is neither rebuilt
        nor overwritten.  A Table IV forecast that raises for lack of
        points is skipped, as the paper skips Darkshell.  Returns the
        number of views that became materialised.

        Observability: the whole pass runs under a ``prewarm`` stage
        span, and ``prewarm.seeded`` counts the views it materialised.
        """
        from ..experiments.registry import battery_views
        from . import merge as _merge

        reg = _obs_registry()
        with reg.span("prewarm"):
            before = len(self._views)
            for key in battery_views(self._ds.active_families):
                if key in self._views:
                    continue
                try:
                    _merge.view_value(self, key)
                except ValueError:
                    if key[0] != "dispersion_forecast":
                        raise
            seeded = len(self._views) - before
            reg.counter("prewarm.seeded").inc(seeded)
        return seeded


def _build_family_pass(ds: AttackDataset, groups: dict[int, np.ndarray]) -> FamilyPass:
    """The :class:`FamilyPass` over ``groups`` (a family attack index)."""
    from .geolocation import _RUN_PARTICIPATIONS

    rows = np.concatenate(list(groups.values())) if groups else np.zeros(0, dtype=np.int64)
    bounds = np.cumsum([0, *(g.size for g in groups.values())]).tolist()
    po = ds.part_offsets
    firsts = po[rows]
    offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(po[rows + 1] - firsts, out=offsets[1:])
    # Segment k copies the dataset-wide CSR from ``part_offsets[rows[k]]``
    # on.  One gather per run of whole segments, so the int64 positions
    # stay run-sized.
    participants = np.asarray(ds.participants)
    flat = np.empty(int(offsets[-1]), dtype=participants.dtype)
    for lo, hi in _stats.segment_runs(offsets[:-1], offsets[1:], _RUN_PARTICIPATIONS):
        run = offsets[lo : hi + 1]
        flat[run[0] : run[-1]] = participants[
            _stats.segment_positions(firsts[lo:hi], run - run[0])
        ]
    return FamilyPass(
        {fam: (bounds[i], bounds[i + 1]) for i, fam in enumerate(groups)},
        ds.start[rows],
        offsets,
        flat,
    )


class ShardedAnalysisContext:
    """Map-reduce analysis over a time-sharded dataset.

    Wraps a :class:`~repro.io.colstore.ShardedDatasetStore` and owns one
    :class:`AnalysisContext` per shard.  :meth:`build` derives each
    shard's views, and :meth:`merged` combines them — through the
    :mod:`repro.core.merge` combinators, bitwise-identically to an
    unsharded build — into a single :class:`AnalysisContext` over the
    concatenated dataset, which downstream consumers (the experiment
    battery, the report renderers) use unchanged.

    Every merge is one left fold of the extend step
    (:func:`repro.core.merge.combine_partials` over
    :func:`~repro.core.merge.extend_views`): a left operand grows by the
    shards after it.  The full merge folds shards ``1..K-1`` into shard
    0; after :meth:`refresh` picks up appended shards, the re-merge
    extends the previous merged context by the new shards only — unless
    the append reset the registries, which makes the next merge a full
    fold again.  The merged attack columns and concatenation views live
    in a :class:`~repro.core.columns.ColumnStore` the merged
    context keeps, so a re-merge grows them in place.  Interval arrays
    gain the boundary gaps, and the collaboration/chain scans
    regenerate only the runs that cross a seam.  Each shard's scans and
    its ``target_links`` walk share one ``(target, start)`` sort, its
    :meth:`AnalysisContext.target_order`, which is held outside the
    views and so neither merged nor carried; all shards share one bot
    geo matrix (:meth:`_shared_bot_coords`).  Which views are built
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
        """The bot geo matrix (see
        :meth:`AnalysisContext.bot_coords_radians`), computed once:
        the registries are shared."""
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
        """Materialise one shard's mergeable views (idempotent).

        The views are :func:`~repro.experiments.registry.battery_views`
        over the shard's families, minus the kinds whose extend step
        reads the merged context (:data:`repro.core.merge.MERGED_CONTEXT_KINDS`).
        The scans are built here, through :meth:`shard_scan_events`, so
        the merge only has to stitch the seams.
        """
        from ..experiments.registry import battery_views
        from . import merge as _merge

        ctx = self.shard_context(index)
        with _obs_registry().span(f"shard:{index}"):
            for key in battery_views(self.shard_families(index)):
                if key[0] in _merge.MERGED_CONTEXT_KINDS:
                    continue
                if key[0] in _merge._SCANS:
                    self.shard_scan_events(index, key[0])
                else:
                    _merge.view_value(ctx, key)
        self._built.add(index)
        return ctx

    def build(self) -> int:
        """Build the mergeable views of every shard not built yet.

        Returns the total number of views materialised across shards.
        """
        with _obs_registry().span("shard.build"):
            for index in range(self.n_shards):
                if index not in self._built:
                    self.build_shard(index)
        return sum(self.shard_context(i).n_views for i in range(self.n_shards))

    # -- the reduce step ---------------------------------------------------

    def merged(self, jobs: int = 1) -> AnalysisContext:
        """The merged context: every mergeable view seeded, bitwise equal
        to an unsharded build over the concatenated dataset.

        First :meth:`build` maps the shards not built yet; then one left
        fold, :func:`repro.core.merge.combine_partials`, extends shard 0 by
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

        ``jobs`` has no effect: it stays for callers that pass it
        (``perfbench/workloads.py`` calls ``merged(jobs=1)``).
        """
        current = self._merged
        if current is not None:
            return current
        from . import merge as _merge

        self.build()
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
