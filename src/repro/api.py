"""The stable public facade: ``from repro import api``.

Everything the library does is reachable through deep module paths
(``repro.core.context``, ``repro.io.cache``, ``repro.stream`` …), but
those paths move as the codebase grows.  This module is the documented,
compatibility-kept entry point:

>>> from repro import api
>>> ctx = api.context(api.generate(scale=0.005))
>>> results = api.run_all(ctx)
>>> len(results)
18

The facade is intentionally thin — each function is a dispatch or a
re-export, never new behaviour — so the underlying modules stay usable
directly and the facade stays trivially correct.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path
from typing import Union

from .core.context import AnalysisContext, ShardedAnalysisContext
from .core.dataset import AttackDataset
from .datagen.config import DatasetConfig
from .errors import FormatError, IngestError, ReproError, ShardLayoutError
from .io.colstore import ShardedDatasetStore
from .monitor.schemas import DDoSAttackRecord
from .simulation.clock import ObservationWindow
from .sketch import AttackStreamSummary
from .stream import StreamingDataset, WatchSession

#: The facade's own compatibility version (independent of the package
#: version): the major bumps only on a breaking change to a documented
#: ``api.*`` signature, the minor on additive growth.  ``docs/API.md``
#: records each symbol's stability note against this number.
__version__ = "2.1"

#: What :func:`load` returns: one flat in-memory dataset, or the lazy
#: handle onto a time-partitioned store (pass either to :func:`context`
#: / :func:`run_all`; the sharded path dispatches to map-reduce).
LoadedData = Union[AttackDataset, ShardedDatasetStore]

__all__ = [
    "open",
    "generate",
    "load",
    "ingest",
    "stream",
    "watch",
    "context",
    "run_all",
    "serve",
    "sketch",
    "AnalysisContext",
    "AttackStreamSummary",
    "AttackDataset",
    "DatasetConfig",
    "LoadedData",
    "ReproError",
    "FormatError",
    "ShardLayoutError",
    "IngestError",
    "ShardedAnalysisContext",
    "StreamingDataset",
    "WatchSession",
    "__version__",
]


def generate(
    scale: float = 0.02,
    *,
    seed: int = 7,
    config: DatasetConfig | None = None,
    cache: bool = True,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
) -> AttackDataset:
    """Generate (or load from cache) the synthetic dataset.

    Pass ``config`` for full control; otherwise a default
    :class:`DatasetConfig` is built from ``scale`` and ``seed`` (both
    keyword-only past ``scale``, like every facade option).  With
    ``cache`` (the default) the result is cached on disk keyed by the
    config hash — see :func:`repro.io.cache.load_or_generate`.
    ``jobs > 1`` generates across worker processes; the dataset is
    array-identical for every ``jobs`` value (see ``docs/PERFORMANCE.md``).

    >>> from repro import api
    >>> ds = api.generate(scale=0.005)      # cached after the first call
    >>> ds.n_attacks > 0
    True
    """
    from .datagen.generator import generate_dataset
    from .io.cache import load_or_generate

    if config is None:
        config = DatasetConfig(seed=seed, scale=scale)
    if cache:
        return load_or_generate(config, cache_dir, jobs=jobs)
    return generate_dataset(config, jobs=jobs)


def open(source=None, *, shards: int | None = None):
    """One documented entry point unifying the three acquisition paths.

    Dispatches on what ``source`` is:

    * ``None`` — a fresh :class:`StreamingDataset` (:func:`stream`), the
      append-oriented live path;
    * a :class:`DatasetConfig` — :func:`generate` with that config
      (cached on disk keyed by the config hash);
    * a ``str`` / :class:`~pathlib.Path` — :func:`load`, with the format
      inferred from the extension (or the sharded-store manifest);
    * an :class:`AttackDataset` or
      :class:`~repro.io.colstore.ShardedDatasetStore` — passed through.

    ``shards=N`` partitions a flat result into ``N`` equal time windows
    (exactly as :func:`load` does); combining it with a source that is
    already sharded — or with the streaming path — raises
    :class:`~repro.errors.ShardLayoutError`.  Anything else raises
    :class:`~repro.errors.FormatError`.  Whatever comes back feeds
    straight into :func:`context` / :func:`run_all`.

    >>> from repro import api
    >>> api.open().n_attacks                        # None -> a fresh stream
    0
    >>> ds = api.open(api.DatasetConfig.tiny(seed=7))   # config -> generate
    >>> api.open(ds) is ds                          # datasets pass through
    True
    >>> api.open(ds, shards=2).n_shards             # ... unless partitioned
    2
    >>> api.open(3.14)
    Traceback (most recent call last):
    repro.errors.FormatError: cannot open a float as a dataset source...
    """
    if source is None:
        if shards is not None:
            raise ShardLayoutError(
                "a fresh stream cannot be pre-partitioned; spill it into a "
                "sharded store later via StreamingDataset.spill_shards"
            )
        return stream()
    if isinstance(source, DatasetConfig):
        ds = generate(config=source)
    elif isinstance(source, (str, Path)):
        return load(source, shards=shards)
    elif isinstance(source, (AttackDataset, ShardedDatasetStore)):
        ds = source
    else:
        raise FormatError(
            f"cannot open a {type(source).__name__} as a dataset source; "
            "expected None, a DatasetConfig, a path, an AttackDataset or a "
            "ShardedDatasetStore"
        )
    if shards is not None:
        if isinstance(ds, ShardedDatasetStore):
            raise ShardLayoutError(
                "source is already a sharded store; its layout is fixed by "
                "the manifest (re-partition via convert --shards)"
            )
        return ShardedDatasetStore.partition(ds, shards=shards)
    return ds


def load(path: str | Path, *, shards: int | None = None) -> LoadedData:
    """Load a dataset from a file or sharded store, dispatching on shape.

    * a directory with a ``manifest.json`` — a sharded colstore store
      (:func:`repro.io.colstore.save_sharded_npz`; returns a
      :class:`~repro.io.colstore.ShardedDatasetStore` with per-shard
      memory-mapped loading — pass it to :func:`context` /
      :func:`run_all` for map-reduce analysis);
    * ``.jsonl`` — attack log in the Table I schema, one JSON object per
      line (as written by :func:`repro.io.jsonlio.export_attacks_jsonl`);
    * ``.csv`` — attack table export
      (:func:`repro.io.csvio.export_attacks_csv`);
    * ``.npz`` — the columnar binary store
      (:func:`repro.io.colstore.save_dataset_npz`; memory-mapped, the
      fastest cold load — create one with ``ddos-repro convert``).

    JSONL/CSV logs rebuild an attack-table-only dataset via
    :func:`ingest`; the colstore archive round-trips the full dataset
    including the Botlist side.  Pass ``shards=N`` to
    partition a flat dataset into ``N`` equal time windows in memory
    (returns a :class:`~repro.io.colstore.ShardedDatasetStore`).

    Unrecognised extensions raise :class:`~repro.errors.FormatError`;
    asking to re-partition an already-sharded store raises
    :class:`~repro.errors.ShardLayoutError` (both are ``ValueError``
    subclasses, so pre-taxonomy callers keep working).

    >>> from repro import api
    >>> api.load("attacks.xyz")
    Traceback (most recent call last):
    repro.errors.FormatError: cannot infer format of attacks.xyz: expected .jsonl, .csv or .npz
    """
    from .io import colstore

    path = Path(path)
    if colstore.is_sharded_store(path):
        if shards is not None:
            raise ShardLayoutError(
                f"{path} is already a sharded store; its layout is fixed by "
                "the manifest (re-partition via convert --shards)"
            )
        return colstore.ShardedDatasetStore(path)
    name = path.name
    if name.endswith(".jsonl"):
        from .io.jsonlio import iter_attacks_jsonl

        ds = ingest(iter_attacks_jsonl(path))
    elif name.endswith(".csv"):
        from .io.csvio import read_attacks_csv

        ds = ingest(read_attacks_csv(path))
    elif name.endswith(".npz"):
        ds = colstore.load_dataset_npz(path)
    else:
        raise FormatError(f"cannot infer format of {path}: expected .jsonl, .csv or .npz")
    if shards is not None:
        return colstore.ShardedDatasetStore.partition(ds, shards=shards)
    return ds


def ingest(
    records: Iterable[DDoSAttackRecord],
    *,
    window: ObservationWindow | None = None,
    strict: bool = True,
) -> AttackDataset:
    """Build an attack-table-only dataset from Table I records.

    See :func:`repro.io.ingest.dataset_from_records`; malformed input
    raises :class:`~repro.errors.IngestError` (``strict=False`` drops
    instead).  ``window`` — like every facade option past the data
    argument — is keyword-only.

    >>> from repro import api
    >>> ds = api.generate(scale=0.005)
    >>> streamed = api.ingest(ds.iter_attacks(), window=ds.window)
    >>> streamed.n_attacks == ds.n_attacks
    True
    """
    from .io.ingest import dataset_from_records

    return dataset_from_records(records, window, strict=strict)


def stream(*, window: ObservationWindow | None = None) -> StreamingDataset:
    """A fresh append-oriented dataset builder (the streaming path).

    >>> from repro import api
    >>> s = api.stream()
    >>> (s.n_attacks, s.epoch)
    (0, 0)
    """
    return StreamingDataset(window=window)


def watch(
    path: str | Path,
    *,
    window: ObservationWindow | None = None,
    sketch: bool = False,
    exact_window: int = 50_000,
) -> WatchSession:
    """A poll-driven session tailing a JSONL attack log.

    Each ``poll()`` ingests newly appended records and returns the
    re-rendered headline report, or ``None`` when nothing changed.
    With ``sketch=True`` the session runs at fixed memory: records fold
    into an :class:`AttackStreamSummary` (plus a trailing window of
    ``exact_window`` verbatim records) instead of materialising exact
    columns forever, and the rendered report is the approximate one —
    see ``docs/STREAMING.md`` for the memory model and error contract.

    >>> from repro import api
    >>> session = api.watch("not-written-yet.jsonl", sketch=True)
    >>> session.poll() is None              # log file does not exist yet
    True
    """
    return WatchSession(
        path, window=window, sketch=sketch, exact_window=exact_window
    )


def context(ds) -> AnalysisContext | ShardedAnalysisContext:
    """The dataset's shared memoized analysis context.

    A flat :class:`AttackDataset` (or an existing context) coerces to
    its shared :class:`AnalysisContext`; a
    :class:`~repro.io.colstore.ShardedDatasetStore` wraps into a
    :class:`ShardedAnalysisContext` whose :meth:`~ShardedAnalysisContext.merged`
    context is bitwise-identical to the unsharded build; a
    :class:`StreamingDataset` yields its current epoch snapshot's
    context.  Anything else raises :class:`~repro.errors.FormatError`.

    >>> from repro import api
    >>> ds = api.generate(scale=0.005)
    >>> api.context(ds) is api.context(ds)  # one shared context per dataset
    True
    >>> api.context(object())
    Traceback (most recent call last):
    repro.errors.FormatError: cannot build an analysis context from object...
    """
    if isinstance(ds, (AnalysisContext, ShardedAnalysisContext)):
        return ds
    if isinstance(ds, ShardedDatasetStore):
        return ShardedAnalysisContext(ds)
    if isinstance(ds, StreamingDataset):
        return ds.context()
    if isinstance(ds, AttackDataset):
        return AnalysisContext.of(ds)
    raise FormatError(
        f"cannot build an analysis context from {type(ds).__name__}; "
        "expected an AttackDataset, a context, a ShardedDatasetStore or a "
        "StreamingDataset"
    )


def run_all(
    ctx: AnalysisContext | ShardedAnalysisContext,
    *,
    jobs: int = 1,
    manifest: str | Path | None = None,
):
    """Run the full experiment battery; results come in registry order.

    Pass ``manifest`` to write a :class:`~repro.obs.RunManifest` JSON —
    stage timings, cache hit/miss counters, per-experiment wall times —
    after the battery finishes (see ``docs/OBSERVABILITY.md``).

    A :class:`ShardedAnalysisContext` dispatches map-reduce: every shard
    builds its mergeable views, the merge seeds them onto the merged
    context, and the battery runs there — rendering byte-identically to
    the unsharded path.

    ``jobs`` has no effect: views build in this process.  It stays so
    the facade's signature is unchanged.

    >>> import os, tempfile
    >>> from repro import api
    >>> ctx = api.context(api.generate(scale=0.005))
    >>> path = os.path.join(tempfile.mkdtemp(), "manifest.json")
    >>> results = api.run_all(ctx, manifest=path)
    >>> len(results), os.path.exists(path)
    (18, True)
    """
    from .experiments.registry import run_all as _run_all

    if isinstance(ctx, ShardedAnalysisContext):
        ctx = ctx.merged()
    results = _run_all(ctx)
    if manifest is not None:
        from .obs import RunManifest, registry as _obs_registry

        RunManifest.collect(_obs_registry(), dataset=ctx.dataset).write(manifest)
    return results


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    queue_size: int = 64,
    prewarm_jobs: int = 1,
    keep_epochs: int = 4,
    max_tenant_bytes: int | None = None,
):
    """Start the multi-tenant analysis service and return its handle.

    A started :class:`~repro.serve.AnalysisServer`: a threaded HTTP
    server fronting this facade, with per-tenant streaming ingest
    (bounded-queue backpressure), epoch-tagged snapshot isolation and a
    shared experiment render cache — see ``docs/ARCHITECTURE.md`` and
    the endpoint table in :mod:`repro.serve`.  ``port=0`` binds any free
    port (read it back from ``server.url``).  Stop it with
    ``server.stop()`` or use it as a context manager.  The CLI twin is
    ``ddos-repro serve``.

    ``max_tenant_bytes`` caps each tenant's resident exact-column
    memory: once a tenant's stream buffers exceed the ceiling, further
    ingests are refused with 429/``Retry-After`` while the tenant's
    ``/v1/sketch`` endpoint — fed by the fixed-memory summary every
    tenant maintains — keeps answering (``docs/STREAMING.md``).

    ``prewarm_jobs`` has no effect: each tenant prewarms in its writer
    thread.  It stays so the facade's signature is unchanged.

    >>> from repro import api
    >>> with api.serve(port=0) as server:
    ...     server.url.startswith("http://127.0.0.1:")
    True
    """
    from .serve import AnalysisServer

    return AnalysisServer(
        host=host,
        port=port,
        queue_size=queue_size,
        keep_epochs=keep_epochs,
        max_tenant_bytes=max_tenant_bytes,
    ).start()


def sketch(source=None, **params) -> AttackStreamSummary:
    """A bounded-memory approximate summary of any dataset source.

    Dispatches on what ``source`` is, mirroring :func:`open`:

    * ``None`` — a fresh empty :class:`AttackStreamSummary` (feed it
      with ``update`` / ``update_arrays``);
    * an :class:`AttackDataset` — one vectorised pass over its columns
      (:func:`repro.sketch.summarize_dataset`);
    * a :class:`~repro.io.colstore.ShardedDatasetStore` — each shard is
      summarised independently and the parts reduce through
      :func:`repro.core.merge.sketch_summaries`, the sketch layer's
      map-reduce;
    * a :class:`StreamingDataset` built with ``sketches=True`` — its
      own per-epoch snapshot (``params`` must be empty: the stream's
      summary already fixed them); without sketches, its current
      snapshot dataset is summarised like a flat dataset;
    * any other iterable of records — folded via ``update``.

    ``params`` (``epsilon``, ``delta``, ``precision``, ``k``,
    ``reservoir_size``, ``seed``) forward to
    :class:`AttackStreamSummary`; the defaults give the documented
    contract in ``docs/STREAMING.md``.

    >>> from repro import api
    >>> ds = api.generate(scale=0.005)
    >>> summary = api.sketch(ds)
    >>> summary.n_records == ds.n_attacks
    True
    >>> sorted(summary.estimate()["families"]) == sorted(ds.active_families)
    True
    """
    from .core.merge import sketch_summaries
    from .sketch import summarize_dataset

    if source is None:
        return AttackStreamSummary(**params)
    if isinstance(source, AttackStreamSummary):
        return source
    if isinstance(source, ShardedDatasetStore):
        return sketch_summaries(
            summarize_dataset(source.load_shard(i), **params)
            for i in range(source.n_shards)
        )
    if isinstance(source, StreamingDataset):
        if source.sketch is not None:
            if params:
                raise FormatError(
                    "a sketch-enabled stream fixes its own sketch parameters; "
                    "drop the overrides or summarise stream.dataset() instead"
                )
            return source.sketch_snapshot()
        return summarize_dataset(source.dataset(), **params)
    if isinstance(source, AttackDataset):
        return summarize_dataset(source, **params)
    if isinstance(source, Iterable):
        summary = AttackStreamSummary(**params)
        summary.update(source)
        return summary
    raise FormatError(
        f"cannot sketch a {type(source).__name__}; expected None, an "
        "AttackDataset, a ShardedDatasetStore, a StreamingDataset, or an "
        "iterable of records"
    )
