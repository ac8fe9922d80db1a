"""Dataset caching: generate once, reuse across processes.

Full-scale generation takes on the order of a minute (the closed-loop
dispersion sampler dominates); the benchmark harness and examples cache
the result on disk, keyed by a stable hash of the configuration.

Two artifacts live in the cache directory per configuration:

* ``dataset-<key>.npz`` — the generated :class:`AttackDataset` in the
  columnar binary store (:mod:`repro.io.colstore`), memory-mapped on
  load so repeat processes start in milliseconds;
* ``views-<key>.pkl.gz`` — a snapshot of the derived views memoized on
  the dataset's :class:`~repro.core.context.AnalysisContext`, written
  after an experiment battery so the next process starts warm.

Both are keyed by the same config hash, so a config change invalidates
them together.  The cache directory defaults to the ``REPRO_CACHE_DIR``
environment variable, falling back to ``.repro-cache``.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import pickle
from pathlib import Path

from ..core.context import AnalysisContext
from ..core.dataset import AttackDataset
from ..datagen.config import DatasetConfig
from ..datagen.generator import generate_dataset
from ..obs import registry as _obs_registry
from . import colstore

__all__ = [
    "MergeCache",
    "config_key",
    "resolve_cache_dir",
    "save_dataset",
    "load_dataset",
    "load_or_generate",
    "save_context_views",
    "load_context_views",
    "load_or_generate_context",
]

#: v2: generation pipeline re-keyed its seed streams per family/attack
#: (process-parallel shards), and the dataset cache moved from gzip
#: pickle to the colstore ``.npz`` archive.
_FORMAT_VERSION = 2
#: Version of the derived-view snapshot format.  Bump when the set or
#: shape of :class:`AnalysisContext` views changes incompatibly.
#: v2: the payload gained the shard-layout key — a snapshot taken over
#: one sharding (or the unsharded path) is rejected against any other.
#: v3: the collaboration and chain views are
#: :class:`~repro.core.scans.ScanEvents` CSRs, no longer event lists.
_VIEWS_FORMAT_VERSION = 3


def config_key(config: DatasetConfig) -> str:
    """A stable short hash identifying a configuration (and cache entry)."""
    profiles = config.resolved_profiles()
    payload = repr(
        (
            _FORMAT_VERSION,
            config.seed,
            config.scale,
            (config.window.start, config.window.end),
            config.home_share,
            config.pulse_split_prob,
            config.gap_seconds,
            config.n_attacker_countries,
            config.n_victim_countries,
            sorted((name, repr(prof)) for name, prof in profiles.items()),
        )
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def resolve_cache_dir(cache_dir: str | Path | None = None) -> Path:
    """The effective cache directory.

    An explicit argument wins; otherwise the ``REPRO_CACHE_DIR``
    environment variable; otherwise ``.repro-cache`` under the current
    directory.
    """
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else Path(".repro-cache")


def save_dataset(ds: AttackDataset, path: str | Path) -> Path:
    """Serialise a dataset (gzip pickle).  Returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with gzip.open(tmp, "wb", compresslevel=4) as fh:
        pickle.dump((_FORMAT_VERSION, ds), fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return path


def load_dataset(path: str | Path) -> AttackDataset:
    """Load a dataset written by :func:`save_dataset`.

    Only load files you created yourself — this is a pickle.
    """
    path = Path(path)
    with gzip.open(path, "rb") as fh:
        version, ds = pickle.load(fh)
    if version != _FORMAT_VERSION:
        raise ValueError(f"dataset file {path} has format v{version}, expected v{_FORMAT_VERSION}")
    if not isinstance(ds, AttackDataset):
        raise TypeError(f"dataset file {path} does not contain an AttackDataset")
    return ds


def load_or_generate(
    config: DatasetConfig,
    cache_dir: str | Path | None = None,
    *,
    jobs: int = 1,
) -> AttackDataset:
    """Return the dataset for ``config``, generating and caching on miss.

    ``cache_dir`` resolves via :func:`resolve_cache_dir`.  Because a
    dataset is a pure function of its config, the cache key is just the
    config hash — ``jobs`` only parallelises the regeneration, it never
    changes the result.  Cache entries are colstore ``.npz`` archives,
    memory-mapped on load.  Outcomes are counted into
    ``cache.dataset.hit`` / ``cache.dataset.miss`` (a corrupt or
    stale-version entry counts as a miss).
    """
    path = resolve_cache_dir(cache_dir) / f"dataset-{config_key(config)}.npz"
    if path.exists():
        try:
            ds = colstore.load_dataset_npz(path)
        except (OSError, ValueError, TypeError):
            path.unlink(missing_ok=True)  # corrupt cache entry: regenerate
        else:
            _obs_registry().counter("cache.dataset.hit").inc()
            return ds
    _obs_registry().counter("cache.dataset.miss").inc()
    ds = generate_dataset(config, jobs=jobs)
    colstore.save_dataset_npz(ds, path)
    return ds


def _views_path(config: DatasetConfig, cache_dir: str | Path | None) -> Path:
    return resolve_cache_dir(cache_dir) / f"views-{config_key(config)}.pkl.gz"


def save_context_views(
    ctx: AnalysisContext,
    config: DatasetConfig,
    cache_dir: str | Path | None = None,
    *,
    shard_layout: tuple | None = None,
) -> Path:
    """Snapshot the context's picklable derived views next to the dataset.

    The file records the views format version, the config key and the
    shard layout the views were derived under
    (:meth:`~repro.io.colstore.ShardedDatasetStore.layout_key`, or the
    unsharded sentinel), so a stale or mismatched snapshot is rejected
    on load rather than served — views built over one sharding carry
    shard-shaped intermediates and must not restore against another.
    """
    path = _views_path(config, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    layout = colstore.UNSHARDED_LAYOUT if shard_layout is None else tuple(shard_layout)
    payload = (_VIEWS_FORMAT_VERSION, config_key(config), layout, ctx.export_views())
    tmp = path.with_suffix(path.suffix + ".tmp")
    with gzip.open(tmp, "wb", compresslevel=4) as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return path


def load_context_views(
    path: str | Path,
    expected_key: str,
    expected_layout: tuple = colstore.UNSHARDED_LAYOUT,
) -> dict:
    """Load a view snapshot written by :func:`save_context_views`.

    Raises ``ValueError`` on version, config-key or shard-layout
    mismatch.  Only load files you created yourself — this is a pickle.
    """
    with gzip.open(Path(path), "rb") as fh:
        payload = pickle.load(fh)
    version = payload[0] if isinstance(payload, tuple) and payload else None
    if version != _VIEWS_FORMAT_VERSION or len(payload) != 4:
        raise ValueError(f"view snapshot {path} has format v{version}, expected v{_VIEWS_FORMAT_VERSION}")
    _version, key, layout, views = payload
    if key != expected_key:
        raise ValueError(f"view snapshot {path} was built for config {key}, expected {expected_key}")
    if tuple(layout) != tuple(expected_layout):
        raise ValueError(
            f"view snapshot {path} was built under shard layout {layout!r}, "
            f"expected {tuple(expected_layout)!r}"
        )
    if not isinstance(views, dict):
        raise TypeError(f"view snapshot {path} does not contain a view dict")
    return views


#: Version of the merge-partial cache entries.  Bump when
#: :class:`~repro.core.merge.ShardPartial` (or anything else stored
#: through :class:`MergeCache`) changes incompatibly.
_MERGE_FORMAT_VERSION = 2


class MergeCache:
    """Disk memo for subtree merge results of the sharded reduce.

    Entries are keyed by a *kind* (today only ``"partial"``) and a
    fingerprint — the observation window plus the
    :meth:`~repro.io.colstore.ShardedDatasetStore.shard_signature` of
    every shard in the subtree's range — so a cold process re-merging
    the same store serves every unchanged subtree from disk, and an
    appended shard invalidates nothing but the spine.  The fingerprint
    is stored inside the entry and re-verified on load; any unreadable,
    corrupt, version-skewed or mismatching entry is a silent miss (the
    merge falls back to recombining), never an error.

    Only load cache directories you created yourself — entries are
    pickles.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.dir = resolve_cache_dir(cache_dir) / "merge"

    def _path(self, kind: str, fingerprint: tuple) -> Path:
        token = hashlib.sha256(
            repr((_MERGE_FORMAT_VERSION, kind, fingerprint)).encode()
        ).hexdigest()[:24]
        return self.dir / f"{kind}-{token}.pkl"

    def load(self, kind: str, fingerprint: tuple):
        """The cached value for ``(kind, fingerprint)``, or ``None``."""
        path = self._path(kind, fingerprint)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            version, stored_kind, stored_fp, value = payload
        except Exception:
            return None
        if (
            version != _MERGE_FORMAT_VERSION
            or stored_kind != kind
            or stored_fp != fingerprint
        ):
            return None
        return value

    def save(self, kind: str, fingerprint: tuple, value) -> Path:
        """Store ``value`` under ``(kind, fingerprint)`` (atomic write)."""
        path = self._path(kind, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(
                (_MERGE_FORMAT_VERSION, kind, fingerprint, value),
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        tmp.replace(path)
        return path


def load_or_generate_context(
    config: DatasetConfig, cache_dir: str | Path | None = None
) -> AnalysisContext:
    """The dataset for ``config`` wrapped in its shared analysis context.

    On top of :func:`load_or_generate`, restores any derived-view
    snapshot a previous battery saved for this exact config, so repeat
    invocations skip the collaboration/chain/dispersion scans entirely.
    A corrupt or mismatched snapshot is discarded, never served.
    Outcomes are counted into ``cache.views.hit`` / ``cache.views.miss``.
    """
    ctx = AnalysisContext.of(load_or_generate(config, cache_dir))
    path = _views_path(config, cache_dir)
    restored = False
    if path.exists():
        try:
            ctx.import_views(load_context_views(path, config_key(config)))
            restored = True
        except (OSError, ValueError, TypeError, pickle.UnpicklingError):
            path.unlink(missing_ok=True)
    _obs_registry().counter("cache.views.hit" if restored else "cache.views.miss").inc()
    return ctx
