"""Dataset caching: generate once, reuse across processes.

Full-scale generation takes on the order of a minute (the closed-loop
dispersion sampler dominates); the benchmark harness and examples cache
the result on disk, keyed by a stable hash of the configuration.

One artifact lives in the cache directory per configuration:
``dataset-<key>.npz``, the generated :class:`AttackDataset` in the
columnar binary store (:mod:`repro.io.colstore`), memory-mapped on load
so repeat processes start in milliseconds.  Derived views are not
cached on disk: rebuilding the battery's views from the mapped columns
is cheaper than pickling and restoring them.  The cache directory
defaults to the ``REPRO_CACHE_DIR`` environment variable, falling back
to ``.repro-cache``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from ..core.dataset import AttackDataset
from ..datagen.config import DatasetConfig
from ..datagen.generator import generate_dataset
from ..obs import registry as _obs_registry
from . import colstore

__all__ = [
    "config_key",
    "resolve_cache_dir",
    "load_or_generate",
]

#: v2: generation pipeline re-keyed its seed streams per family/attack
#: (process-parallel shards), and the dataset cache moved from gzip
#: pickle to the colstore ``.npz`` archive.
_FORMAT_VERSION = 2


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
