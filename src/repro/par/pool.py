"""Process-parallel map with a fork-inherited payload and a serial fallback.

Dataset generation (its per-family shards and participant sampling)
fans out through :func:`parallel_map`; it is the package's only
fan-out, because every derived view builds faster in the calling
process than across workers.  The design keeps the hand-off
pickle-light:

* the shared read-only state (world, bot pools, planned columns) is
  published as a module-level ``_PAYLOAD`` global *before* the pool is
  created, so forked workers inherit it copy-on-write and nothing is
  serialised on the way in;
* each task ships only a small item (a family name, an index range) and
  each worker returns only its shard's result, which is the single
  pickle the fan-out pays for.

When ``jobs=1``, the platform has no ``fork`` start method, or there is
only one item, the same worker functions run in-process — callers never
branch on the execution mode, and results are bit-identical either way
because all randomness is keyed by name, never by worker identity.

Observability is recorded parent-side (worker registries die with the
workers): every fan-out counts its items in ``par.tasks{phase}`` and
records the resolved worker count in the ``par.jobs`` gauge, in serial
mode too, so instrumentation tests exercise one code path.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from ..obs import registry as _obs_registry

__all__ = ["default_jobs", "fork_available", "parallel_map", "resolve_jobs"]

#: Whether this process has already warned about a CPU-capped fan-out;
#: the counter keeps counting, the warning fires once.
_CAP_WARNED = False

#: Fork-inherited payload for the fan-out in flight.  Set by the parent
#: immediately before the executor is created, cleared after the map
#: completes; workers read it through :func:`_run_task`.
_PAYLOAD: Any = None

#: Upper bound for the default worker count: generation shards stop
#: scaling past the per-family decomposition, and laptops with many
#: efficiency cores regress beyond this.
_MAX_DEFAULT_JOBS = 8


def default_jobs() -> int:
    """The default worker count: ``os.cpu_count()`` capped at 8."""
    return max(1, min(_MAX_DEFAULT_JOBS, os.cpu_count() or 1))


def resolve_jobs(jobs: int | None) -> int:
    """Validate an explicit ``jobs`` value, or pick the default for ``None``."""
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def _run_task(worker: Callable[[Any, Any], Any], index: int, item: Any) -> tuple[int, Any]:
    """Executed in a worker process: apply ``worker`` to the inherited payload."""
    return index, worker(_PAYLOAD, item)


def parallel_map(
    worker: Callable[[Any, Any], Any],
    items: Iterable[Any],
    *,
    jobs: int = 1,
    payload: Any = None,
    label: str | None = None,
) -> list[Any]:
    """``[worker(payload, item) for item in items]``, possibly across processes.

    ``worker`` must be a module-level function (it is sent to workers by
    reference); ``items`` should be small (names, index ranges) — bulk
    state belongs in ``payload``, which forked workers inherit without
    pickling.  Results come back in item order regardless of completion
    order, so a parallel map is a drop-in for the serial loop.
    """
    global _PAYLOAD, _CAP_WARNED
    seq: Sequence[Any] = list(items)
    n_jobs = jobs if fork_available() else 1
    # More workers than cores only measures fork/pickle overhead (the
    # committed cold-path baseline shows jobs=4 running 0.75x on a
    # single-core machine), so an explicit ``jobs`` is capped at the
    # CPU count — on a 1-CPU box every fan-out degrades to serial.
    cpu_cap = os.cpu_count() or 1
    capped = n_jobs > cpu_cap and len(seq) > cpu_cap
    n_jobs = min(n_jobs, cpu_cap)
    n_jobs = max(1, min(n_jobs, len(seq)))

    reg = _obs_registry()
    name = label or getattr(worker, "__name__", "task").lstrip("_")
    reg.counter("par.tasks", phase=name).inc(len(seq))
    reg.gauge("par.jobs").set(n_jobs)
    if capped:
        # Silent serialisation misled BENCH readers on the 1-core bench
        # machine; make the cap observable — a counter per capped
        # fan-out, a warning once per process.
        reg.counter("par.jobs_capped").inc()
        if not _CAP_WARNED:
            _CAP_WARNED = True
            warnings.warn(
                f"parallel_map requested jobs={jobs} but this machine has "
                f"{cpu_cap} CPU(s); running with jobs={n_jobs}. Timings "
                "recorded under higher jobs values measure the capped "
                "worker count (see effective_parallel_jobs in BENCH "
                "manifests).",
                RuntimeWarning,
                stacklevel=2,
            )

    _PAYLOAD = payload
    try:
        if n_jobs == 1:
            return [worker(payload, item) for item in seq]
        results: list[Any] = [None] * len(seq)
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=n_jobs, mp_context=ctx) as pool:
            futures = [pool.submit(_run_task, worker, i, item) for i, item in enumerate(seq)]
            for future in futures:
                index, value = future.result()
                results[index] = value
        return results
    finally:
        _PAYLOAD = None
