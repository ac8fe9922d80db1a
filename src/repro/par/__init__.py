"""``repro.par``: process-parallel execution for dataset generation.

See :mod:`repro.par.pool` for the execution model (fork-inherited
payloads, serial fallback, parent-side instrumentation).
"""

from .pool import default_jobs, fork_available, parallel_map, resolve_jobs

__all__ = [
    "default_jobs",
    "fork_available",
    "parallel_map",
    "resolve_jobs",
]
