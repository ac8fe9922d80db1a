"""Test oracles: the plain implementations the product code is pinned to.

Each module keeps a straightforward form of something ``src/`` computes
faster or incrementally, so a parity test can compare the two:

* :mod:`.kernels` — the per-target / per-week / per-snapshot loops the
  vectorised collaboration, chain, weekly-shift and snapshot-dispersion
  kernels replaced, the dispersion kernel before its per-bot
  trigonometry was hoisted, and the CSS fit through
  ``scipy.optimize.minimize``;
* :mod:`.merge_fold` — the serial left-fold shard merge with the
  conservative boundary-suspect rescan, against which
  :meth:`repro.core.context.ShardedAnalysisContext.merged` is diffed.

Nothing under ``src/`` imports from here.
"""
