"""Carrying AnalysisContext views across a streaming append.

When :class:`~repro.stream.builder.StreamingDataset` materialises a new
snapshot after an in-order append, the previous snapshot's context holds
views computed for the first ``base_n`` attacks, and the appended rows
sit at ``[base_n:]`` of the new snapshot's sorted columns.  That is the
shard merge's extend step with the previous context as the left operand
and the appended rows as the one right part, so :func:`carry_views`
runs the shard merge's fold, :func:`repro.core.merge.extend_views`, at
O(batch) cost, over each view of
:func:`~repro.experiments.registry.battery_views` the previous context
has materialised.  :mod:`repro.core.merge` describes the shapes
those views extend in.  The fold reads the batch once per carry, not
once per view: the batch's family views are slices of one pass over its
rows (the family pass every accessor reads), and the pieces the rules
need are built through the accessors into a plain memo (no per-key
locks, hit/miss counters or build spans).

The concatenation-shaped views grow in a
:class:`~repro.core.columns.ColumnStore` that each carry hands from the
previous snapshot's context to the new one, so a view grows in place
and a carried view is a read-only prefix of the buffer the next carry
appends to.  Snapshots still held by readers (the service keeps several
epochs) share those buffers and never see a later epoch's rows; the
scans' event lists are new lists each epoch.

Two kinds of view are not carried.  The ARIMA dispersion forecasts have
no extend rule, and a view off the battery's list is never extended:
the new context does not have them, so they rebuild on next access (the
forecasts also in the prewarm) under the new epoch tag, while consumers
still holding the previous epoch's context keep their cache.  After an
out-of-order batch nothing is carried, and every view rebuilds from
scratch once before the carry resumes.

Every carried view must be exactly what the cold builder would produce —
the streaming parity tests compare each one against a scratch batch
build, array for array and key order included.
"""

from __future__ import annotations

from ..core import merge
from ..core.context import AnalysisContext
from ..io.colstore import _slice_dataset
from ..obs import registry as _obs_registry

__all__ = ["carry_views"]


def carry_views(old_ctx: AnalysisContext, new_ctx: AnalysisContext) -> int:
    """Seed the new snapshot's context from the previous one.

    ``old_ctx`` covered the first ``base_n`` attacks of ``new_ctx``'s
    dataset (callers only carry across in-order appends).  Every key of
    :func:`~repro.experiments.registry.battery_views` over the new
    dataset's active families that ``old_ctx`` holds is extended by
    :func:`repro.core.merge.extend_views`, which skips the forecasts.
    Returns how many views it carried, and counts the targets whose scan
    runs were re-stitched into ``stream.carry.stitched_targets``.
    """
    from ..experiments.registry import battery_views

    ds = new_ctx.dataset
    batch = AnalysisContext(_slice_dataset(ds, old_ctx.dataset.n_attacks, ds.n_attacks))
    held = old_ctx.materialized()
    keys = [key for key in battery_views(ds.active_families) if key in held]
    seeded, stitched = merge.extend_views(old_ctx, [batch], new_ctx, keys)
    _obs_registry().counter("stream.carry.stitched_targets").inc(len(stitched))
    return seeded
