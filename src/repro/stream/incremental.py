"""Carrying AnalysisContext views across a streaming append.

When :class:`~repro.stream.builder.StreamingDataset` materialises a new
snapshot after an in-order append, the previous snapshot's context holds
views computed for the first ``base_n`` attacks, and the appended rows
sit at ``[base_n:]`` of the new snapshot's sorted columns.  That is the
shard merge's extend step with the previous context as the left operand
and the appended rows as the one right part, so :func:`carry_views`
takes :func:`repro.core.merge.extend_view` for each view the previous
context has materialised, at O(batch) cost:

* grouped attack indices (family / botnet / target) gain the new rows;
* interval and duration arrays gain the new rows' values, stitched at
  the seam;
* victim marginals, organization types, daily histograms, protocol
  tables and weekly (week, bot) pair tables re-reduce with the batch's
  own values;
* the Table III summary merges only the appended victims, the
  simultaneous-attack events re-count only the start-time group at the
  seam, and each family's weekly shift is finished from its extended
  pairs;
* the collaboration and chain scans keep the previous events, add the
  batch's own, and regenerate only the runs that cross the seam, found
  through the carried target links (each victim's last attack);
* the rank windows the duration and interval summaries read merge the
  batch's values around their read ranks, and Fig 4's interval bucket
  counts add the batch's gaps.

The concatenation-shaped views grow in a
:class:`~repro.core.columns.ColumnStore` that each carry hands from the
previous snapshot's context to the new one, so a view grows in place
and a carried view is a read-only prefix of the buffer the next carry
appends to.  Snapshots still held by readers (the service keeps several
epochs) share those buffers and never see a later epoch's rows; the
scans' event lists are new lists each epoch.

The one view kind outside :data:`INCREMENTAL_HEADS` is the ARIMA
dispersion forecast: the new context does not have it, so it rebuilds
on next access (or in the prewarm) under the new epoch tag, while
consumers still holding the previous epoch's context keep their cache.
After an out-of-order batch nothing is carried, and every view rebuilds
from scratch once before the carry resumes.

Every carried view must be exactly what the cold builder would produce —
the streaming parity tests compare each one against a scratch batch
build, array for array and key order included.
"""

from __future__ import annotations

import numpy as np

from ..core import merge
from ..core.columns import ColumnStore
from ..core.context import AnalysisContext
from ..io.colstore import _slice_dataset
from ..obs import registry as _obs_registry

__all__ = ["carry_views", "CARRIED_VERBATIM", "INCREMENTAL_HEADS"]

#: Keys whose value cannot change across appends (the bot registry is
#: immutable in a streaming dataset) — carried as-is.
CARRIED_VERBATIM = {("bot_coords_radians",)}

#: First elements of the view keys the carry extends.
INCREMENTAL_HEADS = {
    "family_attack_index",
    "botnet_attack_index",
    "target_attack_index",
    "attack_intervals",
    "durations",
    "family_starts",
    "family_intervals",
    "family_participants",
    "attack_dispersions",
    "target_country_idx",
    "target_org_idx",
    "target_country_counts",
    "target_org_counts",
    "family_target_country_counts",
    "victim_org_type_counts",
    "workload_summary",
    "daily_distribution",
    "protocol_popularity",
    "protocol_breakdown",
    "simultaneous_attacks",
    "weekly_shift_pairs",
    "weekly_shift",
    "target_links",
    "collaborations",
    "chains",
    "rank_windows",
    "interval_buckets",
}

#: The links the scan stitch probes; carried ahead of the scans.
_LINKS = ("target_links",)


def carry_views(old_ctx: AnalysisContext, new_ctx: AnalysisContext) -> int:
    """Seed the new snapshot's context from the previous one.

    ``old_ctx`` covered the first ``base_n`` attacks of ``new_ctx``'s
    dataset (callers only carry across in-order appends).  Returns how
    many of ``old_ctx``'s views it carried (the target links it builds
    for the scans' probe do not count), and counts the targets whose
    scan runs were re-stitched into ``stream.carry.stitched_targets``.
    """
    ds = new_ctx.dataset
    old_ds = old_ctx.dataset
    batch = AnalysisContext(_slice_dataset(ds, old_ds.n_attacks, ds.n_attacks))
    # The snapshots of one stream hand a column store down, so each carry
    # grows the previous snapshot's concatenation views in place.
    columns = old_ctx._columns or ColumnStore()
    new_ctx._columns = columns

    # A family interned mid-alphabet shifts the family indices after it;
    # the old grouping's keys move to the new index space (its member
    # arrays are row positions and stay valid).
    keymap = None
    if old_ds.families != ds.families:
        keymap = np.asarray([ds.family_id(name) for name in old_ds.families], dtype=np.int64)

    views = old_ctx.materialized()
    carried = set(views)
    if ("collaborations",) in views or ("chains",) in views:
        # The scans probe the new context's links, so those carry first
        # (built once on the previous context if it never needed them).
        views = {_LINKS: merge.view_value(old_ctx, _LINKS), **views}
    stitched: set[int] = set()
    seeded = 0
    for key, value in views.items():
        if key not in CARRIED_VERBATIM:
            if not isinstance(key, tuple) or not key or key[0] not in INCREMENTAL_HEADS:
                continue
            if key[0] == "family_attack_index" and keymap is not None:
                value = {int(keymap[k]): v for k, v in value.items()}
            value = merge.extend_view(key, value, old_ctx, [batch], new_ctx, stitched=stitched)
        if new_ctx.seed_view(key, value) and key in carried:
            seeded += 1
    _obs_registry().counter("stream.carry.stitched_targets").inc(len(stitched))
    return seeded
