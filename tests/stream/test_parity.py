"""Streaming parity: K-batch appends equal the scratch batch build.

The acceptance bar for the streaming layer: after ANY sequence of
``append_batch`` calls, the snapshot dataset and every materialized
AnalysisContext view must be array-equal to a scratch
``dataset_from_records`` build over the same records.  Views are
touched after EACH append so the incremental carry path (not just the
lazy rebuild) is what gets verified.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core import merge
from repro.core.context import AnalysisContext
from repro.experiments.registry import battery_views
from repro.io.ingest import dataset_from_records
from repro.stream import StreamingDataset


@pytest.fixture(scope="module")
def records(small_ds):
    return list(small_ds.iter_attacks())


@pytest.fixture(scope="module")
def scratch(records, small_ds):
    return dataset_from_records(records, window=small_ds.window)


def touch_views(ctx: AnalysisContext) -> None:
    """Materialize every view the carry extends: the battery's, bar the
    forecasts."""
    for key in battery_views(ctx.dataset.active_families):
        if key[0] != "dispersion_forecast":
            merge.view_value(ctx, key)


def views_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return all(
            views_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return list(a) == list(b) and all(views_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(views_equal(x, y) for x, y in zip(a, b))
    return a == b


def assert_context_parity(stream_ctx: AnalysisContext, scratch_ds) -> None:
    reference = AnalysisContext(scratch_ds)
    touch_views(reference)
    materialized = stream_ctx.materialized()
    for key, expected in reference.materialized().items():
        assert key in materialized, f"view {key} missing from streamed context"
        assert views_equal(expected, materialized[key]), f"view {key} differs"


@pytest.mark.parametrize("k", [1, 3, 17])
def test_k_batch_parity(k, records, scratch, small_ds):
    stream = StreamingDataset(window=small_ds.window)
    chunk = (len(records) + k - 1) // k
    for i in range(0, len(records), chunk):
        stream.append_batch(records[i : i + chunk])
        touch_views(stream.context())  # exercise the carry on every epoch
    assert stream.dataset().attack_columns_equal(scratch)
    assert_context_parity(stream.context(), scratch)


def test_retained_epochs_stay_exact(records, small_ds):
    """Every kept epoch still matches a scratch build of its own rows.

    The carry grows each snapshot's concatenation views in place, so an
    older epoch's views are prefixes of buffers later appends write to.
    """
    stream = StreamingDataset(window=small_ds.window)
    chunk = (len(records) + 4) // 5
    kept = []
    for i in range(0, len(records), chunk):
        stream.append_batch(records[i : i + chunk])
        ctx = stream.context()
        touch_views(ctx)
        kept.append((ctx, min(i + chunk, len(records))))
    assert len(kept) == 5
    assert np.shares_memory(kept[-1][0].durations(), kept[-2][0].durations())
    for ctx, n in kept:
        assert_context_parity(
            ctx, dataset_from_records(records[:n], window=small_ds.window)
        )


def test_single_record_appends(records, small_ds):
    # The pathological K = n case on a prefix: every append is one record.
    subset = records[:60]
    scratch = dataset_from_records(subset, window=small_ds.window)
    stream = StreamingDataset(window=small_ds.window)
    for rec in subset:
        stream.append_batch([rec])
        touch_views(stream.context())
    assert stream.dataset().attack_columns_equal(scratch)
    assert_context_parity(stream.context(), scratch)


def test_parity_without_touching_views(records, scratch, small_ds):
    # Lazy path: never materialize mid-stream, everything rebuilds cold.
    stream = StreamingDataset(window=small_ds.window)
    chunk = (len(records) + 2) // 3
    for i in range(0, len(records), chunk):
        stream.append_batch(records[i : i + chunk])
    assert stream.dataset().attack_columns_equal(scratch)
    ctx = stream.context()
    touch_views(ctx)
    assert_context_parity(ctx, scratch)


def test_inferred_window_parity(records):
    # No fixed window: both sides must infer the identical padded span.
    stream = StreamingDataset()
    chunk = (len(records) + 4) // 5
    for i in range(0, len(records), chunk):
        stream.append_batch(records[i : i + chunk])
        touch_views(stream.context())
    scratch = dataset_from_records(records)
    assert stream.dataset().window == scratch.window
    assert stream.dataset().attack_columns_equal(scratch)
    assert_context_parity(stream.context(), scratch)


def test_scans_are_carried_exactly(records, small_ds):
    stream = StreamingDataset(window=small_ds.window)
    stream.append_batch(records[:400])
    ctx1 = stream.context()
    collabs1, chains1 = ctx1.collaborations(), ctx1.chains()
    before = copy.deepcopy((collabs1, chains1))
    stream.append_batch(records[400:])
    ctx2 = stream.context()
    # The new epoch's context inherits both scans, stitched at the seam ...
    carried = ctx2.materialized()
    scratch = AnalysisContext(dataset_from_records(records, window=small_ds.window))
    assert views_equal(carried[("collaborations",)], scratch.collaborations())
    assert views_equal(carried[("chains",)], scratch.chains())
    # ... as new lists: the old epoch's context still holds its own.
    assert ctx1.collaborations() is collabs1 and ctx1.chains() is chains1
    assert (collabs1, chains1) == before
