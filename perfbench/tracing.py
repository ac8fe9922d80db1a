"""Layer spans traced from outside the program.

:data:`LAYER_TABLE` maps each layer to the public callables the traced
run wraps.  Each wrapper opens a span around the call; nothing under
``src/`` changes.  Only attributes that callers look up at call time can
be wrapped this way, so every entry is a class method, a module attribute
that its callers reach through the module, or (for experiments) the
``run`` attribute of each registered :class:`Experiment` instance.

A span records its name, layer, start, end, parent and the id of the
answer or request it belongs to.  The parent is the innermost span open
at its start in any thread: the workloads are single-client closed
loops, so a server thread or the service's writer thread only works while
the client waits on it, and their spans nest under the client's.  Spans
stay in memory; :meth:`Tracer.dump` writes them out at the end.
:func:`summarize` turns one repetition's spans into the per-layer
metrics: inclusive seconds per traced callable, self seconds per layer
(a span's duration minus the part its children cover), counts, and the
share of the repetition that named layer spans account for.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from pathlib import Path

#: Experiment ids, in the registry's paper order.
EXPERIMENT_IDS = (
    "table2_protocols", "table3_summary", "fig2_daily", "fig3_intervals",
    "fig4_interval_clusters", "fig5_family_cdf", "fig7_durations", "fig8_shift",
    "fig9_geo_cdf", "fig10_11_histograms", "table4_prediction",
    "table5_countries", "fig14_orgs", "table6_collaboration", "fig15_intra",
    "fig16_pair", "fig17_consecutive", "fig18_chains",
)

#: Layer self times reported as ``self.<layer>_s``.  ``http`` is the
#: client's request time outside the tenant call (``serve.http_s``) and
#: ``bench`` is repetition time no layer span covers.
LAYERS = (
    "io", "context", "merge", "experiments", "timeseries", "stream",
    "sketch", "serve", "bench",
)


def _layer_table():
    """``(layer, span name, owner, attribute)`` for every plain wrap."""
    from repro import api
    from repro.core import merge
    from repro.core.context import AnalysisContext, ShardedAnalysisContext
    from repro.experiments import registry
    from repro.io import colstore
    from repro.serve.tenants import Tenant
    from repro.sketch import AttackStreamSummary
    from repro.stream import StreamingDataset
    from repro.timeseries.arima import ARIMA, ARIMAFit

    import loadgen

    return [
        ("io", "io.load", api, "load"),
        ("io", "io.load", colstore.ShardedDatasetStore, "load_shard"),
        ("io", "io.append_shard", colstore, "append_shard"),
        ("context", "context.shard_build", ShardedAnalysisContext, "build_shard"),
        ("context", "context.snapshot_interior", ShardedAnalysisContext,
         "shard_snapshot_dispersions"),
        ("context", "context.scan_events", ShardedAnalysisContext, "shard_scan_events"),
        ("context", "context.prewarm", AnalysisContext, "prewarm"),
        ("merge", "merge.combine", merge, "combine_partials"),
        ("experiments", "experiments.battery", registry, "run_all"),
        ("timeseries", "timeseries.fit", ARIMA, "fit"),
        ("timeseries", "timeseries.fit", ARIMAFit, "rolling_forecast"),
        ("stream", "stream.append", StreamingDataset, "append_batch"),
        ("stream", "stream.context", StreamingDataset, "context"),
        ("sketch", "sketch.update", AttackStreamSummary, "update_arrays"),
        ("sketch", "sketch.snapshot", StreamingDataset, "sketch_snapshot"),
        ("serve", "serve.ingest", Tenant, "ingest"),
        ("serve", "serve.render", Tenant, "experiments"),
        ("http", "serve.http", loadgen, "_call"),
    ]


class Tracer:
    """In-memory span recorder plus the wraps that feed it."""

    def __init__(self) -> None:
        #: ``[name, layer, start, end, parent index, request id]``.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: The answer or request the next spans belong to.
        self.rid: str | None = None
        self._open: list[int] = []
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        start = time.perf_counter()
        with self._lock:
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, layer, start, None, parent, self.rid])
            self._open.append(index)
        return index

    def end(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index][3] = end
            self._open.remove(index)

    def traced(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    # -- installing the wraps ------------------------------------------------

    def _patch(self, owner, attr: str, value, setter=setattr) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr], setter))
        setter(owner, attr, value)

    def install(self) -> None:
        """Wrap every callable of the layer table (undone by :meth:`uninstall`)."""
        if self._undo:
            return
        from repro.core.context import AnalysisContext, ShardedAnalysisContext
        from repro.experiments.base import ExperimentResult
        from repro.experiments.registry import ALL_EXPERIMENTS
        from repro.stream import incremental

        for layer, name, owner, attr in _layer_table():
            self._patch(owner, attr, self.traced(name, layer, owner.__dict__[attr]))

        tracer = self
        view = AnalysisContext.view

        def traced_view(ctx, key, build):
            def counted_build():
                tracer.counts["context.views_built"] += 1
                return tracer.traced("context.view_build", "context", build)()

            return view(ctx, key, counted_build)

        self._patch(AnalysisContext, "view", traced_view)

        merged = ShardedAnalysisContext.merged

        def traced_merged(sctx, *args, **kwargs):
            fresh = sctx._merged is None
            out = tracer.traced("merge.merged", "merge", merged)(sctx, *args, **kwargs)
            if fresh and sctx.last_merge_stats:
                for key in ("levels", "reused", "combined"):
                    tracer.counts[f"merge.{key}"] += int(sctx.last_merge_stats[key])
            return out

        self._patch(ShardedAnalysisContext, "merged", traced_merged)

        carry = incremental.carry_views

        def traced_carry(old_ctx, new_ctx):
            before = old_ctx.n_views
            seeded = tracer.traced("stream.carry", "stream", carry)(old_ctx, new_ctx)
            tracer.counts["stream.views_carried"] += seeded
            tracer.counts["stream.views_invalidated"] += before - seeded
            return seeded

        self._patch(incremental, "carry_views", traced_carry)

        render = ExperimentResult.render

        def traced_render(result):
            name = f"experiments.{result.experiment_id}"
            return tracer.traced(name, "experiments", render)(result)

        self._patch(ExperimentResult, "render", traced_render)

        # Experiment is a frozen dataclass whose ``run`` is an instance
        # field, read by the registry at call time.
        for experiment in ALL_EXPERIMENTS:
            run = self.traced(f"experiments.{experiment.id}", "experiments", experiment.run)
            self._undo.append((experiment, "run", experiment.run, object.__setattr__))
            object.__setattr__(experiment, "run", run)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, setter = self._undo.pop()
            setter(owner, attr, original)

    # -- output ------------------------------------------------------------

    def take(self) -> tuple[list[list], Counter]:
        """Hand over (and forget) the spans and counts recorded so far."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], Counter()
        return spans, counts

    @staticmethod
    def dump(spans: list[list], path: Path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "rid")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in spans]))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def summarize(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one repetition's spans (see module docstring).

    Span names of the layer table become ``<name>_s`` (inclusive, counted
    once per outermost call), ``merge.merged`` splits into
    ``merge.merge_s`` and ``merge.remerge_s`` by the phase in the request
    id, layers become ``self.<layer>_s`` and ``trace.coverage`` is the
    share of the repetition's root spans covered by layer spans.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[4] is not None:
            children.setdefault(span[4], []).append(index)

    out: dict[str, float] = Counter()
    roots = 0.0
    for index, (name, layer, start, end, parent, rid) in enumerate(spans):
        duration = end - start
        kids = [(spans[k][2], spans[k][3]) for k in children.get(index, ())]
        self_s = max(0.0, duration - _union_length(kids))
        if layer == "http":
            out["serve.http_s"] += self_s
        else:
            out[f"self.{layer}_s"] += self_s
        if layer == "bench":
            roots += duration
        if layer in ("bench", "http"):
            continue
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][4]
        if ancestor is not None:
            continue  # counted with its outermost same-name span
        if name == "merge.merged":
            phase = "remerge" if rid and ":reanswer" in rid else "merge"
            out[f"merge.{phase}_s"] += duration
        else:
            out[f"{name}_s"] += duration
    out.update(counts)
    out["trace.spans"] = len(spans)
    out["trace.coverage"] = 1.0 - out["self.bench_s"] / roots if roots else 0.0
    return dict(out)
