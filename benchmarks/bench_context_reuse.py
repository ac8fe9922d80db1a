"""Derived-view reuse across two consecutive experiment batteries.

The point of the :class:`~repro.core.context.AnalysisContext` layer:
the first battery over a dataset pays for every derived view (grouped
attack indices, dispersion series, the collaboration and chain scans);
a second battery over the *same* context finds them all memoized and
should be orders of magnitude faster.  The benchmark runs both batteries
back to back and asserts the reuse actually happened — no view is built
twice, and the rendered output of the two batteries is identical.
"""

import time

from repro.core.context import AnalysisContext
from repro.experiments.registry import run_all


def bench_context_reuse(benchmark, full_ds):
    def two_batteries():
        ctx = AnalysisContext(full_ds)  # unshared: first battery starts cold
        t0 = time.perf_counter()
        first = run_all(ctx)
        cold = time.perf_counter() - t0
        views_after_first = ctx.n_views

        t0 = time.perf_counter()
        second = run_all(ctx)
        warm = time.perf_counter() - t0
        return first, second, views_after_first, ctx.n_views, cold, warm

    first, second, views_first, views_second, cold, warm = benchmark.pedantic(
        two_batteries, rounds=1, iterations=1
    )
    print(f"\ncold battery: {cold:.2f}s  warm battery: {warm:.3f}s  "
          f"views: {views_first}")
    # The second battery adds no views (everything was already derived)
    # and reproduces the first battery's output exactly.
    assert views_second == views_first
    assert [r.render() for r in first] == [r.render() for r in second]
    assert warm < cold / 10
