"""The full experiment battery through one shared AnalysisContext.

Times ``run_all`` cold (fresh, unshared context — every derived view is
computed from scratch) at the paper scale.  This is the headline number
for the shared-view refactor: the 18 experiments used to re-derive the
collaboration scan, the chain scan and every per-family dispersion
series independently; now each is computed once per battery.
"""

from repro.core.context import AnalysisContext
from repro.experiments.registry import run_all


def bench_run_all_cold(benchmark, full_ds):
    results = benchmark.pedantic(
        lambda: run_all(AnalysisContext(full_ds)), rounds=1, iterations=1
    )
    assert len(results) == 18
    assert results[0].experiment_id == "table2_protocols"
    assert results[-1].experiment_id == "fig18_chains"
