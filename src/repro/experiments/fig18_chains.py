"""Fig 18: consecutive attacks over time with magnitudes."""

from __future__ import annotations

import numpy as np

from ..core.consecutive import chain_magnitude_spread, chain_summary
from ..core.context import AnalysisContext, AnalysisSource
from ..simulation.clock import to_datetime
from .base import Experiment, ExperimentResult


def run(source: AnalysisSource) -> ExperimentResult:
    ctx = AnalysisContext.of(source)
    result = ExperimentResult("fig18_chains")
    chains = ctx.chains()
    if not len(chains):
        result.add("chains detected", ">0", 0)
        return result
    summary = chain_summary(ctx, chains)
    result.add("longest chain length", 22, summary.longest_chain_length)
    result.add("longest chain family", "ddoser", summary.longest_chain_family)
    result.add(
        "longest chain duration (min)", ">18", f"{summary.longest_chain_duration / 60.0:.1f}"
    )
    result.add(
        "longest chain date",
        "2012-08-30",
        to_datetime(summary.longest_chain_start).strftime("%Y-%m-%d"),
    )
    # chain_timeline plots one dot per chained attack.
    result.add("timeline dots", None, int(chains.rows.size))
    # Magnitude stability within chains (except Dirtjumper's outliers).
    stable = np.count_nonzero(chain_magnitude_spread(ctx, chains) <= 0.3)
    result.add(
        "chains with stable magnitudes", "most", f"{stable}/{len(chains)}"
    )
    return result


EXPERIMENT = Experiment(
    id="fig18_chains",
    title="Consecutive attacks over time",
    section="V-B (Fig 18)",
    run=run,
)
