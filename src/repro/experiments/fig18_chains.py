"""Fig 18: consecutive attacks over time with magnitudes."""

from __future__ import annotations

import numpy as np

from ..core.consecutive import (
    chain_magnitude_spread,
    chain_summary,
    chain_timeline,
    detect_chains,
)
from ..core.context import AnalysisContext, AnalysisSource
from ..simulation.clock import to_datetime
from .base import Experiment, ExperimentResult


def run(source: AnalysisSource) -> ExperimentResult:
    ctx = AnalysisContext.of(source)
    result = ExperimentResult("fig18_chains")
    chains = detect_chains(ctx)
    if not chains:
        result.add("chains detected", ">0", 0)
        return result
    summary = chain_summary(ctx, chains)
    longest = max(chains, key=lambda c: c.length)
    result.add("longest chain length", 22, summary.longest_chain_length)
    result.add("longest chain family", "ddoser", summary.longest_chain_family)
    result.add(
        "longest chain duration (min)", ">18", f"{summary.longest_chain_duration / 60.0:.1f}"
    )
    result.add(
        "longest chain date",
        "2012-08-30",
        to_datetime(longest.start).strftime("%Y-%m-%d"),
    )
    dots = chain_timeline(ctx, chains)
    result.add("timeline dots", None, len(dots))
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
