"""Fig 17: CDF of gaps between consecutive (multistage) attacks."""

from __future__ import annotations

from ..core.consecutive import chain_summary
from ..core.context import AnalysisContext, AnalysisSource
from .base import Experiment, ExperimentResult


def run(source: AnalysisSource) -> ExperimentResult:
    ctx = AnalysisContext.of(source)
    result = ExperimentResult("fig17_consecutive")
    chains = ctx.chains()
    if not len(chains):
        result.add("chains detected", ">0", 0)
        return result
    summary = chain_summary(ctx, chains)
    result.add("chains detected", None, summary.n_chains)
    result.add("intra-family only", "true", str(summary.intra_family_only).lower())
    result.add(
        "families with chains",
        "darkshell, ddoser, dirtjumper, nitol",
        ", ".join(summary.families),
    )
    result.add("gaps <= 10 s", "~0.65", f"{summary.under_10s_fraction:.2f}")
    result.add("gaps <= 30 s", "~0.80", f"{summary.under_30s_fraction:.2f}")
    result.add("gap median (s)", 3, f"{summary.gap_median:.1f}")
    result.add("gap std (s)", 23, f"{summary.gap_std:.1f}")
    return result


EXPERIMENT = Experiment(
    id="fig17_consecutive",
    title="Distribution of consecutive-attack intervals",
    section="V-B (Fig 17)",
    run=run,
)
