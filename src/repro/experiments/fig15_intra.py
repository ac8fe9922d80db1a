"""Fig 15: Dirtjumper's intra-family collaboration structure."""

from __future__ import annotations

from ..core.collaboration import intra_family_stats
from ..core.context import AnalysisContext, AnalysisSource
from .base import Experiment, ExperimentResult


def run(source: AnalysisSource) -> ExperimentResult:
    ctx = AnalysisContext.of(source)
    result = ExperimentResult("fig15_intra")
    stats = intra_family_stats(ctx, "dirtjumper")
    result.add("dirtjumper intra-family events", 756, stats.n_events)
    result.add(
        "mean botnets per collaboration", "2.19", f"{stats.mean_botnets_per_event:.2f}"
    )
    result.add(
        "events with equal magnitudes ('same bar height')",
        "most",
        f"{stats.equal_magnitude_fraction:.0%}",
    )
    result.add("plotted (time, botnet, magnitude) points", None, len(stats.points))
    return result


EXPERIMENT = Experiment(
    id="fig15_intra",
    title="Intra-family collaborations of Dirtjumper",
    section="V-A (Fig 15)",
    run=run,
)
