"""Figs 6-7: attack durations (timeline + CDF)."""

from __future__ import annotations

import numpy as np

from ..core.context import AnalysisContext, AnalysisSource
from ..core.durations import duration_summary
from .base import Experiment, ExperimentResult


def run(source: AnalysisSource) -> ExperimentResult:
    ctx = AnalysisContext.of(source)
    result = ExperimentResult("fig7_durations")
    s = duration_summary(ctx)
    result.add("mean duration (s)", 10308, f"{s.stats.mean:.0f}")
    result.add("median duration (s)", 1766, f"{s.stats.median:.0f}")
    result.add("std of duration (s)", 18475, f"{s.stats.std:.0f}")
    result.add("p80 duration (h)", "3.86 (13882 s)", f"{s.p80_hours:.2f}")
    result.add("share under 60 s", "<0.10", f"{s.under_60s_fraction:.2f}")
    result.add("share under 4 h", "~0.80", f"{s.under_4h_fraction:.2f}")
    durations = ctx.durations()
    in_band = float(np.mean((durations >= 100.0) & (durations <= 10000.0)))
    result.add("Fig 6 band 100-10000 s share", "majority", f"{in_band:.2f}")
    # Fig 6's timeline uses the daily histogram's day index.
    days_covered = np.count_nonzero(ctx.daily_distribution().counts)
    result.add("timeline days covered", None, days_covered)
    return result


EXPERIMENT = Experiment(
    id="fig7_durations",
    title="Attack duration distribution",
    section="III-C (Figs 6-7)",
    run=run,
)
