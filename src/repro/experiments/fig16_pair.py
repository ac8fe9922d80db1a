"""Fig 16: the Dirtjumper × Pandora inter-family collaboration campaign."""

from __future__ import annotations

import numpy as np

from ..core.collaboration import pair_analysis
from ..core.context import AnalysisContext, AnalysisSource
from .base import Experiment, ExperimentResult


def run(source: AnalysisSource) -> ExperimentResult:
    ctx = AnalysisContext.of(source)
    result = ExperimentResult("fig16_pair")
    pa = pair_analysis(ctx, "dirtjumper", "pandora")
    result.add("collaboration events", 118, pa.n_events)
    result.add("unique targets", 96, pa.n_targets)
    result.add("target countries", 16, pa.n_countries)
    result.add("target organizations", 58, pa.n_organizations)
    result.add("target ASes", 61, pa.n_asns)
    if pa.top_countries:
        result.add(
            "top country",
            "RU (31)",
            f"{pa.top_countries[0][0]} ({pa.top_countries[0][1]})",
        )
    result.add("dirtjumper mean duration (s)", 5083, f"{pa.mean_duration_a:.0f}")
    result.add("pandora mean duration (s)", 6420, f"{pa.mean_duration_b:.0f}")
    if pa.series:
        mags = np.array([(m_a, m_b) for _t, _da, _db, m_a, m_b in pa.series], dtype=float)
        rel = np.abs(mags[:, 0] - mags[:, 1]) / np.maximum(mags.max(axis=1), 1.0)
        result.add(
            "events with near-equal magnitudes", "most", f"{float(np.mean(rel <= 0.25)):.0%}"
        )
    result.add("campaign span (weeks)", "~16 (Oct-Dec 2012)", f"{pa.span_weeks:.1f}")
    return result


EXPERIMENT = Experiment(
    id="fig16_pair",
    title="Inter-family collaborations: Dirtjumper and Pandora",
    section="V-A (Fig 16)",
    run=run,
)
