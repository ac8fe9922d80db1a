"""Fig 3: attack-interval CDF, all attacks and family-confined."""

from __future__ import annotations

import numpy as np

from ..core.context import AnalysisContext, AnalysisSource
from ..core.intervals import attack_intervals, interval_summary, simultaneous_attacks
from .base import Experiment, ExperimentResult

#: The family whose interval statistics Fig 3 quotes.
SUMMARY_FAMILY = "dirtjumper"


def run(source: AnalysisSource) -> ExperimentResult:
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    result = ExperimentResult("fig3_intervals")
    gaps = attack_intervals(ctx)
    all_zero = float(np.mean(gaps == 0)) if gaps.size else 0.0
    result.add("simultaneous fraction (all families)", ">0.55", f"{all_zero:.2f}")

    fam_fracs = []
    for family in ds.active_families:
        fam_gaps = ctx.family_intervals(family)
        if fam_gaps.size:
            fam_fracs.append(float(np.mean(fam_gaps == 0)))
    result.add(
        "simultaneous fraction (per family, max)",
        ">0.50",
        f"{max(fam_fracs):.2f}" if fam_fracs else "n/a",
    )
    summary = interval_summary(ctx, family=SUMMARY_FAMILY)
    result.add(f"{SUMMARY_FAMILY} mean interval (s)", None, f"{summary.stats.mean:.0f}")
    result.add(f"{SUMMARY_FAMILY} p80 interval (s)", None, f"{summary.p80_seconds:.0f}")
    # The empirical CDF at one point, without sorting the gaps.
    result.add(
        "CDF at 1081 s (all attacks)", "0.80 (family-based)",
        f"{np.count_nonzero(gaps <= 1081.0) / gaps.size:.2f}",
    )
    sim = simultaneous_attacks(ctx)
    result.add("single-family simultaneous events", 3692, sim.single_family_events)
    result.add("multi-family simultaneous events", 956, sim.multi_family_events)
    if sim.pair_counts:
        (a, b), count = sim.pair_counts[0]
        result.add("top simultaneous pair", "dirtjumper+blackenergy (391)", f"{a}+{b} ({count})")
    result.notes = "zero-gap mass and long tail are the contract; event counts are stochastic"
    return result


EXPERIMENT = Experiment(
    id="fig3_intervals",
    title="Attack interval CDF (all vs per family)",
    section="III-B (Fig 3)",
    run=run,
)
