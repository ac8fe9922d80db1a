"""Registry of every reproduced table and figure.

:func:`run_all` is the battery entry point.  It coerces the source to
one shared :class:`~repro.core.context.AnalysisContext` so derived views
(grouped attack indices, dispersion series, collaboration/chain scans)
are computed once across the whole battery.  Results come back in paper
order.

:func:`battery_views` is the one list of the derived views the battery
reads.  Shard builds, the shard merge, prewarm and the stream carry all
derive the views they build or extend from it; a view not on it builds
lazily, when something asks for it.
"""

from __future__ import annotations

from typing import Iterable

from ..core.context import AnalysisContext, AnalysisSource
from ..obs import registry as _obs_registry
from .base import Experiment, ExperimentResult
from .fig2_daily import EXPERIMENT as FIG2
from .fig3_intervals import EXPERIMENT as FIG3
from .fig3_intervals import SUMMARY_FAMILY as FIG3_FAMILY
from .fig4_interval_clusters import EXPERIMENT as FIG4
from .fig5_family_cdf import EXPERIMENT as FIG5
from .fig7_durations import EXPERIMENT as FIG7
from .fig8_shift import EXPERIMENT as FIG8
from .fig9_geo_cdf import EXPERIMENT as FIG9
from .fig10_11_histograms import EXPERIMENT as FIG10_11
from .fig14_orgs import EXPERIMENT as FIG14
from .fig15_intra import EXPERIMENT as FIG15
from .fig16_pair import EXPERIMENT as FIG16
from .fig17_consecutive import EXPERIMENT as FIG17
from .fig18_chains import EXPERIMENT as FIG18
from .table2_protocols import EXPERIMENT as TABLE2
from .table3_summary import EXPERIMENT as TABLE3
from .table4_prediction import EXPERIMENT as TABLE4
from .table4_prediction import PAPER_TABLE4
from .table5_countries import EXPERIMENT as TABLE5
from .table6_collaboration import EXPERIMENT as TABLE6

__all__ = ["ALL_EXPERIMENTS", "battery_views", "get_experiment", "run_all"]

ALL_EXPERIMENTS: tuple[Experiment, ...] = (
    TABLE2,
    TABLE3,
    FIG2,
    FIG3,
    FIG4,
    FIG5,
    FIG7,
    FIG8,
    FIG9,
    FIG10_11,
    TABLE4,
    TABLE5,
    FIG14,
    TABLE6,
    FIG15,
    FIG16,
    FIG17,
    FIG18,
)


#: The views of the whole dataset the battery reads.  ``target_links``
#: is read by no experiment: the scans' extend step probes it.
_GLOBAL_VIEWS: tuple[tuple, ...] = (
    ("family_attack_index",),
    ("bot_coords_radians",),
    ("durations",),
    ("rank_windows", ("durations",)),
    ("attack_intervals",),
    ("target_country_idx",),
    ("target_org_idx",),
    ("target_country_counts",),
    ("target_org_counts",),
    ("victim_org_type_counts",),
    ("protocol_breakdown",),
    ("protocol_popularity",),
    ("daily_distribution", None),
    ("workload_summary",),
    ("simultaneous_attacks",),
    ("target_links",),
    ("collaborations",),
    ("chains",),
)


def battery_views(families: Iterable[str]) -> list[tuple]:
    """The keys of the views the battery reads over ``families``.

    The whole-dataset views come first, then each family's in the given
    order.  Each key comes after the views its build or extend step
    reads on the same context: the target links before the scans, a
    family's gaps before its interval buckets, the weekly pairs before
    the weekly shift, a series before its rank windows.  Table IV's
    forecasts are listed for its families, Fig 3's interval windows for
    its one family; the dispersions of families too small for Figs 9-11
    and the forecasts that raise for lack of points are the only keys
    listed that a run may not read.
    """
    keys = list(_GLOBAL_VIEWS)
    for family in families:
        keys += [
            ("family_starts", family),
            ("family_intervals", family, True),
            ("family_intervals", family, False),
            ("interval_buckets", family),
            ("family_participants", family),
            ("attack_dispersions", family),
            ("family_target_country_counts", family),
            ("weekly_shift_pairs", family),
            ("weekly_shift", family),
        ]
        if family == FIG3_FAMILY:
            keys.append(("rank_windows", ("family_intervals", family, True)))
        if family in PAPER_TABLE4:
            keys.append(("dispersion_forecast", family))
    return keys


def get_experiment(experiment_id: str) -> Experiment:
    """Look an experiment up by id (e.g. ``"table4_prediction"``)."""
    for experiment in ALL_EXPERIMENTS:
        if experiment.id == experiment_id:
            return experiment
    known = ", ".join(e.id for e in ALL_EXPERIMENTS)
    raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")


def run_all(source: AnalysisSource) -> list[ExperimentResult]:
    """Run every experiment against one shared context, in paper order.

    The battery is observable: every experiment runs under its own stage
    span nested in an ``experiments`` stage, and
    ``experiments.completed`` counts finished experiments — see
    ``docs/OBSERVABILITY.md``.
    """
    ctx = AnalysisContext.of(source)
    reg = _obs_registry()
    completed = reg.counter("experiments.completed")
    results = []
    with reg.span("experiments"):
        for experiment in ALL_EXPERIMENTS:
            with reg.span(experiment.id):
                results.append(experiment.run(ctx))
            completed.inc()
    return results
