"""Attack-duration analyses (§III-C, Figs 6-7).

The duration of an attack is ``end_time - timestamp``.  The paper's
headline numbers: mean 10,308 s, median 1,766 s, std 18,475 s, 80 % of
attacks under 13,882 s (≈ 4 hours) — the suggested detection window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import AnalysisContext, AnalysisSource
from .stats import SeriesSummary, ecdf, summarize

__all__ = [
    "durations",
    "DurationSummary",
    "duration_summary",
    "duration_cdf",
    "duration_timeline",
]


def durations(source: AnalysisSource, family: str | None = None) -> np.ndarray:
    """Per-attack durations in seconds, optionally for one family."""
    return AnalysisContext.of(source).durations(family)


@dataclass(frozen=True)
class DurationSummary:
    """§III-C headline statistics plus the four-hour share."""

    stats: SeriesSummary
    under_60s_fraction: float
    under_4h_fraction: float
    p80_hours: float


def duration_summary(source: AnalysisSource, family: str | None = None) -> DurationSummary:
    """Fig 7's quoted statistics for the duration distribution."""
    ctx = AnalysisContext.of(source)
    d = ctx.durations(family)
    if d.size == 0:
        raise ValueError("no attacks to summarise")
    key = ("durations",) if family is None else ("durations", family)
    stats = summarize(d, ctx.rank_windows(key))
    return DurationSummary(
        stats=stats,
        under_60s_fraction=float(np.mean(d < 60.0)),
        under_4h_fraction=float(np.mean(d < 4 * 3600.0)),
        p80_hours=stats.p80 / 3600.0,
    )


def duration_cdf(
    source: AnalysisSource, family: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fig 7: the empirical CDF of attack durations."""
    d = durations(source, family)
    if d.size == 0:
        raise ValueError("no attacks to summarise")
    return ecdf(d)


def duration_timeline(source: AnalysisSource) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fig 6: (day index, duration, family index) per attack over time.

    Attacks are in the dataset's row order: chronological, with
    simultaneous attacks in the order the dataset was built (the
    builders sort by ``(start, botnet_id)``, the generator keeps its
    stable start sort), mirroring the paper's plotting convention.
    """
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    days = ((ds.start - ds.window.start) // 86400).astype(np.int64)
    return days, ctx.durations(), ds.family_idx.astype(np.int64)
