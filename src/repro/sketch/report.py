"""Plain-text rendering of an :class:`~repro.sketch.AttackStreamSummary`.

The sketch-mode counterpart of :mod:`repro.core.report`: where the exact
reports render from an :class:`~repro.core.context.AnalysisContext`,
this renders straight from a summary's :meth:`estimate` dict — the
``stream.watch --sketch`` screen and the ``/v1/sketch`` endpoint's
human-readable sibling.  The record count and the family and country
counts are exact; the distinct botnet and victim counts and the
quantiles are approximate, and the footer restates their error budget
so a screenshot of the report carries its own caveats.
"""

from __future__ import annotations

__all__ = ["render_sketch_report"]


def _fmt_seconds(value: float) -> str:
    """Render a duration compactly: seconds below 2 min, else minutes/hours."""
    if value != value:  # NaN: empty sketch
        return "-"
    if value < 120:
        return f"{value:.0f}s"
    if value < 7200:
        return f"{value / 60:.1f}m"
    return f"{value / 3600:.1f}h"


def render_sketch_report(summary) -> str:
    """A compact terminal report of a summary's answers.

    >>> from repro.sketch import AttackStreamSummary
    >>> from repro.sketch.report import render_sketch_report
    >>> text = render_sketch_report(AttackStreamSummary())
    >>> text.splitlines()[0]
    'Sketch summary over 0 attacks (approximate)'
    """
    est = summary.estimate()
    contract = summary.contract()
    lines = [
        f"Sketch summary over {est['n_records']} attacks (approximate)",
        "",
        f"distinct botnets ~{est['distinct']['botnets']}  "
        f"victims ~{est['distinct']['victims']}  "
        f"countries {est['distinct']['countries']}",
        "",
        "attacks per family:",
    ]
    families = sorted(est["families"].items(), key=lambda kv: (-kv[1], kv[0]))
    for fam, count in families[:12]:
        lines.append(f"  {fam:<16} {count}")
    if len(families) > 12:
        lines.append(f"  ... and {len(families) - 12} more families")
    lines.append("")
    lines.append("top target countries:")
    for code, count in est["top_countries"].items():
        lines.append(f"  {code:<4} {count}")
    dur = est["duration_seconds"]
    gap = est["interval_seconds"]
    lines += [
        "",
        "duration   p50 {}  p90 {}  p99 {}".format(
            _fmt_seconds(dur["p50"]), _fmt_seconds(dur["p90"]),
            _fmt_seconds(dur["p99"]),
        ),
        "interarrival p50 {}  p90 {}  p99 {}".format(
            _fmt_seconds(gap["p50"]), _fmt_seconds(gap["p90"]),
            _fmt_seconds(gap["p99"]),
        ),
        "",
        "error budget: hll +-{:.2%} rse; kll rank +-{:.2%}".format(
            contract["hll"]["relative_standard_error"],
            contract["kll"]["rank_error"],
        ),
        f"resident sketch memory: {summary.memory_bytes() / 1024:.0f} KiB",
    ]
    return "\n".join(lines)
