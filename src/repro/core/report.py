"""Plain-text rendering of the paper's tables and figure series.

The benchmark harness and the CLI use these renderers to print the same
rows the paper reports, side by side with the paper's own numbers where
available.

Every renderer coerces its source to the shared
:class:`~repro.core.context.AnalysisContext` once and passes the context
down, so consecutive renders over one dataset reuse the memoized views
(the Table V loop, for instance, shares the grouped attack index with
everything else that ran before it).
"""

from __future__ import annotations

from ..monitor.schemas import Protocol
from .collaboration import collaboration_table
from .context import AnalysisContext, AnalysisSource
from .durations import duration_summary
from .intervals import interval_summary
from .overview import (
    daily_attack_counts,
    protocol_breakdown,
    protocol_popularity,
    workload_summary,
)
from .targets import country_breakdown, top_target_countries

__all__ = [
    "format_table",
    "render_workload_summary",
    "render_protocol_table",
    "render_country_table",
    "render_collaboration_table",
    "render_headline",
]


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render an aligned plain-text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows])


def render_workload_summary(source: AnalysisSource) -> str:
    """Table III as text."""
    s = workload_summary(AnalysisContext.of(source))
    rows = [
        ["# of bot_ips", str(s.attackers.n_ips), "# of target_ip", str(s.victims.n_ips)],
        ["# of cities", str(s.attackers.n_cities), "# of cities", str(s.victims.n_cities)],
        ["# of countries", str(s.attackers.n_countries), "# of countries", str(s.victims.n_countries)],
        ["# of organizations", str(s.attackers.n_organizations), "# of organizations", str(s.victims.n_organizations)],
        ["# of asn", str(s.attackers.n_asns), "# of asn", str(s.victims.n_asns)],
        ["# of ddos_id", str(s.n_attacks), "", ""],
        ["# of botnet_id", str(s.n_botnets), "", ""],
        ["# of traffic types", str(s.n_traffic_types), "", ""],
    ]
    return format_table(["attackers", "count", "victims", "count"], rows)


def render_protocol_table(source: AnalysisSource) -> str:
    """Table II as text (plus the Fig 1 totals)."""
    ctx = AnalysisContext.of(source)
    rows = [
        [proto.name, family, str(count)]
        for proto, family, count in protocol_breakdown(ctx)
    ]
    totals = protocol_popularity(ctx)
    footer = [
        ["<total>", proto.name, str(totals[proto])]
        for proto in Protocol
        if totals[proto]
    ]
    return format_table(["protocol", "botnet family", "# of attacks"], rows + footer)


def render_country_table(source: AnalysisSource, top_n: int = 5) -> str:
    """Table V as text."""
    ctx = AnalysisContext.of(source)
    rows: list[list[str]] = []
    for family in ctx.dataset.active_families:
        if ctx.family_attacks(family).size == 0:
            continue
        breakdown = country_breakdown(ctx, family, top_n=top_n)
        for j, (code, count) in enumerate(breakdown.top):
            rows.append(
                [
                    family if j == 0 else "",
                    str(breakdown.n_countries) if j == 0 else "",
                    code,
                    str(count),
                ]
            )
    return format_table(["family", "countries", "top", "count"], rows)


def render_collaboration_table(source: AnalysisSource) -> str:
    """Table VI as text."""
    table = collaboration_table(AnalysisContext.of(source))
    families = sorted(table)
    rows = [
        ["Intra-Family"] + [str(table[f]["intra"]) for f in families],
        ["Inter-Family"] + [str(table[f]["inter"]) for f in families],
    ]
    return format_table(["collaboration type"] + families, rows)


def render_headline(source: AnalysisSource) -> str:
    """The abstract's headline numbers, plus interval/duration summaries."""
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    daily = daily_attack_counts(ctx)
    iv = interval_summary(ctx)
    du = duration_summary(ctx)
    top = ", ".join(f"{cc}:{n}" for cc, n in top_target_countries(ctx))
    lines = [
        f"attacks: {ds.n_attacks}  botnets: {len(ds.botnets)}  "
        f"families: {len(ds.active_families)} active / {len(ds.families)} tracked",
        f"victims: {ds.victims.n_targets} IPs  bots: {ds.bots.n_bots} IPs",
        f"daily attacks: mean {daily.mean_per_day:.0f}, max {daily.max_per_day} "
        f"on {daily.max_day_label} (top family: {daily.max_day_top_family})",
        f"intervals: {iv.simultaneous_fraction:.0%} simultaneous, "
        f"80% < {iv.p80_seconds:.0f}s, mean {iv.stats.mean:.0f}s, "
        f"longest {iv.longest_days:.1f} days",
        f"durations: mean {du.stats.mean:.0f}s, median {du.stats.median:.0f}s, "
        f"80% < {du.stats.p80 / 3600.0:.1f}h, <60s share {du.under_60s_fraction:.1%}",
        f"top target countries: {top}",
    ]
    return "\n".join(lines)
