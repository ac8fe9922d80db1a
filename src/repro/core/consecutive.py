"""Multistage (consecutive) attack detection (§V-B, Figs 17-18).

The second collaboration form: attacks on the same target that happen
*one after another* — the next attack starts at the end of the previous
one, within a 60-second margin of overlap or gap.  The paper finds this
form only intra-family (Darkshell, Ddoser, Dirtjumper, Nitol), with a
longest chain of 22 consecutive Ddoser attacks and ~80 % of consecutive
gaps under 30 seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import AnalysisContext, AnalysisSource
from .scans import ScanEvents, in_scan_order
from .stats import ecdf, sorted_unique

__all__ = [
    "CHAIN_MARGIN_SECONDS",
    "AttackChain",
    "detect_chains",
    "attack_chains",
    "ChainSummary",
    "chain_summary",
    "consecutive_gap_cdf",
    "chain_timeline",
    "chain_magnitude_spread",
]

CHAIN_MARGIN_SECONDS = 60.0


@dataclass(frozen=True)
class AttackChain:
    """A maximal run of consecutive attacks on one target."""

    attack_indices: tuple[int, ...]
    target_index: int
    families: tuple[str, ...]
    start: float
    end: float
    #: Gap between each attack's end and the next attack's start (may be
    #: slightly negative for overlaps within the margin).
    gaps: tuple[float, ...]

    @property
    def length(self) -> int:
        return len(self.attack_indices)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_intra_family(self) -> bool:
        return len(set(self.families)) == 1


def detect_chains(
    source: AnalysisSource,
    margin: float = CHAIN_MARGIN_SECONDS,
    min_length: int = 2,
) -> list[AttackChain]:
    """Find maximal consecutive-attack chains on every target.

    Attacks on a target are scanned in start order; attack *B* continues
    a chain ending with attack *A* when ``B.start`` falls within
    ``margin`` of ``A.end`` (on either side).  Simultaneous attacks
    (identical starts) are concurrent collaborations, not stages, and do
    not link.

    The chains come as a list of :class:`AttackChain`, built in bulk
    from the columnar scan.  Under the default margin and length the
    list is memoized on the shared :class:`AnalysisContext`, next to
    the scan itself (``ctx.chains()``, a
    :class:`~repro.core.scans.ScanEvents`), which Figs 17-18 read
    without building the list.
    """
    ctx = AnalysisContext.of(source)
    if margin == CHAIN_MARGIN_SECONDS and min_length == 2:
        return ctx.view(("chain_list",), lambda: attack_chains(ctx.dataset, ctx.chains()))
    return attack_chains(ctx.dataset, _detect_chains(ctx.dataset, margin, min_length))


def _detect_chains(
    ds, margin: float, min_length: int, order: np.ndarray | None = None
) -> ScanEvents:
    """The raw scan behind :func:`detect_chains`.

    A sweep-line kernel: in ``(target, start)`` order (``order``, the
    context's shared
    :meth:`~repro.core.context.AnalysisContext.target_order`, or the
    kernel's own lexsort when none is given), attack ``k``
    links to its immediate predecessor exactly when they share a target,
    ``start[k]`` is within ``margin`` of ``end[k-1]`` and the starts are
    more than a second apart (simultaneous attacks are collaborations,
    not stages).  Chains are the maximal linked runs, so one adjacent
    link mask plus a ``cumsum`` segment labelling replaces the
    per-attack Python walk, and the runs of ``min_length`` or more rows
    are the events as they lie in the sweep.  Pinned equal to that
    walk, kept in ``tests/oracles/kernels.py``, by the parity tests.
    """
    n = ds.n_attacks
    if n == 0:
        return ScanEvents.empty()
    if order is None:
        order = np.lexsort((ds.start, ds.target_idx))
    targets = ds.target_idx[order]
    starts = ds.start[order]
    ends = ds.end[order]

    linked = (
        (targets[1:] == targets[:-1])
        & (np.abs(starts[1:] - ends[:-1]) <= margin)
        & (starts[1:] - starts[:-1] > 1.0)
    )
    new_chain = np.empty(n, dtype=bool)
    new_chain[0] = True
    new_chain[1:] = ~linked
    chain_id = np.cumsum(new_chain) - 1
    chain_sizes = np.diff(np.append(np.flatnonzero(new_chain), n))
    long = chain_sizes >= min_length
    events = ScanEvents.from_sizes(order[long[chain_id]], chain_sizes[long])
    return in_scan_order(ds, events)


def attack_chains(ds, events: ScanEvents) -> list[AttackChain]:
    """``events`` as :class:`AttackChain` objects, in bulk.

    A chain's gaps are ``start[rows[1:]] - end[rows[:-1]]`` inside it,
    the kernel's own subtraction.
    """
    if not len(events):
        return []
    rows = events.rows
    names = np.asarray(ds.families, dtype=object)
    indices = rows.tolist()
    families = names[ds.family_idx[rows]].tolist()
    gaps = (ds.start[rows[1:]] - ds.end[rows[:-1]]).tolist()
    bounds = events.offsets.tolist()
    heads = events.heads
    out: list[AttackChain] = []
    for target, start, end, lo, hi in zip(
        ds.target_idx[heads].tolist(),
        ds.start[heads].tolist(),
        ds.end[events.tails].tolist(),
        bounds,
        bounds[1:],
    ):
        out.append(
            AttackChain(
                attack_indices=tuple(indices[lo:hi]),
                target_index=target,
                families=tuple(families[lo:hi]),
                start=start,
                end=end,
                gaps=tuple(gaps[lo : hi - 1]),
            )
        )
    return out


def _scan(ctx: AnalysisContext, chains) -> ScanEvents:
    """The chains a render reads: the context's own scan by default."""
    return ctx.chains() if chains is None else ScanEvents.of(chains)


def _gaps(ds, chains: ScanEvents) -> np.ndarray:
    """Every chain's consecutive gaps, chain by chain."""
    rows = chains.rows
    return (ds.start[rows[1:]] - ds.end[rows[:-1]])[chains.inner()]


@dataclass(frozen=True)
class ChainSummary:
    """§V-B headline numbers."""

    n_chains: int
    families: list[str]
    intra_family_only: bool
    longest_chain_length: int
    longest_chain_family: str
    longest_chain_duration: float
    #: Start time of the longest chain (the first, on a tie).
    longest_chain_start: float
    gap_mean: float
    gap_median: float
    gap_std: float
    under_10s_fraction: float
    under_30s_fraction: float


def chain_summary(
    source: AnalysisSource, chains: ScanEvents | list[AttackChain] | None = None
) -> ChainSummary:
    """Summarise detected chains the way §V-B reports them.

    Every number is a reduction over the chains' rows: the gaps, the
    family set, whether each chain keeps its first row's family, and
    the longest chain (the first of the longest).
    """
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    chains = _scan(ctx, chains)
    if not len(chains):
        raise ValueError("no consecutive-attack chains detected")
    gaps = _gaps(ds, chains)
    if gaps.size == 0:
        raise ValueError("no consecutive-attack gaps to characterise")
    sizes = chains.sizes
    longest = int(np.argmax(sizes))
    head = int(chains.heads[longest])
    fams = ds.family_idx[chains.rows]
    first_fams = np.repeat(fams[chains.offsets[:-1]], sizes)
    return ChainSummary(
        n_chains=len(chains),
        families=sorted({ds.families[k] for k in sorted_unique(fams).tolist()}),
        intra_family_only=bool(np.all(fams == first_fams)),
        longest_chain_length=int(sizes[longest]),
        longest_chain_family=ds.families[int(fams[chains.offsets[longest]])],
        longest_chain_duration=float(ds.end[chains.tails[longest]] - ds.start[head]),
        longest_chain_start=float(ds.start[head]),
        gap_mean=float(np.mean(gaps)),
        gap_median=float(np.median(gaps)),
        gap_std=float(np.std(gaps)),
        under_10s_fraction=float(np.mean(gaps <= 10.0)),
        under_30s_fraction=float(np.mean(gaps <= 30.0)),
    )


def consecutive_gap_cdf(
    source: AnalysisSource, chains: ScanEvents | list[AttackChain] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fig 17: the CDF of gaps between consecutive attacks."""
    ctx = AnalysisContext.of(source)
    gaps = _gaps(ctx.dataset, _scan(ctx, chains))
    if gaps.size == 0:
        raise ValueError("no consecutive-attack gaps to characterise")
    return ecdf(np.maximum(gaps, 0.0))


def chain_timeline(
    source: AnalysisSource, chains: ScanEvents | list[AttackChain] | None = None
) -> list[tuple[float, int, str, int]]:
    """Fig 18: one dot per chained attack over time.

    Returns ``(start time, target index, family, magnitude)`` tuples
    sorted by time; consecutive dots of one chain share a target row and
    the marker size is the attack magnitude, as in the paper's plot.
    The tuple order is one ``np.lexsort``; its family key is each
    family's rank by *name*, which the tuples sort by, whatever order
    the dataset indexes its families in.
    """
    ctx = AnalysisContext.of(source)
    ds = ctx.dataset
    rows = _scan(ctx, chains).rows
    if not rows.size:
        return []
    starts = ds.start[rows]
    targets = ds.target_idx[rows]
    fams = ds.family_idx[rows]
    mags = ds.magnitude[rows]
    names = np.asarray(ds.families, dtype=object)
    name_rank = np.argsort(np.argsort(names))
    order = np.lexsort((mags, name_rank[fams], targets, starts))
    return list(
        zip(
            starts[order].tolist(),
            targets[order].tolist(),
            names[fams[order]].tolist(),
            mags[order].tolist(),
        )
    )


def chain_magnitude_spread(
    source: AnalysisSource, chains: ScanEvents | list[AttackChain] | None = None
) -> np.ndarray:
    """Per chain, ``(max - min) / max(max, 1)`` of its attacks' magnitudes.

    Fig 18's stability reading: the paper sees the magnitudes of a
    chain's attacks stay level (Dirtjumper's outliers aside).
    """
    ctx = AnalysisContext.of(source)
    chains = _scan(ctx, chains)
    if not len(chains):
        return np.zeros(0)
    heads = chains.offsets[:-1]
    mags = ctx.dataset.magnitude[chains.rows].astype(float)
    high = np.maximum.reduceat(mags, heads)
    return (high - np.minimum.reduceat(mags, heads)) / np.maximum(high, 1.0)
