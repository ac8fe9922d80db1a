"""Multistage (consecutive) attack detection (§V-B, Figs 17-18).

The second collaboration form: attacks on the same target that happen
*one after another* — the next attack starts at the end of the previous
one, within a 60-second margin of overlap or gap.  The paper finds this
form only intra-family (Darkshell, Ddoser, Dirtjumper, Nitol), with a
longest chain of 22 consecutive Ddoser attacks and ~80 % of consecutive
gaps under 30 seconds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .context import AnalysisContext, AnalysisSource
from .stats import ecdf

__all__ = [
    "CHAIN_MARGIN_SECONDS",
    "AttackChain",
    "detect_chains",
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

    Under the default margin and length, the chain list is memoized on
    the shared :class:`AnalysisContext` (Figs 17-18 consume the same
    detection).
    """
    ctx = AnalysisContext.of(source)
    if margin == CHAIN_MARGIN_SECONDS and min_length == 2:
        return ctx.chains()
    return _detect_chains(ctx.dataset, margin, min_length)


def _detect_chains(ds, margin: float, min_length: int) -> list[AttackChain]:
    """The raw scan behind :func:`detect_chains`.

    A sweep-line kernel: in ``(target, start)`` order, attack ``k``
    links to its immediate predecessor exactly when they share a target,
    ``start[k]`` is within ``margin`` of ``end[k-1]`` and the starts are
    more than a second apart (simultaneous attacks are collaborations,
    not stages).  Chains are the maximal linked runs, so one adjacent
    link mask plus a ``cumsum`` segment labelling replaces the
    per-attack Python walk.  Pinned equal to that walk, kept in
    ``tests/oracles/kernels.py``, by the parity tests.
    """
    n = ds.n_attacks
    if n == 0:
        return []
    order = np.lexsort((ds.start, ds.target_idx))
    targets = ds.target_idx[order]
    starts = ds.start[order]
    ends = ds.end[order]

    gaps = starts[1:] - ends[:-1]
    linked = (
        (targets[1:] == targets[:-1])
        & (np.abs(gaps) <= margin)
        & (starts[1:] - starts[:-1] > 1.0)
    )
    new_chain = np.empty(n, dtype=bool)
    new_chain[0] = True
    new_chain[1:] = ~linked
    chain_id = np.cumsum(new_chain) - 1
    chain_first = np.flatnonzero(new_chain)
    chain_sizes = np.diff(np.append(chain_first, n))
    good = np.flatnonzero(chain_sizes >= min_length)
    if good.size == 0:
        return []

    family_names = np.asarray(
        [ds.family_name(k) for k in range(ds.family_idx.max() + 1)], dtype=object
    )
    fam_sorted = ds.family_idx[order]
    chains: list[AttackChain] = []
    for c in good:
        lo = chain_first[c]
        hi = lo + chain_sizes[c]
        chains.append(
            AttackChain(
                attack_indices=tuple(int(i) for i in order[lo:hi]),
                target_index=int(targets[lo]),
                families=tuple(family_names[fam_sorted[lo:hi]]),
                start=float(starts[lo]),
                end=float(ends[hi - 1]),
                gaps=tuple(float(g) for g in gaps[lo : hi - 1]),
            )
        )
    chains.sort(key=lambda c: c.start)
    return chains


@dataclass(frozen=True)
class ChainSummary:
    """§V-B headline numbers."""

    n_chains: int
    families: list[str]
    intra_family_only: bool
    longest_chain_length: int
    longest_chain_family: str
    longest_chain_duration: float
    gap_mean: float
    gap_median: float
    gap_std: float
    under_10s_fraction: float
    under_30s_fraction: float


def chain_summary(
    source: AnalysisSource, chains: list[AttackChain] | None = None
) -> ChainSummary:
    """Summarise detected chains the way §V-B reports them."""
    if chains is None:
        chains = AnalysisContext.of(source).chains()
    if not chains:
        raise ValueError("no consecutive-attack chains detected")
    gaps = np.concatenate([np.asarray(c.gaps) for c in chains if c.gaps])
    longest = max(chains, key=lambda c: c.length)
    families = sorted({fam for c in chains for fam in c.families})
    return ChainSummary(
        n_chains=len(chains),
        families=families,
        intra_family_only=all(c.is_intra_family for c in chains),
        longest_chain_length=longest.length,
        longest_chain_family=longest.families[0],
        longest_chain_duration=longest.duration,
        gap_mean=float(np.mean(gaps)),
        gap_median=float(np.median(gaps)),
        gap_std=float(np.std(gaps)),
        under_10s_fraction=float(np.mean(gaps <= 10.0)),
        under_30s_fraction=float(np.mean(gaps <= 30.0)),
    )


def consecutive_gap_cdf(
    source: AnalysisSource, chains: list[AttackChain] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fig 17: the CDF of gaps between consecutive attacks."""
    if chains is None:
        chains = AnalysisContext.of(source).chains()
    gaps = np.concatenate(
        [np.asarray(c.gaps) for c in chains if c.gaps]
    ) if chains else np.zeros(0)
    if gaps.size == 0:
        raise ValueError("no consecutive-attack gaps to characterise")
    return ecdf(np.maximum(gaps, 0.0))


def _chain_rows(chains: list[AttackChain]) -> tuple[np.ndarray, np.ndarray]:
    """``(heads, rows)``: every chained row, chain by chain, in one gather,
    and the position of each chain's first row in ``rows``."""
    sizes = np.fromiter((len(c.attack_indices) for c in chains), np.int64, len(chains))
    rows = np.fromiter(
        itertools.chain.from_iterable(c.attack_indices for c in chains),
        np.int64,
        int(sizes.sum()),
    )
    return np.concatenate(([0], np.cumsum(sizes)[:-1])), rows


def chain_timeline(
    source: AnalysisSource, chains: list[AttackChain] | None = None
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
    if chains is None:
        chains = ctx.chains()
    if not chains:
        return []
    _heads, rows = _chain_rows(chains)
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
    source: AnalysisSource, chains: list[AttackChain] | None = None
) -> np.ndarray:
    """Per chain, ``(max - min) / max(max, 1)`` of its attacks' magnitudes.

    Fig 18's stability reading: the paper sees the magnitudes of a
    chain's attacks stay level (Dirtjumper's outliers aside).
    """
    ctx = AnalysisContext.of(source)
    if chains is None:
        chains = ctx.chains()
    if not chains:
        return np.zeros(0)
    heads, rows = _chain_rows(chains)
    mags = ctx.dataset.magnitude[rows].astype(float)
    high = np.maximum.reduceat(mags, heads)
    return (high - np.minimum.reduceat(mags, heads)) / np.maximum(high, 1.0)
