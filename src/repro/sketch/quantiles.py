"""Quantile sketch for duration / inter-arrival streams.

:class:`KLLSketch` is a KLL-style compactor hierarchy (Karnin, Lang,
Liberty 2016).  Level ``l`` holds items of weight ``2**l``; when a
level overflows its capacity ``k * (2/3) ** (H - 1 - l)`` it sorts,
keeps every other item (even or odd positions, chosen by a seeded RNG),
and promotes the survivors one level up.  Rank queries are answered
from the weighted union of all levels.  At the default ``k=200`` the
additive *rank* error is about ``2.3 / k**0.9`` ≈ 2 % at 99 %
confidence — the contract documented in ``docs/STREAMING.md`` and
asserted by the full-scale parity tests.

The RNG is ``numpy.random.default_rng`` seeded at construction, so a
given stream order reproduces bit-identical state; the sketch merges
with same-parameter peers, composing with the shard layer's map-reduce.
"""

from __future__ import annotations

import base64

import numpy as np

__all__ = ["KLLSketch"]


def _level_capacity(k: int, depth: int, level: int) -> int:
    """Capacity of ``level`` in a hierarchy currently ``depth`` levels tall."""
    return max(8, int(np.ceil(k * (2.0 / 3.0) ** (depth - 1 - level))))


class KLLSketch:
    """Approximate quantiles of an unbounded numeric stream.

    >>> from repro.sketch import KLLSketch
    >>> kll = KLLSketch(k=200, seed=7)
    >>> kll.update(range(10000))
    >>> abs(kll.quantile(0.5) - 5000) <= kll.rank_error * 10000
    True
    """

    __slots__ = ("_k", "_seed", "_rng", "_levels", "_n", "_min", "_max")

    def __init__(self, *, k: int = 200, seed: int = 7) -> None:
        if k < 8:
            raise ValueError(f"k must be >= 8, got {k}")
        self._k = int(k)
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._levels: list[np.ndarray] = [np.zeros(0, dtype=np.float64)]
        self._n = 0
        self._min = np.inf
        self._max = -np.inf

    # -- shape -------------------------------------------------------------

    @property
    def k(self) -> float:
        """The accuracy knob: bigger k, smaller rank error, more memory."""
        return self._k

    @property
    def seed(self) -> int:
        """The compaction-RNG seed; merges require equal seeds."""
        return self._seed

    @property
    def n(self) -> int:
        """Stream length folded in so far (exact)."""
        return self._n

    @property
    def rank_error(self) -> float:
        """Additive rank-error bound at ~99 % confidence: ``2.3 / k**0.9``."""
        return 2.3 / self._k ** 0.9

    @property
    def memory_bytes(self) -> int:
        """Resident size of the retained items across all levels."""
        return int(sum(level.nbytes for level in self._levels))

    # -- updates -----------------------------------------------------------

    def update(self, values) -> None:
        """Fold a batch of numeric values into the sketch."""
        batch = np.asarray(list(values) if not hasattr(values, "__len__") else values,
                           dtype=np.float64).ravel()
        if batch.size == 0:
            return
        self._n += int(batch.size)
        self._min = min(self._min, float(batch.min()))
        self._max = max(self._max, float(batch.max()))
        self._levels[0] = np.concatenate([self._levels[0], batch])
        self._compress()

    def _compress(self) -> None:
        """Compact any over-capacity level upward until all levels fit."""
        level = 0
        while level < len(self._levels):
            depth = len(self._levels)
            cap = _level_capacity(self._k, depth, level)
            items = self._levels[level]
            if items.size <= cap:
                level += 1
                continue
            items = np.sort(items)
            if items.size % 2:
                # Keep one item behind so pairs line up; it stays at
                # this level with its original weight.
                keep, items = items[:1], items[1:]
            else:
                keep = items[:0]
            offset = int(self._rng.integers(0, 2))
            promoted = items[offset::2]
            self._levels[level] = keep
            if level + 1 == len(self._levels):
                self._levels.append(np.zeros(0, dtype=np.float64))
            self._levels[level + 1] = np.concatenate(
                [self._levels[level + 1], promoted]
            )
            level += 1

    # -- queries -----------------------------------------------------------

    def quantile(self, q: float):
        """The estimated value at quantile ``q`` (0 ≤ q ≤ 1).

        Returns ``nan`` on an empty sketch.  ``q=0`` / ``q=1`` return
        the exact tracked min / max.
        """
        return self.quantiles([q])[0]

    def quantiles(self, qs) -> list:
        """:meth:`quantile` at each fraction in ``qs``, sorting once."""
        qs = [float(q) for q in qs]
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"q must be in [0, 1], got {q}")
        if self._n == 0:
            return [float("nan")] * len(qs)
        items, weights = self._weighted_items()
        order = np.argsort(items, kind="stable")
        items, weights = items[order], weights[order]
        ranks = np.cumsum(weights) - 0.5 * weights
        targets = np.asarray(qs, dtype=np.float64) * float(np.sum(weights))
        pos = np.minimum(np.searchsorted(ranks, targets), items.size - 1)
        extremes = {0.0: float(self._min), 1.0: float(self._max)}
        return [extremes.get(q, float(items[p])) for q, p in zip(qs, pos.tolist())]

    def rank(self, value: float) -> float:
        """The estimated fraction of the stream that is ``<= value``."""
        if self._n == 0:
            return float("nan")
        items, weights = self._weighted_items()
        total = float(np.sum(weights))
        return float(np.sum(weights[items <= value]) / total)

    def _weighted_items(self) -> tuple:
        items = np.concatenate(self._levels)
        weights = np.concatenate(
            [np.full(lvl.size, float(2 ** i)) for i, lvl in enumerate(self._levels)]
        )
        return items, weights

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "KLLSketch") -> None:
        if not isinstance(other, KLLSketch):
            raise TypeError(f"cannot merge KLLSketch with {type(other).__name__}")
        if (self._k, self._seed) != (other._k, other._seed):
            raise ValueError(
                "cannot merge KLL sketches with different (k, seed): "
                f"{(self._k, self._seed)} vs {(other._k, other._seed)}"
            )

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        """Fold another sketch in (level-wise concat + compaction).

        Returns ``self``.  The merged sketch keeps the same rank-error
        contract as its inputs.
        """
        self._check_compatible(other)
        while len(self._levels) < len(other._levels):
            self._levels.append(np.zeros(0, dtype=np.float64))
        for i, level in enumerate(other._levels):
            if level.size:
                self._levels[i] = np.concatenate([self._levels[i], level])
        self._n += other._n
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compress()
        return self

    def copy(self) -> "KLLSketch":
        """An independent deep copy (same parameters, levels, RNG state)."""
        dup = KLLSketch(k=self._k, seed=self._seed)
        dup._rng = np.random.default_rng()
        dup._rng.bit_generator.state = self._rng.bit_generator.state
        dup._levels = [level.copy() for level in self._levels]
        dup._n = self._n
        dup._min = self._min
        dup._max = self._max
        return dup

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able state (levels base64-encoded little-endian float64).

        The compaction-RNG state is *not* carried: a revived sketch
        restarts its RNG from the seed, which preserves the error
        contract (any unbiased coin works) but not bit-identity of
        *future* compactions.
        """
        return {
            "kind": "kll",
            "k": self._k,
            "seed": self._seed,
            "n": self._n,
            "min": None if self._n == 0 else float(self._min),
            "max": None if self._n == 0 else float(self._max),
            "levels": [
                base64.b64encode(
                    np.ascontiguousarray(level, dtype="<f8").tobytes()
                ).decode("ascii")
                for level in self._levels
            ],
        }

    @classmethod
    def from_dict(cls, state: dict) -> "KLLSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        kll = cls(k=state["k"], seed=state["seed"])
        kll._levels = [
            np.frombuffer(base64.b64decode(blob), dtype="<f8").astype(np.float64)
            for blob in state["levels"]
        ] or [np.zeros(0, dtype=np.float64)]
        kll._n = int(state["n"])
        kll._min = np.inf if state["min"] is None else float(state["min"])
        kll._max = -np.inf if state["max"] is None else float(state["max"])
        return kll
