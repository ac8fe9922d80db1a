"""HyperLogLog: bounded-memory distinct-count estimates.

Flajolet's estimator over ``m = 2**precision`` one-byte registers: each
key's 64-bit hash is split into a register index (top ``precision``
bits) and a rank (leading zeros of the remainder, plus one); a register
keeps the maximum rank it has seen.  The harmonic-mean estimate has a
relative standard error of ``1.04 / sqrt(m)`` — ~1.6 % at the default
``precision=12`` (4 KiB of registers) — and the small-range regime is
handled by linear counting, which is where a stream with only hundreds
of distinct victims or botnets will sit (and where the error is far
*below* the asymptotic RSE).

The accuracy contract documented in ``docs/STREAMING.md`` is the
three-sigma band: the estimate is within ``3 * 1.04 / sqrt(m)`` of the
truth with ~99.7 % probability over the hash choice.

Merging two HLLs with the same ``(precision, seed)`` is element-wise
register max — associative, commutative, idempotent — so distinct
counts compose across shards and tenants without double counting.

Keys are integers (victim IPs, botnet ids), hashed in bulk by a seeded
SplitMix64 finalizer, so estimates reproduce across processes and
machines.  Python's builtin ``hash`` is avoided because it is salted
per process (``PYTHONHASHSEED``).
"""

from __future__ import annotations

import base64
import math

import numpy as np

__all__ = ["HyperLogLog"]

_U64 = np.uint64

#: SplitMix64 increment (odd), used to derive per-seed hash functions.
_GOLDEN = _U64(0x9E3779B97F4A7C15)


def _hash_codes(codes: np.ndarray, seed: int) -> np.ndarray:
    """The SplitMix64 finalizer over ``codes`` offset by a seed (wrapping)."""
    with np.errstate(over="ignore"):
        z = codes + _GOLDEN * _U64(2 * seed + 1)
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))


def _alpha(m: int) -> float:
    """The bias-correction constant of the raw harmonic estimator."""
    if m <= 16:
        return 0.673
    if m <= 32:
        return 0.697
    if m <= 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _clz64(values: np.ndarray) -> np.ndarray:
    """Exact leading-zero count of each uint64 (vectorised binary search).

    Callers guarantee a set bit (a sentinel is OR-ed in before the
    call), so the result is always in ``[0, 63]``.
    """
    clz = np.zeros(values.shape, dtype=np.uint8)
    cur = values.copy()
    for step in (32, 16, 8, 4, 2, 1):
        empty = (cur >> _U64(64 - step)) == 0
        clz += np.where(empty, np.uint8(step), np.uint8(0))
        cur = np.where(empty, cur << _U64(step), cur)
    return clz


class HyperLogLog:
    """Approximate distinct counts in ``2**precision`` bytes.

    >>> from repro.sketch import HyperLogLog
    >>> hll = HyperLogLog(precision=12, seed=7)
    >>> hll.update(range(1000))
    >>> hll.update(range(500))            # re-adding changes nothing
    >>> abs(hll.estimate() - 1000) <= 3 * hll.relative_error * 1000
    True
    """

    __slots__ = ("_precision", "_seed", "_registers")

    def __init__(self, *, precision: int = 12, seed: int = 7) -> None:
        if not 4 <= precision <= 18:
            raise ValueError(f"precision must be in [4, 18], got {precision}")
        self._precision = int(precision)
        self._seed = int(seed)
        self._registers = np.zeros(1 << precision, dtype=np.uint8)

    # -- shape -------------------------------------------------------------

    @property
    def precision(self) -> int:
        """Register-index bits; ``m = 2**precision`` registers."""
        return self._precision

    @property
    def seed(self) -> int:
        """The hash seed; merges require equal seeds."""
        return self._seed

    @property
    def m(self) -> int:
        """The register count."""
        return self._registers.size

    @property
    def relative_error(self) -> float:
        """The one-sigma relative standard error, ``1.04 / sqrt(m)``."""
        return 1.04 / math.sqrt(self.m)

    @property
    def memory_bytes(self) -> int:
        """Resident size of the register array (one byte per register)."""
        return int(self._registers.nbytes)

    # -- updates -----------------------------------------------------------

    def update(self, keys) -> None:
        """Fold a batch of integer keys into the registers."""
        codes = np.asarray(keys)
        if codes.size == 0:
            return
        if codes.dtype.kind not in "iu":
            raise TypeError(f"HyperLogLog keys must be integers, got {codes.dtype}")
        hashed = _hash_codes(codes.astype(np.uint64), self._seed)
        p = _U64(self._precision)
        idx = (hashed >> _U64(64 - self._precision)).astype(np.intp)
        # Sentinel bit below the usable suffix: guarantees _clz64 sees a
        # set bit and caps the rank at 64 - precision + 1.
        rest = (hashed << p) | (_U64(1) << _U64(self._precision - 1))
        rank = _clz64(rest) + np.uint8(1)
        np.maximum.at(self._registers, idx, rank)

    # -- queries -----------------------------------------------------------

    def estimate(self) -> float:
        """The estimated number of distinct keys folded in so far.

        Raw harmonic-mean estimate with linear counting below
        ``2.5 * m`` (the standard small-range correction); 64-bit hashes
        make the large-range collision correction unnecessary at any
        realistic cardinality.
        """
        registers = self._registers
        m = registers.size
        raw = _alpha(m) * m * m / np.sum(np.ldexp(1.0, -registers.astype(np.int32)))
        zeros = int(np.count_nonzero(registers == 0))
        if raw <= 2.5 * m and zeros:
            return float(m * math.log(m / zeros))
        return float(raw)

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "HyperLogLog") -> None:
        if not isinstance(other, HyperLogLog):
            raise TypeError(f"cannot merge HyperLogLog with {type(other).__name__}")
        if (self._precision, self._seed) != (other._precision, other._seed):
            raise ValueError(
                "cannot merge HyperLogLogs with different (precision, seed): "
                f"{(self._precision, self._seed)} vs "
                f"{(other._precision, other._seed)}"
            )

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Fold another HLL in (register-wise max); returns ``self``."""
        self._check_compatible(other)
        np.maximum(self._registers, other._registers, out=self._registers)
        return self

    def copy(self) -> "HyperLogLog":
        """An independent deep copy (same parameters and registers)."""
        dup = HyperLogLog(precision=self._precision, seed=self._seed)
        dup._registers = self._registers.copy()
        return dup

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able state (registers base64-encoded)."""
        return {
            "kind": "hll",
            "precision": self._precision,
            "seed": self._seed,
            "registers": base64.b64encode(self._registers.tobytes()).decode("ascii"),
        }

    @classmethod
    def from_dict(cls, state: dict) -> "HyperLogLog":
        """Rebuild an HLL from :meth:`to_dict` output."""
        hll = cls(precision=state["precision"], seed=state["seed"])
        hll._registers = np.frombuffer(
            base64.b64decode(state["registers"]), dtype=np.uint8
        ).copy()
        return hll
