"""Columnar scan events: the shape both §V scans produce.

A collaboration (§V-A) and a consecutive chain (§V-B) are each a group
of attacks on one target.  :class:`ScanEvents` holds all of a scan's
groups as one CSR: ``rows``, the attack indices event by event, and
``offsets``, where event ``e`` is ``rows[offsets[e]:offsets[e + 1]]``.
Every other field of an event — its target, start, botnet ids, family
set, chain end and gaps — is a gather of the dataset columns at
``rows``, so the scans, the seam stitch and the renders never build a
Python object per event.

Events are ordered by the start of their first row, ties by its target
(the scans' own order: a stable sort by start of the target-major
runs).  Both scans emit at most one event per (start, target), so the
order is total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .stats import segment_positions

__all__ = ["ScanEvents", "in_scan_order"]


def _offsets(sizes: np.ndarray) -> np.ndarray:
    out = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class ScanEvents:
    """A scan's events as one CSR over global attack indices.

    >>> events = ScanEvents.from_sizes(np.array([4, 7, 2, 3, 9]), np.array([2, 3]))
    >>> len(events), events.heads.tolist(), events.sizes.tolist()
    (2, [4, 2], [2, 3])
    >>> events.take(np.array([1])).rows.tolist()
    [2, 3, 9]
    """

    #: Attack indices, event by event (int64).
    rows: np.ndarray
    #: ``n_events + 1`` positions into ``rows`` (int64).
    offsets: np.ndarray

    @classmethod
    def empty(cls) -> "ScanEvents":
        """No events."""
        return cls(np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64))

    @classmethod
    def from_sizes(cls, rows: np.ndarray, sizes: np.ndarray) -> "ScanEvents":
        """Events of ``sizes[e]`` consecutive ``rows`` each."""
        return cls(
            np.asarray(rows, dtype=np.int64), _offsets(np.asarray(sizes, dtype=np.int64))
        )

    @classmethod
    def of(cls, events: "ScanEvents | Sequence[Any]") -> "ScanEvents":
        """``events`` as a CSR; a list of event objects (anything with
        ``attack_indices``) is gathered once."""
        if isinstance(events, cls):
            return events
        sizes = np.array([len(e.attack_indices) for e in events], dtype=np.int64)
        rows = [i for e in events for i in e.attack_indices]
        return cls.from_sizes(np.array(rows, dtype=np.int64), sizes)

    @classmethod
    def concat(cls, parts: Sequence["ScanEvents"]) -> "ScanEvents":
        """The events of ``parts``, one after another."""
        parts = [p for p in parts if len(p)]
        if len(parts) <= 1:
            return parts[0] if parts else cls.empty()
        shifts = np.cumsum([0, *(p.rows.size for p in parts)])
        return cls(
            np.concatenate([p.rows for p in parts]),
            np.concatenate([*(p.offsets[:-1] + s for p, s in zip(parts, shifts)), shifts[-1:]]),
        )

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScanEvents):
            return NotImplemented
        return np.array_equal(self.rows, other.rows) and np.array_equal(
            self.offsets, other.offsets
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def sizes(self) -> np.ndarray:
        """Rows per event."""
        return np.diff(self.offsets)

    @property
    def heads(self) -> np.ndarray:
        """Each event's first row."""
        return self.rows[self.offsets[:-1]]

    @property
    def tails(self) -> np.ndarray:
        """Each event's last row."""
        return self.rows[self.offsets[1:] - 1]

    def event_of_row(self) -> np.ndarray:
        """For each position of ``rows``, the event it belongs to."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.sizes)

    def inner(self) -> np.ndarray:
        """Mask over ``rows[:-1]``: True where the next row is in the same event.

        ``start[rows[1:]] - end[rows[:-1]]`` masked by it is every
        event's consecutive gaps, event by event.
        """
        mask = np.ones(max(self.rows.size - 1, 0), dtype=bool)
        mask[self.offsets[1:-1] - 1] = False
        return mask

    def take(self, index: np.ndarray) -> "ScanEvents":
        """The events at ``index`` (positions, in that order)."""
        index = np.asarray(index, dtype=np.int64)
        firsts = self.offsets[index]
        offsets = _offsets(self.offsets[index + 1] - firsts)
        return ScanEvents(self.rows[segment_positions(firsts, offsets)], offsets)

    def split(self, cut: int) -> tuple["ScanEvents", "ScanEvents"]:
        """The first ``cut`` events and the rest (views, not copies)."""
        at = self.offsets[cut]
        return (
            ScanEvents(self.rows[:at], self.offsets[: cut + 1]),
            ScanEvents(self.rows[at:], self.offsets[cut:] - at),
        )

    def shifted(self, base: int) -> "ScanEvents":
        """The same events with every row moved up by ``base``."""
        return ScanEvents(self.rows + np.int64(base), self.offsets)


def in_scan_order(ds, events: ScanEvents) -> ScanEvents:
    """``events`` sorted by (start, target) of their first rows.

    ``ds`` is anything with ``start`` and ``target_idx`` columns.  One
    stable ``lexsort``, skipped when the events are already in order.
    """
    if len(events) < 2:
        return events
    heads = events.heads
    start = ds.start[heads]
    target = ds.target_idx[heads]
    ordered = (start[1:] > start[:-1]) | (
        (start[1:] == start[:-1]) & (target[1:] > target[:-1])
    )
    if ordered.all():
        return events
    return events.take(np.lexsort((target, start)))
