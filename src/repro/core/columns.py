"""Append-only numpy columns: the storage under every growing table.

A :class:`GrowableColumn` grows in place and hands out its committed
prefix as a read-only view.  A view taken at length ``n`` aliases the
buffer's first ``n`` elements; later appends only write *past* that
prefix, and growth past capacity moves to a fresh buffer, so a view
stays valid without copying.  The one operation that rewrites committed
rows — the stream's out-of-order merge — goes through
:meth:`GrowableColumn.replace`, which also allocates a fresh buffer.

A :class:`ColumnStore` keeps one column per key and is how a merged or
carried view grows: the streaming builder's snapshots, the sharded
merge's dataset and its concatenation-shaped views all extend through
it, so each extension copies only the new rows.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

__all__ = ["ColumnStore", "GrowableColumn"]

#: Capacity after a reallocation, as a multiple of the rows it must hold.
_HEADROOM = 1.5

_MIN_CAPACITY = 64


class GrowableColumn:
    """An append-only numpy column with amortized O(1) appends."""

    def __init__(self, dtype) -> None:
        self._buf = np.empty(_MIN_CAPACITY, dtype=dtype)
        self._n = 0
        self._seal()

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        """Resident bytes of the backing buffer (capacity, not length)."""
        return int(self._buf.nbytes)

    def _seal(self) -> None:
        self._view = self._buf[: self._n]
        self._view.flags.writeable = False

    def _reallocate(self, prefix: np.ndarray, need: int) -> None:
        # Views handed out earlier keep the old buffer alive, unchanged.
        buf = np.empty(max(int(need * _HEADROOM), _MIN_CAPACITY), dtype=self._buf.dtype)
        buf[: prefix.size] = prefix
        self._buf, self._n = buf, prefix.size

    def append(self, *pieces) -> np.ndarray:
        """Append ``pieces`` (arrays or lists) in order; returns :meth:`view`."""
        pieces = [np.asarray(p) for p in pieces]
        need = self._n + sum(p.size for p in pieces)
        if need > self._buf.size:
            self._reallocate(self._buf[: self._n], need)
        for p in pieces:
            self._buf[self._n : self._n + p.size] = p
            self._n += p.size
        self._seal()
        return self._view

    def replace(self, values: np.ndarray) -> None:
        """Swap in a rewritten column; earlier views keep their contents."""
        values = np.asarray(values)
        self._reallocate(values, values.size)
        self._seal()

    def view(self) -> np.ndarray:
        """Read-only view of the committed prefix (zero copy).

        The same array object until the next :meth:`append` or
        :meth:`replace`, so ``value is column.view()`` tells whether
        ``value`` is the column's latest view.
        """
        return self._view


class ColumnStore:
    """One :class:`GrowableColumn` per key, for views that grow by appends.

    :meth:`extend` grows a view in place when the value being extended is
    its column's latest view: a lineage of contexts, each extending the
    last, shares one buffer per view.  Extending any other value — one
    built from scratch, or a stale one that was already extended — starts
    a fresh column, and views from the old column stay valid.
    """

    def __init__(self) -> None:
        self._columns: dict[Hashable, GrowableColumn] = {}

    def extend(
        self, key: Hashable, old: np.ndarray | None, pieces: Sequence[np.ndarray]
    ) -> np.ndarray:
        """``old`` followed by ``pieces``: bitwise what ``np.concatenate`` builds."""
        column = self._columns.get(key)
        if old is None or column is None or column.view() is not old:
            if old is not None:
                pieces = [old, *pieces]
            elif not pieces:
                return np.zeros(0)  # a family's only attack has no interval
            column = self._columns[key] = GrowableColumn(np.result_type(*pieces))
        return column.append(*pieces)
