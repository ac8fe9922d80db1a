"""Contract of the append-only column under every growing table.

Retained stream epochs and previous merged contexts hold views into the
same buffers later appends write to, so a view must never change once
handed out, whatever happens to its column afterwards.
"""

import numpy as np
import pytest

from repro.core.columns import ColumnStore, GrowableColumn


def _filled(n: int) -> GrowableColumn:
    col = GrowableColumn(np.int64)
    col.append(np.arange(n))
    return col


class TestGrowableColumn:
    def test_view_survives_append(self):
        col = _filled(10)
        view = col.view()
        col.append(np.arange(100, 103))
        np.testing.assert_array_equal(view, np.arange(10))
        np.testing.assert_array_equal(col.view(), [*range(10), 100, 101, 102])

    def test_view_survives_growth_past_capacity(self):
        col = _filled(10)
        view = col.view()
        before = col.nbytes
        col.append(np.arange(10 * col.nbytes))
        assert col.nbytes > before
        np.testing.assert_array_equal(view, np.arange(10))
        assert not np.shares_memory(view, col.view())

    def test_view_survives_replace(self):
        col = _filled(10)
        view = col.view()
        col.replace(np.arange(10)[::-1])
        np.testing.assert_array_equal(view, np.arange(10))
        np.testing.assert_array_equal(col.view(), np.arange(10)[::-1])

    def test_views_are_read_only(self):
        col = _filled(10)
        with pytest.raises(ValueError):
            col.view()[0] = 1
        with pytest.raises(ValueError):
            col.append([1])[0] = 2

    def test_append_within_reserve_shares_memory(self):
        col = _filled(10)
        view = col.view()
        grown = col.append([10, 11])
        assert np.shares_memory(view, grown)
        assert grown[:10].base is view.base

    def test_append_takes_several_pieces(self):
        col = GrowableColumn(float)
        out = col.append(np.ones(2), [], np.zeros(3))
        np.testing.assert_array_equal(out, [1, 1, 0, 0, 0])
        assert out.dtype == float and len(col) == 5


class TestColumnStore:
    def test_extend_equals_concatenate(self):
        store = ColumnStore()
        old = np.arange(5, dtype=np.int32)
        pieces = [np.arange(3, dtype=np.int32), np.arange(2, dtype=np.int32)]
        got = store.extend("k", old, pieces)
        want = np.concatenate([old, *pieces])
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype

    def test_latest_view_grows_in_place(self):
        store = ColumnStore()
        first = store.extend("k", np.arange(100), [np.arange(3)])
        second = store.extend("k", first, [np.arange(4)])
        assert np.shares_memory(first, second)
        np.testing.assert_array_equal(second[: first.size], first)

    def test_stale_extension_starts_a_fresh_column(self):
        store = ColumnStore()
        base = store.extend("k", np.arange(100), [])
        first = store.extend("k", base, [np.full(3, -1)])
        expected = first.copy()
        # ``base`` was already extended: extending it again must not
        # write over the rows ``first`` holds past ``base``.
        second = store.extend("k", base, [np.full(5, -2)])
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(second, [*range(100), *[-2] * 5])
        assert not np.shares_memory(first, second)

    def test_value_from_elsewhere_is_copied(self):
        store = ColumnStore()
        old = np.arange(10)
        out = store.extend("k", old, [])
        np.testing.assert_array_equal(out, old)
        assert not np.shares_memory(out, old)

    def test_missing_left_operand(self):
        store = ColumnStore()
        np.testing.assert_array_equal(store.extend("k", None, [np.arange(2)]), [0, 1])
        assert store.extend("k", None, []).size == 0
