"""Tests for the hourly snapshot oracle behind the snapshot-dispersion parity."""

import numpy as np
import pytest

from repro.simulation.clock import SECONDS_PER_HOUR, ObservationWindow
from ..oracles.kernels import iter_hourly_snapshots


def make_window(hours=48):
    start = 1_000_000_000
    return ObservationWindow(start=start, end=start + hours * SECONDS_PER_HOUR)


class TestSnapshots:
    def test_cumulative_24h_window(self):
        window = make_window(48)
        starts = np.array([window.start + 1800.0, window.start + 30 * 3600.0])
        offsets = np.array([0, 2, 4])
        participants = np.array([10, 11, 11, 12])
        snaps = list(
            iter_hourly_snapshots(starts, offsets, participants, window, family="f")
        )
        by_hour = {window.hour_index(s.timestamp): s for s in snaps}
        # One hour in: only the first attack's bots.
        assert by_hour[1].bot_indices.tolist() == [10, 11]
        # Hour 31: the first attack is 30.5 h old (outside the 24 h
        # lookback), the second one is fresh.
        assert by_hour[31].bot_indices.tolist() == [11, 12]
        # Hour 26: first attack expired, second not yet started -> no
        # snapshot is emitted for that hour.
        assert 26 not in by_hour

    def test_union_is_deduplicated(self):
        window = make_window(4)
        starts = np.array([window.start + 100.0, window.start + 200.0])
        offsets = np.array([0, 2, 4])
        participants = np.array([5, 6, 6, 7])
        snaps = list(iter_hourly_snapshots(starts, offsets, participants, window))
        assert snaps[0].bot_indices.tolist() == [5, 6, 7]

    def test_skip_empty(self):
        window = make_window(10)
        starts = np.array([window.start + 100.0])
        offsets = np.array([0, 1])
        participants = np.array([1])
        snaps = list(iter_hourly_snapshots(starts, offsets, participants, window))
        # Activity covers the first 24 hours after the attack, but the
        # window is only 10h long; every snapshot carries the bot.
        assert len(snaps) == 10
        snaps_all = list(
            iter_hourly_snapshots(
                starts, offsets, participants, make_window(40), skip_empty=False
            )
        )
        assert any(s.n_bots == 0 for s in snaps_all)

    def test_unsorted_rejected(self):
        window = make_window(4)
        starts = np.array([window.start + 200.0, window.start + 100.0])
        offsets = np.array([0, 1, 2])
        participants = np.array([1, 2])
        with pytest.raises(ValueError):
            list(iter_hourly_snapshots(starts, offsets, participants, window))

    def test_bad_offsets_rejected(self):
        window = make_window(4)
        with pytest.raises(ValueError):
            list(
                iter_hourly_snapshots(
                    np.array([window.start + 1.0]), np.array([0]), np.array([1]), window
                )
            )
