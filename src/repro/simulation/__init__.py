"""Deterministic simulation substrate: seeded RNG streams and the time base."""

from .clock import (
    OBSERVATION_DAYS,
    OBSERVATION_END,
    OBSERVATION_START,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    ObservationWindow,
    from_datetime,
    to_datetime,
)
from .rng import SeededStreams, derive_seed

__all__ = [
    "OBSERVATION_DAYS",
    "OBSERVATION_END",
    "OBSERVATION_START",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_WEEK",
    "ObservationWindow",
    "from_datetime",
    "to_datetime",
    "SeededStreams",
    "derive_seed",
]
