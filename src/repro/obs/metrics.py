"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The registry is deliberately dependency-free (no Prometheus client, no
OpenTelemetry): the pipeline's instrumentation must work in the same
minimal environment as the library itself.  Instruments are identified
by a **name** (dotted, unit-suffixed where applicable — the catalogue in
``docs/OBSERVABILITY.md`` is the authoritative list) plus an optional
set of string **labels**; asking for the same ``(name, labels)`` twice
returns the same instrument, so call sites never hold global state of
their own.

Hot-path cost: ``Counter.inc`` / ``Gauge.set`` / ``Histogram.observe``
are one uncontended lock acquisition plus an add — cheap enough for the
per-view cache-hit accounting in :class:`repro.core.context.AnalysisContext`
(the instrumentation-overhead budget is enforced by the benchmarks).
Call sites that need an instrument repeatedly should resolve it once and
keep the reference, as the context layer does.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterator

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: Default histogram bucket edges in seconds: 1 ms … ~2 min, roughly
#: geometric.  Observations above the last edge land in the +Inf bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class Counter:
    """A monotonically increasing count.

    >>> from repro.obs import MetricsRegistry
    >>> c = MetricsRegistry().counter("ingest.records")
    >>> c.inc(); c.inc(4)
    >>> c.value
    5
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot: ``{"type": "counter", "value": ...}``."""
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that goes up and down (jobs in flight, lag seconds, …).

    >>> from repro.obs import MetricsRegistry
    >>> g = MetricsRegistry().gauge("par.jobs")
    >>> g.set(4)
    >>> g.value
    4.0
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (default 1) to the gauge."""
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot: ``{"type": "gauge", "value": ...}``."""
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Observations bucketed under fixed, pre-declared edges.

    Cumulative-style buckets are materialised only in :meth:`to_dict`;
    the hot path is one ``bisect`` plus two adds.

    >>> from repro.obs import MetricsRegistry
    >>> h = MetricsRegistry().histogram("stage.seconds", buckets=(0.1, 1.0))
    >>> for v in (0.05, 0.5, 5.0):
    ...     h.observe(v)
    >>> h.count, h.sum
    (3, 5.55)
    >>> h.bucket_counts           # per-bucket, last is the +Inf overflow
    [1, 1, 1]
    """

    __slots__ = ("_lock", "_edges", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        edges = tuple(float(edge) for edge in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError(f"bucket edges must be sorted and distinct, got {buckets!r}")
        self._lock = threading.Lock()
        self._edges = edges
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation (``value <= edge`` lands in that bucket)."""
        value = float(value)
        slot = bisect_left(self._edges, value)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def edges(self) -> tuple[float, ...]:
        return self._edges

    @property
    def bucket_counts(self) -> list[int]:
        """Per-bucket counts; the trailing entry is the +Inf overflow."""
        return list(self._counts)

    @property
    def mean(self) -> float:
        """Mean observation (0.0 before the first observation)."""
        return self._sum / self._count if self._count else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot with edges, per-bucket counts, sum and count."""
        return {
            "type": "histogram",
            "edges": list(self._edges),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }


_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """The process-local instrument store.

    One registry normally exists per process (:func:`repro.obs.registry`);
    standalone instances are handy in tests.  Instruments are created on
    first use and shared after that; asking for an existing name with a
    different instrument type raises ``TypeError``.

    >>> from repro.obs import MetricsRegistry
    >>> reg = MetricsRegistry()
    >>> reg.counter("context.view.hit", view="durations").inc()
    >>> reg.counter("context.view.hit", view="durations").value
    1
    >>> sorted(reg.names())
    ['context.view.hit']
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, _LabelKey], Any] = {}

    def _get(self, name: str, labels: dict[str, str], factory) -> Any:
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(key)
                if inst is None:
                    inst = factory()
                    self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        inst = self._get(name, labels, Counter)
        if not isinstance(inst, Counter):
            raise TypeError(f"{name} is registered as {type(inst).__name__}, not Counter")
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        inst = self._get(name, labels, Gauge)
        if not isinstance(inst, Gauge):
            raise TypeError(f"{name} is registered as {type(inst).__name__}, not Gauge")
        return inst

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        """The histogram for ``(name, labels)``; ``buckets`` only applies
        on first creation (later calls reuse the existing edges)."""
        inst = self._get(
            name, labels, lambda: Histogram(buckets if buckets is not None else DEFAULT_BUCKETS)
        )
        if not isinstance(inst, Histogram):
            raise TypeError(f"{name} is registered as {type(inst).__name__}, not Histogram")
        return inst

    # -- introspection -----------------------------------------------------

    def names(self) -> set[str]:
        """The distinct metric names registered so far (labels folded)."""
        with self._lock:
            return {name for name, _labels in self._instruments}

    def items(self) -> Iterator[tuple[str, dict[str, str], Any]]:
        """Iterate ``(name, labels, instrument)`` over a point-in-time copy."""
        with self._lock:
            entries = list(self._instruments.items())
        for (name, label_key), inst in entries:
            yield name, dict(label_key), inst

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-able dump: ``{name: [{"labels": ..., **instrument}, ...]}``.

        Series of one name are ordered by their label sets, so the
        snapshot is deterministic for a deterministic run.
        """
        out: dict[str, list[dict[str, Any]]] = {}
        for name, labels, inst in sorted(
            self.items(), key=lambda item: (item[0], sorted(item[1].items()))
        ):
            out.setdefault(name, []).append({"labels": labels, **inst.to_dict()})
        return out

    def reset(self) -> None:
        """Drop every instrument (tests and long-lived processes)."""
        with self._lock:
            self._instruments.clear()
