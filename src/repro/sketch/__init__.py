"""Bounded-memory streaming summaries with documented error bounds.

The streaming layer's exact path (:class:`~repro.stream.StreamingDataset`)
materialises every attack forever; this package is the fixed-memory
alternative for indefinitely-running ingestion:

* :class:`~repro.sketch.hll.HyperLogLog` — distinct cardinalities
  (botnets, victims);
* :class:`~repro.sketch.quantiles.KLLSketch` — duration and
  inter-attack-interval distributions;
* :class:`~repro.sketch.summary.AttackStreamSummary` — both, plus exact
  per-family and per-country attack counts, bundled into one mergeable,
  serialisable value, consumed by ``stream.watch --sketch``,
  ``StreamingDataset(sketches=True)``, and the service's ``/v1/sketch``
  endpoint.

Every structure exposes the same algebra — ``update(batch)``,
``merge(other)``, ``estimate``-style queries, ``to_dict``/``from_dict``
— and every merge is associative and commutative, so sketches compose
with the shard layer's map-reduce exactly like the exact merge
combinators in :mod:`repro.core.merge`.  The accuracy contract of each
structure (RSE, rank error) is documented in ``docs/STREAMING.md`` and
pinned by full-scale exact-vs-sketch parity tests.
"""

from .hll import HyperLogLog
from .quantiles import KLLSketch
from .report import render_sketch_report
from .summary import AttackStreamSummary, summarize_dataset

__all__ = [
    "AttackStreamSummary",
    "HyperLogLog",
    "KLLSketch",
    "render_sketch_report",
    "summarize_dataset",
]
