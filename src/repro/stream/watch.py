"""Tail a growing JSONL attack log and keep the analysis live.

:class:`JsonlTail` is the transport: it remembers a byte offset into the
file and, on each poll, parses only the *complete* lines written since
the last poll (a partially-written trailing line is left for the next
round, so a concurrent writer never produces a torn read).  Records are
therefore processed exactly once.

:class:`WatchSession` is the policy: tail + :class:`StreamingDataset` +
report rendering.  Each poll that finds new records appends them (an
O(batch) incremental update for in-order logs) and re-renders the
headline report from the snapshot context; polls that find nothing
return ``None`` without touching the stream.

Sessions come in two memory models (``docs/STREAMING.md``):

* **exact** (default) — every record is materialised into a
  :class:`StreamingDataset`; memory grows with the log.
* **sketch** (``sketch=True``, the CLI's ``--sketch``) — records fold
  into an :class:`~repro.sketch.AttackStreamSummary` and none is
  retained; memory is fixed no matter how long the log grows, and the
  rendered report is the sketch one with its error budget in the footer.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..monitor.schemas import DDoSAttackRecord
from ..obs import registry as _obs_registry
from ..simulation.clock import ObservationWindow
from .builder import StreamingDataset

__all__ = ["JsonlTail", "WatchSession"]


class JsonlTail:
    """Incremental reader of a growing JSONL attack log."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._offset = 0
        self._lines = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def offset(self) -> int:
        """Byte offset of the first unconsumed byte."""
        return self._offset

    def poll(self) -> list[DDoSAttackRecord]:
        """Parse the complete lines appended since the last poll.

        A missing file yields no records (the log may not exist yet);
        a truncated file (size below the consumed offset, e.g. log
        rotation) restarts from the beginning.
        """
        from ..io.jsonlio import records_of_lines  # late: avoids an import cycle

        try:
            with self._path.open("rb") as fh:
                fh.seek(0, 2)
                size = fh.tell()
                if size < self._offset:
                    self._offset = self._lines = 0  # rotated/truncated: start over
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        cut = data.rfind(b"\n")
        if cut < 0:
            return []
        consumed = data[: cut + 1]
        lines = consumed.splitlines()
        records = list(records_of_lines(lines, self._path, self._lines + 1))
        self._offset += len(consumed)
        self._lines += len(lines)
        return records


class WatchSession:
    """A long-running view over a JSONL attack log.

    Poll in a loop (the CLI's ``watch`` subcommand sleeps between
    polls); each poll returns the re-rendered report or ``None``:

    >>> from repro.stream import WatchSession
    >>> session = WatchSession("attacks.jsonl")
    >>> session.poll() is None          # nothing appended yet
    True
    >>> (session.n_attacks, session.epoch)
    (0, 0)

    With ``sketch=True`` the session never materialises exact columns;
    ``render`` produces the sketch report instead
    (``repro.sketch.render_sketch_report``).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        window: ObservationWindow | None = None,
        sketch: bool = False,
    ) -> None:
        self._tail = JsonlTail(path)
        self._stream: StreamingDataset | None = None
        self._summary = None
        self._epoch_count = 0
        if sketch:
            from ..sketch import AttackStreamSummary

            self._summary = AttackStreamSummary()
        else:
            self._stream = StreamingDataset(window=window)

    @property
    def stream(self) -> StreamingDataset | None:
        """The exact-mode dataset, or ``None`` in sketch mode."""
        return self._stream

    @property
    def sketch(self):
        """The sketch-mode summary, or ``None`` in exact mode."""
        return self._summary

    @property
    def n_attacks(self) -> int:
        if self._summary is not None:
            return self._summary.n_records
        return self._stream.n_attacks

    @property
    def epoch(self) -> int:
        if self._summary is not None:
            return self._epoch_count
        return self._stream.epoch

    @property
    def lag_seconds(self) -> float:
        """Seconds between now and the log file's last modification.

        A proxy for how far the session trails the writer: near zero
        while the log is being appended to, growing while it is quiet.
        Missing file reads as 0.0 (nothing to lag behind).  The latest
        value observed by :meth:`poll` is exported as the
        ``watch.lag_seconds`` gauge.
        """
        try:
            mtime = self._tail.path.stat().st_mtime
        except OSError:
            return 0.0
        return max(0.0, time.time() - mtime)

    def poll(self) -> str | None:
        """Ingest newly-landed records; render iff something changed.

        Each poll refreshes the ``watch.lag_seconds`` gauge; a poll that
        appends counts its records into ``watch.lines_ingested`` and
        observes the re-render latency into ``watch.render_seconds``.
        """
        reg = _obs_registry()
        reg.gauge("watch.lag_seconds").set(self.lag_seconds)
        records = self._tail.poll()
        if not records:
            return None
        appended = self.fold(records)
        if not appended:
            return None
        reg.counter("watch.lines_ingested").inc(appended)
        t0 = time.perf_counter()
        rendered = self.render()
        reg.histogram("watch.render_seconds").observe(time.perf_counter() - t0)
        return rendered

    def fold(self, records) -> int:
        """Ingest records directly, bypassing the JSONL transport.

        The same path :meth:`poll` uses once it has parsed new lines —
        exposed so drivers that already hold record objects (benchmarks,
        tests, embedding applications) can feed a session without
        round-tripping through a log file.  Returns the number folded.
        """
        if self._summary is not None:
            folded = self._summary.update(records)
            if folded:
                self._epoch_count += 1
            return folded
        return self._stream.append_batch(records)

    def render(self) -> str:
        """The report for the current state.

        Exact mode renders the headline + protocol mix from the snapshot
        context; sketch mode renders the summary report (with its error
        budget in the footer).
        """
        if self.n_attacks == 0:
            return "(no attacks ingested yet)"
        if self._summary is not None:
            from ..sketch import render_sketch_report

            return render_sketch_report(self._summary)
        ctx = self._stream.context()
        from ..core import report

        return "\n\n".join(
            [report.render_headline(ctx), report.render_protocol_table(ctx)]
        )
