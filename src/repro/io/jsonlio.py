"""JSONL export of the attack schema (one JSON object per attack).

A line-oriented sibling of :mod:`repro.io.csvio` for pipelines that
prefer structured rows (e.g. jq / log processors).  The row codec is
shared with the streaming tailer (:class:`repro.stream.watch.JsonlTail`),
which re-parses only the lines appended since its last poll.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

from ..core.dataset import AttackDataset
from ..errors import FormatError
from ..monitor.schemas import _ROW_ERRORS, DDoSAttackRecord, record_from_json, record_to_json

__all__ = [
    "export_attacks_jsonl",
    "append_attacks_jsonl",
    "read_attacks_jsonl",
    "iter_attacks_jsonl",
    "record_from_json",
    "record_to_json",
    "records_of_lines",
]


def records_of_lines(lines, path, start: int = 1) -> Iterator[DDoSAttackRecord]:
    """Decode JSONL lines (``str`` or ``bytes``), numbered from ``start``.

    Blank lines are skipped; a line that is not JSON, or not a row of
    the attack schema, raises :class:`~repro.errors.FormatError` (a
    ``ValueError``) naming ``path`` and its line number.
    """
    for lineno, line in enumerate(lines, start=start):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            record = record_from_json(row)
        except _ROW_ERRORS as exc:
            raise FormatError(
                f"{path}:{lineno}: malformed row: {type(exc).__name__}: {exc}"
            ) from exc
        yield record


def export_attacks_jsonl(ds: AttackDataset, path: str | Path) -> int:
    """Write one JSON object per attack; returns the row count."""
    Path(path).write_text("")
    return append_attacks_jsonl(ds.iter_attacks(), path)


def append_attacks_jsonl(records, path: str | Path) -> int:
    """Append records to a JSONL log (the producer side of ``watch``)."""
    n = 0
    with Path(path).open("a") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(rec), separators=(",", ":")) + "\n")
            n += 1
    return n


def iter_attacks_jsonl(path: str | Path) -> Iterator[DDoSAttackRecord]:
    """Lazily yield attack records from a JSONL file (blank lines skipped)."""
    path = Path(path)
    with path.open() as fh:
        yield from records_of_lines(fh, path)


def read_attacks_jsonl(path: str | Path) -> list[DDoSAttackRecord]:
    """Read attack records from a JSONL file written by the exporter."""
    return list(iter_attacks_jsonl(path))
