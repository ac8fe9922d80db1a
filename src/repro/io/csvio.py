"""CSV export/import of the three vendor schemas (Table I).

The DDoSattack CSV carries exactly the Table I fields; the Botlist and
Botnetlist CSVs carry their respective schemas.  Round-tripping the
attack table through CSV is tested in the suite.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..core.dataset import AttackDataset
from ..errors import FormatError
from ..monitor.schemas import _ROW_ERRORS, ATTACK_ROW, DDoSAttackRecord, record_from_json

__all__ = [
    "ATTACK_FIELDS",
    "export_attacks_csv",
    "read_attacks_csv",
    "export_botlist_csv",
    "export_botnetlist_csv",
]

#: Column order of the DDoSattack CSV — the Table I fields plus magnitude.
ATTACK_FIELDS = list(ATTACK_ROW)


def export_attacks_csv(ds: AttackDataset, path: str | Path) -> int:
    """Write the DDoSattack schema to ``path``; returns rows written."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ATTACK_FIELDS)
        n = 0
        for rec in ds.iter_attacks():
            writer.writerow(
                [
                    rec.ddos_id,
                    rec.botnet_id,
                    rec.family,
                    rec.category.name,
                    rec.target_ip_str,
                    f"{rec.timestamp:.3f}",
                    f"{rec.end_time:.3f}",
                    rec.asn,
                    rec.country_code,
                    rec.city,
                    rec.organization,
                    f"{rec.lat:.6f}",
                    f"{rec.lon:.6f}",
                    rec.magnitude,
                ]
            )
            n += 1
    return n


def read_attacks_csv(path: str | Path) -> list[DDoSAttackRecord]:
    """Read a DDoSattack CSV back into records.

    A row that does not decode (a short row, a non-numeric timestamp, …)
    raises :class:`~repro.errors.FormatError` (a ``ValueError``) naming
    ``path`` and its line number.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(ATTACK_FIELDS) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"attack CSV missing columns: {sorted(missing)}")
        records = []
        for row in reader:
            try:
                records.append(record_from_json(row))
            except _ROW_ERRORS as exc:
                raise FormatError(
                    f"{path}:{reader.line_num}: malformed row: {type(exc).__name__}: {exc}"
                ) from exc
        return records


def export_botlist_csv(ds: AttackDataset, path: str | Path, limit: int | None = None) -> int:
    """Write the Botlist schema to ``path``; returns rows written.

    ``limit`` caps the export (the full botlist is 310,950 rows at paper
    scale).
    """
    path = Path(path)
    n = ds.bots.n_bots if limit is None else min(limit, ds.bots.n_bots)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["bot_ip", "botnet_id", "family", "cc", "city", "organization",
             "asn", "latitude", "longitude", "recruited_at"]
        )
        for b in range(n):
            rec = ds.bot(b)
            writer.writerow(
                [
                    rec.ip_str,
                    rec.botnet_id,
                    rec.family,
                    rec.country_code,
                    rec.city,
                    rec.organization,
                    rec.asn,
                    f"{rec.lat:.6f}",
                    f"{rec.lon:.6f}",
                    f"{rec.recruited_at:.0f}",
                ]
            )
    return n


def export_botnetlist_csv(ds: AttackDataset, path: str | Path) -> int:
    """Write the Botnetlist schema to ``path``; returns rows written."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["botnet_id", "family", "controller_ip", "first_seen", "last_seen"])
        for rec in ds.botnets:
            writer.writerow(
                [
                    rec.botnet_id,
                    rec.family,
                    rec.controller_ip_str,
                    f"{rec.first_seen:.0f}",
                    f"{rec.last_seen:.0f}",
                ]
            )
    return len(ds.botnets)
