"""Request/response codec: JSON bodies in the Table I row schema.

Ingest bodies decode through the same row table as the JSONL and CSV
readers (:data:`repro.monitor.schemas.ATTACK_ROW`), so a log line
written by ``export_attacks_jsonl`` can be POSTed verbatim inside a
``records`` array — the service speaks the same schema as the files.
The rows decode straight to columns, which the tenant's stream appends
without building a record per row.  Anything undecodable raises
:class:`~repro.errors.FormatError` (HTTP 400) with the offending row's
position.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import FormatError
from ..monitor.schemas import columns_of_rows, record_to_json

__all__ = ["decode_ingest", "encode_body", "decode_body", "record_to_json"]

#: Refuse bodies beyond this many records per request: one batch should
#: be one queue slot, not a whole dataset (split large loads client-side).
MAX_BATCH_RECORDS = 100_000


def encode_body(payload: dict) -> bytes:
    """Serialise a response payload as compact UTF-8 JSON."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_body(body: bytes) -> dict:
    """Parse a request body as a JSON object, or raise ``FormatError``."""
    if not body:
        raise FormatError("empty request body; expected a JSON object")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def decode_ingest(body: bytes) -> dict[str, np.ndarray]:
    """Decode an ingest body: ``{"records": [<Table I row>, ...]}``.

    Returns the batch as columns, one per record field
    (:func:`~repro.monitor.schemas.columns_of_rows`); the batch must be
    a non-empty list of row objects in the JSONL schema (a missing or
    malformed row raises :class:`~repro.errors.FormatError` carrying
    its index, so the client can pinpoint the bad record).
    """
    payload = decode_body(body)
    rows = payload.get("records")
    if not isinstance(rows, list) or not rows:
        raise FormatError('ingest body must carry a non-empty "records" array')
    if len(rows) > MAX_BATCH_RECORDS:
        raise FormatError(
            f"batch of {len(rows)} records exceeds the {MAX_BATCH_RECORDS} "
            "per-request cap; split the load into smaller batches"
        )
    return columns_of_rows(rows)
