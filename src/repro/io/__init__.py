"""Persistence: schema exports (CSV/JSONL) and dataset caching."""

from .cache import config_key, load_or_generate
from .csvio import (
    ATTACK_FIELDS,
    export_attacks_csv,
    export_botlist_csv,
    export_botnetlist_csv,
    read_attacks_csv,
)
from .figures import FIGURE_EXPORTERS, export_figure_data
from .ingest import IngestError, dataset_from_records
from .jsonlio import (
    append_attacks_jsonl,
    export_attacks_jsonl,
    iter_attacks_jsonl,
    read_attacks_jsonl,
    record_from_json,
    record_to_json,
)

__all__ = [
    "config_key",
    "load_or_generate",
    "ATTACK_FIELDS",
    "export_attacks_csv",
    "export_botlist_csv",
    "export_botnetlist_csv",
    "read_attacks_csv",
    "FIGURE_EXPORTERS",
    "IngestError",
    "dataset_from_records",
    "export_figure_data",
    "append_attacks_jsonl",
    "export_attacks_jsonl",
    "iter_attacks_jsonl",
    "read_attacks_jsonl",
    "record_from_json",
    "record_to_json",
]
