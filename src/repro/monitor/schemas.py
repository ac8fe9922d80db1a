"""The three data schemas of the monitoring service (§II-A, Table I).

The vendor dataset consists of a *Botlist* (bots: IP + BGP + GeoIP), a
*Botnetlist* (botnets: type, infected hosts, controller) and a
*DDoSattack* list (one record per verified attack).  These dataclasses
are the row-level view; :class:`repro.core.dataset.AttackDataset` stores
the same information columnar for the analyses.

:data:`ATTACK_ROW` is the one codec of a DDoSattack row: the JSONL and
CSV readers build records from it (:func:`record_from_json`), the JSONL
writer and the wire clients write rows from it (:func:`record_to_json`),
and the live ingest path builds columns from it (:func:`columns_of_rows`,
:func:`columns_of_records`), so every feed meets the same conversions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..errors import FormatError
from ..geo.ipam import ip_to_str, str_to_ip

__all__ = [
    "Protocol", "BotRecord", "BotnetRecord", "DDoSAttackRecord", "AttackPulse",
    "ATTACK_ROW", "record_from_json", "record_to_json", "columns_of_rows", "columns_of_records",
]


class Protocol(enum.IntEnum):
    """Attack category: the transport/protocol the attack rides on (§II-D).

    ``UNDETERMINED`` means the attack used multiple protocols and no single
    one could be assigned; ``UNKNOWN`` means the traffic type could not be
    established at all.

    >>> from repro import Protocol
    >>> Protocol.from_name("udp")
    <Protocol.UDP: 2>
    >>> int(Protocol.HTTP)
    0
    """

    HTTP = 0
    TCP = 1
    UDP = 2
    UNDETERMINED = 3
    ICMP = 4
    UNKNOWN = 5
    SYN = 6

    @classmethod
    def from_name(cls, name: str) -> "Protocol":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown protocol name: {name!r}") from None


@dataclass(frozen=True)
class BotRecord:
    """One Botlist row: a bot with its IP, BGP and GeoIP attributes."""

    bot_index: int
    ip: int
    botnet_id: int
    family: str
    country_code: str
    city: str
    organization: str
    asn: int
    lat: float
    lon: float
    recruited_at: float
    left_at: float

    @property
    def ip_str(self) -> str:
        return ip_to_str(self.ip)

    def active_at(self, ts: float) -> bool:
        """True while the bot is enrolled in the botnet at ``ts``."""
        return self.recruited_at <= ts < self.left_at


@dataclass(frozen=True)
class BotnetRecord:
    """One Botnetlist row: a botnet (generation) of a malware family."""

    botnet_id: int
    family: str
    controller_ip: int
    first_seen: float
    last_seen: float

    @property
    def controller_ip_str(self) -> str:
        return ip_to_str(self.controller_ip)


@dataclass(frozen=True)
class DDoSAttackRecord:
    """One DDoSattack row (Table I): a verified attack on one target.

    ``magnitude`` is the number of distinct bot IPs involved — the paper's
    proxy for attack size (§III-B justifies why spoofing can be ruled out).
    """

    ddos_id: int
    botnet_id: int
    family: str
    category: Protocol
    target_ip: int
    timestamp: float
    end_time: float
    asn: int
    country_code: str
    city: str
    organization: str
    lat: float
    lon: float
    magnitude: int

    @property
    def target_ip_str(self) -> str:
        return ip_to_str(self.target_ip)

    @property
    def duration(self) -> float:
        return self.end_time - self.timestamp

    def overlaps(self, other: "DDoSAttackRecord") -> bool:
        """True if the two attacks' active intervals intersect."""
        return self.timestamp < other.end_time and other.timestamp < self.end_time


@dataclass(frozen=True)
class AttackPulse:
    """A raw burst of attack traffic, before segmentation (§II-D).

    The monitoring systems log traffic bursts; pulses from the same botnet
    against the same target with gaps of at most 60 seconds are merged
    into one DDoS attack record by :mod:`repro.monitor.segmentation`.
    """

    botnet_id: int
    family: str
    target_index: int
    start: float
    end: float
    protocol: Protocol
    attack_tag: int  # generator-side identity, used only for validation

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"pulse ends before it starts: {self}")


def _same(value):
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _protocol(value) -> Protocol:
    return Protocol.from_name(_text(value))


def _ip(value) -> int:
    return str_to_ip(_text(value))


#: The DDoSattack row (Table I), one entry per JSONL/CSV key, in column
#: order: key -> (DDoSAttackRecord field, decoder of one value, column
#: dtype, encoder of one value); ``_same`` passes a value as it is,
#: ``_text`` passes only a string, and the protocol and address decoders
#: check for a string first.
ATTACK_ROW = {
    "ddos_id": ("ddos_id", int, np.int64, _same),
    "botnet_id": ("botnet_id", int, np.int32, _same),
    "family": ("family", _text, object, _same),
    "category": ("category", _protocol, np.int8, attrgetter("name")),
    "target_ip": ("target_ip", _ip, np.uint64, ip_to_str),
    "timestamp": ("timestamp", float, np.float64, _same),
    "end_time": ("end_time", float, np.float64, _same),
    "asn": ("asn", int, np.int32, _same),
    "cc": ("country_code", _text, object, _same),
    "city": ("city", _text, object, _same),
    "organization": ("organization", _text, object, _same),
    "latitude": ("lat", float, np.float64, _same),
    "longitude": ("lon", float, np.float64, _same),
    "magnitude": ("magnitude", int, np.int32, _same),
}

#: What decoding a malformed row raises (``OverflowError``: a number
#: outside its column's dtype).
_ROW_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def record_from_json(row: dict) -> DDoSAttackRecord:
    """Decode one JSONL (or CSV) row into an attack record."""
    return DDoSAttackRecord(
        **{field: decode(row[key]) for key, (field, decode, *_) in ATTACK_ROW.items()}
    )


def record_to_json(rec: DDoSAttackRecord) -> dict:
    """The JSONL row for one attack record."""
    return {key: encode(getattr(rec, field)) for key, (field, *_, encode) in ATTACK_ROW.items()}


def _columns(rows: list) -> dict[str, np.ndarray]:
    return {
        field: np.fromiter((decode(row[key]) for row in rows), dtype, len(rows))
        for key, (field, decode, dtype, _) in ATTACK_ROW.items()
    }


def columns_of_rows(rows: list) -> dict[str, np.ndarray]:
    """Decode rows into one array per record field.

    Each value goes through the same decoder as :func:`record_from_json`.  An
    undecodable row, or a number outside its column's dtype, raises
    :class:`~repro.errors.FormatError` naming the first bad row as
    ``records[i]``.

    >>> cols = columns_of_rows([{"ddos_id": 7, "botnet_id": 1, "family": "optima",
    ...     "category": "udp", "target_ip": "10.0.0.1", "timestamp": 0, "end_time": 60,
    ...     "asn": 1, "cc": "US", "city": "x", "organization": "y",
    ...     "latitude": 0, "longitude": 0, "magnitude": 3}])
    >>> cols["category"], cols["target_ip"]
    (array([2], dtype=int8), array([167772161], dtype=uint64))
    """
    try:
        return _columns(rows)
    except _ROW_ERRORS:
        for index, row in enumerate(rows):
            if not isinstance(row, dict):
                raise FormatError(f"records[{index}] is not a row object") from None
            try:
                _columns([row])
            except _ROW_ERRORS as exc:
                raise FormatError(f"records[{index}] is malformed: {exc}") from exc
        raise


def columns_of_records(records: list[DDoSAttackRecord]) -> dict[str, np.ndarray]:
    """The records as one array per field (the :func:`columns_of_rows` layout)."""
    return {
        field: np.fromiter((getattr(rec, field) for rec in records), dtype, len(records))
        for field, _, dtype, _ in ATTACK_ROW.values()
    }
