"""Attack segmentation: the paper's 60-second rule (§II-D).

The monitoring systems log raw traffic bursts ("pulses").  Bursts from
the same botnet against the same target whose gap is at most
``gap_seconds`` (60 s in the paper) belong to the same DDoS attack;
a longer gap starts a new attack.  The paper chooses 60 s because fewer
than 10 % of attacks are shorter than that, and a small threshold keeps
collaboration detection from merging genuinely distinct attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .schemas import AttackPulse, Protocol

__all__ = ["SegmentedAttack", "segment_pulses", "DEFAULT_GAP_SECONDS"]

DEFAULT_GAP_SECONDS = 60.0


@dataclass
class SegmentedAttack:
    """A merged run of pulses: one verified DDoS attack."""

    botnet_id: int
    family: str
    target_index: int
    start: float
    end: float
    protocol: Protocol
    pulse_count: int = 1
    tags: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _merge_group(
    botnet_id: int,
    target_index: int,
    group: list[AttackPulse],
    gap_seconds: float,
) -> list[SegmentedAttack]:
    """Merge one (botnet, target) pulse group into attacks."""
    group.sort(key=lambda p: (p.start, p.end))
    merged: list[SegmentedAttack] = []
    current: SegmentedAttack | None = None
    for pulse in group:
        if current is not None and pulse.start <= current.end + gap_seconds:
            current.end = max(current.end, pulse.end)
            current.pulse_count += 1
            if pulse.attack_tag not in current.tags:
                current.tags.append(pulse.attack_tag)
        else:
            current = SegmentedAttack(
                botnet_id=botnet_id,
                family=pulse.family,
                target_index=target_index,
                start=pulse.start,
                end=pulse.end,
                protocol=pulse.protocol,
                pulse_count=1,
                tags=[pulse.attack_tag],
            )
            merged.append(current)
    return merged


def segment_pulses(
    pulses: list[AttackPulse], gap_seconds: float = DEFAULT_GAP_SECONDS
) -> list[SegmentedAttack]:
    """Merge raw pulses into attacks using the 60-second rule.

    Pulses are grouped by ``(botnet_id, target_index)`` and scanned in
    start order; a pulse starting within ``gap_seconds`` of the running
    attack's end (or overlapping it) extends that attack, otherwise it
    opens a new one.  The output is sorted by ``(start, botnet_id,
    target_index)``.
    """
    if gap_seconds < 0:
        raise ValueError(f"gap_seconds must be non-negative, got {gap_seconds}")
    by_key: dict[tuple[int, int], list[AttackPulse]] = {}
    for pulse in pulses:
        by_key.setdefault((pulse.botnet_id, pulse.target_index), []).append(pulse)

    attacks: list[SegmentedAttack] = []
    for (botnet_id, target_index), group in by_key.items():
        attacks.extend(_merge_group(botnet_id, target_index, group, gap_seconds))
    attacks.sort(key=lambda a: (a.start, a.botnet_id, a.target_index))
    return attacks
