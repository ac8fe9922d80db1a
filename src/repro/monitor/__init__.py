"""Monitoring-service substrate: schemas, segmentation, labeling."""

from .labeling import FamilyLabeler
from .schemas import AttackPulse, BotnetRecord, BotRecord, DDoSAttackRecord, Protocol
from .segmentation import DEFAULT_GAP_SECONDS, SegmentedAttack, segment_pulses

__all__ = [
    "FamilyLabeler",
    "AttackPulse",
    "BotnetRecord",
    "BotRecord",
    "DDoSAttackRecord",
    "Protocol",
    "DEFAULT_GAP_SECONDS",
    "SegmentedAttack",
    "segment_pulses",
]
