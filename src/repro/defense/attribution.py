"""Attribution-noise sensitivity of the collaboration analyses.

§II-B argues the likelihood of false family labels is very small; this
module quantifies what would happen if it were not.  It relabels every
attack through a noisy :class:`~repro.monitor.labeling.FamilyLabeler`
and re-runs the Table VI accounting, showing how quickly the intra- vs
inter-family split degrades as labels flip — inter-family events are the
most sensitive artefact, because one flipped label turns an intra-family
event into a spurious inter-family one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.collaboration import detect_collaborations
from ..core.dataset import AttackDataset
from ..monitor.labeling import FamilyLabeler

__all__ = ["NoiseImpact", "labeling_sensitivity"]


@dataclass(frozen=True)
class NoiseImpact:
    """Table VI accounting under one label-noise level."""

    error_rate: float
    intra_events: int
    inter_events: int

    @property
    def inter_fraction(self) -> float:
        total = self.intra_events + self.inter_events
        return self.inter_events / total if total else 0.0


def labeling_sensitivity(
    ds: AttackDataset,
    error_rates=(0.0, 0.01, 0.05, 0.10, 0.25),
    seed: int = 0,
) -> list[NoiseImpact]:
    """Re-run the collaboration split under increasing label noise.

    Detection itself is label-free (same target + distinct botnet ids);
    only the intra/inter classification depends on attribution, so the
    events are detected once and re-classified per noise level.
    """
    base_labeler = FamilyLabeler(
        {rec.botnet_id: rec.family for rec in ds.botnets}
    )
    events = detect_collaborations(ds)
    rng = np.random.default_rng(seed)
    results: list[NoiseImpact] = []
    for rate in error_rates:
        labeler = base_labeler.with_noise(rng, float(rate))
        intra = 0
        inter = 0
        for event in events:
            families = {labeler.label(b) for b in event.botnet_ids}
            if len(families) > 1:
                inter += 1
            else:
                intra += 1
        results.append(NoiseImpact(error_rate=float(rate), intra_events=intra, inter_events=inter))
    return results
