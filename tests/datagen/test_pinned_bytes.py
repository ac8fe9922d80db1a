"""The generator's output, pinned to the byte.

A dataset is a pure function of its config, so its attack columns hash
to fixed digests.  Any change to generation that moves a single value
(a reordered random draw, a different pulse path, another float
rounding) fails here, not later in a figure.  The digests cover the
nine columns the benchmark's base digest covers plus the ground-truth
columns.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.botnet.scheduler import PlannedAttack
from repro.datagen.generator import GenerationError, _emit_pulses
from repro.monitor.labeling import FamilyLabeler

ATTACK_COLUMNS = (
    "start", "end", "family_idx", "botnet_id", "protocol", "target_idx",
    "magnitude", "part_offsets", "participants",
    "truth_collab_group", "truth_collab_kind", "truth_chain_id",
    "truth_symmetric", "truth_residual_km",
)

#: Fixture name -> sha256 of its attack columns, in ``ATTACK_COLUMNS``
#: order.  ``tiny_ds`` is ``DatasetConfig.tiny(seed=7)`` (258 attacks),
#: ``small_ds`` is ``DatasetConfig(seed=7, scale=0.02)`` (1,017 attacks).
PINNED = {
    "tiny_ds": "96812a108c786592e39280914940e65b8687282289a15f1c64d9425709a042ed",
    "small_ds": "202f7c24eb77bf9ad7a8a1149ed6b0957809d7a1711ae4a376dfa20d6b264477",
}


def attack_digest(ds) -> str:
    h = hashlib.sha256()
    for name in ATTACK_COLUMNS:
        h.update(np.ascontiguousarray(getattr(ds, name)).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("fixture", sorted(PINNED))
def test_generated_bytes_pinned(fixture, request):
    assert attack_digest(request.getfixturevalue(fixture)) == PINNED[fixture]


def test_unrostered_botnet_raises():
    labeler = FamilyLabeler({1: "pandora"})
    attack = PlannedAttack(start=0.0, duration=600.0, family="pandora", botnet_id=2)
    with pytest.raises(GenerationError, match="pandora: botnet 2 is not on"):
        _emit_pulses([attack], labeler, np.random.default_rng(0), 1.0)

