"""docs/STREAMING.md is a tested contract, like the metric catalogue.

Three guarantees: every fenced ``python`` block in the document
executes (in order, sharing one namespace — the blocks form one
narrative); every relative markdown link resolves to a real file; and
the parameter literals quoted in the accuracy-contract table match the
library defaults, so the documented contract cannot drift from the
code.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

DOC = Path(__file__).resolve().parent.parent / "docs" / "STREAMING.md"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)\)")


def test_python_blocks_execute():
    blocks = _FENCE.findall(DOC.read_text())
    assert len(blocks) >= 4, "expected the four worked examples"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"STREAMING.md[block {i}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - the assert is the report
            pytest.fail(f"STREAMING.md block {i} failed: {exc!r}\n{block}")


def test_relative_links_resolve():
    for target in _LINK.findall(DOC.read_text()):
        if target.startswith(("http://", "https://")):
            continue
        assert (DOC.parent / target).exists(), f"dead link in STREAMING.md: {target}"


def test_documented_literals_match_defaults():
    from repro.sketch import AttackStreamSummary

    text = DOC.read_text()
    summary = AttackStreamSummary()
    contract = summary.contract()
    # The table quotes every construction default...
    for name, value in summary.params.items():
        assert f"`{name}={value}`" in text, name
    # ...and the derived error budgets to two significant figures.
    rse_pct = contract["hll"]["relative_standard_error"] * 100
    assert f"±{rse_pct:.2f} % RSE" in text
    rank_pct = contract["kll"]["rank_error"] * 100
    assert f"±{rank_pct:.2f} %" in text


def test_cross_references_exist():
    # The documents that promise to link back here actually do.
    docs = DOC.parent
    assert "STREAMING.md" in (docs / "ARCHITECTURE.md").read_text()
    assert "STREAMING.md" in (docs.parent / "README.md").read_text()
