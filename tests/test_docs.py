"""Keep the documentation honest: run every Python block in the docs.

Extracts fenced ``python`` code blocks from README.md and
docs/ALGORITHM.md and executes them in one namespace per file (blocks
in a file may build on each other).  Shell blocks are skipped.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOC_FILES = [
    ROOT / "README.md",
    ROOT / "docs" / "ALGORITHM.md",
    ROOT / "docs" / "OBSERVABILITY.md",
    ROOT / "docs" / "PERFORMANCE.md",
    ROOT / "docs" / "SERVING.md",
    ROOT / "docs" / "SCALE_OUT.md",
    ROOT / "docs" / "FAULT_TOLERANCE.md",
    ROOT / "docs" / "PREDICTION.md",
]

BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def blocks_of(path: pathlib.Path):
    return BLOCK_RE.findall(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_doc_code_blocks_execute(path):
    blocks = blocks_of(path)
    assert blocks, f"{path.name} has no python blocks"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"{path.name}[block {i}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - diagnostic
            pytest.fail(f"{path.name} block {i} failed: {exc}\n{block}")


def test_design_and_experiments_exist_and_mention_the_paper():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    experiments = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "Race Detection in Two Dimensions" in design
    assert "Theorem 5" in experiments
    # every experiment id in the DESIGN index has a section or mention
    for exp_id in ("F2", "F4", "T3", "T5", "C1", "C2", "C3", "A1", "A2"):
        assert exp_id in design
        assert exp_id in experiments
