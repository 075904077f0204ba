"""Paper regeneration: one ``make_experiments_md.main`` into a temp path.

The output must equal the committed ``EXPERIMENTS.md`` byte for byte,
except the line that reports how long generation took.  The committed
file is only read, never written.
"""

from __future__ import annotations

import time
from pathlib import Path

TIMING_PREFIX = "Total generation time:"


def _comparable(text: str) -> list:
    return [line for line in text.splitlines()
            if not line.startswith(TIMING_PREFIX)]


def run_paper(root: Path, tmp: Path) -> dict:
    """One regeneration; returns wall time and whether the output matched."""
    import make_experiments_md

    out = tmp / "EXPERIMENTS.md"
    t0 = time.perf_counter()
    make_experiments_md.main(str(out))
    wall = time.perf_counter() - t0
    expected = _comparable((root / "EXPERIMENTS.md").read_text())
    ok = _comparable(out.read_text()) == expected
    return {"paper_regen_s": wall, "ok": ok}
