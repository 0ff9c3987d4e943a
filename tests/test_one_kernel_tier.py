"""Tier-1 guard: every kernel has one implementation (DESIGN §9).

The numba fork, its dispatch registry and the ``kernel_tier`` knob were
deleted; these checks fail if any of it comes back.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_no_second_tier_tokens_in_src():
    offenders = []
    for path in sorted((REPO / "src").rglob("*.py")):
        text = path.read_text()
        for needle in ("numba", "njit", "kernel_tier", "REPRO_KERNEL_", "use_tier"):
            if needle in text:
                offenders.append(f"{path.relative_to(REPO)}: {needle}")
    assert not offenders, f"second kernel tier is back: {offenders}"


def test_fork_modules_and_flag_are_gone():
    code = (
        "import sys\n"
        "import repro, repro.api, repro.cli, repro.serve, repro.sharded\n"
        "bad = [m for m in sys.modules\n"
        "       if m.endswith(('kernels.dispatch', 'kernels._compiled'))]\n"
        "assert not bad, bad\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", "g.txt", "--kernel-tier", "numpy"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "unrecognized arguments: --kernel-tier" in proc.stderr
