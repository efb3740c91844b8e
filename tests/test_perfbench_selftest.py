"""The benchmark's own self-test, run as part of the suite.

``perfbench/selftest.py`` runs the tiny smoke workload untraced and traced and
checks that every traced boundary is hit, so a refactor that renames or stops
calling a traced function fails here and not only in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
