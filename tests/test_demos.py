import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    # Each demo runs in a fresh interpreter against this checkout's source
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                               "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
