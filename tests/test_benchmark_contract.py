"""The session benchmark's smoke run passes against this library.

The traced run wraps library functions by name (for example
`model.bilstm_forward`, `model.bilstm_backward` and `lstm.reverse_padded`)
and reports every one it cannot find in `missing=[...]`; renaming or
removing such a function breaks the benchmark, which this test catches.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_passes(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "run.py"), "--smoke"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
    traced = [ln for ln in proc.stdout.splitlines() if ln.startswith("smoke trace=1")]
    assert len(traced) == 1 and "missing=[]" in traced[0], proc.stdout
