"""The demos run from a checkout and exit 0.

Demo 05 trains a model for 12 epochs: ~4 s wall on a 2-vCPU host. Its
working directory (a corpus and a 34 MB checkpoint) goes under the test's
own temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_frame_descriptors.py", "02_utterance_functionals.py",
         "03_forced_alignment.py", "04_duration_scoring.py", "05_training_pipeline.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
