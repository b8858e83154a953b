"""Every demo script runs to completion against the library in `src/`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
