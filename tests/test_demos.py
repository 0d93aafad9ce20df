"""Each demo runs and prints exactly the stdout pinned in tests/data/demos/<name>.out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpf

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
EXPECTED = Path(__file__).parent / "data" / "demos"


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(mpf.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo.stem}.out").read_text()
