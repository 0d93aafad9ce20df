"""Each demo runs and prints exactly the stdout pinned in tests/data/demos/<name>.out.

The package's top level holds the names the demos, the README, the tests and
perfbench read as `mpf.<name>` or `from mpf import <name>`; everything else
imports from its own module.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mpf

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
EXPECTED = Path(__file__).parent / "data" / "demos"
TOP_LEVEL = [
    "DOPolynomial", "FilterDisagreementError", "InputError", "MpfError", "SearchJob", "TruthTable",
    "VectorialFunction", "bent4_witnesses", "do_to_table", "fe_mul", "from_values", "graph_of", "group_for",
    "is_flat", "is_modified_planar_components", "is_modified_planar_perm", "make_field", "rds_verify_bruteforce",
    "rds_verify_characters", "run_search", "sigma", "trace_n", "transform_U", "transform_V",
]


def test_the_top_level_holds_the_names_callers_read():
    names = sorted(n for n, v in vars(mpf).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == TOP_LEVEL


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(mpf.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo.stem}.out").read_text()
