"""CLI output pinned byte for byte.

tests/data/golden/cases.json lists CLI invocations (argv relative to that
directory) with their exit codes; expected/<name>.out holds the exact
stdout and expected/<name>.err the exact stderr, if any.  They cover
analyze (text and json, both modes, n = 2..5, planar and not),
verify-rds (an RDS graph, a set that is not one, explicit forbidden
subgroups), spectrum (twists 0, 1 and all-ones) and search (the mv n = 2
`all` census, and the uv n = 3 DO census at one and two shards).  Each case also runs
with --out, which must write the same bytes and leave stdout empty.

streams/<name>.out and streams/<name>.jsonl pin the stdout and the
--stream file of search jobs: the uv n = 3 DO census at one and two
shards, and a sampled uv n = 3 affine job at two shards.
"""

import json
from pathlib import Path

import pytest

from mpf.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _expected(case, suffix):
    path = GOLDEN / "expected" / f"{case['name']}{suffix}"
    return path.read_bytes() if path.exists() else b""


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["name"])
def test_cli_output_matches_golden(case, monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(GOLDEN)
    assert main(case["argv"]) == case["exit"]
    out, err = capsys.readouterr()
    assert out.encode() == _expected(case, ".out")
    assert err.encode() == _expected(case, ".err")

    target = tmp_path / "report"
    assert main(case["argv"] + ["--out", str(target)]) == case["exit"]
    out, err = capsys.readouterr()
    assert out == ""
    assert err.encode() == _expected(case, ".err")
    assert target.read_bytes() == _expected(case, ".out")


STREAM_CASES = {
    "search_uv3_do_quadratic_shards1": ["--class", "do_quadratic", "--shards", "1"],
    "search_uv3_do_quadratic_shards2": ["--class", "do_quadratic", "--shards", "2"],
    "search_uv3_affine_sample400_shards2": ["--class", "affine", "--sample", "400", "--seed", "7", "--shards", "2"],
}


@pytest.mark.parametrize("name", STREAM_CASES)
def test_search_stream_matches_golden(name, capsys, tmp_path):
    stream = tmp_path / "passing.jsonl"
    argv = ["search", "--mode", "uv", "--n", "3", *STREAM_CASES[name], "--stream", str(stream)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode() == (GOLDEN / "streams" / f"{name}.out").read_bytes()
    assert stream.read_bytes() == (GOLDEN / "streams" / f"{name}.jsonl").read_bytes()
