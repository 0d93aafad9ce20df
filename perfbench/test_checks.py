"""The benchmark's own checkers must count a corrupted output as failed.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from inputs import first_bad_direction, mv_cross, mv_image, random_affine_uv, smallest_irreducible  # noqa: E402
from workloads import WORKLOADS, Analyze, Bent4Sweep, Search  # noqa: E402

mpf = run.load_mpf()


def _first(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


def test_mv_image_of_affine_uv_is_planar():
    import random

    rng = random.Random(0)
    for n in (2, 3, 4):
        modulus = smallest_irreducible(n)
        table = mv_image(rng, random_affine_uv(rng, n, modulus), modulus)
        assert first_bad_direction(table, mv_cross) is None


def test_analyze_flipped_verdict_and_wrong_exit_code_fail(tmp_path):
    wl = Analyze(mpf, 1, str(tmp_path))
    op = _first(wl.cycle(0), "uv3-planar")
    assert op.check(op.run()) is None
    rc = op.run()
    with open(wl.out) as fh:
        report = json.load(fh)
    report["rds_characters"] = False
    with open(wl.out, "w") as fh:
        json.dump(report, fh)
    assert "verdicts" in op.check(rc)
    assert "exit code" in op.check(4)


def test_analyze_wrong_witness_fails(tmp_path):
    wl = Analyze(mpf, 1, str(tmp_path))
    op = _first(wl.cycle(0), "mv3-nonplanar")
    rc = op.run()
    with open(wl.out) as fh:
        report = json.load(fh)
    report["witness_a"] = "0x7"
    with open(wl.out, "w") as fh:
        json.dump(report, fh)
    assert op.check(rc) is not None


def test_search_wrong_census_and_changed_report_fail(tmp_path):
    wl = Search(mpf, 1, str(tmp_path))
    ops = wl.cycle(0)[:1]  # mv n=2, all 256 functions
    report = ops[0].run()
    assert ops[0].check(report) is None
    assert wl.finish(ops) == set()
    assert "census" in ops[0].check(dataclasses.replace(report, passing=63))
    shuffled = dataclasses.replace(report, passing_functions=report.passing_functions[::-1])
    assert ops[0].check(shuffled) is None  # counts agree; only the byte comparison sees it
    assert wl.finish(ops) == {0}
    affine = wl.cycle(1)[1]  # a sample of uv affine n=3 functions, all modified planar
    report = affine.run()
    assert affine.check(report) is None
    assert "census" in affine.check(dataclasses.replace(report, passing=report.passing - 1))


def test_corrupted_library_output_is_counted_by_the_run_loop(tmp_path, monkeypatch):
    wl = Bent4Sweep(mpf, 1, str(tmp_path))
    real = mpf.transforms.bent4_witnesses
    monkeypatch.setattr(mpf.transforms, "bent4_witnesses", lambda g, spec=None: real(g, spec) - {1023})
    records = run.run_cycles(wl, cycles=2)
    failed = [op.label for op, _, error in records if error]
    # uv-zero loses c = 1023 and mv-zero loses its only witness; the rest keep theirs.
    assert failed == ["uv-zero", "mv-zero"] * 2


@pytest.mark.parametrize("pct, expected", [(50, (3, 2)), (60, (3, 2)), (80, (4, 1)), (100, (5, 0))])
def test_nearest_rank_percentile(pct, expected):
    assert run.percentile([5, 1, 4, 2, 3], pct) == expected


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_json_states_the_tail_the_code_uses(name, tmp_path):
    """The why in BENCHMARK.json names the tail percentile and the least sample count."""
    with open(run.ROOT / "BENCHMARK.json") as fh:
        why = next(w["why"] for w in json.load(fh)["workloads"] if w["name"] == name)
    wl = WORKLOADS[name](mpf, 1, str(tmp_path))
    samples = wl.min_cycles * len(wl.cycle(0))
    assert re.search(rf"tail is p{wl.tail_pct} of >={samples} ops\b", why), why
    assert samples - math.ceil(wl.tail_pct / 100 * samples) >= 10



def test_op_times_are_scaled_by_the_kernel_times_near_them(tmp_path):
    from hostspeed import LOCAL_S, REFERENCE_S, HostSpeed

    speed = HostSpeed()
    # Kernel runs 0.1 s apart: the host at full speed, then at half speed from t = 10.
    speed.times = [0.1 * i for i in range(200)]
    speed.samples = [REFERENCE_S if t < 10 else 2 * REFERENCE_S for t in speed.times]
    assert speed.local_factor(2.0, 2.5) == 1.0
    assert speed.local_factor(15.0, 15.5) == 0.5
    assert speed.local_factor(100.0, 101.0) == speed.factor()  # no kernel run near it
    wl = Bent4Sweep(mpf, 1, str(tmp_path))
    records = []
    for i, op in enumerate(wl.cycle(0)):
        op.start = 5.0 if i % 2 else 15.0 + LOCAL_S
        records.append((op, 0.5, None))
    metrics = run.end_to_end(wl, records, 1.0, 1.0, speed)
    assert sorted({lat * speed.local_factor(op.start, op.start + lat) for op, lat, _ in records}) == [0.25, 0.5]
    assert metrics["throughput_per_s"][0] == len(records) * (1 << wl.N) / (0.375 * len(records))
