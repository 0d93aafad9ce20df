import io
import json

import numpy as np
import pytest

from mpf import search
from mpf.cli import main
from mpf.errors import FilterDisagreementError, SearchBoundsError
from mpf.gf2n import make_field
from mpf.planar import VectorialFunction, is_modified_planar_perm
from mpf.rds import MAX_PAIR_WORK
from mpf.search import (
    SearchJob,
    candidate_function,
    class_size,
    report_to_json,
    run_search,
)
from oracles import enumerate_class

F4 = make_field(2)


def test_class_sizes():
    assert class_size("uv", 1, "all") == 4
    assert class_size("mv", 2, "all") == 256
    assert class_size("uv", 2, "affine") == 64  # (a, b, const) over GF(4)
    assert class_size("uv", 3, "do_quadratic") == 512  # three coefficient slots
    assert class_size("uv", 2, "do_quadratic") * class_size("uv", 2, "affine") == 256
    with pytest.raises(ValueError):
        class_size("uv", 2, "do_plus_affine")  # retired: answered by do_quadratic


def test_enumerate_all_is_exhaustive_and_canonical():
    tables = [F.table for F in enumerate_class("mv", 2, "all")]
    assert len(tables) == 256
    assert len(set(tables)) == 256
    assert tables[0] == (0, 0, 0, 0)
    assert tables[1] == (1, 0, 0, 0)  # index digits are little-endian in x
    assert tables[4] == (0, 1, 0, 0)


def test_enumerate_affine_matches_polynomial_count():
    funcs = list(enumerate_class("uv", 2, "affine"))
    assert len(funcs) == 64
    # linearized polynomials with exponents 2^i, i < n, are distinct as maps
    assert len({F.table for F in funcs}) == 64
    assert all(F.mode == "uv" for F in funcs)


def test_enumerate_do_quadratic_f8():
    funcs = list(enumerate_class("uv", 3, "do_quadratic"))
    assert len(funcs) == 512
    assert funcs[0].table == (0,) * 8


def test_enumerate_rejects_oversized_jobs():
    with pytest.raises(SearchBoundsError):
        list(enumerate_class("mv", 3, "all"))
    with pytest.raises(SearchBoundsError):
        run_search(SearchJob("uv", 6, "do_quadratic"))


def test_exhaustive_do_quadratic_n5_is_refused_before_decoding(monkeypatch, capsys):
    # 32^10 = 2^50 candidates: refused before the first one is decoded.
    import mpf.search
    from mpf.cli import main

    decoded = []
    monkeypatch.setattr(mpf.search, "candidate_function", lambda *args: decoded.append(args))
    with pytest.raises(SearchBoundsError):
        run_search(SearchJob("uv", 5, "do_quadratic"))
    assert main(["search", "--mode", "uv", "--n", "5", "--class", "do_quadratic"]) == 3
    assert capsys.readouterr().err.startswith("error: exhaustive do_quadratic jobs are limited to n <= 4")
    assert decoded == []


def test_sampled_jobs_are_bounded_per_candidate(monkeypatch, capsys):
    # Each candidate costs about 4^n steps; past rds.MAX_PAIR_WORK (n >= 14)
    # a sampled job is refused before its first candidate is decoded.
    decoded = []
    monkeypatch.setattr(search, "candidate_function", lambda *args: decoded.append(args))
    argv = ["search", "--mode", "uv", "--n", "16", "--class", "affine", "--sample", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: sampled jobs are limited to 4^n <= {MAX_PAIR_WORK}, got n=16"]
    with pytest.raises(SearchBoundsError):
        run_search(SearchJob("uv", 14, "affine", sample=1))
    assert decoded == []
    assert run_search(SearchJob("uv", 13, "affine", sample=0)).examined == 0


@pytest.mark.parametrize("stream", [False, True])
def test_each_candidate_is_decoded_once(stream, monkeypatch, tmp_path):
    calls = []
    real = search.candidate_function
    monkeypatch.setattr(search, "candidate_function", lambda *args: calls.append(args) or real(*args))
    job = SearchJob("uv", 3, "affine", seed=7, sample=400)
    report = run_search(job, stream=str(tmp_path / "passing.jsonl") if stream else None)
    assert report.examined == report.passing == 400  # every affine function is planar
    assert len(calls) == 400


def test_decoding_checks_the_default_modulus_once_per_degree(monkeypatch):
    import mpf.gf2n

    for n in (3, 4):
        mpf.gf2n.default_modulus(n)  # the search for it is not a re-check
    mpf.gf2n._default_field.cache_clear()
    degrees = []
    real = mpf.gf2n.poly_is_irreducible

    def spy(p):
        degrees.append(p.bit_length() - 1)
        return real(p)

    monkeypatch.setattr(mpf.gf2n, "poly_is_irreducible", spy)
    for n in (3, 4):
        for index in range(200):
            candidate_function("uv", n, "do_quadratic", index)
            candidate_function("uv", n, "affine", index)
            candidate_function("uv", n, "all", index)
    assert sorted(degrees) == [3, 4]


def test_job_validation():
    with pytest.raises(ValueError):
        SearchJob("mv", 2, "affine")  # polynomial classes are univariate
    with pytest.raises(ValueError):
        SearchJob("uv", 2, "all", "nope")
    with pytest.raises(ValueError):
        SearchJob("uv", 2, "all", shards=0)


def test_run_search_uv_n1_all():
    report = run_search(SearchJob("uv", 1, "all", "both"))
    assert report.examined == 4
    assert report.passing == 4
    assert report.cross_check is True


def test_run_search_uv_affine_all_pass():
    report = run_search(SearchJob("uv", 2, "affine", "both"))
    assert report.examined == 64
    assert report.passing == 64


def test_run_search_mv_n2_census():
    report = run_search(SearchJob("mv", 2, "all", "both"))
    assert report.examined == 256
    assert report.passing == 64  # frozen census from the exhaustive oracle
    oracle = sum(
        1 for F in enumerate_class("mv", 2, "all") if is_modified_planar_perm(F).is_planar
    )
    assert report.passing == oracle


def test_do_quadratic_plus_affine_census_n2():
    # Adding L(x) + b never changes the verdict, so every sum counts as its
    # quadratic part does: census(do_quadratic) * q^(n+1) planar functions.
    quadratics = list(enumerate_class("uv", 2, "do_quadratic"))
    affines = list(enumerate_class("uv", 2, "affine"))
    planar = sum(
        is_modified_planar_perm(
            VectorialFunction("uv", 2, tuple(u ^ v for u, v in zip(F.table, L.table)), F4)
        ).is_planar
        for F in quadratics
        for L in affines
    )
    census = run_search(SearchJob("uv", 2, "do_quadratic")).passing
    assert len(quadratics) * len(affines) == 256
    assert planar == census * 4 ** 3


@pytest.mark.parametrize("shards", [1, 2, 8])
def test_shard_independence(shards):
    single = run_search(SearchJob("mv", 2, "all", "both", shards=1))
    sharded = run_search(SearchJob("mv", 2, "all", "both", shards=shards))
    assert sharded == single
    assert json.dumps(report_to_json(sharded)) == json.dumps(report_to_json(single))


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stands in for the process pool: records the worker cap and the payloads, runs shards here."""
    import concurrent.futures

    seen = {"workers": [], "payloads": []}

    class InProcessPool:
        def __init__(self, max_workers):
            seen["workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            seen["payloads"].extend(payloads)
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return seen


@pytest.mark.parametrize("shards, cpus, workers", [(64, 2, 2), (64, None, 1), (3, 8, 3)])
def test_pool_workers_capped_at_cpu_count(shards, cpus, workers, in_process_pool, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    sharded = run_search(SearchJob("mv", 2, "all", "both", shards=shards))
    assert in_process_pool["workers"] == [workers]
    assert sharded == run_search(SearchJob("mv", 2, "all", "both"))


def test_sampled_shards_capped_at_four_per_cpu(in_process_pool, monkeypatch):
    # A sampled job's candidate count is --sample, so that cap alone would
    # build one payload per draw.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    job = SearchJob("mv", 2, "all", "both", shards=10**6, sample=20000)
    sharded = run_search(job)
    assert 1 < len(in_process_pool["payloads"]) <= 8
    assert sharded == run_search(SearchJob("mv", 2, "all", "both", sample=20000))


def _flip_components(monkeypatch, indices):
    """Flip the components verdict of the mv n = 2 candidates at indices, in the kernel search calls."""
    flipped = {candidate_function("mv", 2, "all", i).table for i in indices}
    real = search.components_flat

    def flipping(n, f, spec=None):
        verdicts = real(n, f, spec)
        for j, table in enumerate(f.T.tolist()):
            if tuple(table) in flipped:
                verdicts[j] = not verdicts[j]
        return verdicts

    monkeypatch.setattr(search, "components_flat", flipping)


# Indices of the exhaustive mv n = 2 job (256 candidates: one block per
# shard); at 2 shards, 128.. is the second shard.
_FLIPS = [[0], [5], [9, 5], [130], [250, 130], [200, 9]]


@pytest.mark.parametrize("flips", _FLIPS, ids=str)
@pytest.mark.parametrize("shards", [1, 2])
def test_filter_disagreement_stops_at_first_flipped_index(shards, flips, in_process_pool, monkeypatch):
    _flip_components(monkeypatch, flips)
    first = min(flips)
    with pytest.raises(FilterDisagreementError, match=rf"at index {first}$") as exc:
        run_search(SearchJob("mv", 2, "all", "both", shards=shards))
    assert exc.value.function == candidate_function("mv", 2, "all", first)
    assert len(in_process_pool["payloads"]) == (shards if shards > 1 else 0)
    # The shard that meets it reports the candidates before it.
    lo = 128 if shards == 2 and first >= 128 else 0
    examined, passing, (index, F) = search._run_shard((SearchJob("mv", 2, "all", "both"), lo, 256 // shards + lo))
    assert (examined, index) == (first - lo, first)
    assert F == candidate_function("mv", 2, "all", first)
    before = [candidate_function("mv", 2, "all", i) for i in range(lo, first)]
    assert passing.dtype == np.uint8 and passing.shape[1:] == (4,)
    assert passing.tolist() == [list(G.table) for G in before if is_modified_planar_perm(G).is_planar]


@pytest.mark.parametrize("shards", ["1", "2"])
def test_cli_search_exits_4_on_filter_disagreement(shards, in_process_pool, monkeypatch, capsys):
    _flip_components(monkeypatch, [9, 5])
    argv = ["search", "--mode", "mv", "--n", "2", "--class", "all", "--filter", "both", "--shards", shards]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: planarity filters disagree at index 5"]


def test_filters_agree_per_candidate():
    perm = run_search(SearchJob("uv", 2, "all", "perm"))
    comp = run_search(SearchJob("uv", 2, "all", "components"))
    assert perm.passing == comp.passing
    assert perm.passing_functions == comp.passing_functions


def test_sampled_jobs_are_reproducible():
    job = SearchJob("uv", 3, "do_quadratic", "perm", seed=11, sample=50)
    a = run_search(job)
    b = run_search(job)
    assert a == b
    assert a.examined == 50
    other_seed = run_search(SearchJob("uv", 3, "do_quadratic", "perm", seed=12, sample=50))
    assert other_seed.examined == 50


def test_sampled_jobs_shard_identically():
    job1 = SearchJob("uv", 3, "do_quadratic", "perm", seed=11, sample=40, shards=1)
    job3 = SearchJob("uv", 3, "do_quadratic", "perm", seed=11, sample=40, shards=3)
    assert run_search(job1) == run_search(job3)


def test_stream_output(tmp_path):
    path = tmp_path / "passing.jsonl"
    report = run_search(SearchJob("uv", 1, "all", "both"), stream=str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == report.passing == 4
    first = json.loads(lines[0])
    assert first["mode"] == "uv"
    assert first["table"] == ["0x0", "0x0"]
    # A file the caller passes is written to and left open.
    out = io.StringIO()
    assert run_search(SearchJob("uv", 1, "all", "both"), stream=out) == report
    assert out.getvalue() == path.read_text()


def test_candidate_decode_round_trip():
    for index in (0, 1, 100, 255):
        F = candidate_function("mv", 2, "all", index)
        rebuilt = sum(v << (2 * x) for x, v in enumerate(F.table))
        assert rebuilt == index


def test_report_json_shape():
    report = run_search(SearchJob("uv", 1, "all", "both"))
    obj = report_to_json(report)
    assert obj["examined"] == 4
    assert obj["passing"] == 4
    assert obj["cross_check"] is True
    assert obj["functions"][0] == ["0x0", "0x0"]
