import dataclasses
import hashlib
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpf import search
from mpf.cli import main
from mpf.errors import FilterDisagreementError, InputError
from mpf.gf2n import make_field
from mpf.planar import VectorialFunction, is_modified_planar_perm
from mpf.search import (
    SearchJob,
    class_size,
    report_to_json,
    run_search,
)
from oracles import candidate_function, enumerate_class

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


def test_enumerate_rejects_oversized_jobs(monkeypatch):
    with pytest.raises(InputError, match="exhaustive all jobs are limited to n <= 2, got n=3"):
        list(enumerate_class("mv", 3, "all"))
    with pytest.raises(InputError, match="exhaustive do_quadratic jobs are limited to n <= 4, got n=6"):
        run_search(SearchJob("uv", 6, "do_quadratic"))
    # affine at n = 5 would be 2^30 candidates; a decoded block fails at once.
    monkeypatch.setattr(search, "decode_block", lambda *args: None)
    with pytest.raises(InputError, match="exhaustive affine jobs are limited to n <= 4, got n=5"):
        run_search(SearchJob("uv", 5, "affine"))


def test_exhaustive_do_quadratic_n5_is_refused_before_decoding(monkeypatch, capsys):
    # 32^10 = 2^50 candidates: refused before the first one is decoded.
    import mpf.search
    from mpf.cli import main

    decoded = []
    monkeypatch.setattr(mpf.search, "decode_block", lambda *args: decoded.append(args))
    with pytest.raises(InputError, match="exhaustive do_quadratic jobs are limited to n <= 4, got n=5"):
        run_search(SearchJob("uv", 5, "do_quadratic"))
    assert main(["search", "--mode", "uv", "--n", "5", "--class", "do_quadratic"]) == 3
    assert capsys.readouterr().err.startswith("error: exhaustive do_quadratic jobs are limited to n <= 4")
    assert decoded == []


def test_sampled_jobs_are_bounded_per_candidate(monkeypatch, capsys):
    # Each candidate costs about 4^n steps; past gf2n.MAX_WORK (n >= 14)
    # a sampled job is refused before its first candidate is decoded.
    decoded = []
    monkeypatch.setattr(search, "decode_block", lambda *args: decoded.append(args))
    argv = ["search", "--mode", "uv", "--n", "16", "--class", "affine", "--sample", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: sampled jobs are limited to 4^n <= {1 << 26}, got n=16"]
    with pytest.raises(InputError, match=rf"sampled jobs are limited to 4\^n <= {1 << 26}, got n=14"):
        run_search(SearchJob("uv", 14, "affine", sample=1))
    assert decoded == []
    assert run_search(SearchJob("uv", 13, "affine", sample=0)).examined == 0


def test_sampled_jobs_are_bounded_by_draws_times_table_entries(monkeypatch, capsys):
    # A sampled shard keeps every passing table until the merge, so a job
    # whose draws times 2^n entries exceed the work bound is refused before
    # any shard starts.  Every uv n = 1 function passes, so 10^8 draws would
    # hold 10^8 tables.
    class Decoded(Exception):
        pass

    def decode(*args):
        raise Decoded

    monkeypatch.setattr(search, "decode_block", decode)
    argv = ["search", "--mode", "uv", "--n", "1", "--class", "all", "--sample", "100000000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: sampled jobs are limited to sample * 2^n <= {1 << 26}, got 100000000 at n=1"
    ]
    for n, edge in ((1, 1 << 25), (13, 1 << 13)):
        with pytest.raises(InputError, match=rf"sample \* 2\^n <= {1 << 26}, got {edge + 1} at n={n}$"):
            run_search(SearchJob("uv", n, "affine", sample=edge + 1, shards=2))
        with pytest.raises(Decoded):  # the edge itself reaches the decoder
            run_search(SearchJob("uv", n, "affine", sample=edge))


@pytest.mark.parametrize("stream", [False, True])
def test_each_candidate_is_decoded_once(stream, monkeypatch, tmp_path):
    rows = []
    real = search.decode_block
    monkeypatch.setattr(search, "decode_block", lambda n, monomials, indices: rows.extend(indices) or real(n, monomials, indices))
    job = SearchJob("uv", 3, "affine", seed=7, sample=400)
    report = run_search(job, stream=str(tmp_path / "passing.jsonl") if stream else None)
    assert report.examined == report.passing == 400  # every affine function is planar
    assert len(rows) == 400


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
    with pytest.raises(ValueError, match="sample must be >= 0"):
        SearchJob("uv", 2, "affine", sample=-1)


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


# An exhaustive job, a DO census and a sampled job with a few passing draws.
_SHARDED_JOBS = [
    SearchJob("mv", 2, "all", "both"),
    SearchJob("uv", 3, "do_quadratic", "both"),
    SearchJob("uv", 3, "do_quadratic", "both", seed=5, sample=400),
]


@pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
def test_shard_independence(shards):
    # A real pool.  A job runs min(shards, CPUs) shards, one per process:
    # the caller runs shard 0 and a pool worker each of the others.
    for job in _SHARDED_JOBS:
        single = run_search(job)
        sharded = run_search(dataclasses.replace(job, shards=shards))
        assert single.passing > 0
        assert sharded == single
        assert json.dumps(report_to_json(sharded)) == json.dumps(report_to_json(single))
        assert not multiprocessing.active_children()


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


def _pool_payloads(job, shards):
    """The payloads the pool gets: every shard but the caller's shard 0, each one contiguous range."""
    total = class_size(job.mode, job.n, job.klass) if job.sample is None else job.sample
    return [(job, s * total // shards, (s + 1) * total // shards) for s in range(1, shards)]


@pytest.mark.parametrize("shards, cpus, processes", [(64, 2, 2), (64, None, 1), (3, 8, 3)])
def test_pool_workers_capped_at_cpu_count(shards, cpus, processes, in_process_pool, monkeypatch):
    # processes counts the caller, which runs shard 0 itself: one shard per process.
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    job = SearchJob("mv", 2, "all", "both", shards=shards)
    sharded = run_search(job)
    assert in_process_pool["workers"] == ([processes - 1] if processes > 1 else [])
    assert 1 + sum(in_process_pool["workers"]) <= (cpus or 1)
    assert in_process_pool["payloads"] == _pool_payloads(job, processes)
    assert sharded == run_search(SearchJob("mv", 2, "all", "both"))


def test_sampled_shards_capped_at_cpu_count(in_process_pool, monkeypatch):
    # A sampled job's candidate count is --sample, so that cap alone would
    # build one payload per draw.  Two CPUs allow 2 shards: the caller
    # runs the first 10000 draws and one worker the last 10000.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    job = SearchJob("mv", 2, "all", "both", shards=10**6, sample=20000)
    sharded = run_search(job)
    assert in_process_pool["workers"] == [1]
    assert in_process_pool["payloads"] == _pool_payloads(job, 2) == [(job, 10000, 20000)]
    assert sharded == run_search(SearchJob("mv", 2, "all", "both", sample=20000))


def _flip_components(monkeypatch, indices):
    """Flip the components verdict of the mv n = 2 candidates at indices, in the kernel search calls."""
    flipped = {candidate_function("mv", 2, "all", i).table for i in indices}
    real = search.components_flat

    def flipping(n, f, spec=None):
        verdicts = real(n, f, spec)
        for j, table in enumerate(f.tolist()):
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
    # On two CPUs a 2-shard job runs shard 0 in the caller and shard 1 in the pool.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    _flip_components(monkeypatch, flips)
    first = min(flips)
    with pytest.raises(FilterDisagreementError, match=rf"at index {first}$") as exc:
        run_search(SearchJob("mv", 2, "all", "both", shards=shards))
    assert exc.value.function == candidate_function("mv", 2, "all", first)
    assert [(lo, hi) for _, lo, hi in in_process_pool["payloads"]] == ([(128, 256)] if shards > 1 else [])
    # The shard that meets it reports the candidates before it.
    lo = 128 if shards == 2 and first >= 128 else 0
    examined, passing, (index, F) = search._run_shard((SearchJob("mv", 2, "all", "both"), lo, 256 // shards + lo))
    assert (examined, index) == (first - lo, first)
    assert F == candidate_function("mv", 2, "all", first)
    before = [candidate_function("mv", 2, "all", i) for i in range(lo, first)]
    assert passing.dtype == np.uint8 and passing.shape[1:] == (4,)
    assert passing.tolist() == [list(G.table) for G in before if is_modified_planar_perm(G).is_planar]


def test_no_process_outlives_a_sharded_job_that_raises(monkeypatch):
    # A real pool: the caller's shard 0 meets the disagreement while a
    # worker runs shard 1, and the job raises only once the pool is shut.
    _flip_components(monkeypatch, [5])
    with pytest.raises(FilterDisagreementError, match=r"at index 5$"):
        run_search(SearchJob("mv", 2, "all", "both", shards=2))
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("shards", ["1", "2"])
def test_cli_search_exits_4_on_filter_disagreement(shards, in_process_pool, monkeypatch, capsys):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
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


def test_sampled_jobs_count_repeated_draws():
    # 500 draws from the 64 uv n = 2 affine functions must repeat; each
    # repeat is examined and, every affine function being planar, passes.
    reports = [run_search(SearchJob("uv", 2, "affine", "both", seed=3, sample=500, shards=s)) for s in (1, 3)]
    assert reports[0].examined == reports[0].passing == len(reports[0].passing_functions) == 500
    assert len(set(reports[0].passing_functions)) <= 64
    assert json.dumps(report_to_json(reports[1])) == json.dumps(report_to_json(reports[0]))


@pytest.mark.parametrize(
    "job",
    [
        SearchJob("mv", 2, "all", "both"),
        SearchJob("uv", 3, "do_quadratic", "perm"),
        SearchJob("uv", 3, "affine", "both", seed=5, sample=300),
        SearchJob("uv", 5, "do_quadratic", "both", seed=2, sample=40),
    ],
    ids=str,
)
def test_search_reports_do_not_depend_on_the_block_size(job, monkeypatch):
    expect = run_search(job)
    # 256 entries: one candidate a search block from n = 4 on, and one
    # direction a perm block at n = 5.  Search reads the bound where the
    # kernels do, so patching it there resizes the candidate blocks too:
    # perm_witnesses sees each block of at most 256 // (q * (q - 1)) rows.
    monkeypatch.setattr("mpf.transforms._BLOCK_ENTRIES", 256)
    rows = []
    real = search.perm_witnesses
    monkeypatch.setattr(search, "perm_witnesses", lambda n, t, spec: rows.append(len(t)) or real(n, t, spec))
    assert run_search(job) == expect
    q = 1 << job.n
    block = max(1, 256 // (q * (q - 1)))
    total = class_size(job.mode, job.n, job.klass) if job.sample is None else job.sample
    assert rows == [min(block, total - s) for s in range(0, total, block)]


def test_a_shard_holds_its_passing_tables_in_the_narrowest_dtype():
    # 2^n - 1 fits one byte up to n = 8 and two from n = 9 on; every affine function passes.
    for n, dtype in ((8, np.uint8), (9, np.uint16)):
        examined, passing, _ = search._run_shard((SearchJob("uv", n, "affine", "perm", sample=2), 0, 2))
        assert (examined, passing.dtype, passing.shape) == (2, dtype, (2, 1 << n))


def test_shards_build_a_function_only_for_a_disagreement(monkeypatch):
    built = []
    real = search.VectorialFunction
    monkeypatch.setattr(search, "VectorialFunction", lambda *args: built.append(args) or real(*args))
    job = SearchJob("mv", 2, "all", "both")
    assert search._run_shard((job, 0, 256))[2] is None
    assert built == []
    _flip_components(monkeypatch, [9])
    assert search._run_shard((job, 0, 256))[2][0] == 9
    assert len(built) == 1


def test_stream_output(tmp_path):
    path = tmp_path / "passing.jsonl"
    report = run_search(SearchJob("uv", 1, "all", "both"), stream=str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == report.passing == 4
    first = json.loads(lines[0])
    assert first["mode"] == "uv"
    assert first["table"] == ["0x0", "0x0"]
    # A second path, as a Path, gets the same lines and the same report.
    again = tmp_path / "again.jsonl"
    assert run_search(SearchJob("uv", 1, "all", "both"), stream=again) == report
    assert again.read_text() == path.read_text()


def test_candidate_decode_round_trip():
    for index in (0, 1, 100, 255):
        F = candidate_function("mv", 2, "all", index)
        rebuilt = sum(v << (2 * x) for x, v in enumerate(F.table))
        assert rebuilt == index


# Cases of both decoding routes (digits as the table, and DO evaluation),
# with the 384-bit indices of all at n = 6 and the empty slot list of
# do_quadratic at n = 1.
_DECODE_CASES = [
    ("mv", 2, "all"), ("mv", 6, "all"), ("uv", 6, "all"), ("uv", 1, "do_quadratic"),
    ("uv", 1, "affine"), ("uv", 4, "affine"), ("uv", 5, "do_quadratic"), ("uv", 7, "do_quadratic"),
]


@pytest.mark.parametrize("mode, n, klass", _DECODE_CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_block_decodes_like_its_indices_one_at_a_time(mode, n, klass, data):
    q = 1 << n
    indices = data.draw(st.lists(st.integers(0, class_size(mode, n, klass) - 1), min_size=1, max_size=12))
    monomials = search.slot_monomials(n, klass)
    rows = search.decode_block(n, monomials, indices).tolist()
    assert rows == [list(candidate_function(mode, n, klass, i).table) for i in indices]
    if klass == "all":
        assert rows == [[(i >> (n * x)) % q for x in range(q)] for i in indices]
    order = data.draw(st.permutations(range(len(indices))))
    assert search.decode_block(n, monomials, [indices[j] for j in order]).tolist() == [rows[j] for j in order]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(indices)), max_size=3)))
    bounds = list(zip([0] + cuts, cuts + [len(indices)]))
    parts = [search.decode_block(n, monomials, indices[a:b]) for a, b in bounds]
    assert np.concatenate(parts).tolist() == rows


def test_sampled_draws_reach_every_slot_of_large_classes():
    # mv n = 6 all has 2^384 candidates; one 256-bit digest left F(x) = 0
    # for every x >= 43 in every draw.
    size = class_size("mv", 6, "all")
    draw = search._sampler(1701, size)
    tables = [candidate_function("mv", 6, "all", draw(c)).table for c in range(200)]
    assert all(any(t[x] for t in tables) for x in range(64))
    size = class_size("uv", 9, "do_quadratic")  # 2^324
    draw = search._sampler(5, size)
    assert max(draw(c) for c in range(50)).bit_length() > 256
    # The high-order digest is SHA-256 of "seed:counter:1".
    for c in range(20):
        digests = [hashlib.sha256(text.encode()).digest() for text in (f"5:{c}:1", f"5:{c}")]
        assert draw(c) == int.from_bytes(b"".join(digests), "big") % size
    # A class past 2^768 takes three further digests: mv n = 7 all has 2^896 candidates.
    size = class_size("mv", 7, "all")
    draw = search._sampler(2, size)
    for c in range(5):
        digests = [hashlib.sha256(f"2:{c}{tail}".encode()).digest() for tail in (":3", ":2", ":1", "")]
        assert draw(c) == int.from_bytes(b"".join(digests), "big") % size
    # Classes up to 2^256 draw what one digest of "seed:counter" gives, as they always did.
    for size in (class_size("uv", 5, "do_quadratic"), class_size("uv", 8, "do_quadratic"), 1 << 256):
        draw = search._sampler(3, size)
        for c in (*range(20), 10**12):
            digest = hashlib.sha256(f"3:{c}".encode()).digest()
            assert draw(c) == int.from_bytes(digest, "big") % size


def test_a_report_lists_at_most_10000_functions():
    # Every uv n = 2 affine function passes, so all 10001 draws do.
    report = run_search(SearchJob("uv", 2, "affine", "perm", seed=3, sample=10_001))
    assert report.passing == 10_001 and len(report.passing_functions) == 10_000
    first = run_search(SearchJob("uv", 2, "affine", "perm", seed=3, sample=10_000))
    assert report.passing_functions == first.passing_functions


def test_report_json_shape():
    report = run_search(SearchJob("uv", 1, "all", "both"))
    obj = report_to_json(report)
    assert obj["examined"] == 4
    assert obj["passing"] == 4
    assert obj["cross_check"] is True
    assert obj["functions"][0] == ["0x0", "0x0"]
