"""Acceptance battery: one test per criterion, exact checks, timed gates.

Run with `pytest -s tests/test_acceptance.py` to see one pass line per
criterion; each test asserts its stated wall-clock budget where one
applies.
"""

import itertools
import json
import random
import time

import numpy as np

from mpf.boolfun import TruthTable
from mpf.gf2n import fe_mul, make_field, sigma, trace_n
from mpf.planar import (
    VectorialFunction,
    is_modified_planar_components,
    is_modified_planar_perm,
)
from mpf.rds import (
    group_elements,
    group_op,
    GroupSpec,
)
from mpf.search import SearchJob, report_to_json, run_search
from mpf.transforms import (
    bent4_witnesses,
    fwht,
    is_flat,
    transform_U,
    transform_V,
)
from oracles import (
    character_eval,
    enumerate_class,
    component_uv,
    four_verdicts,
    inverse_twisted,
    is_balanced,
    is_permutation,
    shifted_derivative_mv,
    shifted_derivative_uv,
    spectrum_pairs,
    twisted_values_mv,
    twisted_values_uv,
    u_spectrum_symmetric_form,
    u_spectrum_weight_form,
)

# Modified planar census for mv, n=2, frozen from the exhaustive
# brute-force oracle (criterion 1 machinery); regression value only.
MV_N2_CENSUS = 64


def _report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"criterion {criterion:2d}: PASS ({elapsed:6.2f}s) {detail}")


def test_criterion_01_grand_equivalence_mv():
    start = time.perf_counter()
    passing = 0
    for table in itertools.product(range(4), repeat=4):
        verdicts = four_verdicts(VectorialFunction("mv", 2, table))
        assert len(set(verdicts)) == 1, table
        passing += verdicts[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert passing == MV_N2_CENSUS
    _report(1, elapsed, f"grand equivalence, mv n=2 (256 functions, {passing} planar)")


def test_criterion_02_grand_equivalence_uv():
    start = time.perf_counter()
    spec = make_field(2)
    passing = 0
    for table in itertools.product(range(4), repeat=4):
        verdicts = four_verdicts(VectorialFunction("uv", 2, table, spec))
        assert len(set(verdicts)) == 1, table
        passing += verdicts[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, elapsed, f"grand equivalence, uv over GF(4) (256 functions, {passing} planar)")


def test_criterion_03_zero_affine_split():
    start = time.perf_counter()
    for n in (2, 3, 4):
        spec = make_field(n)
        zero_uv = VectorialFunction("uv", n, (0,) * (1 << n), spec)
        assert is_modified_planar_perm(zero_uv).is_planar
        zero_mv = VectorialFunction("mv", n, (0,) * (1 << n))
        verdict = is_modified_planar_perm(zero_mv)
        assert not verdict.is_planar
        assert verdict.witness_a is not None
        assert verdict.witness_a.bit_count() < n
    _report(3, time.perf_counter() - start, "zero function: uv passes, mv fails with small witness")


def test_criterion_04_affine_class():
    start = time.perf_counter()
    for n in (2, 3):
        spec = make_field(n)
        size = 1 << n
        flat_for_all_twists: dict[int, bool] = {}
        count = 0
        for F in enumerate_class("uv", n, "affine"):
            count += 1
            assert is_modified_planar_perm(F).is_planar
            for c in range(1, size):
                g = component_uv(spec, F, c)
                verdict = flat_for_all_twists.get(g.bits)
                if verdict is None:
                    verdict = all(
                        is_flat(transform_V(spec, g, twist)) for twist in range(1, size)
                    )
                    flat_for_all_twists[g.bits] = verdict
                assert verdict, (n, F.table, c)
        assert count == 1 << (n * (n + 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, elapsed, "affine class: 64 + 4096 functions planar, components bent4 at all twists")


def _direct_u_batch(n: int, bit_rows: np.ndarray, c: int):
    """Direct-summation spectra of many tables at one twist, both twist forms.

    Returns ((re6, im6), (re5, im5), twisted) with spectra of shape
    (num_tables, 2^n); no butterfly is involved.  twisted is the
    weight-form pointwise input, for checking the fast path separately.
    """
    size = 1 << n
    x = np.arange(size, dtype=np.uint64)
    w = np.bitwise_count(x & np.uint64(c)).astype(np.int64)
    signs = 1 - 2 * bit_rows.astype(np.int64)  # (num_tables, size)
    par = np.bitwise_count(np.arange(size, dtype=np.uint64)[:, None] & x[None, :]) & 1
    chars = 1 - 2 * par.astype(np.int64)  # chars[u, x] = (-1)^(u.x)
    i_re = np.array([1, 0, -1, 0], dtype=np.int64)
    i_im = np.array([0, 1, 0, -1], dtype=np.int64)

    # weight form: i^(wt mod 4)
    h_re = signs * i_re[w & 3]
    h_im = signs * i_im[w & 3]
    out6 = (h_re @ chars.T, h_im @ chars.T)
    twisted = (h_re, h_im)

    # symmetric form: (-1)^s2 * i^(dot), s2 = C(w, 2) mod 2, dot = w mod 2
    s2_sign = 1 - 2 * ((w * (w - 1) // 2) & 1)
    h_re = signs * s2_sign * i_re[w & 1]
    h_im = signs * s2_sign * i_im[w & 1]
    out5 = (h_re @ chars.T, h_im @ chars.T)
    return out6, out5, twisted


def test_criterion_05_transform_identities():
    start = time.perf_counter()
    # exhaustive at n <= 3: butterfly route vs both direct forms
    for n in (1, 2, 3):
        size = 1 << n
        for bits in range(1 << size):
            g = TruthTable(n, bits, "mv")
            for c in range(size):
                s = transform_U(g, c)
                pairs = spectrum_pairs(s)
                assert pairs == u_spectrum_weight_form(g, c)
                assert pairs == u_spectrum_symmetric_form(g, c)
                assert int(s.norms_sq().sum()) == size * size

    # n = 4: 10^4 random tables, all 16 twists, batched direct summation
    n, size, num = 4, 16, 10_000
    rng = np.random.default_rng(20250815)
    bit_rows = rng.integers(0, 2, size=(num, size), dtype=np.uint64)
    for c in range(size):
        (re6, im6), (re5, im5), (h_re, h_im) = _direct_u_batch(n, bit_rows, c)
        assert np.array_equal(re6, re5)
        assert np.array_equal(im6, im5)
        norms = re6 * re6 + im6 * im6
        assert (norms.sum(axis=1) == size * size).all()
        # fast path: the butterfly over the same twisted inputs, whole batch
        assert np.array_equal(fwht(h_re.T), re6.T)
        assert np.array_equal(fwht(h_im.T), im6.T)
    # and through the public per-function API on a sample of rows
    for row in range(0, num, 997):
        g = TruthTable(n, int(sum(1 << t for t in range(size) if bit_rows[row, t])), "mv")
        for c in (0, 7, 15):
            (re6, im6), _, _ = _direct_u_batch(n, bit_rows[row : row + 1], c)
            s = transform_U(g, c)
            assert np.array_equal(s.values[:, 0], re6[0])
            assert np.array_equal(s.values[:, 1], im6[0])
            assert int(s.norms_sq().sum()) == size * size
    elapsed = time.perf_counter() - start
    _report(5, elapsed, "twist forms agree and Parseval holds (exhaustive n<=3, 10^4 tables n=4)")


def test_criterion_06_criterion_equivalence():
    start = time.perf_counter()
    n, size = 3, 8
    spec = make_field(n)
    for bits in range(256):
        g_mv = TruthTable(n, bits, "mv")
        g_uv = TruthTable(n, bits, "uv")
        for c in range(size):
            flat_mv = is_flat(transform_U(g_mv, c))
            balanced_mv = all(
                is_balanced(shifted_derivative_mv(g_mv, z, c)) for z in range(1, size)
            )
            assert flat_mv == balanced_mv, ("mv", bits, c)
            flat_uv = is_flat(transform_V(spec, g_uv, c))
            balanced_uv = all(
                is_balanced(shifted_derivative_uv(spec, g_uv, z, c)) for z in range(1, size)
            )
            assert flat_uv == balanced_uv, ("uv", bits, c)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, elapsed, "flat spectrum <=> balanced shifted derivatives (n=3, both modes, all c)")


def test_criterion_07_algebraic_lemmas():
    start = time.perf_counter()
    # sigma addition rule, exhaustive n <= 5
    for n in range(1, 6):
        spec = make_field(n)
        for c in spec.elements():
            c2 = fe_mul(spec, c, c)
            sig_c = [sigma(spec, c, x) for x in spec.elements()]
            tr_c = [trace_n(spec, fe_mul(spec, c, x)) for x in spec.elements()]
            for x1 in spec.elements():
                for x2 in spec.elements():
                    lhs = sig_c[x1 ^ x2]
                    rhs = (
                        sig_c[x1]
                        ^ sig_c[x2]
                        ^ (tr_c[x1] & tr_c[x2])
                        ^ trace_n(spec, fe_mul(spec, c2, fe_mul(spec, x1, x2)))
                    )
                    assert lhs == rhs, (n, c, x1, x2)

    # trace mod-4 identity, exhaustive n <= 5
    for n in range(1, 6):
        spec = make_field(n)
        traces = [trace_n(spec, x) for x in spec.elements()]
        for x in spec.elements():
            for y in spec.elements():
                assert (traces[x] + traces[y]) % 4 == (traces[x ^ y] + 2 * traces[x] * traces[y]) % 4

    # character homomorphism, exhaustive n = 2, both laws
    groups2 = (GroupSpec("star_mv", 2), GroupSpec("star_uv", 2, make_field(2)))
    for g in groups2:
        elems = list(group_elements(g))
        for u in range(4):
            for c in range(4):
                vals = {a: character_eval(g, u, c, a) for a in elems}
                for a in elems:
                    for b in elems:
                        va, vb = vals[a], vals[b]
                        prod = (va.re * vb.re - va.im * vb.im, va.re * vb.im + va.im * vb.re)
                        assert tuple(vals[group_op(g, a, b)]) == prod

    # character homomorphism, randomized 10^5 triples at n = 4, both laws
    rng = random.Random(421)
    groups4 = (GroupSpec("star_mv", 4), GroupSpec("star_uv", 4, make_field(4)))
    for g in groups4:
        for _ in range(100_000):
            u = rng.randrange(16)
            c = rng.randrange(16)
            a = (rng.randrange(16), rng.randrange(16))
            b = (rng.randrange(16), rng.randrange(16))
            va = character_eval(g, u, c, a)
            vb = character_eval(g, u, c, b)
            vab = character_eval(g, u, c, group_op(g, a, b))
            assert (vab.re, vab.im) == (
                va.re * vb.re - va.im * vb.im,
                va.re * vb.im + va.im * vb.re,
            )

    # character separation, exhaustive n = 2, both laws
    for g in groups2:
        elems = list(group_elements(g))
        tables = set()
        for u in range(4):
            for c in range(4):
                tables.add(tuple(character_eval(g, u, c, a) for a in elems))
        assert len(tables) == 16
    elapsed = time.perf_counter() - start
    _report(7, elapsed, "sigma addition, mod-4 identity, character homomorphism and separation")


def test_criterion_08_inverse_transform():
    start = time.perf_counter()
    rng = random.Random(99)
    for n in range(1, 6):
        spec = make_field(n)
        size = 1 << n
        for _ in range(200):
            bits = rng.randrange(1 << size)
            c = rng.randrange(size)
            g_mv = TruthTable(n, bits, "mv")
            rec = inverse_twisted(transform_U(g_mv, c))
            assert [tuple(v) for v in rec] == twisted_values_mv(g_mv, c)
            g_uv = TruthTable(n, bits, "uv")
            rec = inverse_twisted(transform_V(spec, g_uv, c), spec)
            assert [tuple(v) for v in rec] == twisted_values_uv(spec, g_uv, c)
    elapsed = time.perf_counter() - start
    _report(8, elapsed, "inverse transform round-trips 10^3 random (g, c) pairs per mode")


def test_criterion_09_negabent_baselines():
    start = time.perf_counter()
    for n in range(2, 9):
        all_ones = (1 << n) - 1
        for const in (0, (1 << (1 << n)) - 1):
            assert is_flat(transform_U(TruthTable(n, const, "mv"), all_ones))
    spec = make_field(3)
    for bits in range(256):
        assert 0 not in bent4_witnesses(TruthTable(3, bits, "mv"))
        assert 0 not in bent4_witnesses(TruthTable(3, bits, "uv"), spec)
    elapsed = time.perf_counter() - start
    _report(9, elapsed, "constants are negabent (n=2..8); no c=0 witness exists at n=3")


def test_criterion_10_search_determinism_and_census():
    start = time.perf_counter()
    reports = {}
    for shards in (1, 2, 8):
        rep = run_search(SearchJob("mv", 2, "all", "both", shards=shards))
        reports[shards] = json.dumps(report_to_json(rep), sort_keys=False)
    assert reports[1] == reports[2] == reports[8]
    rep = run_search(SearchJob("mv", 2, "all", "both"))
    oracle = 0
    for F in enumerate_class("mv", 2, "all"):
        oracle += all(
            is_permutation(F.table[x ^ a] ^ F.table[x] ^ (a & x) for x in range(4))
            for a in range(1, 4)
        )
    assert rep.passing == oracle == MV_N2_CENSUS
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(10, elapsed, f"search reports byte-identical at shards 1/2/8; census {rep.passing}")


def test_criterion_11_do_quadratic_sweep():
    start = time.perf_counter()
    examined = 0
    passing = 0
    for F in enumerate_class("uv", 3, "do_quadratic"):
        examined += 1
        by_perm = is_modified_planar_perm(F).is_planar
        assert by_perm == is_modified_planar_components(F), F.table
        passing += by_perm
    assert examined == 512
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(11, elapsed, f"512 DO quadratics over GF(8) classified, filters agree ({passing} planar)")


def test_criterion_12_performance():
    rng = np.random.default_rng(12)
    gaussian = rng.integers(-1, 2, size=(1 << 22, 2)).astype(np.int64)
    start = time.perf_counter()
    fwht(gaussian)
    fwht_elapsed = time.perf_counter() - start
    assert fwht_elapsed < 5.0

    bits = int.from_bytes(rng.integers(0, 256, size=(1 << 16) // 8, dtype=np.uint8).tobytes(), "little")
    g = TruthTable(16, bits, "mv")
    start = time.perf_counter()
    s = transform_U(g, 0x5A5A)
    u_elapsed = time.perf_counter() - start
    assert u_elapsed < 1.0
    assert int(s.norms_sq().sum()) == 1 << 32
    _report(12, fwht_elapsed + u_elapsed,
            f"fwht 2^22 in {fwht_elapsed:.2f}s (<5s); transform n=16 in {u_elapsed:.3f}s (<1s)")
