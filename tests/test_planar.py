import functools
import itertools
import operator
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpf.planar
import mpf.transforms
from mpf.gf2n import fe_mul, field_tables, make_field, trace_n
from mpf.planar import (
    DOPolynomial,
    PlanarVerdict,
    VectorialFunction,
    do_monomials,
    do_tables,
    do_to_table,
    function_from_json,
    function_to_json,
    is_modified_planar_components,
    is_modified_planar_perm,
    perm_witnesses,
)
from mpf.search import class_size, decode_block, slot_monomials
from oracles import (
    affine_representatives,
    class_polynomial,
    component_mv,
    component_uv,
    do_table_pointwise,
    is_permutation,
    perm_verdict_direct,
    sqrt_form,
    sqrt_transport,
    table_values,
    transport_function,
)

F4 = make_field(2)
F8 = make_field(3)


def uv(table, spec=F4):
    return VectorialFunction("uv", spec.n, tuple(table), spec)


def mv(table, n=2):
    return VectorialFunction("mv", n, tuple(table))


def test_vectorial_function_validation():
    with pytest.raises(ValueError):
        VectorialFunction("mv", 2, (0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        VectorialFunction("mv", 2, (0, 1, 2, 4))  # entry out of range
    with pytest.raises(ValueError):
        VectorialFunction("uv", 2, (0, 0, 0, 0))  # missing field
    with pytest.raises(ValueError):
        VectorialFunction("mv", 2, (0, 0, 0, 0), F4)  # stray field


def test_do_to_table_zero():
    assert do_to_table(DOPolynomial(F4)).table == (0, 0, 0, 0)


def test_do_to_table_cube_on_f4():
    # x^(2^0 + 2^1) = x^3: the norm map, 1 on every nonzero element
    p = DOPolynomial(F4, quad={(0, 1): 1})
    assert do_to_table(p).table == (0, 1, 1, 1)


def test_monomials_x_to_the_2k_plus_1_are_modified_planar_at_n_4_8_12_only():
    # x^(2^k+1), 1 <= k < n, on GF(2^n) for n = 2..12: one do_monomials
    # block per n for both kernels.  n = 2k is not enough: at n = 2, 6 and
    # 10 the k = n/2 monomial fails at direction a = 2, 3 and 3.
    found, half = [], {}
    for n in range(2, 13):
        spec = make_field(n)
        block = do_monomials(spec, [(1 << k) + 1 for k in range(1, n)])
        witnesses = perm_witnesses(n, block, spec)
        assert mpf.transforms.components_flat(n, block, spec).tolist() == (witnesses == 0).tolist(), n
        found += [(n, k) for k in range(1, n) if not witnesses[k - 1]]
        if not n & 1:
            half[n] = int(witnesses[n // 2 - 1])
        if n in (2, 6):  # the definition read literally agrees
            F = VectorialFunction("uv", n, block[n // 2 - 1].tolist(), spec)
            assert perm_verdict_direct(F).witness_a == half[n]
    assert found == [(4, 2), (8, 4), (12, 6)]
    assert half == {2: 2, 4: 0, 6: 3, 8: 0, 10: 3, 12: 0}


def test_the_modified_planar_power_maps_up_to_n_11():
    # Every x^d, d < q - 1, in one do_monomials block that both kernels take
    # unchanged (the perm kernel alone at n = 11): the modified planar ones
    # are x^0 = 1, the linear x^(2^i), and x^(2^(n/2)+1) at n = 4 and 8.
    # A cyclotomic coset of a planar exponent is not planar throughout, so
    # d must not be cut to one exponent per coset: x^10 = (x^5)^2 fails at
    # n = 4.
    for n in range(1, 12):
        spec = make_field(n)
        q = 1 << n
        block = do_monomials(spec, range(q - 1))
        planar = perm_witnesses(n, block, spec) == 0
        if n <= 10:
            assert mpf.transforms.components_flat(n, block, spec).tolist() == planar.tolist(), n
        expect = {0} | {1 << i for i in range(n) if 1 << i < q - 1} | ({(1 << n // 2) + 1} if n in (4, 8) else set())
        assert set(np.flatnonzero(planar).tolist()) == expect, n
        if n == 4:
            assert not planar[10] and planar[5]


def test_the_square_root_transport_keeps_every_witness_and_pair():
    # G = S(F) + Q fixes x, so D_a G = S(D_a F) + Q(a): G has F's bad
    # directions and colliding pairs, and its verdicts, with no map on a.
    # Every uv table at n <= 2, seeded tables and DO quadratics at n = 3..8,
    # the law itself at n = 10, and power maps at n = 10 and 12.
    for n in (1, 2):
        spec = make_field(n)
        for table in itertools.product(range(1 << n), repeat=1 << n):
            F = uv(table, spec)
            G = sqrt_transport(F)
            assert is_modified_planar_perm(G) == is_modified_planar_perm(F), table
            assert is_modified_planar_components(G) == is_modified_planar_components(F), table
    rng, draw = np.random.default_rng(27), random.Random(27)
    for n in range(3, 9):
        spec = make_field(n)
        q = 1 << n
        S, Q = map(np.array, sqrt_form(spec))
        indices = [draw.randrange(class_size("uv", n, "do_quadratic")) for _ in range(20)]
        block = np.concatenate([rng.integers(0, q, (20, q)), decode_block(n, slot_monomials(n, "do_quadratic"), indices)])
        images = S[block] ^ Q
        assert images.tolist() == [list(sqrt_transport(uv(t, spec)).table) for t in block.tolist()]
        witnesses = perm_witnesses(n, block, spec)
        assert perm_witnesses(n, images).tolist() == witnesses.tolist(), n
        assert mpf.transforms.components_flat(n, images).tolist() == (witnesses == 0).tolist(), n
        for t, image in zip(block[::4].tolist(), images[::4].tolist()):
            assert is_modified_planar_perm(mv(image, n)) == is_modified_planar_perm(uv(t, spec))
    spec = make_field(10)
    q = 1 << 10
    S, Q = map(np.array, sqrt_form(spec))
    F = rng.integers(0, q, q)
    a, x = np.arange(q)[:, None], np.arange(q)
    derivative = F[a ^ x] ^ F[x] ^ field_tables(spec).mul(a, x)
    G = S[F] ^ Q
    assert (G[a ^ x] ^ G[x] ^ (a & x) == S[derivative] ^ Q[a]).all()
    for n, exponents in ((10, range(1023)), (12, [0, 1, 3, 5, 9, 17, 33, 65, 129, 513])):
        spec = make_field(n)
        S, Q = map(np.array, sqrt_form(spec))
        block = do_monomials(spec, exponents)
        witnesses = perm_witnesses(n, block, spec)
        assert perm_witnesses(n, S[block] ^ Q).tolist() == witnesses.tolist(), n
        assert (witnesses == 0).sum() == (11 if n == 10 else 3)  # x^0, the x^(2^i) in range, x^65 at n = 12


@functools.cache
def _planar_power_map(mode, n):
    """x^(2^(n/2)+1) on GF(2^n), modified planar at n = 4, 8 and 12, or its image under sqrt_transport."""
    spec = make_field(n)
    F = uv(do_monomials(spec, [(1 << n // 2) + 1])[0].tolist(), spec)
    return F if mode == "uv" else sqrt_transport(F)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["uv", "mv"]), st.sampled_from([4, 8, 12]), st.integers(0, 4095), st.integers(1, 4095))
@example("uv", 12, 77, 1)
@example("mv", 8, 200, 1)
def test_one_changed_entry_breaks_modified_planarity_at_a_predicted_witness(mode, n, x0, delta):
    # H = F except H(x0) = F(x0) + delta, delta != 0, for a modified planar
    # F.  D_a H differs from D_a F only at x0 and x0 + a, by delta at both,
    # and D_a F(x0 + a) = D_a F(x0) + a*a, so D_a H is a bijection iff delta
    # = a*a (a*a = a for mv).  So H is never modified planar, and its
    # smallest bad direction is 1, or 2 when delta = 1.  There the two moved
    # values each land on the one point where D_a F already takes them.
    q = 1 << n
    x0, delta = x0 % q, (delta - 1) % (q - 1) + 1
    F = _planar_power_map(mode, n)
    table = list(F.table)
    table[x0] ^= delta
    H = VectorialFunction(mode, n, table, F.spec)
    a = 2 if delta == 1 else 1
    D = [F.table[x ^ a] ^ F.table[x] ^ (fe_mul(F.spec, a, x) if mode == "uv" else a & x) for x in range(q)]
    where = {v: x for x, v in enumerate(D)}
    assert len(where) == q  # F is modified planar
    pairs = [tuple(sorted((x, where[D[x] ^ delta]))) for x in (x0, x0 ^ a)]
    assert is_modified_planar_perm(H) == PlanarVerdict(False, a, min(pairs))
    if n <= 8:
        assert not is_modified_planar_components(H)


def _bad_directions(n, F, spec=None):
    """Every a != 0 whose x -> F(x+a) + F(x) + a*x is not a bijection, for F of degree <= 2.

    a*x is the field product when spec is given, a & x otherwise.  That map
    is affine in x, so it is a bijection iff it takes its value at x = 0
    nowhere else.  Scanned in blocks of about 2^20 entries.
    """
    x = np.arange(1 << n)
    bad = []
    for a in np.array_split(x[1:, None], max(1, 1 << 2 * n >> 20)):
        d = F[a ^ x] ^ F[x] ^ (a & x if spec is None else field_tables(spec).mul(a, x))
        bad.append(a[(d[:, 1:] == d[:, :1]).any(axis=1), 0])
    return np.concatenate(bad)


@pytest.mark.parametrize("n", [5, 6, 8, 10, 12])
def test_scaling_and_frobenius_map_the_bad_directions(n):
    # For G(x) = u^-2 F(ux), D_a G(x) = u^-2 D_ua F(ux), so G's bad
    # directions are F's times u^-1.  For G(x) = F(x^(1/2))^2, D_a G(x) =
    # (D_sqrt(a) F(x^(1/2)))^2, so they are F's squared.  Two seeded DO
    # quadratics per n, and at n = 8 the modified planar x^17, whose set is
    # empty.  Each whole set comes from a scan of every direction; the
    # perm kernel gives its minimum, and components_flat one verdict.
    spec = make_field(n)
    t = field_tables(spec)
    q = 1 << n
    rng = np.random.default_rng(n)
    monomials = slot_monomials(n, "do_quadratic")
    block = do_tables(spec, monomials, rng.integers(0, q, (2, len(monomials))))
    if n == 8:
        block = np.concatenate([block, do_monomials(spec, [17])])
    x = np.arange(q)
    sqrt = np.empty(q, dtype=np.int64)
    sqrt[t.mul(x, x)] = x
    for F in block:
        u = int(rng.integers(1, q))
        u_inv = int(t.exp[(q - 1 - t.log[u]) % (q - 1)])
        scaled = t.mul(t.mul(u_inv, u_inv), F[t.mul(u, x)])
        conjugate = t.mul(F[sqrt], F[sqrt])
        bad = _bad_directions(n, F, spec)
        predicted = [np.sort(t.mul(bad, u_inv)), np.sort(t.mul(bad, bad))]
        sets = [bad] + [_bad_directions(n, G, spec) for G in (scaled, conjugate)]
        assert [s.tolist() for s in sets[1:]] == [s.tolist() for s in predicted], u
        rows = np.stack([F, scaled, conjugate])
        assert perm_witnesses(n, rows, spec).tolist() == [int(s.min()) if len(s) else 0 for s in sets], u
        if n <= 8:
            assert mpf.transforms.components_flat(n, rows, spec).tolist() == [len(bad) == 0] * 3, u


def _degree_two_tables(mode, n, rng, planar):
    """Degree-2 tables on 2^n points: the zero DO quadratic when planar, a seeded one, and the zero one plus c x_{n-1} x_{n-2}.

    The zero DO quadratic is modified planar: a*x alone in uv, and its
    sqrt_form transport Q in mv, which carries every DO quadratic to mv.
    Adding c x_{n-1} x_{n-2} to it leaves every direction a good whose bits
    n-1 and n-2 are clear, so that table's first bad direction is at least
    2^(n-2); a seeded DO quadratic mostly fails at a = 1 already.
    """
    spec = make_field(n)
    monomials = slot_monomials(n, "do_quadratic")
    coeffs = np.zeros((3, len(monomials)), dtype=np.int64)
    coeffs[1] = rng.integers(0, 1 << n, len(monomials))
    block = do_tables(spec, monomials, coeffs)
    if mode == "mv":
        S, Q = map(np.array, sqrt_form(spec))
        block = S[block] ^ Q
    x = np.arange(1 << n)
    block[2] ^= int(rng.integers(1, 1 << n)) * (x >> n - 1 & x >> n - 2 & 1)
    return block[1 - planar :]


@pytest.mark.parametrize("n", [10, 11, 12])
def test_a_coordinate_permutation_maps_the_mv_bad_directions(n):
    # For G = P F P^-1, with P a permutation of the n coordinates, P(u & v)
    # = P(u) & P(v), so D_a G(x) = P(D_{P^-1 a} F(P^-1 x)) and G's bad
    # directions are P of F's.  Two mv quadratic tables, and at n = 10 the
    # modified planar one (the empty set; the perm kernel scans every
    # direction of a planar row, cheap only there).  Each whole set comes
    # from a scan of every direction, and the perm kernel gives its minimum.
    rng = np.random.default_rng(300 + n)
    x = np.arange(1 << n)
    moved = 0
    for F in _degree_two_tables("mv", n, rng, planar=n == 10):
        to = rng.permutation(n)
        P = sum(((x >> k) & 1) << int(to[k]) for k in range(n))
        G = P[F[np.argsort(P)]]
        bad = _bad_directions(n, F)
        predicted = np.sort(P[bad])
        assert _bad_directions(n, G).tolist() == predicted.tolist(), to
        assert perm_witnesses(n, np.stack([F, G])).tolist() == [int(s.min()) if len(s) else 0 for s in (bad, predicted)], to
        moved += predicted.tolist() != bad.tolist()
    assert moved == 2


@pytest.mark.parametrize("mode", ["mv", "uv"])
@pytest.mark.parametrize("n", [10, 11, 12])
def test_an_affine_term_keeps_the_whole_verdict_at_n_10_to_12(mode, n):
    # D_a(F + A) = D_a F + L(a) for A = L + b with L linear: every derivative
    # moves by a constant, so F + A has F's bad directions and, at the first,
    # F's colliding pairs.  The quadratic tables of the test above, whose
    # first bad direction comes from a scan of every direction, and a random
    # table, which has no shape the law could lean on.
    q = 1 << n
    spec = make_field(n) if mode == "uv" else None
    rng = np.random.default_rng(400 + 2 * n + (mode == "uv"))
    quadratics = _degree_two_tables(mode, n, rng, planar=n == 10)
    rows = np.concatenate([quadratics, rng.integers(0, q, (1, q))])
    affine = np.array([rng.integers(q)])
    for _ in range(n):
        affine = np.concatenate([affine, affine ^ rng.integers(q)])
    witnesses = [int(s.min()) if len(s) else 0 for s in (_bad_directions(n, F, spec) for F in quadratics)]
    assert witnesses.count(0) == (n == 10)
    found = perm_witnesses(n, np.concatenate([rows, rows ^ affine]), spec).tolist()
    random_witness = found[len(quadratics)]
    assert random_witness > 0
    assert found == 2 * (witnesses + [random_witness])
    for F in rows:
        verdict = is_modified_planar_perm(VectorialFunction(mode, n, F.tolist(), spec))
        assert is_modified_planar_perm(VectorialFunction(mode, n, (F ^ affine).tolist(), spec)) == verdict


def test_do_to_table_frobenius_on_f4():
    p = DOPolynomial(F4, linearized={1: 1})  # x^2
    assert do_to_table(p).table == (0, 1, 3, 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_do_monomials_are_scalar_powers(n):
    # Every affine slot exponent (2^i and the constant's 0) and every
    # do_quadratic one (2^i + 2^j, i < j) at every x, 0 included (0^0 = 1),
    # against products of the scalar Frobenius powers x^(2^k).  At n = 1
    # the unit group has order q - 1 = 1.
    spec = make_field(n)
    exponents = [1 << i for i in range(n)] + [0] + [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    rows = do_monomials(spec, exponents)
    assert rows.dtype == np.int64 and rows.shape == (len(exponents), 1 << n)
    for x in range(1 << n):
        frobenius = [x]
        for _ in range(n - 1):
            frobenius.append(fe_mul(spec, frobenius[-1], frobenius[-1]))
        want = []
        for e in exponents:
            power = 1
            for k in range(n):
                if e >> k & 1:
                    power = fe_mul(spec, power, frobenius[k])
            want.append(power)
        assert rows[:, x].tolist() == want, x
    assert rows[n].tolist() == [1] * (1 << n)  # x^0 = 1, at x = 0 too
    assert not rows[np.arange(len(exponents)) != n, 0].any()  # 0^e = 0 for e > 0


def test_do_polynomial_validates_exponents():
    with pytest.raises(ValueError):
        DOPolynomial(F4, quad={(1, 1): 1})
    with pytest.raises(ValueError):
        DOPolynomial(F4, quad={(0, 2): 1})  # j = n, the first index past the field
    with pytest.raises(ValueError):
        DOPolynomial(F4, linearized={2: 1})


def test_do_polynomial_constant_is_a_field_element():
    assert DOPolynomial(F8, constant=F8.order - 1).constant == 7
    with pytest.raises(ValueError, match="constant"):
        DOPolynomial(F8, constant=F8.order)


def test_do_to_table_matches_pointwise_evaluation():
    p = DOPolynomial(F8, quad={(0, 1): 3, (1, 2): 5}, linearized={0: 2, 2: 7}, constant=4)
    F = do_to_table(p)
    for x in F8.elements():
        acc = 4
        acc ^= fe_mul(F8, 3, fe_mul(F8, x, fe_mul(F8, x, x)))  # x^(1+2) = x^3
        x4 = fe_mul(F8, fe_mul(F8, x, x), fe_mul(F8, x, x))
        acc ^= fe_mul(F8, 5, fe_mul(F8, fe_mul(F8, x, x), x4))  # x^(2+4) = x^6
        acc ^= fe_mul(F8, 2, x)
        acc ^= fe_mul(F8, 7, x4)
        assert F.table[x] == acc


@pytest.mark.parametrize("n", [1, 2, 3])
def test_do_to_table_matches_oracle_on_every_affine_and_quadratic(n):
    # do_to_table and the search block decoder are one evaluator; both
    # are held to the scalar oracle on every member of both classes.
    spec = make_field(n)
    for klass in ("affine", "do_quadratic"):
        indices = range(class_size("uv", n, klass))
        polys = [class_polynomial(spec, klass, i) for i in indices]
        expect = [do_table_pointwise(p) for p in polys]
        assert [do_to_table(p).table for p in polys] == expect
        block = decode_block(n, slot_monomials(n, klass), list(indices))
        assert list(map(tuple, block.tolist())) == expect


@pytest.mark.parametrize("n", [4, 5])
def test_do_to_table_matches_oracle_on_a_sample(n):
    import random

    spec = make_field(n)
    q = 1 << n
    rng = random.Random(n)
    for _ in range(64):
        quad = {(i, j): rng.randrange(q) for i in range(n) for j in range(i + 1, n)}
        lin = {i: rng.randrange(q) for i in range(n)}
        p = DOPolynomial(spec, quad, lin, rng.randrange(q))
        assert do_to_table(p).table == do_table_pointwise(p)
    for klass in ("affine", "do_quadratic"):
        indices = [rng.randrange(class_size("uv", n, klass)) for _ in range(64)]
        block = decode_block(n, slot_monomials(n, klass), indices)
        assert list(map(tuple, block.tolist())) == [do_table_pointwise(class_polynomial(spec, klass, i)) for i in indices]


def test_component_mv_examples():
    identity = mv((0, 1, 2, 3))
    assert table_values(component_mv(identity, 0b01)) == [0, 1, 0, 1]  # x_1
    zero = mv((0, 0, 0, 0))
    assert table_values(component_mv(zero, 0b10)) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        component_mv(identity, 0)


def test_component_uv_examples():
    zero = uv((0, 0, 0, 0))
    assert table_values(component_uv(F4, zero, 3)) == [0, 0, 0, 0]
    identity = uv((0, 1, 2, 3))
    assert table_values(component_uv(F4, identity, 1)) == [0, 0, 1, 1]  # Tr(x)
    with pytest.raises(ValueError):
        component_uv(F4, identity, 0)


def test_component_uv_covers_every_functional_once():
    # since c -> c^2 permutes the nonzero elements, the components over
    # c != 0 are exactly the Tr(b F3(x)) for b != 0, each once
    F = uv((3, 1, 0, 2))
    via_twist = {component_uv(F4, F, c).bits for c in range(1, 4)}
    direct = set()
    for b in range(1, 4):
        bits = 0
        for x, v in enumerate(F.table):
            if trace_n(F4, fe_mul(F4, b, v)):
                bits |= 1 << x
        direct.add(bits)
    assert via_twist == direct
    assert len(via_twist) == 3


def test_uv_zero_function_is_modified_planar():
    for n in (1, 2, 3, 4):
        spec = make_field(n)
        zero = VectorialFunction("uv", n, (0,) * (1 << n), spec)
        assert is_modified_planar_perm(zero).is_planar
        assert is_modified_planar_components(zero)


def test_mv_zero_function_is_not_modified_planar():
    for n in (2, 3, 4):
        zero = VectorialFunction("mv", n, (0,) * (1 << n))
        verdict = is_modified_planar_perm(zero)
        assert not verdict.is_planar
        assert verdict.witness_a == 1
        assert not is_modified_planar_components(zero)


def test_mv_zero_witness_detail():
    verdict = is_modified_planar_perm(mv((0, 0, 0, 0)))
    # direction a = (1,0): the map x -> a & x is two-to-one
    assert verdict.witness_a == 1
    assert verdict.collision == (0, 2)


def test_uv_affine_is_modified_planar():
    for a in F4.elements():
        for b in F4.elements():
            table = tuple(fe_mul(F4, a, x) ^ b for x in F4.elements())
            assert is_modified_planar_perm(uv(table)).is_planar


def test_uv_affine_closure_n4_sample():
    # exhaustive closure is covered at n <= 3; at n = 4 the affine class
    # has 2^20 members, so draw a fixed deterministic sample
    import random

    spec = make_field(4)
    rng = random.Random(1729)
    for _ in range(512):
        lin = {i: rng.randrange(16) for i in range(4)}
        p = DOPolynomial(spec, linearized=lin, constant=rng.randrange(16))
        verdict = is_modified_planar_perm(do_to_table(p))
        assert verdict.is_planar


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_affine_term_keeps_the_whole_verdict(n, data):
    # F(x+a) + F(x) + ax only moves by the constant L(a) when L(x) + b is
    # added, so the first bad direction and its collision stay put.
    spec = make_field(n)
    q = 1 << n
    coeff = st.integers(0, q - 1)
    quad = {(i, j): data.draw(coeff) for i in range(n) for j in range(i + 1, n)}
    lin = {i: data.draw(coeff) for i in range(n)}
    F = do_to_table(DOPolynomial(spec, quad))
    G = do_to_table(DOPolynomial(spec, quad, lin, data.draw(coeff)))
    verdict = is_modified_planar_perm(F)
    assert is_modified_planar_perm(G) == verdict
    assert is_modified_planar_components(G) == is_modified_planar_components(F) == verdict.is_planar


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(1, 6), st.data())
def test_adding_an_affine_function_keeps_the_perm_verdict(mode, n, data):
    # D_a(F + A)(x) = D_a F(x) + L(a) for A = L + b with L linear: every
    # derivative moves by a constant, so the verdict, the first bad
    # direction and its smallest colliding pair all stay put.
    q = 1 << n
    elem = st.integers(0, q - 1)
    spec = make_field(n) if mode == "uv" else None
    if mode == "uv" and data.draw(st.booleans()):
        quad = {(i, j): data.draw(elem) for i in range(n) for j in range(i + 1, n)}
        table = do_table_pointwise(DOPolynomial(spec, quad))  # planar more often than a random table
    else:
        table = data.draw(st.lists(elem, min_size=q, max_size=q))
    if mode == "uv":
        lin = {i: data.draw(elem) for i in range(n)}
        affine = do_table_pointwise(DOPolynomial(spec, linearized=lin, constant=data.draw(elem)))
    else:
        columns = [data.draw(elem) for _ in range(n)]
        b = data.draw(elem)
        affine = [functools.reduce(operator.xor, [c for k, c in enumerate(columns) if x >> k & 1], b) for x in range(q)]
    F = VectorialFunction(mode, n, table, spec)
    G = VectorialFunction(mode, n, [u ^ v for u, v in zip(table, affine)], spec)
    assert is_modified_planar_perm(G) == is_modified_planar_perm(F)


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_definition_equivalence_exhaustive_n2(mode):
    for table in itertools.product(range(4), repeat=4):
        F = uv(table) if mode == "uv" else mv(table)
        assert is_modified_planar_perm(F).is_planar == is_modified_planar_components(F)


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_definition_equivalence_random_n3(mode):
    import random

    rng = random.Random(31)
    for _ in range(150):
        table = tuple(rng.randrange(8) for _ in range(8))
        F = VectorialFunction("uv", 3, table, F8) if mode == "uv" else VectorialFunction("mv", 3, table)
        assert is_modified_planar_perm(F).is_planar == is_modified_planar_components(F)


def test_perm_verdict_matches_raw_permutation_check():
    for table in itertools.product(range(4), repeat=4):
        F = uv(table)
        expect = all(
            is_permutation(
                F.table[x ^ a] ^ F.table[x] ^ fe_mul(F4, a, x) for x in range(4)
            )
            for a in range(1, 4)
        )
        assert is_modified_planar_perm(F).is_planar == expect


def _perm_answers(mode, n, rows):
    """is_modified_planar_perm on each row, and perm_witnesses at several block sizes."""
    spec = make_field(n) if mode == "uv" else None
    verdicts = [is_modified_planar_perm(VectorialFunction(mode, n, row, spec)) for row in rows]
    witnesses = []
    # 64 entries hold one direction of one row from n = 6 on, so the
    # direction blocks and the survivors all run small.
    for block_entries in (mpf.transforms._BLOCK_ENTRIES, 64, 512):
        with mock.patch.object(mpf.transforms, "_BLOCK_ENTRIES", block_entries):
            witnesses.append(perm_witnesses(n, np.array(rows, dtype=np.uint8), spec).tolist())
    return verdicts, witnesses


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_each_perm_verdict_is_one_perm_witnesses_call(mode):
    # The one-function verdict runs the kernel that search trusts, on every
    # table, so the analyze cross-check covers it: no Python pre-pass may
    # decide a table before the kernel sees it.
    for n in (1, 2):
        spec = make_field(n) if mode == "uv" else None
        for table in itertools.product(range(1 << n), repeat=1 << n):
            with mock.patch.object(mpf.planar, "perm_witnesses", wraps=perm_witnesses) as spy:
                is_modified_planar_perm(VectorialFunction(mode, n, table, spec))
            assert spy.call_count == 1, table


@pytest.mark.parametrize(
    "mode, n, klass", [("mv", 2, "all"), ("uv", 1, "all"), ("uv", 2, "all"), ("uv", 3, "affine"), ("uv", 3, "do_quadratic")]
)
def test_perm_matches_the_direct_oracle_on_whole_classes(mode, n, klass):
    rows = decode_block(n, slot_monomials(n, klass), list(range(class_size(mode, n, klass)))).tolist()
    spec = make_field(n) if mode == "uv" else None
    expect = [perm_verdict_direct(VectorialFunction(mode, n, row, spec)) for row in rows]
    verdicts, witnesses = _perm_answers(mode, n, rows)
    assert verdicts == expect
    assert witnesses == [[v.witness_a or 0 for v in expect]] * 3


@pytest.mark.parametrize("mode", ["mv", "uv"])
@pytest.mark.parametrize("n", [1, 3])
def test_perm_verdict_matches_the_oracle_on_every_table_up_to_affine_terms(mode, n):
    # is_modified_planar_perm takes witness_a from one perm_witnesses call
    # and reads collision off that direction in Python.  n = 1 is every table
    # (n = 2 is in the whole-class test above); at n = 3 the 4096 tables
    # with F(0) = F(2^i) = 0 stand for all 2^24, since adding an affine map
    # moves each derivative by a constant, and seeded tables without that
    # normalisation ride along.
    q = 1 << n
    spec = make_field(n) if mode == "uv" else None
    if n == 1:
        tables = [list(t) for t in itertools.product(range(q), repeat=q)]
    else:
        rng = random.Random(1603)
        tables = affine_representatives(n) + [[rng.randrange(q) for _ in range(q)] for _ in range(500)]
    verdicts = [is_modified_planar_perm(VectorialFunction(mode, n, t, spec)) for t in tables]
    assert verdicts == [perm_verdict_direct(VectorialFunction(mode, n, t, spec)) for t in tables]
    witnesses = {v.witness_a for v in verdicts}
    assert witnesses == {None} if n == 1 else {None, 1, 2, 3} <= witnesses


def _quadratic_rows(mode, n, coeffs):
    """The uv DO quadratic of each coefficient list, or its mv transport."""
    spec = make_field(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = [do_table_pointwise(DOPolynomial(spec, dict(zip(pairs, c)))) for c in coeffs]
    if mode == "mv":
        rows = [transport_function(VectorialFunction("uv", n, row, spec)).table for row in rows]
    return [list(row) for row in rows]


@pytest.mark.parametrize("mode", ["mv", "uv"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_perm_matches_the_direct_oracle_on_seeded_tables(mode, n):
    # Random tables mostly fail at a = 1; DO quadratics (moved to mv by
    # the transport) fail where L_a has a kernel, and the zero quadratic
    # and its transport are planar.
    rng = random.Random(1500 + 10 * n + (mode == "uv"))
    q = 1 << n
    slots = n * (n - 1) // 2
    rows = [[rng.randrange(q) for _ in range(q)] for _ in range(10)]
    rows += _quadratic_rows(mode, n, [[0] * slots] + [[rng.randrange(q) for _ in range(slots)] for _ in range(10)])
    spec = make_field(n) if mode == "uv" else None
    expect = [perm_verdict_direct(VectorialFunction(mode, n, row, spec)) for row in rows]
    verdicts, witnesses = _perm_answers(mode, n, rows)
    assert verdicts == expect
    assert witnesses == [[v.witness_a or 0 for v in expect]] * 3
    assert expect[10].is_planar and len({v.witness_a for v in expect}) > 2


def _draw_rows(mode, n, data):
    """Random tables and DO quadratics (their transports for mv), in any mix."""
    q = 1 << n
    elem = st.integers(0, q - 1)
    rows = []
    for quadratic in data.draw(st.lists(st.booleans(), min_size=1, max_size=10)):
        if quadratic:
            coeffs = data.draw(st.lists(elem, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
            rows += _quadratic_rows(mode, n, [coeffs])
        else:
            rows.append(data.draw(st.lists(elem, min_size=q, max_size=q)))
    return rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(1, 6), st.data())
def test_a_perm_block_answers_like_its_rows_one_at_a_time(mode, n, data):
    spec = make_field(n) if mode == "uv" else None
    rows = _draw_rows(mode, n, data)
    order = data.draw(st.permutations(range(len(rows))))
    single = [is_modified_planar_perm(VectorialFunction(mode, n, row, spec)).witness_a or 0 for row in rows]
    block_entries = data.draw(st.sampled_from([16, 64, 256, 1 << 15]))
    with mock.patch.object(mpf.transforms, "_BLOCK_ENTRIES", block_entries):
        block = perm_witnesses(n, np.array([rows[i] for i in order]), spec)
    assert block.dtype == np.int64
    assert block.tolist() == [single[i] for i in order]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(1, 6), st.data())
def test_an_affine_term_keeps_each_rows_first_bad_direction(mode, n, data):
    # D_a(F + A) = D_a F + L(a) for A = L + b with L linear, so every row
    # of a block keeps its first bad direction, whatever each row adds.
    q = 1 << n
    elem = st.integers(0, q - 1)
    field = make_field(n)
    rows = _draw_rows(mode, n, data)
    shifted = []
    for row in rows:
        columns = [data.draw(elem) for _ in range(n)]
        b = data.draw(elem)
        if mode == "uv":
            affine = do_table_pointwise(DOPolynomial(field, linearized=dict(enumerate(columns)), constant=b))
        else:
            affine = [functools.reduce(operator.xor, [c for k, c in enumerate(columns) if x >> k & 1], b) for x in range(q)]
        shifted.append([u ^ v for u, v in zip(row, affine)])
    spec = field if mode == "uv" else None
    assert perm_witnesses(n, np.array(shifted), spec).tolist() == perm_witnesses(n, np.array(rows), spec).tolist()


def test_corollary_balanced_derivative_bridge():
    # planar <=> every component derivative with the matching twist is balanced
    from oracles import is_balanced, shifted_derivative_uv

    for table in itertools.product(range(4), repeat=4):
        F = uv(table)
        balanced = all(
            is_balanced(shifted_derivative_uv(F4, component_uv(F4, F, c), z, c))
            for c in range(1, 4)
            for z in range(1, 4)
        )
        assert is_modified_planar_perm(F).is_planar == balanced


def test_function_json_round_trip():
    F = uv((3, 1, 0, 2))
    obj = function_to_json(F)
    assert obj["mode"] == "uv"
    assert obj["table"] == ["0x3", "0x1", "0x0", "0x2"]
    assert function_from_json(obj) == F
    G = mv((0, 1, 2, 3))
    assert function_from_json(function_to_json(G)) == G
