import functools
import itertools
import operator
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpf.transforms
from mpf.gf2n import fe_mul, make_field, trace_n
from mpf.planar import (
    DOPolynomial,
    VectorialFunction,
    do_to_table,
    function_from_json,
    function_to_json,
    is_modified_planar_components,
    is_modified_planar_perm,
    perm_witnesses,
)
from mpf.search import class_size, decode_block, slot_monomials
from oracles import (
    class_polynomial,
    component_mv,
    component_uv,
    do_table_pointwise,
    is_permutation,
    perm_verdict_direct,
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


def test_do_to_table_frobenius_on_f4():
    p = DOPolynomial(F4, linearized={1: 1})  # x^2
    assert do_to_table(p).table == (0, 1, 3, 2)


def test_do_polynomial_validates_exponents():
    with pytest.raises(ValueError):
        DOPolynomial(F4, quad={(1, 1): 1})
    with pytest.raises(ValueError):
        DOPolynomial(F4, linearized={2: 1})


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
    # direction blocks, the row chunks and the survivors all run small.
    for block_entries in (mpf.transforms._BLOCK_ENTRIES, 64, 512):
        with mock.patch.object(mpf.transforms, "_BLOCK_ENTRIES", block_entries):
            witnesses.append(perm_witnesses(n, np.array(rows, dtype=np.uint8), spec).tolist())
    return verdicts, witnesses


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
