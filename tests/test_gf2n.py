import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpf.errors import InputError
from mpf.gf2n import (
    MAX_DEGREE,
    default_modulus,
    dual_mask,
    fe_mul,
    field_from_json,
    field_tables,
    field_to_json,
    make_field,
    poly_is_irreducible,
    sigma,
    trace_n,
)
from oracles import naive_field_mul, naive_is_irreducible

F4 = make_field(2)
ALPHA = 2  # residue of X in the polynomial basis


def test_default_modulus_f4():
    assert F4.modulus == 0b111


def test_default_modulus_f2():
    assert make_field(1).modulus == 0b10


def test_default_modulus_f8():
    assert make_field(3).modulus == 0b1011


@pytest.mark.parametrize("n", range(1, 9))
def test_default_modulus_is_smallest_irreducible(n):
    mod = default_modulus(n)
    assert naive_is_irreducible(mod)
    for smaller in range(1 << n, mod):
        assert not naive_is_irreducible(smaller)


@pytest.mark.parametrize("n", range(9, 25))
def test_default_modulus_large_degrees(n):
    assert poly_is_irreducible(default_modulus(n))


def test_make_field_rejects_reducible():
    with pytest.raises(InputError, match=r"modulus 0x5 is reducible over GF\(2\)"):
        make_field(2, 0b101)  # X^2 + 1 = (X+1)^2


def test_make_field_rejects_wrong_degree():
    with pytest.raises(InputError, match="modulus 0x7 is not a polynomial of degree 3"):
        make_field(3, 0b111)


def test_make_field_degree_bounds():
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(InputError, match=r"n must be in \[1, 20\], got 21"):
        make_field(21)
    assert make_field(20).n == MAX_DEGREE == 20


def test_field_tables_build_at_the_table_degree_bound_and_refuse_past_it():
    # One degree bound for every object: the 2^n-entry tables build at
    # n = 20, and no field of degree 21 exists to build them for.
    tables = field_tables(make_field(20))
    assert tables.mul(3, 5) == fe_mul(tables.spec, 3, 5)
    with pytest.raises(InputError, match=r"n must be in \[1, 20\]"):
        make_field(21)


def test_field_tables_refuse_past_the_bound_before_allocating():
    # The degree is checked before the modulus search or any table: at
    # n = 21 one table would take several MiB, the refusal about 1 KB.
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"n must be in \[1, 20\]"):
            make_field(21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_field_tables_are_built_at_once_as_plain_attributes(n):
    q = 1 << n
    tables = vars(field_tables(make_field(n)))
    shapes = {name: (str(a.dtype), a.shape) for name, a in tables.items() if isinstance(a, np.ndarray)}
    assert shapes == {
        "exp": ("int32", (4 * q - 3,)),
        "log": ("int32", (q,)),
        "dual": ("int64", (q,)),
        "sigma_exp": ("uint8", (4 * q - 3,)),
    }


def test_make_field_refuses_a_negative_modulus():
    # -0x7 has the bit length of a degree-2 polynomial; trial division
    # by it never ended.
    with pytest.raises(InputError, match="modulus -0x7 is not a polynomial of degree 2"):
        make_field(2, -0x7)


def test_fe_mul_f4_alpha_squared():
    assert fe_mul(F4, ALPHA, ALPHA) == 3  # X^2 = X + 1 mod X^2+X+1


@pytest.mark.parametrize("a", range(4))
def test_fe_mul_identities(a):
    assert fe_mul(F4, a, 0) == 0
    assert fe_mul(F4, a, 1) == a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fe_mul_matches_naive(n):
    spec = make_field(n)
    for a in spec.elements():
        for b in spec.elements():
            assert fe_mul(spec, a, b) == naive_field_mul(spec, a, b)


@pytest.mark.parametrize("n", range(1, 9))
def test_table_mul_matches_fe_mul_on_every_pair(n):
    # n = 1 has a trivial multiplicative group; zeros are included.
    spec = make_field(n)
    a = np.arange(spec.order)
    want = np.array([[fe_mul(spec, x, y) for y in spec.elements()] for x in spec.elements()])
    assert np.array_equal(field_tables(spec).mul(a[:, None], a[None, :]), want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fe_mul_ring_axioms(n):
    spec = make_field(n)
    elems = list(spec.elements())
    for a in elems:
        for b in elems:
            assert fe_mul(spec, a, b) == fe_mul(spec, b, a)
            for c in elems[:4]:
                assert fe_mul(spec, fe_mul(spec, a, b), c) == fe_mul(spec, a, fe_mul(spec, b, c))
                assert fe_mul(spec, a, b ^ c) == fe_mul(spec, a, b) ^ fe_mul(spec, a, c)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_multiplicative_orders_divide_group_order(n):
    spec = make_field(n)
    for a in range(1, spec.order):
        v = a
        order = 1
        while v != 1:
            v = fe_mul(spec, a, v)
            order += 1
        assert (spec.order - 1) % order == 0


def test_trace_zero():
    assert trace_n(F4, 0) == 0


def test_trace_f4_values():
    # alpha + alpha^2 = alpha + alpha + 1 = 1; 1 + 1 = 0
    assert trace_n(F4, ALPHA) == 1
    assert trace_n(F4, 1) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trace_linear_and_frobenius_invariant(n):
    spec = make_field(n)
    for a in spec.elements():
        assert trace_n(spec, fe_mul(spec, a, a)) == trace_n(spec, a)
        for b in spec.elements():
            assert trace_n(spec, a ^ b) == trace_n(spec, a) ^ trace_n(spec, b)


def test_sigma_at_zero():
    assert sigma(F4, 1, 0) == 0
    assert sigma(F4, 0, 1) == 0


def test_sigma_f4_values():
    assert sigma(F4, 1, ALPHA) == 1  # alpha * alpha^2 = 1
    assert sigma(F4, 1, 1) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sigma_depends_only_on_product(n):
    spec = make_field(n)
    for c in spec.elements():
        for x in spec.elements():
            assert sigma(spec, c, x) == sigma(spec, 1, fe_mul(spec, c, x))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sigma_is_idempotent_in_the_field(n):
    # the double sum evaluates inside the field to a root of t^2 = t
    spec = make_field(n)
    for c in spec.elements():
        for x in spec.elements():
            y = fe_mul(spec, c, x)
            pows = [y]
            for _ in range(n - 1):
                pows.append(fe_mul(spec, pows[-1], pows[-1]))
            acc = 0
            for i in range(n):
                for j in range(i + 1, n):
                    acc ^= fe_mul(spec, pows[i], pows[j])
            assert acc == fe_mul(spec, acc, acc)
            assert acc == sigma(spec, c, x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_addition_rule_exhaustive(n):
    spec = make_field(n)
    for c in spec.elements():
        for x1 in spec.elements():
            for x2 in spec.elements():
                lhs = sigma(spec, c, x1 ^ x2)
                rhs = (
                    sigma(spec, c, x1)
                    ^ sigma(spec, c, x2)
                    ^ (trace_n(spec, fe_mul(spec, c, x1)) & trace_n(spec, fe_mul(spec, c, x2)))
                    ^ trace_n(spec, fe_mul(spec, fe_mul(spec, c, c), fe_mul(spec, x1, x2)))
                )
                assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_sigma_addition_rule_random(n, data):
    spec = make_field(n)
    top = spec.order - 1
    c = data.draw(st.integers(0, top))
    x1 = data.draw(st.integers(0, top))
    x2 = data.draw(st.integers(0, top))
    lhs = sigma(spec, c, x1 ^ x2)
    rhs = (
        sigma(spec, c, x1)
        ^ sigma(spec, c, x2)
        ^ (trace_n(spec, fe_mul(spec, c, x1)) & trace_n(spec, fe_mul(spec, c, x2)))
        ^ trace_n(spec, fe_mul(spec, fe_mul(spec, c, c), fe_mul(spec, x1, x2)))
    )
    assert lhs == rhs


@pytest.mark.parametrize("n", range(1, 10))
def test_sigma_table_matches_scalar_sigma_everywhere(n):
    # sigma_exp[log y] = sigma(1, y); at y = 0 log's zero sentinel reads 0.
    spec = make_field(n)
    t = field_tables(spec)
    assert t.sigma_exp.take(t.log).tolist() == [sigma(spec, 1, y) for y in spec.elements()]


@settings(max_examples=200, deadline=None)
@given(st.integers(10, 14), st.data())
def test_sigma_table_reads_sigma_at_the_product(n, data):
    # sigma(c, x) depends on c and x only through cx, so sigma_exp at
    # log c + log x is the form, zeros included.
    spec = make_field(n)
    t = field_tables(spec)
    c = data.draw(st.integers(0, spec.order - 1))
    x = data.draw(st.integers(0, spec.order - 1))
    assert t.sigma_exp[t.log[c] + t.log[x]] == sigma(spec, c, x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trace_mod4_identity(n):
    # with traces lifted to {0,1}: Tr(x) + Tr(y) = Tr(x+y) + 2 Tr(x)Tr(y) mod 4
    spec = make_field(n)
    for x in spec.elements():
        tx = trace_n(spec, x)
        for y in spec.elements():
            ty = trace_n(spec, y)
            assert (tx + ty) % 4 == (trace_n(spec, x ^ y) + 2 * tx * ty) % 4


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dual_mask_represents_trace_pairing(n):
    spec = make_field(n)
    masks = set()
    for u in spec.elements():
        m = dual_mask(spec, u)
        masks.add(m)
        for x in spec.elements():
            assert trace_n(spec, fe_mul(spec, u, x)) == ((m & x).bit_count() & 1)
    assert len(masks) == spec.order  # the pairing is nondegenerate


def test_field_json_round_trip():
    spec = make_field(5)
    obj = field_to_json(spec)
    assert obj == {"n": 5, "modulus": "0x25"}
    assert field_from_json(obj) == spec
