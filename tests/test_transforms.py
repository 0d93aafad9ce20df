import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpf.boolfun import TruthTable, from_values
from mpf.errors import InputError
from mpf.gf2n import dual_mask, fe_mul, field_tables, make_field, sigma
from mpf.planar import DOPolynomial, VectorialFunction, do_to_table, is_modified_planar_perm, perm_witnesses
from mpf.rds import GroupSpec, group_elements, rds_verify_characters
from mpf.search import class_size, decode_block, slot_monomials
from mpf.transforms import (
    _BLOCK_ENTRIES,
    GaussianInt,
    Spectrum,
    _block,
    _block_sums,
    _column_sums,
    _flat_at_zero,
    _flat_columns,
    _twisted_signs,
    bent4_witnesses,
    components_flat,
    fwht,
    is_flat,
    transform_U,
    transform_V,
)
from oracles import (
    affine_representatives,
    character_eval,
    character_norms,
    characters_direct,
    component_mv,
    component_uv,
    correlation_column_sums,
    enumerate_class,
    inverse_twisted,
    is_balanced,
    linear_form_table,
    parity,
    perm_verdict_direct,
    shifted_derivative_mv,
    shifted_derivative_uv,
    spectrum_pairs,
    twisted_values_mv,
    twisted_values_uv,
    u_spectrum_symmetric_form,
    u_spectrum_weight_form,
    v_spectrum_direct,
    walsh_hadamard_direct,
    weight,
)

F4 = make_field(2)


def test_fwht_delta_pairing():
    out = fwht(np.ones((4, 2), dtype=np.int64) * np.array([1, 0]))
    assert out[0].tolist() == [4, 0]
    assert not out[1:].any()


def test_fwht_orthogonality():
    for u0 in range(8):
        row = np.array([(-1) ** ((u0 & x).bit_count() & 1) for x in range(8)], dtype=np.int64)
        out = fwht(row)
        expected = np.zeros(8, dtype=np.int64)
        expected[u0] = 8
        assert np.array_equal(out, expected)


def test_fwht_rejects_bad_length():
    with pytest.raises(InputError, match="length 6 is not a power of two"):
        fwht(np.ones(6, dtype=np.int64))
    with pytest.raises(InputError, match="length 0 is not a power of two"):
        fwht(np.ones((0, 2), dtype=np.int64))


def test_fwht_rejects_floats():
    with pytest.raises(TypeError):
        fwht(np.ones(4, dtype=np.float64))
    with pytest.raises(TypeError):
        fwht(np.array([1, 0, 0, 1], dtype=object))


def test_fwht_accepts_gaussian_tuples():
    out = fwht([GaussianInt(1, 0), GaussianInt(0, 1)])
    assert out.tolist() == [[1, 1], [1, -1]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.data())
def test_fwht_parseval_on_signs(n, data):
    size = 1 << n
    signs = np.array([data.draw(st.sampled_from((-1, 1))) for _ in range(size)], dtype=np.int64)
    out = fwht(signs)
    assert int((out * out).sum()) == size * size


# (log2 size, scale, input dtype): a column scale * (-1)^(u0.x) peaks at
# scale * size at u0, so each case sits at the edge of one working dtype:
# int16 holds 2^14, 2^15 and 2 * 2^14 need int32, 2^40-ish values int64.
@pytest.mark.parametrize("k, scale, dtype", [
    (14, 1, np.int8),
    (15, 1, np.int8),
    (14, 2, np.int16),
    (14, (1 << 40) - 3, np.int64),
    (12, (1 << 40) + 5, np.uint64),
])
def test_fwht_exact_at_each_working_dtype_limit(k, scale, dtype):
    size = 1 << k
    rng = random.Random(k * 7 + scale)
    # An unsigned input cannot hold a sign, so its columns are constant (u0 = 0).
    unsigned = np.issubdtype(dtype, np.unsignedinteger)
    u0 = [0 if unsigned else rng.randrange(size) for _ in range(2)]
    rows = [[scale * (-1) ** parity(u & x) for u in u0] for x in range(size)]
    out = fwht(np.array(rows, dtype=dtype))
    assert out.dtype == np.int64
    got = out.tolist()
    us = sorted({*u0, *(rng.randrange(size) for _ in range(4))})
    assert [got[u] for u in us] == walsh_hadamard_direct(rows, us)
    assert [got[u][j] for j, u in enumerate(u0)] == [scale * size] * 2
    # Parseval in Python ints: a wrapped value anywhere would break it.
    assert sum(v * v for row in got for v in row) == size * sum(v * v for row in rows for v in row)


def test_fwht_refuses_sums_past_int64():
    # 4 * 2^62 = 2^64 would wrap to 0 in int64.
    with pytest.raises(OverflowError):
        fwht(np.full(4, 1 << 62, dtype=np.int64))
    with pytest.raises(OverflowError):
        fwht(np.array([(1 << 63) + 5, 0], dtype=np.uint64))
    assert fwht(np.full(2, (1 << 62) - 1, dtype=np.int64)).tolist() == [(1 << 63) - 2, 0]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.lists(st.integers(0, 3), max_size=2), st.data())
def test_fwht_matches_python_int_oracle(k, trailing, data):
    size = 1 << k
    dtype = data.draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32]))
    info = np.iinfo(dtype)
    top = min(int(info.max), (1 << 56) >> k)
    bits = data.draw(st.integers(0, top.bit_length()))
    hi = min(top, 1 << bits)
    lo = max(int(info.min), -hi)
    shape = (size, *trailing)
    flat = data.draw(st.lists(st.integers(lo, hi), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    a = np.array(flat, dtype=dtype).reshape(shape)
    out = fwht(a)
    assert out.dtype == np.int64 and out.shape == shape
    rows = a.reshape(size, -1).tolist()
    assert out.reshape(size, -1).tolist() == walsh_hadamard_direct(rows)


def test_transform_U_examples():
    g0 = TruthTable(2, 0, "mv")
    s = transform_U(g0, 0b11)
    assert s.value(0) == (0, 2)  # 1 + i + i + i^2
    walsh = transform_U(g0, 0)
    assert spectrum_pairs(walsh) == [(4, 0), (0, 0), (0, 0), (0, 0)]


def test_transform_V_examples():
    g0 = TruthTable(2, 0, "uv")
    s = transform_V(F4, g0, 1)
    assert s.value(0) == (0, -2)
    walsh = transform_V(F4, g0, 0)
    assert spectrum_pairs(walsh) == [(4, 0), (0, 0), (0, 0), (0, 0)]


@pytest.mark.parametrize("c", [-1, 4])
def test_transforms_refuse_a_twist_out_of_range(c):
    # A twist is a point of the 2^n-element domain; 2^n is the first past it.
    with pytest.raises(InputError, match="twist c out of range"):
        transform_U(TruthTable(2, 0, "mv"), c)
    with pytest.raises(InputError, match="twist c out of range"):
        transform_V(F4, TruthTable(2, 0, "uv"), c)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transform_U_equals_both_direct_forms(n):
    size = 1 << n
    for bits in range(1 << size):
        g = TruthTable(n, bits, "mv")
        for c in range(size):
            got = spectrum_pairs(transform_U(g, c))
            assert got == u_spectrum_weight_form(g, c)
            assert got == u_spectrum_symmetric_form(g, c)


@pytest.mark.parametrize("n", [1, 2])
def test_transform_V_equals_direct_form_exhaustive(n):
    spec = make_field(n)
    size = 1 << n
    for bits in range(1 << size):
        g = TruthTable(n, bits, "uv")
        for c in range(size):
            assert spectrum_pairs(transform_V(spec, g, c)) == v_spectrum_direct(spec, g, c)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 4), st.data())
def test_transform_V_equals_direct_form_random(n, data):
    spec = make_field(n)
    size = 1 << n
    bits = data.draw(st.integers(0, (1 << size) - 1))
    c = data.draw(st.integers(0, size - 1))
    g = TruthTable(n, bits, "uv")
    assert spectrum_pairs(transform_V(spec, g, c)) == v_spectrum_direct(spec, g, c)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.data())
def test_parseval_both_modes(n, data):
    size = 1 << n
    bits = data.draw(st.integers(0, (1 << size) - 1))
    c = data.draw(st.integers(0, size - 1))
    su = transform_U(TruthTable(n, bits, "mv"), c)
    assert int(su.norms_sq().sum()) == size * size
    sv = transform_V(make_field(n), TruthTable(n, bits, "uv"), c)
    assert int(sv.norms_sq().sum()) == size * size


def test_is_flat_examples():
    bent = from_values([0, 0, 0, 1], "mv")  # x1 * x2
    assert is_flat(transform_U(bent, 0))
    assert not is_flat(transform_U(TruthTable(2, 0, "mv"), 0))
    assert is_flat(transform_V(F4, TruthTable(2, 0, "uv"), 1))


def test_bent4_witnesses_uv_zero():
    assert bent4_witnesses(TruthTable(2, 0, "uv"), F4) == {1, 2, 3}


def test_bent4_witnesses_mv_zero():
    assert bent4_witnesses(TruthTable(2, 0, "mv")) == {0b11}


def test_bent4_witnesses_refuses_a_field_with_an_mv_table():
    # As transform_V and VectorialFunction do: an mv table carries no field.
    with pytest.raises(InputError, match="uv needs a field of degree n and mv none"):
        bent4_witnesses(TruthTable(2, 0, "mv"), F4)
    with pytest.raises(InputError, match="uv needs a field of degree n and mv none"):
        bent4_witnesses(TruthTable(2, 0, "uv"))


def test_each_transform_refuses_a_table_of_the_other_mode():
    with pytest.raises(InputError, match="transform_U needs a multivariate table"):
        transform_U(TruthTable(2, 0, "uv"), 0)
    with pytest.raises(InputError, match="transform_V needs a univariate table"):
        transform_V(F4, TruthTable(2, 0, "mv"), 0)


def test_bent4_witnesses_mv_affine_contains_all_ones():
    g = from_values([0, 1, 1, 0], "mv")  # x_1 + x_2
    assert 0b11 in bent4_witnesses(g)


def _oracle_witnesses(g, spec=None):
    """Twists whose spectrum, summed the literal way, is flat."""
    q = g.size
    witnesses = set()
    for c in range(q):
        pairs = u_spectrum_weight_form(g, c) if spec is None else v_spectrum_direct(spec, g, c)
        if all(re * re + im * im == q for re, im in pairs):
            witnesses.add(c)
    return witnesses


@pytest.mark.parametrize("mode", ["mv", "uv"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bent4_witnesses_match_oracle_on_every_table(mode, n):
    spec = make_field(n) if mode == "uv" else None
    for bits in range(1 << (1 << n)):
        g = TruthTable(n, bits, mode)
        assert bent4_witnesses(g, spec) == _oracle_witnesses(g, spec), bits


@pytest.mark.parametrize("mode", ["mv", "uv"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_bent4_witnesses_match_oracle_on_random_tables(mode, n):
    spec = make_field(n) if mode == "uv" else None
    q = 1 << n
    rng = random.Random(1000 * n + len(mode))
    # A random quadratic form is flat at many twists; a random table at few.
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.getrandbits(1)]
    quadratic = from_values([sum(x >> i & x >> j & 1 for i, j in pairs) for x in range(q)], mode)
    for g in (quadratic, TruthTable(n, rng.getrandbits(q), mode)):
        assert bent4_witnesses(g, spec) == _oracle_witnesses(g, spec)


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_bent4_witnesses_do_not_depend_on_block_size(mode, monkeypatch):
    cases = []
    for n in (4, 5):  # n = 5 takes the odd-n branch, which pairs row u with row u ^ d
        q = 1 << n
        spec = make_field(n) if mode == "uv" else None
        rng = random.Random(11 * n)
        # x1x2 + x3x4 is bent at n = 4, so 0 is a witness there.
        tables = [TruthTable(n, 0, mode), from_values([(x & x >> 1 ^ x >> 2 & x >> 3) & 1 for x in range(q)], mode)]
        tables += [TruthTable(n, rng.getrandbits(q), mode) for _ in range(20)]
        cases.append((q, spec, tables, [bent4_witnesses(g, spec) for g in tables]))
    for q, spec, tables, expected in cases:
        assert any(expected)
        # One twist per block; last block partial; with 5 twists a block the
        # survivors of several blocks share a second-pass block.
        for block_entries in (q, 3 * q, 5 * q):
            monkeypatch.setattr("mpf.transforms._BLOCK_ENTRIES", block_entries)
            assert [bent4_witnesses(g, spec) for g in tables] == expected


def _butterfly_columns(monkeypatch) -> list[int]:
    """Spy on the butterfly core: the number of twist columns of each call."""
    import mpf.transforms

    seen = []
    real = mpf.transforms._butterfly

    def spy(a, bound):
        seen.append(a.shape[1])
        return real(a, bound)

    monkeypatch.setattr(mpf.transforms, "_butterfly", spy)
    return seen


def _table_of_weight(n, w, mode, seed):
    q = 1 << n
    ones = set(random.Random(seed).sample(range(q), w))
    return from_values([int(x in ones) for x in range(q)], mode)


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_bent4_column_sum_test_passes_a_bent_weight_that_is_not_bent(mode, monkeypatch):
    # Weight 28 = 2^5 - 2^2 at n = 6 gives the column sum 64 - 56 = 2^(n/2)
    # at c = 0 (the trivial twist), so c = 0 reaches the butterfly, which
    # must still reject it: the table is not bent.
    n = 6
    spec = make_field(n) if mode == "uv" else None
    g = _table_of_weight(n, 28, mode, seed=28)
    assert g.size - 2 * weight(g) == 1 << n // 2
    seen = _butterfly_columns(monkeypatch)
    witnesses = bent4_witnesses(g, spec)
    assert witnesses == _oracle_witnesses(g, spec)
    assert 0 not in witnesses
    assert sum(seen) > len(witnesses)


@pytest.mark.parametrize("mode", ["mv", "uv"])
@pytest.mark.parametrize("n", [5, 7])
def test_bent4_column_sum_test_at_odd_n(mode, n, monkeypatch):
    # The screen is flatness at u = 0 alone: A(0)^2 + A(d)^2 = 2^(n+1).
    # It is exact on quadratic tables, but a random table (degree
    # above 2) passes it at twists where another u fails, and the butterfly
    # must reject those.  Seed 1 gives such twists in every case here.
    q = 1 << n
    spec = make_field(n) if mode == "uv" else None
    g = TruthTable(n, random.Random(1).getrandbits(q), mode)
    seen = _butterfly_columns(monkeypatch)
    witnesses = bent4_witnesses(g, spec)
    assert witnesses == _oracle_witnesses(g, spec)
    assert sum(seen) > len(witnesses)
    # The trivial twist has d = 0, so flatness there would need
    # 2 A(u)^2 = 2^(n+1), which no integer meets: even the weights that
    # passed the old column-sum test (A(0) = 0 or +-2^((n+1)/2)) never
    # reach the butterfly at c = 0.
    for w in (q // 2, (q - (1 << (n + 1) // 2)) // 2):
        signs, d = _twisted_signs(_table_of_weight(n, w, mode, seed=n * w).bit_array()[:, None], spec, [0])
        assert d.tolist() == [0]
        assert not _flat_at_zero(n, *_block_sums(signs, d)).any()


@pytest.mark.parametrize(("mode", "survivors", "blocks"), [
    pytest.param(mode, survivors, blocks, id=f"{mode}-{survivors}" + (f"-{blocks}q" if blocks else ""))
    for mode, survivors in (("mv", 1), ("uv", (1 << 8) - 1))
    for blocks in (None, 1, 3)  # None keeps the default _BLOCK_ENTRIES
])
def test_bent4_butterflies_only_the_twists_that_pass_the_column_sum(mode, survivors, blocks, monkeypatch):
    # The zero function at n = 8: mv is flat only at the all-ones twist and
    # every other column sum rules its twist out; uv is flat at every c != 0,
    # and c = 0 (column sum 2^8) is the one twist left out.
    n = 8
    spec = make_field(n) if mode == "uv" else None
    if blocks:
        monkeypatch.setattr("mpf.transforms._BLOCK_ENTRIES", blocks << n)
    seen = _butterfly_columns(monkeypatch)
    witnesses = bent4_witnesses(TruthTable(n, 0, mode), spec)
    assert sum(seen) == survivors == len(witnesses)
    # A random table of even weight (odd weight puts every A(0) and A(d) at
    # 2 mod 4) passes the screen |V_c(0)|^2 = 2^n at a few scattered twists
    # (seed 1: 3 mv and 5 uv), so survivors come from several blocks.
    g, oracle, passing = _random_table_n8_expected(mode)
    seen.clear()
    assert bent4_witnesses(g, spec) == oracle
    assert sum(seen) == passing > 1


@functools.cache
def _random_table_n8_expected(mode):
    """A random n = 8 table, its literal-oracle witnesses and its twists passing the screen at u = 0.

    The O(q^3) oracle is shared by the parametrizations of each mode.
    """
    n = 8
    spec = make_field(n) if mode == "uv" else None
    g = TruthTable(n, random.Random(1).getrandbits(1 << n), mode)
    transform = transform_U if spec is None else lambda g, c: transform_V(spec, g, c)
    passing = sum(re * re + im * im == 1 << n for re, im in (transform(g, c).value(0) for c in range(1 << n)))
    return g, _oracle_witnesses(g, spec), passing


@pytest.mark.parametrize("mode", ["mv", "uv"])
@pytest.mark.parametrize("n", [1, 3])
def test_components_flat_matches_the_oracle_on_every_table_up_to_affine_terms(mode, n):
    # bent4_witnesses meets its oracle on every Boolean table at n <= 3
    # above.  Here components_flat meets the literal perm route on every
    # table at n = 1, and at n = 3 on the 4096 tables with F(0) = F(2^i) = 0,
    # one for each class of tables that differ by an affine map.  One block
    # size only: the stacked test below varies it, and is slow enough.
    q = 1 << n
    spec = make_field(n) if mode == "uv" else None
    tables = [list(t) for t in itertools.product(range(q), repeat=q)] if n == 1 else affine_representatives(n)
    expect = [perm_verdict_direct(VectorialFunction(mode, n, t, spec)).is_planar for t in tables]
    assert components_flat(n, tables, spec).tolist() == expect
    assert [components_flat(n, [t], spec)[0] for t in tables] == expect
    assert all(expect) if n == 1 else 0 < sum(expect) < len(tables)


def _component_columns(spec, tables):
    """(signs, d) of the literal component c of each uv table at its twist c, c = 1..q-1, as one block."""
    signs, d = [], []
    for table in tables:
        F = VectorialFunction("uv", spec.n, table, spec)
        for c in range(1, F.size):
            s, e = _twisted_signs(component_uv(spec, F, c).bit_array()[:, None], spec, [c])
            signs.append(s)
            d.append(e)
    return np.hstack(signs), np.concatenate(d)


@pytest.mark.parametrize(("n", "sample", "planar"), [(3, None, 8), (4, 300, 0), (5, 300, 0)])
def test_column_screen_is_exact_on_do_quadratic_components(n, sample, planar, monkeypatch):
    # Every twisted component of a DO F is quadratic, and for every n the
    # screen (flatness at u = 0) is then flatness itself: column by column
    # on every uv DO table at n = 3 and on a seeded sample at n = 4 and 5.
    # So on search's blocks of _block(q, q - 1) rows, whose twists all fit
    # one block, components_flat butterflies the columns of the planar
    # tables only.  (A larger block takes fewer twists at a time, and a row
    # that passes the screen at the first ones is butterflied there.)
    spec = make_field(n)
    size = class_size("uv", n, "do_quadratic")
    indices = range(size) if sample is None else random.Random(16).sample(range(size), sample)
    tables = decode_block(n, slot_monomials(n, "do_quadratic"), list(indices)).tolist()
    signs, d = _component_columns(spec, tables)
    flat = _flat_columns(signs, d, n)
    assert _flat_at_zero(n, *_block_sums(signs, d)).tolist() == flat.tolist()
    assert flat.any() and not flat.all()
    expect = flat.reshape(len(tables), -1).all(axis=1)
    assert expect.sum() == planar
    seen = _butterfly_columns(monkeypatch)
    step = _block(1 << n, (1 << n) - 1)
    blocks = [components_flat(n, tables[lo : lo + step], spec) for lo in range(0, len(tables), step)]
    assert np.concatenate(blocks).tolist() == expect.tolist()
    assert sum(seen) == planar * ((1 << n) - 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.sampled_from([1, 3, 5, 7]), st.data())
def test_column_screen_never_rejects_a_flat_column(mode, n, data):
    # Random tables at random twists, and random quadratics (degree <= 2)
    # whose twisted b = g + Q_c stays quadratic: the screen passes every
    # flat column, and on the quadratic ones it passes only those.
    q = 1 << n
    spec = make_field(n) if mode == "uv" else None
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    blocks, quadratic = [], []
    for is_quadratic in data.draw(st.lists(st.booleans(), min_size=1, max_size=6)):
        if is_quadratic:
            chosen = data.draw(st.lists(st.sampled_from(pairs)) if pairs else st.just([]))
            linear = data.draw(st.integers(0, q - 1))
            bits = [(sum(x >> i & x >> j & 1 for i, j in chosen) + parity(linear & x)) & 1 for x in range(q)]
        else:
            bits = data.draw(st.lists(st.integers(0, 1), min_size=q, max_size=q))
        twists = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=8))
        blocks.append(_twisted_signs(np.array(bits, dtype=np.uint8)[:, None], spec, twists))
        quadratic += [is_quadratic] * len(twists)
    signs = np.hstack([s for s, _ in blocks])
    d = np.concatenate([e for _, e in blocks])
    screen = _flat_at_zero(n, *_block_sums(signs, d))
    flat = _flat_columns(signs, d, n)
    assert not (flat & ~screen).any()
    assert (screen == flat)[quadratic].all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(1, 7), st.data())
def test_the_screen_is_the_squared_modulus_of_the_spectrum_at_zero(mode, n, data):
    # The screen is the definition of flatness at u = 0, |V_c(0)|^2 = 2^n,
    # at every n and twist: from the sums of all twists at once
    # (_column_sums) and from the sums of their sign blocks (_block_sums).
    # A(0)^2 = 2^n alone, the corollary for even n, passes twists where
    # |A(d)| is not 2^(n/2).
    q = 1 << n
    spec = make_field(n) if mode == "uv" else None
    g = TruthTable(n, data.draw(st.integers(0, (1 << q) - 1)), mode)
    transform = transform_U if spec is None else lambda g, c: transform_V(spec, g, c)
    want = [re * re + im * im == q for re, im in (transform(g, c).value(0) for c in range(q))]
    bits = g.bit_array()[:, None]
    assert _flat_at_zero(n, *_column_sums(bits, spec)).tolist() == want
    signs, d = _twisted_signs(bits, spec, np.arange(q))
    assert _flat_at_zero(n, *_block_sums(signs, d)).tolist() == want


def _block_screen_sums(bits, spec):
    """A(0) and A(d) of every twist, summed over the sign block the way _block_sums sees it."""
    q = len(bits)
    signs, d = _twisted_signs(bits[:, None], spec, np.arange(q))
    # Sylvester's Hadamard matrix: hadamard[x, e] = (-1)^(e.x).
    hadamard = functools.reduce(np.kron, [np.array([[1, 1], [1, -1]], dtype=np.int8)] * (q.bit_length() - 1))
    return signs.sum(axis=0, dtype=np.int64), (signs * hadamard[:, d]).sum(axis=0, dtype=np.int64)


@pytest.mark.parametrize("n", range(1, 12))
def test_column_sums_equal_the_block_screen_sums(n):
    # _column_sums gives every twist's A(0) and A(d) at once, for uv by
    # one correlation and for mv by the tensor butterfly; twist by twist
    # it must equal the sums over the signs that the block screen builds:
    # in both modes on every table at n <= 3 and on seeded ones up to
    # n = 9, and for mv also at n = 10 (the bent4-sweep size) and n = 11.
    q = 1 << n
    rng = random.Random(17 * n)
    if n <= 3:
        tables = range(1 << q)
    else:
        tables = [0, (1 << q) - 1] + [rng.getrandbits(q) for _ in range(12)]
    for mode, spec in [("mv", None)] + ([("uv", make_field(n))] if n <= 9 else []):
        for bits in tables:
            table = TruthTable(n, bits, mode).bit_array()
            s0, ad = _column_sums(table[:, None], spec)
            want_s0, want_ad = _block_screen_sums(table, spec)
            assert s0.dtype == ad.dtype == np.int64
            assert s0.tolist() == want_s0.tolist(), (mode, bits)
            assert ad.tolist() == want_ad.tolist(), (mode, bits)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(1, 6), st.data())
def test_column_sums_are_the_spectrum_at_zero(mode, n, data):
    # At u = 0 the spectrum is (A(0) + A(d) + i (A(0) - A(d))) / 2, so
    # A(0) = Re + Im and A(d) = Re - Im, at every twist.
    q = 1 << n
    spec = make_field(n) if mode == "uv" else None
    g = TruthTable(n, data.draw(st.integers(0, (1 << q) - 1)), mode)
    s0, ad = _column_sums(g.bit_array()[:, None], spec)
    for c in range(q):
        re, im = (transform_U(g, c) if spec is None else transform_V(spec, g, c)).value(0)
        assert s0[c] == re + im
        assert ad[c] == re - im


@pytest.mark.parametrize("n", range(1, 14))
def test_uv_column_sums_equal_the_correlation_oracle(n):
    # The packed-bit popcount screen against the np.correlate screen it
    # replaced: A(0) and A(d), values and int64 dtype, on every uv table
    # at n <= 3 and on the zero, all-ones and 12 seeded tables at n = 4..13.
    q = 1 << n
    spec = make_field(n)
    rng = random.Random(29 * n)
    tables = range(1 << q) if n <= 3 else [0, (1 << q) - 1] + [rng.getrandbits(q) for _ in range(12)]
    for bits in tables:
        column = TruthTable(n, bits, "uv").bit_array()[:, None]
        (s0, ad), (want_s0, want_ad) = _column_sums(column, spec), correlation_column_sums(column, spec)
        assert s0.dtype == ad.dtype == np.int64
        assert s0.tolist() == want_s0.tolist(), bits
        assert ad.tolist() == want_ad.tolist(), bits


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 14), st.data())
def test_uv_column_sums_follow_a_scaling_of_the_input(n, data):
    # Past the oracle's reach: for h(x) = g(lam x), sigma(lam c, x) =
    # sigma(c, lam x) and Tr(lam c x) = Tr(c lam x), so h's A(0) and A(d)
    # at twist lam c are g's at c.  And the twist's own term
    # sigma(lam, x), as a table, has b = 0 at lam: A(0) = 2^n and A(d) = 0
    # there, which pins each window to its lag.
    q = 1 << n
    spec = make_field(n)
    t = field_tables(spec)
    lam = data.draw(st.integers(1, q - 1))
    g = TruthTable(n, data.draw(st.randoms()).getrandbits(q), "uv").bit_array()
    scaled = t.mul(lam, np.arange(q))  # lam x, and lam c
    s0, ad = _column_sums(g[:, None], spec)
    h0, hd = _column_sums(g[scaled][:, None], spec)
    assert h0[scaled].tolist() == s0.tolist()
    assert hd[scaled].tolist() == ad.tolist()
    own0, own_d = _column_sums(t.sigma_exp.take(t.log.take(scaled))[:, None], spec)
    assert own0[lam] == q
    assert own_d[lam] == 0


@pytest.mark.parametrize("n", [13, 14])
def test_uv_column_sums_hold_one_block_of_windows_at_a_time(n):
    # All q - 1 packed windows at once would take q^2/8 bytes per kernel
    # (32 MiB at n = 14); in blocks of _block words the traced peak is one
    # block, 8 bytes a word, plus the O(q) tables.
    q = 1 << n
    spec = make_field(n)
    field_tables(spec)  # built before the trace starts
    column = TruthTable(n, random.Random(n).getrandbits(q), "uv").bit_array()[:, None]
    tracemalloc.start()
    try:
        _column_sums(column, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _BLOCK_ENTRIES + 128 * q


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_mv_screen_and_witnesses_follow_a_coordinate_permutation(n, is_quadratic, data):
    # For P a permutation of the coordinates, wt(c & P^-1 y) = wt(Pc & y),
    # so U_{g o P}(u, c) = U_g(Pu, Pc): the column sums of g o P are those
    # of g read at Pc, and its witnesses are P^-1 of g's.  A tensor pass
    # that mislabels a bit breaks this.  Quadratic tables have witnesses
    # to move; random ones mostly have none.
    q = 1 << n
    if is_quadratic:
        pairs = data.draw(st.lists(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
                          if n > 1 else st.just([]))
        g = from_values([sum(x >> i & x >> j & 1 for i, j in pairs) & 1 for x in range(q)], "mv")
    else:
        g = TruthTable(n, data.draw(st.integers(0, (1 << q) - 1)), "mv")
    perm = data.draw(st.permutations(range(n)))
    x = np.arange(q)
    p = sum((x >> k & 1) << perm[k] for k in range(n))  # Px: bit k of x moves to bit perm[k]
    gp = from_values(g.bit_array()[p].tolist(), "mv")
    s0, ad = _column_sums(g.bit_array()[:, None], None)
    s0p, adp = _column_sums(gp.bit_array()[:, None], None)
    assert s0p.tolist() == s0[p].tolist()
    assert adp.tolist() == ad[p].tolist()
    inverse = np.argsort(p)
    assert bent4_witnesses(gp) == {int(inverse[c]) for c in bent4_witnesses(g)}


def _signed_twists(monkeypatch) -> list[int]:
    """Spy on _twisted_signs: every twist it builds signs for, in call order."""
    import mpf.transforms

    seen = []
    real = mpf.transforms._twisted_signs

    def spy(bits, spec, twists):
        seen.extend(np.asarray(twists).tolist())
        return real(bits, spec, twists)

    monkeypatch.setattr(mpf.transforms, "_twisted_signs", spy)
    return seen


def test_mv_bent4_builds_signs_only_for_the_twists_that_pass_the_screen(monkeypatch):
    # The mv screen reads every twist's sums off the tensor butterfly, with
    # no signs.  An odd-weight table puts every A(0) at 2 mod 4, never at
    # +-2^(n/2) for even n, so a random one at n = 10 has no survivor and
    # builds no signs at all; the zero table at n = 8 builds them for its
    # one flat twist, the all-ones one.
    seen = _signed_twists(monkeypatch)
    bits = random.Random(23).getrandbits(1 << 10)
    g = TruthTable(10, bits ^ (bits.bit_count() + 1) % 2, "mv")
    assert weight(g) % 2 == 1
    assert bent4_witnesses(g) == set()
    assert seen == []
    assert bent4_witnesses(TruthTable(8, 0, "mv")) == {255}
    assert seen == [255]


def _derivative_oracle_witnesses(g, spec):
    """Twists c at which every shifted derivative over z != 0 is balanced."""
    q = g.size
    if spec is None:
        derivative = shifted_derivative_mv
    else:
        def derivative(g, z, c):
            return shifted_derivative_uv(spec, g, z, c)
    return {c for c in range(q) if all(is_balanced(derivative(g, z, c)) for z in range(1, q))}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(4, 6), st.data())
def test_bent4_witnesses_are_the_twists_with_balanced_shifted_derivatives(mode, n, data):
    # The paper's derivative-side criterion: g is bent4 at c iff
    # g(x) + g(x + z) + (the shifted term at c, z) is balanced for every z != 0.
    q = 1 << n
    spec = make_field(n) if mode == "uv" else None
    kind = data.draw(st.sampled_from(["random", "quadratic", "quadratic plus a flip"]))
    if kind == "random":
        bits = data.draw(st.integers(0, (1 << q) - 1))
    else:
        pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        bits = _pack(sum(x >> i & x >> j & 1 for i, j in pairs if i < j) & 1 for x in range(q))
        if kind == "quadratic plus a flip":
            bits ^= 1 << data.draw(st.integers(0, q - 1))
    g = TruthTable(n, bits, mode)
    assert bent4_witnesses(g, spec) == _derivative_oracle_witnesses(g, spec)


def _pack(values) -> int:
    return sum(v << x for x, v in enumerate(values))


def _quadratic_of_twist(n, c, spec) -> int:
    """Q_c as table bits: bit 1 of wt(c&x) (mv), the scalar sigma(c, x) (uv).

    The twist at c is i^(a + 2 Q_c) with a = c.x (mv) or Tr(cx) (uv).
    """
    if spec is None:
        return _pack(((c & x).bit_count() >> 1) & 1 for x in range(1 << n))
    return _pack(sigma(spec, c, x) for x in range(1 << n))


def _maiorana_mcfarland(n, perm) -> int:
    """x_lo . perm(x_hi) on n = 2k bits, a bent function, as table bits."""
    lo = (1 << n // 2) - 1
    return _pack(parity(x & lo & perm[x >> n // 2]) for x in range(1 << n))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.sampled_from([2, 4, 6]), st.data())
def test_bent4_at_c_iff_g_plus_quadratic_of_c_is_bent(mode, n, data):
    # For even n, a flat twisted spectrum at c is bentness of g + Q_c.
    q = 1 << n
    spec = make_field(n) if mode == "uv" else None
    c = data.draw(st.integers(0, q - 1))
    quad = _quadratic_of_twist(n, c, spec)
    kind = data.draw(st.sampled_from(["random", "quadratic", "bent plus Q_c"]))
    if kind == "random":
        bits = data.draw(st.integers(0, (1 << q) - 1))
    elif kind == "quadratic":
        pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        bits = _pack(sum(x >> i & x >> j & 1 for i, j in pairs if i < j) & 1 for x in range(q))
    else:
        bits = _maiorana_mcfarland(n, data.draw(st.permutations(range(1 << n // 2)))) ^ quad
    witness = c in bent4_witnesses(TruthTable(n, bits, mode), spec)
    assert witness == (0 in bent4_witnesses(TruthTable(n, bits ^ quad, mode), spec))
    assert witness or kind != "bent plus Q_c"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.data())
def test_negabent_iff_plus_s2_is_bent(n, data):
    # Parker-Pott: at the all-ones twist Q_c is s_2(x) = sum_{i<j} x_i x_j.
    q = 1 << n
    s_2 = _pack(sum(x >> i & x >> j & 1 for i in range(n) for j in range(i + 1, n)) & 1 for x in range(q))
    assert s_2 == _quadratic_of_twist(n, q - 1, None)
    constructed = data.draw(st.booleans())
    if constructed:  # negabent by construction
        bits = _maiorana_mcfarland(n, data.draw(st.permutations(range(1 << n // 2)))) ^ s_2
    else:
        bits = data.draw(st.integers(0, (1 << q) - 1))
    negabent = q - 1 in bent4_witnesses(TruthTable(n, bits, "mv"))
    assert negabent == (0 in bent4_witnesses(TruthTable(n, bits ^ s_2, "mv")))
    assert negabent or not constructed


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(1, 6), st.data())
def test_bent4_witnesses_invariant_under_affine_terms(mode, n, data):
    q = 1 << n
    bits = data.draw(st.integers(0, (1 << q) - 1))
    v = data.draw(st.integers(0, q - 1))
    const = data.draw(st.sampled_from([0, (1 << q) - 1]))
    if mode == "uv":
        spec = make_field(n)
        affine = linear_form_table(n, dual_mask(spec, v)) ^ const  # Tr(vx) + b
    else:
        spec = None
        affine = linear_form_table(n, v) ^ const  # v.x + b
    g = TruthTable(n, bits, mode)
    shifted = TruthTable(n, bits ^ affine, mode)
    assert bent4_witnesses(shifted, spec) == bent4_witnesses(g, spec)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.data())
def test_bent4_witnesses_scale_with_the_argument(n, data):
    # V_{g(l.)}(u, c) = V_g(u/l, c/l), so x -> g(l x) is flat exactly at
    # the twists l c for c a witness of g.  Multiplying by l shifts the
    # log domain, so this checks how the correlation screen is indexed.
    q = 1 << n
    spec = make_field(n)
    if data.draw(st.booleans()):
        bits = data.draw(st.integers(0, (1 << q) - 1))
    else:  # a quadratic is flat at many twists, a random table at few
        pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        bits = _pack(sum(x >> i & x >> j & 1 for i, j in pairs if i < j) & 1 for x in range(q))
    lam = data.draw(st.integers(1, q - 1))
    scaled = _pack(bits >> fe_mul(spec, lam, x) & 1 for x in range(q))
    witnesses = bent4_witnesses(TruthTable(n, bits, "uv"), spec)
    assert bent4_witnesses(TruthTable(n, scaled, "uv"), spec) == {fe_mul(spec, lam, c) for c in witnesses}


def test_no_bent_functions_on_three_variables():
    for bits in range(256):
        assert 0 not in bent4_witnesses(TruthTable(3, bits, "mv"))


def test_affine_uv_flat_for_every_nonzero_twist():
    # g = Tr(ax) + b has a flat twisted spectrum at every c != 0
    spec = make_field(3)
    from mpf.gf2n import trace_n

    for a in spec.elements():
        for b in (0, 1):
            g = from_values([trace_n(spec, fe_mul(spec, a, x)) ^ b for x in spec.elements()], "uv")
            for c in range(1, spec.order):
                s = transform_V(spec, g, c)
                assert is_flat(s)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_inverse_round_trip_mv(n, data):
    size = 1 << n
    bits = data.draw(st.integers(0, (1 << size) - 1))
    c = data.draw(st.integers(0, size - 1))
    g = TruthTable(n, bits, "mv")
    s = transform_U(g, c)
    recovered = inverse_twisted(s)
    assert [tuple(v) for v in recovered] == twisted_values_mv(g, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_inverse_round_trip_uv(n, data):
    spec = make_field(n)
    size = 1 << n
    bits = data.draw(st.integers(0, (1 << size) - 1))
    c = data.draw(st.integers(0, size - 1))
    g = TruthTable(n, bits, "uv")
    s = transform_V(spec, g, c)
    recovered = inverse_twisted(s, spec)
    assert [tuple(v) for v in recovered] == twisted_values_uv(spec, g, c)


def test_inverse_of_zero_spectrum_is_zero():
    zero = Spectrum(2, "mv", 0, np.zeros((4, 2), dtype=np.int64))
    assert not inverse_twisted(zero).any()


def test_inverse_recovers_delta():
    delta = np.zeros((8, 2), dtype=np.int64)
    delta[5, 0] = 1
    s = Spectrum(3, "mv", 0, fwht(delta))
    assert np.array_equal(inverse_twisted(s), delta)


def test_a_spectrum_freezes_a_copy_of_its_values():
    a = np.zeros((4, 2), dtype=np.int64)
    s = Spectrum(2, "mv", 0, a)
    assert a.flags.writeable and not s.values.flags.writeable
    a[1] = 7
    assert not s.values.any()


def test_a_spectrum_refuses_values_of_the_wrong_shape():
    with pytest.raises(InputError, match=r"values must have shape \(4, 2\)"):
        Spectrum(2, "mv", 0, np.zeros((3, 2), dtype=np.int64))


def test_spectrum_value_accessor():
    s = transform_U(TruthTable(2, 0, "mv"), 0b11)
    v = s.value(0)
    assert isinstance(v, GaussianInt)
    assert v == (0, 2)


def _star_group(mode, n):
    """(group, spec) of the star group a mode's graphs live in."""
    if mode == "uv":
        spec = make_field(n)
        return GroupSpec("star_uv", n, spec), spec
    return GroupSpec("star_mv", n), None


def _rds_norms(norms, q):
    """The (q, q, q, 1)-RDS character criterion read off a full [u][c] table."""
    return all(
        norm == (q if c else q * q if u == 0 else 0)
        for u, row in enumerate(norms)
        for c, norm in enumerate(row)
    )


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_character_norms_match_oracle_on_every_graph_n2(mode):
    g, spec = _star_group(mode, 2)
    for table in itertools.product(range(4), repeat=4):
        R = list(enumerate(table))
        direct = characters_direct(g, R)
        assert character_norms(2, R, spec).tolist() == direct, table
        assert rds_verify_characters(g, R) == _rds_norms(direct, 4), table


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_character_norms_match_oracle_on_every_4_subset_n2(mode):
    g, spec = _star_group(mode, 2)
    for R in itertools.combinations(group_elements(g), 4):
        direct = characters_direct(g, R)
        assert character_norms(2, R, spec).tolist() == direct, R
        assert rds_verify_characters(g, R) == _rds_norms(direct, 4), R


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_character_norms_match_oracle_on_sampled_graphs_n3(mode):
    g, spec = _star_group(mode, 3)
    rng = random.Random(2013)
    for _ in range(200):
        R = [(x, rng.randrange(8)) for x in range(8)]
        assert character_norms(3, R, spec).tolist() == characters_direct(g, R), R


def test_character_norms_selects_twists():
    g, spec = _star_group("uv", 3)
    R = [(x, (3 * x + 5) % 8) for x in range(8)] + [(2, 7)]
    full = character_norms(3, R, spec)
    assert (character_norms(3, R, spec, [5, 0, 5]) == full[:, [5, 0, 5]]).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(min_value=1, max_value=5), st.data())
def test_character_norms_invariants_on_graphs(mode, n, data):
    q = 1 << n
    table = data.draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
    _, spec = _star_group(mode, n)
    norms = character_norms(n, list(enumerate(table)), spec)
    # Parseval: one point per x, so every column carries q^2.
    assert (norms.sum(axis=0) == q * q).all()
    # The trivial twist sees only the x coordinates, which are all distinct.
    assert norms[0, 0] == q * q
    assert not norms[1:, 0].any()


@st.composite
def _point_multisets(draw):
    """(mode, n, points, twists): a few occupied x columns, each holding 1..4
    y values with repeats, so B(x) = sum (-1)^b ranges over -4..4 and the
    other columns stay empty; twists repeat and come in any order."""
    mode = draw(st.sampled_from(["mv", "uv"]))
    n = draw(st.integers(min_value=1, max_value=4))
    q = 1 << n
    columns = draw(st.lists(st.integers(0, q - 1), max_size=q, unique=True))
    points = []
    for x in columns:
        ys = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4))
        points += [(x, y) for y in ys]
    twists = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q))
    return mode, n, draw(st.permutations(points)), twists


@settings(max_examples=80, deadline=None)
@given(_point_multisets())
def test_character_norms_match_oracle_on_multisets(case):
    mode, n, points, twists = case
    g, spec = _star_group(mode, n)
    direct = characters_direct(g, points)
    expected = [[row[c] for c in twists] for row in direct]
    got = character_norms(n, points, spec, twists)
    assert got.dtype == np.int64
    assert got.tolist() == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(min_value=1, max_value=5), st.data())
def test_graph_characters_are_component_spectra(mode, n, data):
    # Column c of the graph's character sums is the twisted spectrum of the
    # component at c: U^c of c.F (mv), V^c of Tr(c^2 F) (uv); c = 0 is the
    # zero function.
    q = 1 << n
    table = tuple(data.draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q)))
    _, spec = _star_group(mode, n)
    F = VectorialFunction(mode, n, table, spec)
    norms = character_norms(n, list(enumerate(table)), spec)
    for c in range(q):
        if mode == "mv":
            s = transform_U(component_mv(F, c) if c else TruthTable(n, 0, "mv"), c)
        else:
            s = transform_V(spec, component_uv(spec, F, c) if c else TruthTable(n, 0, "uv"), c)
        assert norms[:, c].tolist() == s.norms_sq().tolist(), c


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_character_norms_exact_past_int16_on_a_large_multiset(mode):
    # |R| = 44000 > 32767: |A(0)| reaches |R| at the trivial character, so
    # the butterfly must not run in int16.  Each distinct point comes with
    # a multiplicity, so the expected sums are weighted oracle sums.
    n = 3
    g, spec = _star_group(mode, n)
    counts = {(1, 2): 20000, (5, 0): 15000, (6, 7): 8999, (0, 3): 1}
    points = [p for p, k in counts.items() for _ in range(k)]
    random.Random(44).shuffle(points)
    expected = []
    for u in range(1 << n):
        row = []
        for c in range(1 << n):
            re = sum(k * character_eval(g, u, c, p).re for p, k in counts.items())
            im = sum(k * character_eval(g, u, c, p).im for p, k in counts.items())
            row.append(re * re + im * im)
        expected.append(row)
    got = character_norms(n, points, spec)
    assert got[0, 0] == len(points) ** 2
    assert got.tolist() == expected


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_characters_flat_does_not_depend_on_block_size(mode, monkeypatch):
    n = 4
    g, spec = _star_group(mode, n)
    rng = random.Random(7)
    tables = [[rng.randrange(16) for _ in range(16)] for _ in range(30)]
    tables.append([0] * 16)  # planar for uv, not for mv
    verdicts = [components_flat(n, [f], spec)[0] for f in tables]
    assert [rds_verify_characters(g, enumerate(f)) for f in tables] == verdicts
    monkeypatch.setattr("mpf.transforms._BLOCK_ENTRIES", 16)  # one twist per block
    assert [components_flat(n, [f], spec)[0] for f in tables] == verdicts
    assert [rds_verify_characters(g, enumerate(f)) for f in tables] == verdicts
    assert verdicts[-1] == (mode == "uv")


def _stack_cases(mode):
    """(n, spec, tables): every table at n <= 2, and every affine and DO table at n = 3."""
    for n in (1, 2):
        q = 1 << n
        spec = make_field(n) if mode == "uv" else None
        yield n, spec, [list(t) for t in itertools.product(range(q), repeat=q)]
    tables = [list(F.table) for k in ("affine", "do_quadratic") for F in enumerate_class("uv", 3, k)]
    yield 3, make_field(3) if mode == "uv" else None, tables


@pytest.mark.parametrize("blocks", [1, 3, None])  # None keeps the default _BLOCK_ENTRIES
@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_components_flat_stack_matches_single_tables_and_perm(mode, blocks, monkeypatch):
    # Blocks of q and 3q entries split the twists and the directions.  Each
    # kernel takes all the rows in one call, more than search's block of
    # _block(q, q - 1) rows (but at the default size at n <= 2), and must
    # answer as it does for the rows one at a time.
    for n, spec, tables in _stack_cases(mode):
        if blocks is not None:
            monkeypatch.setattr("mpf.transforms._BLOCK_ENTRIES", blocks << n)
        assert len(tables) > _block(1 << n, (1 << n) - 1) or blocks is None and n < 3
        stacked = components_flat(n, tables, spec)
        assert stacked.dtype == bool and stacked.shape == (len(tables),)
        alone = [components_flat(n, [f], spec)[0] for f in tables]
        perm = [is_modified_planar_perm(VectorialFunction(mode, n, f, spec)).is_planar for f in tables]
        assert stacked.tolist() == alone == perm
        assert (perm_witnesses(n, tables, spec) == 0).tolist() == perm
        assert any(perm) and not all(perm) or n == 1


@pytest.mark.parametrize("mode", ["mv", "uv"])
def test_components_flat_prunes_a_group_of_tables_across_blocks_of_twists(mode, monkeypatch):
    # Two twists a block, so the live rows shrink between blocks of twists.
    # Under _BLOCK_ENTRIES a block of search's _block(q, q - 1) rows fits
    # all its twists in one block.
    monkeypatch.setattr("mpf.transforms._block", lambda q, per=1: 2)
    for n, spec, tables in _stack_cases(mode):
        perm = [is_modified_planar_perm(VectorialFunction(mode, n, f, spec)).is_planar for f in tables]
        assert components_flat(n, tables, spec).tolist() == perm


# Modified planar mv tables at n = 2..4 (any mv table is at n = 1); the
# uv zero function is modified planar at every n.
_MV_PLANAR = {
    2: [0, 0, 0, 3],
    3: [0, 0, 0, 4, 0, 6, 7, 5],
    4: [0, 0, 0, 11, 0, 12, 10, 13, 0, 15, 4, 0, 1, 2, 15, 7],
}


def _affine_table(n, images, const):
    """x -> const + sum of images[i] over the bits i of x, in index order."""
    table = [const]
    for image in images:
        table += [v ^ image for v in table]
    return np.array(table)


@st.composite
def _stacks(draw):
    mode = draw(st.sampled_from(["mv", "uv"]))
    n = draw(st.integers(1, 6))
    q = 1 << n
    points = st.integers(0, q - 1)
    affine = st.tuples(st.lists(points, min_size=n, max_size=n), points)
    planar = [0] * q if mode == "uv" else _MV_PLANAR.get(n, [0] * q if n == 1 else None)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if planar is not None and draw(st.booleans()):
            rows.append(planar ^ _affine_table(n, *draw(affine)))
        else:
            rows.append(np.array(draw(st.lists(points, min_size=q, max_size=q))))
    order = draw(st.permutations(range(len(rows))))
    return mode, n, np.stack(rows), order, _affine_table(n, *draw(affine))


@settings(max_examples=100, deadline=None)
@given(_stacks())
def test_components_flat_stack_ignores_column_order_and_affine_shifts(case):
    # The rows of a block in any order.  F + A is modified planar iff F is:
    # D_a(F + A) is D_a F shifted by the constant A(a) + A(0).
    mode, n, stack, order, shift = case
    spec = make_field(n) if mode == "uv" else None
    verdicts = components_flat(n, stack, spec)
    assert verdicts.tolist() == [components_flat(n, [f], spec)[0] for f in stack]
    assert components_flat(n, stack[order], spec).tolist() == verdicts[order].tolist()
    assert components_flat(n, stack ^ shift, spec).tolist() == verdicts.tolist()


@pytest.mark.parametrize("block_entries", [16, 1 << 16])
def test_characters_flat_visits_every_twist_once(block_entries, monkeypatch):
    # Twist 0 is rds_verify_characters' graph check, so only the twists
    # 1..q-1 get signs.
    seen = _signed_twists(monkeypatch)
    monkeypatch.setattr("mpf.transforms._BLOCK_ENTRIES", block_entries)
    g, spec = _star_group("uv", 5)
    zero = [(x, 0) for x in range(32)]  # modified planar in the univariate setting
    assert rds_verify_characters(g, zero)
    assert seen == list(range(1, 32))
    seen.clear()
    assert components_flat(5, [[0] * 32], spec)[0]
    assert seen == list(range(1, 32))


@settings(max_examples=120, deadline=None)
@given(_point_multisets())
def test_characters_flat_matches_oracle_on_multisets(case):
    # Repeats, empty columns and |R| != q all fail the graph check.
    mode, n, points, _ = case
    g, spec = _star_group(mode, n)
    assert rds_verify_characters(g, points) == _rds_norms(characters_direct(g, points), 1 << n)


@pytest.mark.parametrize("mode", ["mv", "uv"])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_characters_flat_agrees_with_perm_on_sampled_graphs(mode, n):
    # Odd n runs the paired flatness test, even n the |A| = 2^(n/2) one.
    q = 1 << n
    g, spec = _star_group(mode, n)
    rng = random.Random(f"{mode}{n}")
    for _ in range(40):
        F = VectorialFunction(mode, n, [rng.randrange(q) for _ in range(q)], spec)
        planar = is_modified_planar_perm(F).is_planar
        assert components_flat(n, [F.table], spec)[0] == planar, F.table
        assert rds_verify_characters(g, enumerate(F.table)) == planar, F.table


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_characters_flat_accepts_planar_affine_uv_functions(n):
    # Every affine univariate function is modified planar; shuffling the
    # graph's rows must not matter.
    g, spec = _star_group("uv", n)
    rng = random.Random(n)
    for _ in range(10):
        lin = {i: rng.randrange(1 << n) for i in range(n)}
        F = do_to_table(DOPolynomial(spec, linearized=lin, constant=rng.randrange(1 << n)))
        R = list(enumerate(F.table))
        rng.shuffle(R)
        assert rds_verify_characters(g, R)
        assert components_flat(n, [F.table], spec)[0]
        assert is_modified_planar_perm(F).is_planar
        # One moved value: the routes must still agree.
        x = rng.randrange(1 << n)
        table = list(F.table)
        table[x] ^= 1 + rng.randrange((1 << n) - 1)
        G = VectorialFunction("uv", n, table, spec)
        planar = is_modified_planar_perm(G).is_planar
        assert components_flat(n, [table], spec)[0] == planar
        assert rds_verify_characters(g, enumerate(table)) == planar
