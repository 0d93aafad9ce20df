import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpf.boolfun import TruthTable, from_values
from mpf.gf2n import fe_mul, make_field, trace_n
from oracles import (
    ZeroShiftError,
    bit,
    is_balanced,
    linear_form_table,
    pack_bits,
    shifted_derivative_mv,
    shifted_derivative_uv,
    table_from_json,
    table_to_json,
    table_values,
    weight,
    xor_translate,
)

F4 = make_field(2)


def test_weight_examples():
    assert weight(TruthTable(2, 0, "mv")) == 0
    assert weight(from_values([0, 1, 0, 1], "mv")) == 2  # g = x_1
    assert weight(TruthTable(2, 0b1111, "mv")) == 4


def test_is_balanced_examples():
    assert is_balanced(from_values([0, 1, 0, 1], "mv"))
    assert not is_balanced(TruthTable(2, 0, "mv"))
    assert not is_balanced(from_values([0, 0, 0, 1], "mv"))  # x_1 * x_2


def test_bits_must_fit():
    with pytest.raises(ValueError):
        TruthTable(1, 0b10000, "mv")
    with pytest.raises(ValueError):
        TruthTable(1, -1, "mv")
    assert TruthTable(1, 0b11, "mv").bits == 3
    for n in range(1, 7):  # 2^n bits fit, and one bit more does not
        assert TruthTable(n, (1 << (1 << n)) - 1, "uv").bits.bit_length() == 1 << n
        with pytest.raises(ValueError, match="bits does not fit in 2\\^n positions"):
            TruthTable(n, 1 << (1 << n), "uv")


@pytest.mark.parametrize("n", [0, -1, 25])
def test_degree_must_be_in_range(n):
    with pytest.raises(ValueError):
        TruthTable(n, 0, "mv")


def test_values_round_trip():
    g = from_values([1, 0, 1, 1, 0, 0, 1, 0], "mv")
    assert table_values(g) == [1, 0, 1, 1, 0, 0, 1, 0]
    assert list(g.bit_array()) == table_values(g)
    assert pack_bits(g.bit_array()) == g.bits
    assert from_values([0, 1], "uv") == TruthTable(1, 0b10, "uv")  # the smallest table, n = 1
    with pytest.raises(ValueError, match="number of values must be a power of two"):
        from_values([0, 1, 1], "mv")


@pytest.mark.parametrize("n", range(1, 13))
def test_from_values_reads_bit_0_of_each_value(n):
    # 2, 3, -1 and True read as bit 0, as v & 1 reads them.
    rng = random.Random(n)
    vals = [rng.choice((0, 1, 2, 3, -1, -2, True, False)) for _ in range(1 << n)]
    bits = 0
    for t, v in enumerate(vals):
        bits |= (v & 1) << t
    assert from_values(vals, "mv") == TruthTable(n, bits, "mv")


def test_from_values_at_n_20_is_linear_time():
    # Setting one bit at a time copies the growing int: about 3 s at n = 20.
    vals = [t % 3 for t in range(1 << 20)]
    start = time.perf_counter()
    g = from_values(vals, "uv")
    elapsed = time.perf_counter() - start
    assert g.bits == pack_bits(np.array(vals) & 1)
    assert elapsed < 1.0, f"from_values at n = 20 took {elapsed:.2f} s"


@settings(max_examples=60)
@given(st.integers(1, 10), st.data())
def test_bit_array_reads_every_bit(n, data):
    # From n = 6 on a table spans several bytes; the top bit must survive.
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1) | st.just((1 << (1 << n)) - 1))
    g = TruthTable(n, bits, "mv")
    array = g.bit_array()
    assert array.dtype == np.uint8 and array.shape == (1 << n,)
    assert array.tolist() == table_values(g)


@settings(max_examples=100)
@given(st.integers(1, 8), st.data())
def test_xor_translate_is_translation(n, data):
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    z = data.draw(st.integers(0, (1 << n) - 1))
    g = TruthTable(n, bits, "mv")
    shifted = TruthTable(n, xor_translate(bits, n, z), "mv")
    for x in range(1 << n):
        assert bit(shifted, x) == bit(g, x ^ z)


@settings(max_examples=50)
@given(st.integers(1, 8), st.data())
def test_linear_form_table_is_parity(n, data):
    m = data.draw(st.integers(0, (1 << n) - 1))
    bits = linear_form_table(n, m)
    for x in range(1 << n):
        assert (bits >> x) & 1 == (m & x).bit_count() & 1


def test_shifted_derivative_mv_examples():
    g0 = TruthTable(2, 0, "mv")
    # c = (1,1), z = (1,0): cross term is x_1, balanced
    d = shifted_derivative_mv(g0, 0b01, 0b11)
    assert table_values(d) == [0, 1, 0, 1]
    assert is_balanced(d)
    # c = (1,0), z = (0,1): supports disjoint, constant zero
    d = shifted_derivative_mv(g0, 0b10, 0b01)
    assert table_values(d) == [0, 0, 0, 0]
    assert not is_balanced(d)


def test_shifted_derivative_mv_rejects_zero_shift():
    g = TruthTable(2, 0b0110, "mv")
    with pytest.raises(ZeroShiftError):
        shifted_derivative_mv(g, 0, 0b11)


def test_shifted_derivative_uv_examples():
    g0 = TruthTable(2, 0, "uv")
    d = shifted_derivative_uv(F4, g0, 1, 1)
    assert table_values(d) == [0, 0, 1, 1]  # the trace table on GF(4)
    assert is_balanced(d)
    with pytest.raises(ZeroShiftError):
        shifted_derivative_uv(F4, g0, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shifted_derivative_uv_of_zero_is_balanced(n):
    # the cross term Tr(c^2 z x) is a nonzero linear form whenever c, z != 0
    spec = make_field(n)
    g0 = TruthTable(n, 0, "uv")
    for c in range(1, spec.order):
        for z in range(1, spec.order):
            assert is_balanced(shifted_derivative_uv(spec, g0, z, c))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_shifted_derivative_mv_pointwise(n, data):
    size = 1 << n
    bits = data.draw(st.integers(0, (1 << size) - 1))
    z = data.draw(st.integers(1, size - 1))
    c = data.draw(st.integers(0, size - 1))
    g = TruthTable(n, bits, "mv")
    d = shifted_derivative_mv(g, z, c)
    for x in range(size):
        assert bit(d, x) == bit(g, x) ^ bit(g, x ^ z) ^ ((c & z & x).bit_count() & 1)
        # the defining expression is symmetric under x -> x + z
        assert bit(d, x) ^ bit(d, x ^ z) == ((c & z & x).bit_count() & 1) ^ ((c & z & (x ^ z)).bit_count() & 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_shifted_derivative_uv_pointwise(n, data):
    spec = make_field(n)
    size = 1 << n
    bits = data.draw(st.integers(0, (1 << size) - 1))
    z = data.draw(st.integers(1, size - 1))
    c = data.draw(st.integers(0, size - 1))
    g = TruthTable(n, bits, "uv")
    d = shifted_derivative_uv(spec, g, z, c)
    c2 = fe_mul(spec, c, c)
    for x in range(size):
        cross = trace_n(spec, fe_mul(spec, c2, fe_mul(spec, x, z)))
        assert bit(d, x) == bit(g, x) ^ bit(g, x ^ z) ^ cross


def test_table_json_round_trip():
    g = from_values([0, 1, 1, 0, 1, 0, 0, 1], "uv")
    obj = table_to_json(g)
    assert obj == {"mode": "uv", "n": 3, "bits": "0x96"}
    assert table_from_json(obj) == g
