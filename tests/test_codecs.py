"""Every JSON decoder reads back what its encoder writes, in both settings."""

import json

from hypothesis import example, given
from hypothesis import strategies as st

from mpf.boolfun import TruthTable, table_from_json
from mpf.gf2n import MODES, field_from_json, field_to_json, make_field, poly_is_irreducible
from mpf.planar import VectorialFunction, function_from_json, function_to_json
from mpf.rds import GroupSpec, elements_from_json, group_from_json
from oracles import elements_to_json, group_to_json, table_to_json

_NON_DEFAULT_F8 = make_field(3, 0b1101)  # the default modulus at n = 3 is 0b1011


def _via_text(obj):
    """obj as a file holds it: JSON text, read back."""
    return json.loads(json.dumps(obj))


@st.composite
def mpf_settings(draw):
    """(mode, n, field) at n = 1..6; a uv field takes any irreducible modulus of degree n."""
    mode, n = draw(st.sampled_from(MODES)), draw(st.integers(1, 6))
    if mode == "mv":
        return mode, n, None
    moduli = [m for m in range(1 << n, 2 << n) if poly_is_irreducible(m)]
    return mode, n, make_field(n, draw(st.sampled_from(moduli)))


@st.composite
def functions(draw):
    mode, n, spec = draw(mpf_settings())
    q = 1 << n
    return VectorialFunction(mode, n, draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q)), spec)


@given(mpf_settings())
@example(("uv", 3, _NON_DEFAULT_F8))
def test_field_round_trip(setting):
    _, n, spec = setting
    spec = spec or make_field(n)
    assert field_from_json(_via_text(field_to_json(spec))) == spec


@given(functions())
@example(VectorialFunction("uv", 3, range(8), _NON_DEFAULT_F8))
def test_function_round_trip(F):
    assert function_from_json(_via_text(function_to_json(F))) == F


@given(mpf_settings(), st.data())
def test_table_round_trip(setting, data):
    mode, n, _ = setting
    g = TruthTable(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)), mode)
    assert table_from_json(_via_text(table_to_json(g))) == g


@given(mpf_settings())
@example(("uv", 3, _NON_DEFAULT_F8))
def test_group_round_trip(setting):
    mode, n, spec = setting
    g = GroupSpec("star_" + mode, n, spec)
    assert group_from_json(_via_text(group_to_json(g))) == g


@given(st.integers(1, 6), st.data())
def test_elements_round_trip(n, data):
    q = 1 << n
    elements = data.draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))))
    assert elements_from_json(_via_text(elements_to_json(elements))) == sorted(elements)
