"""Every JSON decoder reads back what its encoder writes, in both settings,
and a damaged input file exits as bad input, with a message that says what
is bad."""

import contextlib
import io
import json
import re
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mpf.boolfun import TruthTable
from mpf.cli import main
from mpf.errors import SCHEMAS
from mpf.gf2n import MODES, field_from_json, field_to_json, make_field, poly_is_irreducible
from mpf.planar import VectorialFunction, function_from_json, function_to_json
from mpf.rds import GroupSpec, group_from_json
from oracles import elements_from_json, elements_to_json, group_to_json, table_from_json, table_to_json

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


def test_a_table_of_hex_strings_without_the_prefix_reads_in_base_16():
    # decode reads a whole list of hex strings in one pass: "10" and "1f"
    # are 16 and 31 there too.
    obj = {"mode": "mv", "n": 5, "field": None, "table": [f"{v:x}" for v in range(32)]}
    assert function_from_json(obj).table == tuple(range(32))


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


GOLDEN_INPUTS = sorted((Path(__file__).parent / "data" / "golden" / "inputs").glob("*.json"))
VERBS = {"f": "analyze", "t": "spectrum", "v": "verify-rds"}  # by the first letter of the file name
KEY = re.compile(r"\b(%s)\b" % "|".join(sorted({key for schema in SCHEMAS.values() for key in schema})))
BOUND = re.compile(r"must be in \[|bound|limited to")
PYTHON_TEXT = ("object is not subscriptable", "has no attribute", "invalid literal for int()", "NoneType",
               "unhashable", "not iterable", "argument must be", "Traceback")
# One of each JSON type, a huge int and long strings.
OTHER_VALUES = [True, False, 2.5, 1e300, "2", "", "0x1", [], ["0x0"], {}, {"n": 2}, None,
                10 ** 400, -(2 ** 80), "0x" + "f" * 5000, "u" * 5000]


def _paths(obj, path=()):
    """The path to every value inside obj, obj itself first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def damaged_inputs(draw):
    """(verb, golden input with one value retyped, dropped, nested or made huge, the change)."""
    path = draw(st.sampled_from(GOLDEN_INPUTS))
    obj = json.loads(path.read_text())
    paths = list(_paths(obj))[1:]
    # Half the draws take a key, so the few keys are not lost among the table entries.
    where = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]) | st.sampled_from(paths))
    parent = obj
    for key in where[:-1]:
        parent = parent[key]
    change = draw(st.sampled_from(["retype", "drop", "nest"]))
    if change == "drop":
        del parent[where[-1]]
    elif change == "nest":
        value, in_list = parent[where[-1]], draw(st.booleans())
        for _ in range(draw(st.integers(1, 200))):
            value = [value] if in_list else {"x": value}
        parent[where[-1]] = value
    else:
        parent[where[-1]] = draw(st.sampled_from(OTHER_VALUES))
    return VERBS[path.name[0]], obj, (change, where)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(damaged_inputs())
def test_a_damaged_input_file_exits_as_bad_input(tmp_path_factory, case):
    verb, obj, _ = case
    path = tmp_path_factory.getbasetemp() / "damaged.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, "--file", str(path)])
    assert code in (0, 1, 3), err.getvalue()
    if code == 3:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert KEY.search(lines[0]) or str(path) in lines[0] or BOUND.search(lines[0]), lines[0]
        assert not any(text in lines[0] for text in PYTHON_TEXT), lines[0]
        assert out.getvalue() == ""
