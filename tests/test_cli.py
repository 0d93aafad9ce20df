import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpf
from mpf.cli import main, parse_command
from mpf.gf2n import make_field
from mpf.planar import VectorialFunction, function_to_json


@pytest.fixture
def uv_zero_file(tmp_path):
    F = VectorialFunction("uv", 2, (0, 0, 0, 0), make_field(2))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(function_to_json(F)))
    return str(path)


@pytest.fixture
def mv_zero_file(tmp_path):
    F = VectorialFunction("mv", 2, (0, 0, 0, 0))
    path = tmp_path / "fmv.json"
    path.write_text(json.dumps(function_to_json(F)))
    return str(path)


@pytest.fixture
def uv_zero_table_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"mode": "uv", "n": 2, "bits": "0x0"}))
    return str(path)


def test_parse_command_analyze():
    cmd = parse_command(["analyze", "--file", "f.json"])
    assert cmd.verb == "analyze"
    assert cmd.file == "f.json"


def test_parse_command_spectrum():
    cmd = parse_command(["spectrum", "--file", "g.json", "--c", "0x1", "--out", "s.csv"])
    assert cmd.verb == "spectrum"
    assert cmd.c == "0x1"
    assert cmd.out == "s.csv"


def test_parse_command_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_command(["spectrum"])
    assert exc.value.code == 2


def test_parse_command_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_command(["analyze", "--file", "f.json", "--bogus"])
    assert exc.value.code == 2


def test_analyze_uv_zero_text(uv_zero_file, capsys):
    code = main(["analyze", "--file", uv_zero_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "modified planar: true (perm), true (components), RDS verified" in out


def test_analyze_mv_zero_fails_with_exit_1(mv_zero_file, capsys):
    code = main(["analyze", "--file", mv_zero_file])
    out = capsys.readouterr().out
    assert code == 1
    assert "modified planar: false (perm), false (components), RDS refuted" in out
    assert "witness: 0x1" in out


def test_analyze_json_format(uv_zero_file, capsys):
    code = main(["analyze", "--file", uv_zero_file, "--format", "json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["format_version"] == "mpf.analyze.v1"
    assert obj["planar_perm"] and obj["planar_components"]
    assert obj["rds_bruteforce"] and obj["rds_characters"]
    assert obj["rds_parameters"] == {"mu": 4, "nu": 4, "k": 4, "lambda": 1}


def test_analyze_missing_file_exits_3(capsys):
    assert main(["analyze", "--file", "/nonexistent/f.json"]) == 3


def test_spectrum_csv_contains_derived_row(uv_zero_table_file, capsys):
    code = main(["spectrum", "--file", uv_zero_table_file, "--c", "0x1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# mpf.spectrum.v1"
    assert lines[1] == "u,re,im,norm_sq"
    assert "0x0,0,-2,4" in lines


def test_spectrum_to_file_and_determinism(uv_zero_table_file, tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(["spectrum", "--file", uv_zero_table_file, "--c", "0x1", "--out", str(out1)]) == 0
    assert main(["spectrum", "--file", uv_zero_table_file, "--c", "0x1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrum_json(uv_zero_table_file, capsys):
    assert main(["spectrum", "--file", uv_zero_table_file, "--c", "0x1", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["flat"] is True
    assert obj["values"][0] == [0, -2]


def test_spectrum_bad_twist_exits_3(uv_zero_table_file, capsys):
    assert main(["spectrum", "--file", uv_zero_table_file, "--c", "zz"]) == 3
    assert capsys.readouterr().err == "error: --c must be a hex field element, got 'zz'\n"


def test_spectrum_unwritable_out_exits_3(uv_zero_table_file):
    code = main(["spectrum", "--file", uv_zero_table_file, "--out", "/nonexistent/dir/s.csv"])
    assert code == 3


def test_verify_rds_good(tmp_path, capsys):
    payload = {
        "group": {"law": "star_uv", "n": 2, "field": {"n": 2, "modulus": "0x7"}},
        "elements": [["0x0", "0x0"], ["0x1", "0x0"], ["0x2", "0x0"], ["0x3", "0x0"]],
    }
    path = tmp_path / "rds.json"
    path.write_text(json.dumps(payload))
    assert main(["verify-rds", "--file", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["is_rds"] is True
    assert obj["character_criterion"] is True
    assert obj["parameters"] == {"mu": 4, "nu": 4, "k": 4, "lambda": 1}


def test_verify_rds_bad_exits_1(tmp_path, capsys):
    payload = {
        "group": {"law": "star_mv", "n": 2},
        "elements": [["0x0", "0x0"], ["0x1", "0x0"], ["0x2", "0x0"], ["0x3", "0x0"]],
    }
    path = tmp_path / "rds.json"
    path.write_text(json.dumps(payload))
    assert main(["verify-rds", "--file", str(path)]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["is_rds"] is False
    assert obj["failing_element"] is not None


def test_verify_rds_whole_group_as_forbidden_exits_1(tmp_path, capsys):
    # |G| - |N| = 0: no lambda, so a false verdict with a report, not a crash.
    everything = [[f"0x{x:x}", f"0x{y:x}"] for x in range(2) for y in range(2)]
    payload = {"group": {"law": "star_mv", "n": 1}, "elements": [["0x0", "0x0"]], "forbidden": everything}
    path = tmp_path / "rds.json"
    path.write_text(json.dumps(payload))
    assert main(["verify-rds", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    obj = json.loads(captured.out)
    assert obj["parameters"] == {"mu": 1, "nu": 4, "k": 1, "lambda": None}
    assert obj["is_rds"] is False
    assert obj["character_criterion"] is None


# The last is past the 4300 digits that int's decimal str() allows; the
# message once printed it in decimal and exited 4.
@pytest.mark.parametrize("bad", [["0x1", "0x9"], ["0x1"], 5, [1, 2], ["0x" + "f" * 5000, "0x0"]])
def test_verify_rds_malformed_element_exits_3(tmp_path, capsys, bad):
    payload = {
        "group": {"law": "star_uv", "n": 2, "field": {"n": 2, "modulus": "0x7"}},
        "elements": [["0x0", "0x0"], bad, ["0x2", "0x0"], ["0x3", "0x0"]],
    }
    path = tmp_path / "rds.json"
    path.write_text(json.dumps(payload))
    assert main(["verify-rds", "--file", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "element" in captured.err


_F4 = {"n": 2, "modulus": "0x7"}
_ZEROS = ["0x0"] * 4
# json.load raises RecursionError on deep nesting, and ValueError on an
# int past the interpreter's digit limit.
_NESTED = "[" * 100_000
_LONG_INT = '{"mode": "mv", "n": ' + "1" * 5000 + ', "field": null, "table": []}'
_GRAPH_MV1 = [["0x0", "0x0"], ["0x1", "0x0"]]  # a graph at n = 1, an RDS in star_mv
# int() read 2.0, 2.7 and "2" as n = 2, and true as n = 1, and the verb ran.
_NOT_INTEGERS = {"float": 2.0, "fraction": 2.7, "string": "2", "true": True}
_VERBS = ("analyze", "spectrum", "verify-rds")


def _payload_at(verb, n):
    """A valid file for `verb` at n = int(n), with n itself written as given."""
    q = 1 << int(n)
    if verb == "analyze":
        return {"mode": "mv", "n": n, "table": [f"0x{x:x}" for x in range(q)]}
    if verb == "spectrum":
        return {"mode": "mv", "n": n, "bits": "0x0"}
    return {"group": {"law": "star_mv", "n": n}, "elements": [[f"0x{x:x}", "0x0"] for x in range(q)]}


@pytest.mark.parametrize("verb, payload, says", [
    ("analyze", {"mode": "uv", "n": 2, "field": _F4, "table": 5}, ""),
    ("analyze", {"mode": "uv", "n": 2, "field": _F4, "table": [None, "0x0", "0x0", "0x0"]}, ""),
    ("analyze", {"mode": "uv", "n": 2, "field": {"n": 2, "modulus": 7}, "table": _ZEROS}, ""),
    ("analyze", [1, 2], ""),
    ("verify-rds", {"group": 5, "elements": []}, ""),
    ("spectrum", {"mode": "mv", "n": 2, "bits": 5}, ""),
    ("analyze", '{"mode": "mv", "n": 1e400, "field": null, "table": []}', ""),
    ("analyze", {"mode": "uv", "n": 2, "field": _F4}, "missing key 'table'"),
    ("analyze", {"mode": "uv", "n": 2, "field": {"n": 2}, "table": _ZEROS}, "missing key 'modulus'"),
    ("verify-rds", {"group": {"law": "star_mv", "n": 2}}, "missing key 'elements'"),
    ("verify-rds", {"elements": []}, "missing key 'group'"),
    ("verify-rds", {"group": {"n": 2}, "elements": []}, "missing key 'law'"),
    ("spectrum", {"mode": "mv", "n": 2}, "missing key 'bits'"),
    ("analyze", {"mode": "uv", "n": 2, "field": _F4, "table": {"0x0": 1, "0x1": 1, "0x2": 1, "0x3": 1}},
     "table must be a JSON list"),
    ("analyze", {"mode": "uv", "n": 2, "field": _F4, "table": ["0xg", "0x0", "0x0", "0x0"]}, "'0xg'"),
    ("verify-rds", {"group": {"law": "star_mv", "n": 1}, "elements": "0x0"}, "elements must be a JSON list"),
    ("analyze", _NESTED, "recursion"),
    ("spectrum", _NESTED, "recursion"),
    ("verify-rds", _NESTED, "recursion"),
    ("analyze", _LONG_INT, ""),
    ("spectrum", _LONG_INT, ""),
    ("verify-rds", _LONG_INT, ""),
    # An absent or null optional key means absent; any other value is decoded.
    ("verify-rds", {"group": {"law": "star_mv", "n": 1}, "elements": _GRAPH_MV1, "forbidden": []},
     "identity missing"),
    ("analyze", {"mode": "mv", "n": 1, "field": 0, "table": ["0x0", "0x0"]},
     "function.field must be a JSON object"),
    ("spectrum", {"mode": "uv", "n": 2, "bits": "0x0", "field": []}, "truth_table.field must be a JSON object"),
    # Read by its keys, {"0x0": 1, "0x1": 2} was the element (0, 1), and the
    # set passed as an RDS: the graph of the constant 1 at n = 1.
    ("verify-rds", {"group": {"law": "star_mv", "n": 1}, "elements": [{"0x0": 1, "0x1": 2}, ["0x1", "0x1"]]},
     "rds_input.elements[0] must be a JSON list, got {"),
    # analyze refuses a field on an mv function; spectrum decoded one and ignored it.
    ("spectrum", {"mode": "mv", "n": 2, "bits": "0x6", "field": _F4}, "uv needs a field of degree n and mv none"),
    *[(verb, _payload_at(verb, n), f".n must be a JSON integer, got {n!r}")
      for verb in _VERBS for n in _NOT_INTEGERS.values()],
], ids=["table-number", "table-null", "modulus-number", "top-level-list", "group-number", "bits-number",
        "degree-infinite", "table-missing", "modulus-missing", "elements-missing", "group-missing",
        "law-missing", "bits-missing", "table-object", "table-bad-hex", "elements-string",
        "analyze-nested", "spectrum-nested", "verify-rds-nested", "analyze-long-int", "spectrum-long-int",
        "verify-rds-long-int", "forbidden-empty", "mv-field-zero", "uv-field-empty-list", "element-object",
        "mv-table-field", *[f"{verb}-n-{kind}" for verb in _VERBS for kind in _NOT_INTEGERS]])
def test_wrong_typed_json_exits_3(tmp_path, capsys, verb, payload, says):
    # Exit 1 would read as a false verdict; a malformed file is bad input.
    # A missing key is named, and is told apart from a library KeyError,
    # which exits 4 (below).
    path = tmp_path / "in.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main([verb, "--file", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert says in lines[0]


def test_a_library_type_error_under_a_loader_exits_4(uv_zero_file, monkeypatch, capsys):
    # The loaders map no exception to bad input: the schema has already
    # checked every JSON type, so a TypeError from a constructor is a bug.
    import mpf.planar

    def broken(*args):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(mpf.planar, "VectorialFunction", broken)
    assert main(["analyze", "--file", uv_zero_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: TypeError: unsupported operand type(s)\n")


@pytest.mark.parametrize("verb, absent, null", [
    ("spectrum", {"mode": "uv", "n": 2, "bits": "0x6"}, {"field": None}),
    ("analyze", {"mode": "mv", "n": 2, "table": ["0x0", "0x1", "0x2", "0x3"]}, {"field": None}),
    ("verify-rds", {"group": {"law": "star_mv", "n": 1}, "elements": _GRAPH_MV1}, {"forbidden": None}),
    ("verify-rds", {"group": {"law": "star_mv", "n": 1}, "elements": _GRAPH_MV1},
     {"group": {"law": "star_mv", "n": 1, "field": None}}),
], ids=["spectrum-field", "analyze-field", "verify-rds-forbidden", "verify-rds-group-field"])
def test_null_optional_key_reads_as_absent(tmp_path, capsys, verb, absent, null):
    path = tmp_path / "in.json"
    runs = []
    for payload in (absent, {**absent, **null}):
        path.write_text(json.dumps(payload))
        runs.append((main([verb, "--file", str(path)]), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][1].err == ""


@pytest.mark.parametrize("n", [0, 40])
def test_spectrum_degree_out_of_range_exits_3(tmp_path, n):
    # The degree is checked before anything of size 2^n is built.
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"mode": "mv", "n": n, "bits": "0x0"}))
    assert main(["spectrum", "--file", str(path)]) == 3


def test_search_cli(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "search", "--mode", "uv", "--n", "2", "--class", "affine",
        "--filter", "both", "--out", str(out),
    ])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["examined"] == 64
    assert obj["passing"] == 64
    assert obj["cross_check"] is True


def test_search_cli_shards_default_to_one():
    assert parse_command(["search", "--mode", "mv", "--n", "2", "--class", "all"]).shards == 1


def test_search_cli_identical_outputs(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["search", "--mode", "mv", "--n", "2", "--class", "all", "--filter", "both"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--shards", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest:" in out
    assert "passed" in out
    assert "FAIL" not in out


def test_selftest_checks_the_functions_its_lines_name(monkeypatch, capsys):
    # The battery passes for many other inputs (any non-planar mv table, the
    # constants at more n), so record what it runs: the zero functions on
    # GF(4) and on F_2^2, and the nega spectra of the constants at n = 2..5.
    import mpf.cli as cli

    perm, spectra = [], []
    real_perm, real_U = cli.is_modified_planar_perm, cli.transform_U
    monkeypatch.setattr(cli, "is_modified_planar_perm", lambda F: perm.append((F.mode, F.table)) or real_perm(F))
    monkeypatch.setattr(cli, "transform_U", lambda g, c: spectra.append((g.n, g.bits, c)) or real_U(g, c))
    assert main(["selftest"]) == 0
    assert perm == [("uv", (0, 0, 0, 0)), ("mv", (0, 0, 0, 0))]
    assert spectra == [(2, 0, 0b11)] + [(n, 0, (1 << n) - 1) for n in range(2, 6)]


def test_analyze_route_disagreement_exits_4(uv_zero_file, monkeypatch, capsys):
    # the verdict routes provably coincide; fake a disagreement to check
    # that the internal-error path is wired
    import mpf.cli as cli

    monkeypatch.setattr(cli, "is_modified_planar_components", lambda F: False)
    assert main(["analyze", "--file", uv_zero_file]) == 4
    assert "disagree" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [
    IndexError("index 4 is out of bounds"), ZeroDivisionError("division by zero"), KeyError("table"),
    ValueError("operands could not be broadcast"),
])
def test_an_unexpected_library_exception_exits_4(uv_zero_file, monkeypatch, capsys, exc):
    # A library bug is neither a false verdict (1) nor bad input (3).
    import mpf.cli as cli

    def broken(F):
        raise exc

    monkeypatch.setattr(cli, "is_modified_planar_perm", broken)
    assert main(["analyze", "--file", uv_zero_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {type(exc).__name__}: {exc}\n")
    assert "Traceback" in captured.err


def test_keyboard_interrupt_is_not_caught(uv_zero_file, monkeypatch):
    import mpf.cli as cli

    def interrupted(F):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "is_modified_planar_perm", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["analyze", "--file", uv_zero_file])


def test_analyze_computes_the_character_sums_once(uv_zero_file, monkeypatch, capsys):
    # The components verdict and the RDS character verdict are the same
    # character sums of the graph, so analyze computes them once.
    import mpf.transforms

    real = mpf.transforms.components_flat
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mpf" and getattr(module, "components_flat", None) is real:
            monkeypatch.setattr(module, "components_flat", spy)
    assert main(["analyze", "--file", uv_zero_file, "--format", "json"]) == 0
    assert len(calls) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["planar_components"] is obj["rds_characters"] is True


def test_analyze_refuses_a_graph_past_the_brute_force_bound_before_any_route(tmp_path, monkeypatch, capsys):
    # At n = 14 the perm route alone ran for minutes before the brute-force
    # route refused the 4^n group scan.
    import mpf.cli as cli

    calls = []
    monkeypatch.setattr(cli, "is_modified_planar_perm", lambda F: calls.append(F))
    F = VectorialFunction("uv", 14, (0,) * (1 << 14), make_field(14))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(function_to_json(F)))
    assert main(["analyze", "--file", str(path)]) == 3
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: brute-force RDS work 268435456 at n=14 exceeds the bound 67108864"]


# Runs the CLI under a 1 GiB address-space cap, so an unchecked 2^n
# allocation fails fast instead of taking the machine's memory.
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from mpf.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, payload", [
    (["analyze"], {"mode": "mv", "n": 100_000_000_000, "field": None, "table": []}),
    (["verify-rds"], {"group": {"law": "star_mv", "n": 100_000_000_000}, "elements": []}),
    (["search", "--mode", "mv", "--n", "40", "--class", "all", "--sample", "1"], None),
    # One past the bound: an mv spectrum needs no field, so the degree check
    # alone stands between it and a spectrum of 2^21 rows.
    (["spectrum"], {"mode": "mv", "n": 21, "bits": "0x0"}),
], ids=["analyze", "verify-rds", "search", "spectrum"])
def test_oversized_degree_exits_3_before_allocating(tmp_path, argv, payload):
    if payload is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        argv = argv + ["--file", str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(mpf.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: n must be in [1, ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("payload", [
    {"mode": "mv", "n": 20, "bits": "0x0"},
    {"mode": "uv", "n": 20, "bits": "0x0"},
], ids=["mv", "uv"])
def test_spectrum_at_the_degree_bound_runs_under_a_memory_cap(tmp_path, payload):
    # The largest spectrum input admitted: a twisted spectrum of 2^20 rows,
    # plus the field tables in uv, inside the 1 GiB cap.
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "spectrum.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(mpf.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "spectrum", "--file", str(path), "--c", "0x1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with out.open() as f:
        rows = sum(1 for _ in f)
    assert rows == 2 + (1 << 20)


def test_huge_shard_count_matches_one_shard_under_a_memory_cap():
    # 10^8 shards of a 4-candidate job: one shard per candidate is built,
    # not one per requested shard, and the report does not change.
    argv = ["search", "--mode", "mv", "--n", "1", "--class", "all", "--filter", "perm"]
    env = dict(os.environ, PYTHONPATH=str(Path(mpf.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    outs = []
    for shards in ("1", "100000000"):
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_MAIN, *argv, "--shards", shards],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["examined"] == 4


@pytest.mark.parametrize("payload", [
    {"group": {"law": "star_mv", "n": 20}, "elements": []},
    {"group": {"law": "star_mv", "n": 20}, "elements": [], "forbidden": [["0x0", "0x0"]]},
], ids=["canonical-subgroup", "explicit-subgroup"])
def test_oversized_brute_force_rds_exits_3_before_allocating(tmp_path, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    env = dict(os.environ, PYTHONPATH=str(Path(mpf.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "verify-rds", "--file", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: brute-force RDS work ")
    assert "Traceback" not in proc.stderr
