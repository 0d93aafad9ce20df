"""Command-line front end.

Verbs: analyze, spectrum, verify-rds, search, selftest.  Exit codes:
0 success, 1 false verdict on a verify verb, 2 usage error, 3 I/O or
input-data error, 4 internal error (the independent verdict routes
disagreed, or an unexpected exception escaped the library: either means
a bug in this package).
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .boolfun import TruthTable
from .errors import FilterDisagreementError, InputError, MpfError, decode
from .gf2n import (MODES, check_field, fe_mul, field_from_json, field_to_json, make_field, poly_is_irreducible,
                   sigma, trace_n)
from .planar import (
    VectorialFunction,
    function_from_json,
    is_modified_planar_components,
    is_modified_planar_perm,
)
from .rds import (
    forbidden_subgroup,
    graph_of,
    group_for,
    group_from_json,
    report_to_json,
    rds_verify_bruteforce,
    rds_verify_characters,
)
from .search import CLASSES, FILTERS, SearchJob, run_search
from .search import report_to_json as search_report_to_json
from .transforms import bent4_witnesses, is_flat, transform_U, transform_V

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
# 2, a usage error, is argparse's own exit code.
EXIT_IO = 3
EXIT_INTERNAL = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The five-verb parser, built once per process and reused."""
    parser = argparse.ArgumentParser(
        prog="mpf",
        description="Analyze modified planar functions, bent4 components, and relative difference sets.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="run all planarity and RDS verdicts on a function file")
    p.add_argument("--file", required=True, help="vectorial function JSON")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("spectrum", help="dump the exact twisted spectrum of a Boolean function")
    p.add_argument("--file", required=True, help="truth table JSON")
    p.add_argument("--c", default="0x0", help="twist element, hex (default 0x0)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-rds", help="verify a relative difference set")
    p.add_argument("--file", required=True, help="group spec + element list JSON")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("search", help="enumerate a function class and filter by planarity")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="klass", required=True, choices=CLASSES)
    p.add_argument("--filter", choices=FILTERS, default="both")
    p.add_argument("--shards", type=int, default=1, help="one process per shard, at most one per CPU (default 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=int, default=None,
                   help="draw this many candidates instead of exhausting the class")
    p.add_argument("--out", default=None)
    p.add_argument("--stream", default=None, help="write every passing function here, one JSON per line")

    sub.add_parser("selftest", help="run the built-in identity battery")
    return parser


def parse_command(argv) -> argparse.Namespace:
    """Parse argv into the verb and its options; usage errors exit with code 2."""
    return build_parser().parse_args(argv)


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax or encoding, deep nesting, a huge int
            raise InputError(f"{path}: not readable as JSON: {exc}") from None


def _write(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _emit(args: argparse.Namespace, report: dict, lines: list[str] | None = None) -> None:
    """Write the report as its text lines when given and JSON is not asked for, else as JSON."""
    if lines is not None and args.format != "json":
        text = "\n".join(lines)
    else:
        text = json.dumps(report, indent=2)
    _write(text, args.out)


def _cmd_analyze(args: argparse.Namespace) -> int:
    F = function_from_json(_load_json(args.file))
    # Brute force runs first: it refuses a graph past its work bound
    # before the other routes spend time on it.
    group = group_for(F)
    brute = rds_verify_bruteforce(group, graph_of(F))
    perm = is_modified_planar_perm(F)
    # The character sums of the graph at twist c are the twisted spectrum
    # of the component at c: one computation answers both verdicts.
    components = is_modified_planar_components(F)
    verdicts = (perm.is_planar, components, brute.is_rds)
    witness = f"0x{perm.witness_a:x}" if perm.witness_a is not None else None
    report = {
        "format_version": "mpf.analyze.v1",
        "mode": F.mode,
        "n": F.n,
        "field": field_to_json(F.spec) if F.spec else None,
        "planar_perm": perm.is_planar,
        "planar_components": components,
        "rds_bruteforce": brute.is_rds,
        "rds_characters": components,
        "rds_parameters": report_to_json(brute)["parameters"],
        "witness_a": witness,
        "witness_collision": list(perm.collision) if perm.collision else None,
    }
    rds_word = "RDS verified" if brute.is_rds and components else "RDS refuted"
    w_perm = "true" if perm.is_planar else "false"
    w_comp = "true" if components else "false"
    _emit(args, report, [
        "mpf analyze v1",
        f"mode: {F.mode}  n: {F.n}",
        f"modified planar: {w_perm} (perm), {w_comp} (components), {rds_word}",
        f"witness: {witness or '-'}",
    ])
    if len(set(verdicts)) != 1:
        sys.stderr.write("internal error: verdict routes disagree; this is a bug\n")
        return EXIT_INTERNAL
    return EXIT_OK if all(verdicts) else EXIT_VERDICT_FALSE


def _cmd_spectrum(args: argparse.Namespace) -> int:
    mode, n, bits, field = decode("truth_table", _load_json(args.file))
    g = TruthTable(n, bits, mode)
    try:
        c = int(args.c, 16)
    except ValueError:
        raise InputError(f"--c must be a hex field element, got {args.c!r}") from None
    spec = field_from_json(field) or (make_field(n) if mode == "uv" else None)
    check_field(mode, n, spec)
    s = transform_V(spec, g, c) if g.mode == "uv" else transform_U(g, c)
    if args.format == "csv":
        norms = s.norms_sq()
        rows = ["# mpf.spectrum.v1", "u,re,im,norm_sq"]
        rows += [f"0x{u:x},{re},{im},{norms[u]}" for u, (re, im) in enumerate(s.values)]
        _write("\n".join(rows), args.out)
        return EXIT_OK
    _emit(args, {
        "format_version": "mpf.spectrum.v1",
        "mode": s.mode,
        "n": s.n,
        "twist": f"0x{s.twist:x}",
        "flat": is_flat(s),
        "values": [[int(re), int(im)] for re, im in s.values],
    })
    return EXIT_OK


def _cmd_verify_rds(args: argparse.Namespace) -> int:
    group, R, N = decode("rds_input", _load_json(args.file))
    group = group_from_json(group)
    brute = rds_verify_bruteforce(group, R, N)
    characters = None
    if N is None or frozenset(N) == forbidden_subgroup(group):
        characters = rds_verify_characters(group, R)
    report = {"format_version": "mpf.verify-rds.v1", "group": {"law": group.law, "n": group.n}}
    report.update(report_to_json(brute))
    report["character_criterion"] = characters
    _emit(args, report, [
        "mpf verify-rds v1",
        f"group: {group.law}  n: {group.n}",
        f"parameters: ({brute.mu}, {brute.nu}, {brute.k}, {brute.lam})",
        f"is_rds: {str(brute.is_rds).lower()}  characters: {str(characters).lower()}",
    ])
    ok = brute.is_rds and characters is not False
    return EXIT_OK if ok else EXIT_VERDICT_FALSE


def _cmd_search(args: argparse.Namespace) -> int:
    job = SearchJob(
        mode=args.mode,
        n=args.n,
        klass=args.klass,
        filter=args.filter,
        shards=args.shards,
        seed=args.seed,
        sample=args.sample,
    )
    report = run_search(job, stream=args.stream)
    obj = {"format_version": "mpf.search.v1"}
    obj.update(search_report_to_json(report))
    _emit(args, obj)
    return EXIT_OK


def _selftest_checks():
    f4 = make_field(2)
    yield "default moduli irreducible (n=1..8)", all(
        poly_is_irreducible(make_field(n).modulus) for n in range(1, 9)
    )
    yield "GF(4) product alpha*alpha = alpha+1", fe_mul(f4, 2, 2) == 3
    yield "trace values on GF(4)", [trace_n(f4, a) for a in range(4)] == [0, 0, 1, 1]
    yield "sigma values on GF(4) at c=1", [sigma(f4, 1, x) for x in range(4)] == [0, 1, 1, 1]
    g0 = TruthTable(2, 0, "mv")
    s = transform_U(g0, 0b11)
    yield "nega spectrum of zero (n=2) at u=0 is 2i", s.value(0) == (0, 2)
    gu = TruthTable(2, 0, "uv")
    sv = transform_V(f4, gu, 1)
    yield "univariate nega spectrum of zero over GF(4) at u=0 is -2i", sv.value(0) == (0, -2)
    yield "constant functions are negabent (mv, n=2..5)", all(
        is_flat(transform_U(TruthTable(n, 0, "mv"), (1 << n) - 1)) for n in range(2, 6)
    )
    zero_uv = VectorialFunction("uv", 2, (0, 0, 0, 0), f4)
    zero_mv = VectorialFunction("mv", 2, (0, 0, 0, 0))
    yield "univariate zero function is modified planar", is_modified_planar_perm(zero_uv).is_planar
    yield "multivariate zero function is not", not is_modified_planar_perm(zero_mv).is_planar
    g = group_for(zero_uv)
    yield "graph of the univariate zero function is a (4,4,4,1)-RDS", rds_verify_bruteforce(
        g, graph_of(zero_uv)
    ).is_rds
    yield "character criterion agrees", rds_verify_characters(g, graph_of(zero_uv))
    witnesses = bent4_witnesses(gu, f4)
    yield "zero function over GF(4) is bent4 exactly at nonzero twists", witnesses == {1, 2, 3}
    report = run_search(SearchJob("uv", 1, "all", "both"))
    yield "all four functions on GF(2) are modified planar", (
        report.examined == 4 and report.passing == 4 and report.cross_check
    )


def _cmd_selftest(args: argparse.Namespace) -> int:
    passed = 0
    total = 0
    for label, ok in _selftest_checks():
        total += 1
        tag = "ok" if ok else "FAIL"
        if ok:
            passed += 1
        print(f"{tag:4} {label}")
    print(f"selftest: {passed}/{total} passed")
    return EXIT_OK if passed == total else EXIT_VERDICT_FALSE


_DISPATCH = {
    "analyze": _cmd_analyze,
    "spectrum": _cmd_spectrum,
    "verify-rds": _cmd_verify_rds,
    "search": _cmd_search,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = parse_command(argv if argv is not None else sys.argv[1:])
    try:
        return _DISPATCH[args.verb](args)
    except FilterDisagreementError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except (OSError, MpfError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except Exception as exc:  # a library bug; exit 1 would read as a false verdict
        import traceback  # only here, so a normal start does not pay for the import

        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
