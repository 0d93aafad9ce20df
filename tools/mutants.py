"""Sampled mutation score of one mpf module against its own tests.

Run from the repository root:

    python3 tools/mutants.py transforms --seed 1 --count 30 --out tools/mutants_transforms.json

Each mutant changes one site of ``src/mpf/<module>.py``: it swaps an
arithmetic, bitwise or comparison operator, or adds 1 to an int constant.
Type annotations and f-string parts are never mutated.  Sites listed in
``tools/mutants_equivalent.json`` (equivalent mutants, each with its
reason) are skipped.  The ``--count`` sites drawn are those whose hash
with ``--seed`` ranks lowest (``sample``): removing a site leaves every
other draw as it was, and each added site pushes out at most one draw,
the highest-ranked, so a before and an after score share most unchanged
sites.  Each mutant runs the module's targeted tests with ``pytest -x``
in a temporary copy of ``src/``, ``tests/`` and ``pyproject.toml``; the
checkout itself is never written.  Every module but ``gf2n`` and
``transforms`` deselects the two n = 20 spectra of ``tests/test_cli.py``
(``CAPPED_SPECTRA``), and the report's ``tests`` field records it.  A
mutant is killed when the tests fail or time out.  The score and every
survivor are written as JSON.

``--root`` points at another checkout, to score a parent commit with
the same tool.  Stdlib only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EQUIVALENT = HERE / "mutants_equivalent.json"
COMMON_TESTS = ["tests/test_golden.py", "tests/test_cli.py"]
# The two n = 20 spectra under a memory cap take most of test_cli.py's time.
# Only the field tables and the transform blocks run differently there than
# in the small spectra, so every other module's run deselects them.
CAPPED_SPECTRA = "tests/test_cli.py::test_spectrum_at_the_degree_bound_runs_under_a_memory_cap"
CAPPED_SPECTRA_MODULES = {"gf2n", "transforms"}
TESTS = {
    "boolfun": ["tests/test_boolfun.py"],
    "cli": ["tests/test_codecs.py"],
    "errors": ["tests/test_codecs.py"],
    "gf2n": ["tests/test_gf2n.py"],
    "planar": ["tests/test_planar.py"],
    "rds": ["tests/test_rds.py"],
    "search": ["tests/test_search.py"],
    "transforms": ["tests/test_transforms.py"],
}
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
MEMORY_CAP = 3 << 30  # address space of one test run, so a mutant cannot exhaust the host


def _excluded(tree: ast.AST) -> set[int]:
    """ids of the nodes inside annotations and f-strings."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.JoinedStr):
            roots.append(node)
    return {id(n) for root in roots for n in ast.walk(root)}


def _sites(tree: ast.AST):
    """(node, operand index, site) for every mutable site of a parsed module, in walk order."""
    skip = _excluded(tree)
    scope = {}  # id(node) -> innermost enclosing def or class; walk visits outer ones first
    for outer in ast.walk(tree):
        if isinstance(outer, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            scope.update((id(n), outer.name) for n in ast.walk(outer))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.BinOp | ast.AugAssign) and type(node.op) in SWAPS:
            ops = [(0, type(node.op))]
        elif isinstance(node, ast.Compare):
            ops = [(k, type(op)) for k, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            ops = [(0, int)]
        else:
            continue
        for k, op in ops:
            change = f"{node.value} -> {node.value + 1}" if op is int else f"{op.__name__} -> {SWAPS[op].__name__}"
            yield node, k, {"scope": scope.get(id(node), ""), "line": node.lineno, "col": node.col_offset,
                            "end_col": node.end_col_offset, "index": k, "change": change}


def sites(source: str) -> list[dict]:
    """Every mutable site of a module; scope, source line and columns key it across line moves.

    The end column tells apart the nested operators of a chain such as
    ``a // b // c``, which start at one column.
    """
    lines = source.splitlines()
    found = [{**site, "source": lines[site["line"] - 1].strip()} for _, _, site in _sites(ast.parse(source))]
    return sorted(found, key=lambda s: (s["line"], s["col"], s["end_col"], s["index"], s["change"]))


def mutate(source: str, site: dict) -> str:
    """The module's source with the one change of site made."""
    tree = ast.parse(source)
    for node, k, here in _sites(tree):
        if all(here[key] == site[key] for key in here):
            if isinstance(node, ast.Constant):
                node.value += 1
            elif isinstance(node, ast.Compare):
                node.ops[k] = SWAPS[type(node.ops[k])]()
            else:
                node.op = SWAPS[type(node.op)]()
            return ast.unparse(tree)
    raise LookupError(f"site not found: {site}")


def _key(module: str, site: dict) -> tuple:
    return module, site["scope"], site["source"], site["col"], site["end_col"], site["index"], site["change"]


def sample(module: str, live: list[dict], seed: int, count: int) -> list[dict]:
    """The count sites of live that rank lowest by sha256 of the seed and the site's key."""
    return sorted(live, key=lambda site: hashlib.sha256(f"{seed}:{_key(module, site)}".encode()).digest())[:count]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(copy: Path, tests: list[str], timeout: float) -> tuple[str, float]:
    """('passed' | 'failed' | 'timeout', seconds) of pytest -x on tests in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=copy, env=env, capture_output=True, timeout=timeout, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("passed" if done.returncode == 0 else "failed"), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", choices=sorted(TESTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=30, help="mutants to sample (default 30)")
    parser.add_argument("--root", type=Path, default=HERE.parent, help="checkout to score (default: this one)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file for the score and survivors")
    args = parser.parse_args(argv)

    source = (args.root / "src" / "mpf" / f"{args.module}.py").read_text()
    equivalent = {_key(e["module"], e): e["reason"] for e in json.loads(EQUIVALENT.read_text())}
    every = sites(source)
    live = [s for s in every if _key(args.module, s) not in equivalent]
    chosen = sample(args.module, live, args.seed, args.count)
    tests = TESTS[args.module] + COMMON_TESTS
    if args.module not in CAPPED_SPECTRA_MODULES:
        tests += ["--deselect", CAPPED_SPECTRA]

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(args.root / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(args.root / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(args.root / "pyproject.toml", copy)
        target = copy / "src" / "mpf" / f"{args.module}.py"
        outcome, baseline = run_tests(copy, tests, timeout=3600)
        if outcome != "passed":
            raise SystemExit(f"error: the unmutated tests did not pass ({outcome})")
        print(f"unmutated: {baseline:.1f} s; {len(chosen)} of {len(live)} sites", file=sys.stderr)
        results = []
        for k, site in enumerate(chosen, 1):
            target.write_text(mutate(source, site))
            # A survivor runs the whole suite once, about one baseline.
            outcome, seconds = run_tests(copy, tests, timeout=2 * baseline + 10)
            outcome = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
            results.append({**site, "outcome": outcome, "seconds": round(seconds, 1)})
            print(f"[{k}/{len(chosen)}] line {site['line']} {site['change']}: {outcome}", file=sys.stderr)

    survivors = [r for r in results if r["outcome"] == "survived"]
    report = {
        "module": args.module,
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
        "tests": tests,
        "seed": args.seed,
        "sites": len(every),
        "skipped_equivalent": len(every) - len(live),
        "sampled": len(results),
        "killed": len(results) - len(survivors),
        "score": round((len(results) - len(survivors)) / len(results), 4) if results else None,
        "survivors": survivors,
        "mutants": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{args.module}: {report['killed']} of {report['sampled']} killed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
