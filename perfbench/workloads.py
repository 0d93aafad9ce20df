"""The workloads: seeded inputs, one closed-loop op each, and checks.

Each workload builds its inputs from the seed in ``setup`` and then hands
out one *cycle* of ops at a time.  A cycle has a fixed composition, and a
run is a whole number of cycles, so every run sees the same mix and the
latency percentiles land on the same classes of input.  An op's ``run``
is the timed call into mpf; its ``check`` runs untimed and returns None
or the reason the output is wrong.  Checks never trust the route being
timed: expected verdicts come from how an input was built, or from
``inputs.py``, which does not call mpf.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from inputs import (
    first_bad_direction,
    mv_cross,
    mv_image,
    quadratic_bent_bits,
    random_affine_uv,
    random_nonplanar,
    smallest_irreducible,
    uv_cross,
)


@dataclass
class Op:
    label: str  # class of input, for the per-class report
    units: int  # work units this op completes
    run: Callable[[], object]
    check: Callable[[object], str | None]
    cycle: int = -1  # set by the run loop
    start: float = 0.0  # perf_counter when the timed call began, set by the run loop


def _table_json(mode: str, n: int, table: list[int], modulus: int | None) -> dict:
    field = {"n": n, "modulus": f"0x{modulus:x}"} if modulus else None
    return {"mode": mode, "n": n, "field": field, "table": [f"0x{v:x}" for v in table]}


def _cli_main(mpf, argv: list[str]) -> int:
    """mpf.cli.main, with a usage error's SystemExit read as its exit code."""
    try:
        return mpf.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def build_tables(mpf, spec, tracer) -> None:
    """Build every cached field table for spec under one gf2n.tables span.

    The tables are lazy properties of a private class, so they cannot be
    wrapped; the benchmark touches each one itself.  Bytes are computed
    from the array sizes.
    """
    with tracer.span("gf2n.tables") if tracer else contextlib.nullcontext():
        tables = mpf.gf2n.field_tables(spec)
        arrays = [getattr(tables, name, None) for name in ("exp", "log", "trace", "s2", "dual")]
    if tracer:
        tracer.counters["gf2n.tables.bytes"] += sum(a.nbytes for a in arrays if a is not None)


class Workload:
    name = ""
    unit = ""
    # Fixed per workload; min_cycles keeps >= 10 samples beyond tail_pct.
    # BENCHMARK.json's why states both (test_checks.py holds it to that).
    tail_pct = 90
    min_cycles = 1

    def __init__(self, mpf, seed: int, workdir: str, tracer=None):
        self.mpf = mpf
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.tracer = tracer
        self.setup()

    def setup(self) -> None:
        pass

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def finish(self, ops: list[Op]) -> set[int]:
        """Checks that need the whole run; returns indices of failed ops."""
        return set()


class Analyze(Workload):
    """mpf analyze over uv and mv functions, n = 3..6, 1 planar in 8 per class."""

    name = "analyze"
    unit = "functions"
    tail_pct = 94  # lands among the n = 6 uv non-planar ops, not inside one planar class
    min_cycles = 3
    NS = (3, 4, 5, 6)
    NONPLANAR = 7
    # A class's planar input takes turns among this many functions, one per
    # cycle: planar ops set throughput and the tail, and their cost differs
    # from one function to the next, so no single seeded function may set it.
    PLANAR_TURNS = 4
    # The same for the non-planar inputs: a cycle takes the next NONPLANAR
    # of a class's pool, so a run averages over many inputs per class and
    # the tail, which falls among the n = 6 uv non-planar ops, is not set
    # by the one slowest input a seed drew.
    NONPLANAR_TURNS = 6

    def setup(self) -> None:
        rng = self.rng
        self._ids = itertools.count()
        self.nonplanar = []  # per class, a pool of (label, path, expected exit code, expected witness)
        self.planar = []  # per class, the planar cases that take turns
        for n in self.NS:
            modulus = smallest_irreducible(n)
            build_tables(self.mpf, self.mpf.gf2n.make_field(n), self.tracer)
            for mode, cross in (("uv", uv_cross(modulus)), ("mv", mv_cross)):
                field = modulus if mode == "uv" else None
                turns = []
                for _ in range(self.PLANAR_TURNS):
                    table = random_affine_uv(rng, n, modulus)
                    if mode == "mv":
                        table = mv_image(rng, table, modulus)
                    if first_bad_direction(table, cross) is not None:
                        raise RuntimeError(f"benchmark bug: {mode} n={n} input is not planar")
                    turns.append(self._write(f"{mode}{n}-planar", _table_json(mode, n, table, field), 0, None))
                self.planar.append(turns)
                pool = []
                for _ in range(self.NONPLANAR * self.NONPLANAR_TURNS):
                    table, bad = random_nonplanar(rng, n, cross)
                    pool.append(self._write(f"{mode}{n}-nonplanar", _table_json(mode, n, table, field), 1, bad))
                self.nonplanar.append(pool)
        self.out = os.path.join(self.workdir, "analyze.json")

    def _write(self, label, obj, code, witness) -> tuple:
        path = os.path.join(self.workdir, f"analyze-{next(self._ids)}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return label, path, code, witness

    def cycle(self, k: int) -> list[Op]:
        turn = k % self.NONPLANAR_TURNS * self.NONPLANAR
        order = [case for pool in self.nonplanar for case in pool[turn:turn + self.NONPLANAR]]
        order += [turns[k % len(turns)] for turns in self.planar]
        self.rng.shuffle(order)
        return [self._op(*case) for case in order]

    def _op(self, label, path, code, witness) -> Op:
        argv = ["analyze", "--file", path, "--format", "json", "--out", self.out]
        return Op(label, 1, lambda: _cli_main(self.mpf, argv),
                  lambda rc: self._check(rc, code, witness))

    def _check(self, rc, code, witness) -> str | None:
        if rc != code:
            return f"exit code {rc}, expected {code}"
        try:
            with open(self.out) as fh:
                report = json.load(fh)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.out)
        verdicts = [report[k] for k in ("planar_perm", "planar_components", "rds_bruteforce", "rds_characters")]
        if verdicts != [code == 0] * 4:
            return f"verdicts {verdicts}, expected all {code == 0}"
        want = None if witness is None else f"0x{witness:x}"
        if report["witness_a"] != want:
            return f"witness {report['witness_a']}, expected {want}"
        return None


class Search(Workload):
    """run_search census jobs from the search demo, filter both.

    One job, the exhaustive uv do_quadratic n = 3 census, runs at 2 shards
    so the process pool and the merge are timed on every cycle; the others
    run in process.  With every job at 2 shards, two busy processes on a
    2-vCPU shared host made throughput spread 0.28 of its median over 5
    seeds, and the exhaustive affine n = 3 census, 4.7 s an op and 80% of
    the time, left a 30 s run 6 to 9 samples of it; a sample of 400 affine
    functions runs the same code to completion on every candidate.
    """

    name = "search"
    unit = "candidates"
    # Sorted by cost a cycle is mv2, 2 x uv4, 2 x uv5, uv3 do_quadratic,
    # uv3 affine: p50 falls among the sampled uv4/uv5 jobs and p90 inside
    # the affine one, not on a border between two job costs.
    tail_pct = 90
    min_cycles = 15
    KNOWN_CENSUS = {("mv", 2, "all"): 64, ("uv", 3, "do_quadratic"): 8}

    def setup(self) -> None:
        mpf = self.mpf
        shards = 1 if self.tracer else min(2, os.cpu_count() or 1)
        for n in (2, 3, 4, 5):
            build_tables(mpf, mpf.gf2n.make_field(n), self.tracer)
        seeds = [self.rng.randrange(1 << 30) for _ in range(5)]
        self.jobs = [
            mpf.search.SearchJob("mv", 2, "all"),
            mpf.search.SearchJob("uv", 3, "affine", seed=seeds[4], sample=400),
            mpf.search.SearchJob("uv", 3, "do_quadratic", shards=shards),
            mpf.search.SearchJob("uv", 4, "do_quadratic", seed=seeds[0], sample=150),
            mpf.search.SearchJob("uv", 4, "do_quadratic", seed=seeds[1], sample=150),
            mpf.search.SearchJob("uv", 5, "do_quadratic", seed=seeds[2], sample=100),
            mpf.search.SearchJob("uv", 5, "do_quadratic", seed=seeds[3], sample=100),
        ]
        self.digests: dict[int, tuple[int, str]] = {}  # id(op) -> (job index, report digest)

    def _requested(self, job) -> int:
        if job.sample is not None:
            return job.sample
        q = 1 << job.n
        slots = {"all": q, "affine": job.n + 1, "do_quadratic": job.n * (job.n - 1) // 2}[job.klass]
        return q ** slots

    def _digest(self, report) -> str:
        text = json.dumps(self.mpf.search.report_to_json(report))
        return hashlib.sha256(text.encode()).hexdigest()

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for j, job in enumerate(self.jobs):
            label = f"{job.mode}{job.n}-{job.klass}" + ("-sampled" if job.sample else "")
            op = Op(label, self._requested(job), lambda job=job: self.mpf.search.run_search(job), None)
            op.check = lambda report, op=op, j=j: self._check(op, j, report)
            ops.append(op)
        return ops

    def _check(self, op: Op, j: int, report) -> str | None:
        job = self.jobs[j]
        self.digests[id(op)] = (j, self._digest(report))
        if report.examined != self._requested(job):
            return f"examined {report.examined}, requested {self._requested(job)}"
        if report.cross_check is not True:
            return "cross_check is not true"
        known = None if job.sample else self.KNOWN_CENSUS.get((job.mode, job.n, job.klass))
        if job.klass == "affine":
            known = report.examined  # every affine function is modified planar
        if known is not None and report.passing != known:
            return f"census {report.passing}, expected {known}"
        return None

    def finish(self, ops: list[Op]) -> set[int]:
        """Every op's report must equal a shards = 1 run of its job, byte for byte.

        The passing functions of that reference are re-checked against
        the definition of modified planarity.
        """
        mpf = self.mpf
        reference = {}
        for j, job in enumerate(self.jobs):
            try:
                report = mpf.search.run_search(dataclasses.replace(job, shards=1))
            except Exception as exc:  # every op of this job then counts as failed
                reference[j] = f"reference run raised {exc!r}"
                continue
            reference[j] = self._digest(report)
            cross = mv_cross if job.mode == "mv" else uv_cross(smallest_irreducible(job.n))
            if any(first_bad_direction(list(t), cross) is not None for t in report.passing_functions):
                reference[j] = "reference report lists a non-planar function"
        failed = set()
        for i, op in enumerate(ops):
            j, digest = self.digests.get(id(op), (None, None))
            if j is not None and digest != reference[j]:
                failed.add(i)
        return failed


class Bent4Sweep(Workload):
    """bent4_witnesses at n = 10 on uv and mv tables with known or repeated witness sets."""

    name = "bent4-sweep"
    unit = "twists"
    # A uv op costs about 1.4 times an mv op, whatever the function, so the
    # share of mv ops decides where p50 and the tail fall.  With 3 mv ops in
    # 10, p50 is 29% and p90 86% of the way into the uv ops: inside one
    # population, not on the border between the two, where a percentile
    # flips from one to the other between runs.
    tail_pct = 90
    min_cycles = 10
    N = 10

    def setup(self) -> None:
        mpf, rng, n = self.mpf, self.rng, self.N
        q = 1 << n
        self.spec = mpf.gf2n.make_field(n)
        build_tables(mpf, self.spec, self.tracer)
        nonzero = frozenset(range(1, q))
        # (label, table, expected set or None to match the first result)
        self.cases = [
            ("uv-zero", mpf.TruthTable(n, 0, "uv"), lambda w: w == nonzero),
            ("uv-bent", mpf.TruthTable(n, quadratic_bent_bits(rng, n), "uv"), lambda w: 0 in w),
            ("uv-bent", mpf.TruthTable(n, quadratic_bent_bits(rng, n), "uv"), lambda w: 0 in w),
        ] + [
            ("uv-random", mpf.TruthTable(n, rng.getrandbits(q), "uv"), None) for _ in range(4)
        ] + [
            ("mv-zero", mpf.TruthTable(n, 0, "mv"), lambda w: w == {q - 1}),
            ("mv-bent", mpf.TruthTable(n, quadratic_bent_bits(rng, n), "mv"), lambda w: 0 in w),
            ("mv-random", mpf.TruthTable(n, rng.getrandbits(q), "mv"), None),
        ]
        self.first: dict[int, set] = {}

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for i, (label, g, rule) in enumerate(self.cases):
            spec = self.spec if g.mode == "uv" else None
            ops.append(Op(label, 1 << self.N,
                          lambda g=g, spec=spec: self.mpf.transforms.bent4_witnesses(g, spec),
                          lambda w, i=i, rule=rule: self._check(i, rule, w)))
        return ops

    def _check(self, i, rule, witnesses) -> str | None:
        if rule is not None:
            return None if rule(witnesses) else f"witness set {sorted(witnesses)[:8]} breaks the known rule"
        first = self.first.setdefault(i, set(witnesses))
        return None if witnesses == first else "witness set differs from the first op on this input"


WORKLOADS = {w.name: w for w in (Analyze, Search, Bent4Sweep)}
