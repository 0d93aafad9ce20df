"""Deterministic enumeration and filtering of vectorial functions.

Candidates are indexed by integers: an index is read as base-2^n digits
over a fixed slot list (table entries for the `all` class, polynomial
coefficients for the DO classes), so any shard can decode its own range
without coordination.  Reports merge shard results in index order and
are byte-identical for any shard count.  Sampled jobs draw indices from
a SHA-256 counter keyed by the seed, which is stable across platforms.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import transforms
from .errors import FilterDisagreementError, InputError
from .gf2n import check_setting, make_field
from .planar import (
    VectorialFunction,
    do_monomials,
    do_tables,
    function_to_json,
    perm_witnesses,
)
from .transforms import components_flat

# Each class is (largest n for exhaustive jobs, its slot exponents at n).
# affine slots are x^(2^i), i < n, then the constant; do_quadratic slots
# are x^(2^i + 2^j), i < j, in lexicographic order; the all class has no
# exponents, as its digits are the table itself.  Sampled jobs only need
# the candidate space to be indexable.  do_quadratic at n = 4 is 2^24
# candidates; n = 5 would be 2^50.
_CLASSES = {
    "all": (2, lambda n: None),
    "affine": (4, lambda n: [1 << i for i in range(n)] + [0]),
    "do_quadratic": (4, lambda n: [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]),
}
CLASSES = tuple(_CLASSES)
FILTERS = ("perm", "components", "both")

# Bound on one sampled candidate's work, about 4^n steps (q directions
# or twists of q points each): a time bound, not a memory bound.  It
# admits every n <= 13.
MAX_CANDIDATE_WORK = 1 << 26

REPORT_FUNCTION_CAP = 10_000


@dataclass(frozen=True)
class SearchJob:
    mode: str
    n: int
    klass: str
    filter: str = "both"
    shards: int = 1
    seed: int = 0
    sample: int | None = None

    def __post_init__(self):
        check_setting(self.mode, self.n)
        _slot_exponents(self.mode, self.n, self.klass)
        if self.filter not in FILTERS:
            raise InputError(f"unknown filter {self.filter!r}")
        if self.shards < 1:
            raise InputError("shards must be >= 1")
        if self.sample is not None and self.sample < 0:
            raise InputError("sample must be >= 0")


@dataclass(frozen=True)
class SearchReport:
    examined: int
    passing: int
    passing_functions: tuple[tuple[int, ...], ...]
    cross_check: bool | None


def _slot_exponents(mode: str, n: int, klass: str) -> list[int] | None:
    """The slot exponents of klass at n (None for all); polynomial classes are uv only."""
    if klass not in _CLASSES:
        raise InputError(f"unknown class {klass!r}")
    exponents = _CLASSES[klass][1](n)
    if mode == "mv" and exponents is not None:
        raise InputError("polynomial classes are univariate; use mode uv")
    return exponents


def class_size(mode: str, n: int, klass: str) -> int:
    exponents = _slot_exponents(mode, n, klass)
    return 1 << (n * (1 << n if exponents is None else len(exponents)))


def slot_monomials(n: int, klass: str) -> np.ndarray | None:
    """The (slots, 2^n) rows x -> x^e of a class's slot exponents, None for the all class."""
    exponents = _slot_exponents("uv", n, klass)
    return None if exponents is None else do_monomials(make_field(n), exponents)


def decode_block(n: int, monomials: np.ndarray | None, indices: list[int]) -> np.ndarray:
    """The tables of the candidates at indices, one (len(indices), 2^n) int array.

    An index is read as base-2^n digits over the slots, least significant
    first; monomials is slot_monomials(n, klass).  Indices are Python ints
    of up to n * slots bits (384 for all at n = 6), so they go through
    their little-endian bytes, not a fixed-width integer.
    """
    count = 1 << n if monomials is None else len(monomials)
    width = (n * count + 7) // 8
    raw = np.frombuffer(b"".join(i.to_bytes(width, "little") for i in indices), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(indices), width), axis=1, bitorder="little")
    digits = bits[:, : n * count].reshape(len(indices), count, n) @ (1 << np.arange(n))
    return digits if monomials is None else do_tables(make_field(n), monomials, digits)


def _check_bounds(n: int, klass: str) -> None:
    bound = _CLASSES[klass][0]
    if n > bound:
        raise InputError(f"exhaustive {klass} jobs are limited to n <= {bound}, got n={n}")


def _sampler(seed: int, size: int):
    """draw(counter): a draw from [0, size) keyed by (seed, counter).

    The digest is SHA-256 of "seed:counter", taken from one hasher of the
    "seed:" prefix.  One digest covers every size up to 2^256; a larger
    class takes further digests as its high-order bytes, so a draw
    reaches every slot and smaller classes draw what they always drew.
    """
    prefix = hashlib.sha256(f"{seed}:".encode())

    def draw(counter: int) -> int:
        h = prefix.copy()
        h.update(b"%d" % counter)
        digest = h.digest()
        block = 1
        while 256 * block < (size - 1).bit_length():
            digest = hashlib.sha256(f"{seed}:{counter}:{block}".encode()).digest() + digest
            block += 1
        return int.from_bytes(digest, "big") % size

    return draw


def _run_shard(
    payload: tuple[SearchJob, int, int],
) -> tuple[int, np.ndarray, tuple[int, VectorialFunction] | None]:
    """(examined, passing tables, (index, function) of the first disagreement or None).

    The payload is the job and the counter range [lo, hi) of one shard.
    Each block of candidates is decoded in one decode_block call and
    decided by one perm_witnesses call and one components_flat call, each
    on at most _BLOCK_ENTRIES (function, direction or twist, point)
    entries.  A VectorialFunction is built only for a disagreement.  The
    passing tables come back as one (k, 2^n) array in counter order, in
    the narrowest unsigned dtype that holds 2^n - 1.
    """
    job, lo, hi = payload
    size = class_size(job.mode, job.n, job.klass)
    q = 1 << job.n
    spec = make_field(job.n) if job.mode == "uv" else None
    monomials = slot_monomials(job.n, job.klass)
    block = max(1, transforms._BLOCK_ENTRIES // (q * (q - 1)))
    dtype = np.min_scalar_type(q - 1)
    draw = None if job.sample is None else _sampler(job.seed, size)
    examined = 0
    passing = [np.empty((0, q), dtype=dtype)]
    for start in range(lo, hi, block):
        counters = range(start, min(hi, start + block))
        indices = list(counters) if draw is None else [draw(c) for c in counters]
        tables = decode_block(job.n, monomials, indices).astype(dtype)
        if job.filter != "components":
            verdicts = perm_witnesses(job.n, tables, spec) == 0
        if job.filter != "perm":
            flat = components_flat(job.n, tables.T, spec)
        agree = len(indices)
        if job.filter == "components":
            verdicts = flat
        elif job.filter == "both":
            agree = int(next(iter(np.flatnonzero(verdicts != flat)), agree))
        examined += agree
        passing.append(tables[:agree][verdicts[:agree]])
        if agree < len(indices):
            F = VectorialFunction(job.mode, job.n, tables[agree].tolist(), spec)
            return examined, np.concatenate(passing), (indices[agree], F)
    return examined, np.concatenate(passing), None


def run_search(job: SearchJob, stream=None) -> SearchReport:
    """Run a search job; the report is identical for any shard count.

    A sampled job draws job.sample indices with replacement, so a
    candidate can come up more than once; examined and passing count
    every draw, repeats included.  stream, if given, is a writable text
    file or a path: every passing function is written to it as one JSON
    object per line (not capped).
    """
    if job.sample is None:
        _check_bounds(job.n, job.klass)
        total = class_size(job.mode, job.n, job.klass)
    elif 4 ** job.n > MAX_CANDIDATE_WORK:
        raise InputError(f"sampled jobs are limited to 4^n <= {MAX_CANDIDATE_WORK}, got n={job.n}")
    else:
        total = job.sample
    # The report does not depend on the shard count, so shards stop at the
    # candidate count (past it they are empty) and at four per core (a
    # sampled job's count is --sample, which need not fit in memory).
    shards = max(1, min(job.shards, total, 4 * (os.cpu_count() or 1)))
    payloads = [(job, s * total // shards, (s + 1) * total // shards) for s in range(shards)]
    # The caller is one of w processes, w - 1 of them pool workers: it runs
    # shards 0, w, 2w, ... while the workers take the rest.  Shards fix the
    # report; processes beyond the cores would only contend.
    w = min(shards, os.cpu_count() or 1)
    pool = None
    if w > 1:
        # Imported only here: the process pool machinery adds about 1 MiB of
        # resident memory that in-process jobs and the other verbs never use.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=w - 1)
    with pool or nullcontext():
        theirs = pool.map(_run_shard, [p for s, p in enumerate(payloads) if s % w]) if pool else None
        mine = iter([_run_shard(p) for p in payloads[::w]])
        results = [next(theirs) if s % w else next(mine) for s in range(shards)]
    examined = 0
    for shard_examined, _, disagreement in results:
        if disagreement is not None:
            index, F = disagreement
            raise FilterDisagreementError(f"planarity filters disagree at index {index}", F)
        examined += shard_examined
    # Shards cover ascending ranges and results keep shard order: sorted.
    passing = np.concatenate([tables for _, tables, _ in results])
    if stream is not None:
        spec = make_field(job.n) if job.mode == "uv" else None
        # A path is opened and closed here; a file the caller passes stays open.
        with open(stream, "w") if isinstance(stream, (str, bytes)) else nullcontext(stream) as out:
            for table in passing:
                F = VectorialFunction(job.mode, job.n, table.tolist(), spec)
                out.write(json.dumps(function_to_json(F)) + "\n")
    kept = tuple(map(tuple, passing[:REPORT_FUNCTION_CAP].tolist()))
    cross_check = True if job.filter == "both" else None
    return SearchReport(examined, len(passing), kept, cross_check)


def report_to_json(report: SearchReport) -> dict:
    return {
        "examined": report.examined,
        "passing": report.passing,
        "cross_check": report.cross_check,
        "functions": [[f"0x{v:x}" for v in table] for table in report.passing_functions],
    }
