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

from .errors import FilterDisagreementError, SearchBoundsError
from .gf2n import MAX_DEGREE, make_field
from .planar import (
    VectorialFunction,
    do_monomials,
    do_tables,
    function_to_json,
    perm_witnesses,
)
from .rds import MAX_PAIR_WORK
from .transforms import _BLOCK_ENTRIES, components_flat

CLASSES = ("all", "affine", "do_quadratic")
FILTERS = ("perm", "components", "both")

# Largest n per class for exhaustive jobs; sampled jobs only need the
# candidate space to be indexable.  do_quadratic at n = 4 is 2^24
# candidates; n = 5 would be 2^50.
_EXHAUSTIVE_BOUNDS = {"all": 2, "affine": 4, "do_quadratic": 4}

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
        if self.mode not in ("mv", "uv"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.n <= MAX_DEGREE:
            raise ValueError(f"n must be in [1, {MAX_DEGREE}], got {self.n}")
        if self.klass not in CLASSES:
            raise ValueError(f"unknown class {self.klass!r}")
        if self.filter not in FILTERS:
            raise ValueError(f"unknown filter {self.filter!r}")
        if self.mode == "mv" and self.klass != "all":
            raise ValueError("polynomial classes are univariate; use mode uv")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.sample is not None and self.sample < 0:
            raise ValueError("sample must be >= 0")


@dataclass(frozen=True)
class SearchReport:
    examined: int
    passing: int
    passing_functions: tuple[tuple[int, ...], ...]
    cross_check: bool | None


def _slot_count(n: int, klass: str) -> int:
    if klass == "all":
        return 1 << n
    if klass == "affine":
        return n + 1
    if klass == "do_quadratic":
        return n * (n - 1) // 2
    raise ValueError(f"unknown class {klass!r}")


def class_size(mode: str, n: int, klass: str) -> int:
    if mode == "mv" and klass != "all":
        raise ValueError("polynomial classes are univariate; use mode uv")
    return 1 << (n * _slot_count(n, klass))


def slot_monomials(n: int, klass: str) -> np.ndarray | None:
    """The (slots, 2^n) rows x -> x^e of a DO class's slot exponents.

    affine slots are x^(2^i), i < n, then the constant; do_quadratic
    slots are x^(2^i + 2^j), i < j, in lexicographic order.  None for
    the all class, whose digits are the table itself.
    """
    if klass == "all":
        return None
    if klass == "affine":
        exponents = [1 << i for i in range(n)] + [0]
    elif klass == "do_quadratic":
        exponents = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    else:
        raise ValueError(f"unknown class {klass!r}")
    return do_monomials(make_field(n), exponents)


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


def candidate_function(mode: str, n: int, klass: str, index: int) -> VectorialFunction:
    """Decode the index-th candidate of a class, in canonical order."""
    table = decode_block(n, slot_monomials(n, klass), [index])[0].tolist()
    return VectorialFunction(mode, n, table, make_field(n) if mode == "uv" else None)


def _check_bounds(mode: str, n: int, klass: str) -> None:
    bound = _EXHAUSTIVE_BOUNDS[klass]
    if n > bound:
        raise SearchBoundsError(
            f"exhaustive {klass} jobs are limited to n <= {bound}, got n={n}"
        )


def _sample_index(seed: int, counter: int, size: int) -> int:
    """A draw from [0, size) keyed by (seed, counter).

    One SHA-256 digest covers every size up to 2^256; a larger class
    takes further digests as its high-order bytes, so a draw reaches
    every slot and smaller classes draw what they always drew.
    """
    digest = hashlib.sha256(f"{seed}:{counter}".encode()).digest()
    block = 1
    while 256 * block < (size - 1).bit_length():
        digest = hashlib.sha256(f"{seed}:{counter}:{block}".encode()).digest() + digest
        block += 1
    return int.from_bytes(digest, "big") % size


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
    block = max(1, _BLOCK_ENTRIES // (q * (q - 1)))
    dtype = np.min_scalar_type(q - 1)
    examined = 0
    passing = [np.empty((0, q), dtype=dtype)]
    for start in range(lo, hi, block):
        counters = range(start, min(hi, start + block))
        indices = [c if job.sample is None else _sample_index(job.seed, c, size) for c in counters]
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
        _check_bounds(job.mode, job.n, job.klass)
        total = class_size(job.mode, job.n, job.klass)
    elif 4 ** job.n > MAX_PAIR_WORK:
        # Each candidate costs about 4^n steps (q directions or twists of q points).
        raise SearchBoundsError(f"sampled jobs are limited to 4^n <= {MAX_PAIR_WORK}, got n={job.n}")
    else:
        total = job.sample
    # The report does not depend on the shard count, so shards stop at the
    # candidate count (past it they are empty) and at four per core (a
    # sampled job's count is --sample, which need not fit in memory).
    shards = max(1, min(job.shards, total, 4 * (os.cpu_count() or 1)))
    payloads = [(job, s * total // shards, (s + 1) * total // shards) for s in range(shards)]
    if shards == 1:
        results = [_run_shard(payloads[0])]
    else:
        # Imported only here: the process pool machinery adds about 1 MiB of
        # resident memory that in-process jobs and the other verbs never use.
        from concurrent.futures import ProcessPoolExecutor

        # Shards fix the report; workers beyond the cores would only contend.
        with ProcessPoolExecutor(max_workers=min(shards, os.cpu_count() or 1)) as pool:
            results = list(pool.map(_run_shard, payloads))
    examined = 0
    for shard_examined, _, disagreement in results:
        if disagreement is not None:
            index, F = disagreement
            raise FilterDisagreementError(f"planarity filters disagree at index {index}", F)
        examined += shard_examined
    # Shards cover ascending ranges and map keeps their order: sorted.
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
