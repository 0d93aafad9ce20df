"""Vectorial functions and the modified-planarity verdicts.

A function F on 2^n points is stored as a tuple of outputs in encoding
order, tagged mv (outputs are coordinate vectors) or uv (outputs are
field elements).  Modified planarity can be decided two independent
ways: directly from the permutation definition (every shifted
derivative F(x+a) + F(x) + a*x must be a bijection), or through the
components, whose twisted spectra must all be flat.  The two verdicts
coincide; the library keeps both routes so they can cross-check each
other.  Both decide a block of tables in one call (perm_witnesses and
transforms.components_flat), which is how the search filters use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .errors import json_loader
from .gf2n import MAX_DEGREE, FieldSpec, field_from_json, field_tables, field_to_json


@dataclass(frozen=True)
class VectorialFunction:
    """Table of 2^n outputs in [0, 2^n), in either setting."""

    mode: str
    n: int
    table: tuple[int, ...]
    spec: FieldSpec | None = None

    def __post_init__(self):
        if self.mode not in ("mv", "uv"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.n <= MAX_DEGREE:
            raise ValueError(f"n must be in [1, {MAX_DEGREE}], got {self.n}")
        object.__setattr__(self, "table", tuple(self.table))
        size = 1 << self.n
        if len(self.table) != size:
            raise ValueError(f"table must have {size} entries")
        if min(self.table) < 0 or max(self.table) >= size:
            raise ValueError("table entries out of range")
        if self.mode == "uv":
            if self.spec is None or self.spec.n != self.n:
                raise ValueError("univariate functions need a matching field spec")
        elif self.spec is not None:
            raise ValueError("multivariate functions carry no field spec")

    @property
    def size(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class DOPolynomial:
    """Polynomial with quadratic part restricted to exponents 2^i + 2^j.

    quad maps (i, j) with i < j to the coefficient of x^(2^i + 2^j);
    linearized maps i to the coefficient of x^(2^i).  Exponents 2^(i+1)
    (the i = j case) belong to the linearized part, which keeps the
    quadratic/affine split canonical.
    """

    spec: FieldSpec
    quad: dict[tuple[int, int], int] = field(default_factory=dict)
    linearized: dict[int, int] = field(default_factory=dict)
    constant: int = 0

    def __post_init__(self):
        n = self.spec.n
        for (i, j) in self.quad:
            if not 0 <= i < j <= n - 1:
                raise ValueError(f"quadratic exponent pair {(i, j)} out of range")
        for i in self.linearized:
            if not 0 <= i <= n - 1:
                raise ValueError(f"linearized exponent index {i} out of range")
        if not 0 <= self.constant < self.spec.order:
            raise ValueError("constant term out of range")


def do_monomials(spec: FieldSpec, exponents) -> np.ndarray:
    """(len(exponents), 2^n) rows x -> x^e over every field element x.

    x^e is the product of the cached Frobenius powers x^(2^k) over the
    bits k of e, so e = 2^i + 2^j costs two products and e = 0 is the
    constant 1 (at x = 0 too).
    """
    t = field_tables(spec)
    pows = t.frobenius_powers
    rows = np.ones((len(exponents), spec.order), dtype=np.int64)
    for row, e in zip(rows, exponents):
        for k in range(spec.n):
            if e >> k & 1:
                row[:] = t.mul(row, pows[k])
    return rows


def do_tables(spec: FieldSpec, monomials: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Tables of DO polynomials, one (2^n,) row per row of coeffs.

    Row r is the xor over slots s of coeffs[r, s] * monomials[s], with
    monomials from do_monomials: one field product over the whole
    (rows, slots, 2^n) block.
    """
    products = field_tables(spec).mul(coeffs[:, :, None], monomials[None])
    return np.bitwise_xor.reduce(products, axis=1)


def do_to_table(p: DOPolynomial) -> VectorialFunction:
    """Evaluate a DO polynomial on every point of the field."""
    spec = p.spec
    terms = [((1 << i) | (1 << j), a) for (i, j), a in p.quad.items()]
    terms += [(1 << i, b) for i, b in p.linearized.items()]
    terms.append((0, p.constant))
    exponents, coeffs = zip(*terms)
    row = do_tables(spec, do_monomials(spec, exponents), np.array([coeffs]))[0]
    return VectorialFunction("uv", spec.n, row.tolist(), spec)


@dataclass(frozen=True)
class PlanarVerdict:
    """Outcome of the permutation route, with a first failure witness."""

    is_planar: bool
    witness_a: int | None = None
    collision: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.is_planar


def _first_collision(values: list[int]) -> tuple[int, int]:
    """Lexicographically smallest (x1, x2), x1 < x2, with equal values."""
    first_seen: dict[int, int] = {}
    best: tuple[int, int] | None = None
    for x, v in enumerate(values):
        if v in first_seen:
            pair = (first_seen[v], x)
            if best is None or pair < best:
                best = pair
        else:
            first_seen[v] = x
    assert best is not None
    return best


def perm_witnesses(n: int, tables, spec: FieldSpec | None = None) -> np.ndarray:
    """(m,) int64: the smallest bad direction of each row of an (m, 2^n) table block, 0 if none.

    Direction a is bad for a row F when x -> F(x+a) + F(x) + a*x is not a
    bijection (a*x is the field product when spec is given, the
    coordinatewise product otherwise).  Blocks hold at most _BLOCK_ENTRIES
    derivative values (rows x directions x 2^n): the cross term is built
    once per block of directions, one boolean scatter at row offsets marks
    the values each (row, direction) hits, and a row leaves at its first
    bad block.  The first block of directions is one wide and each next one
    twice as wide, so a row that fails at a small direction costs little.
    """
    q = 1 << n
    tables = np.asarray(tables)
    witnesses = np.zeros(len(tables), dtype=np.int64)
    x = np.arange(q)
    directions = x[:, None]
    mul = field_tables(spec).mul if spec is not None else None
    pairs = max(1, transforms._BLOCK_ENTRIES // q)  # (row, direction) pairs per block
    step = max(1, pairs // (q - 1))
    for start in range(0, len(tables), step):
        live = np.arange(start, min(start + step, len(tables)))
        lo, width = 1, 1
        while lo < q and len(live):
            a = directions[lo : lo + width]
            cross = mul(a, x) if mul is not None else a & x
            t = tables[live]
            values = t[:, a ^ x] ^ t[:, None, :] ^ cross
            seen = np.zeros(values.size, dtype=bool)
            seen[values.reshape(-1, q) + np.arange(0, values.size, q)[:, None]] = True
            good = seen.reshape(values.shape).all(axis=-1)
            keep = good.all(axis=1)
            if not keep.all():
                witnesses[live[~keep]] = lo + good[~keep].argmin(axis=1)
                live = live[keep]
            lo += width
            width = min(2 * width, max(1, pairs // max(1, len(live))))
    return witnesses


def is_modified_planar_perm(F: VectorialFunction) -> PlanarVerdict:
    """Permutation-definition verdict: F(x+a) + F(x) + a*x bijective for all a != 0.

    The cross term a*x is the coordinatewise product for mv and the
    field product for uv.  perm_witnesses finds the smallest bad direction
    a; the lexicographically smallest colliding pair is read off that
    direction alone.
    """
    a = int(perm_witnesses(F.n, np.array([F.table]), F.spec)[0])
    if not a:
        return PlanarVerdict(True)
    table = F.table
    x = np.arange(F.size)
    cross = field_tables(F.spec).mul(a, x) if F.spec is not None else a & x
    values = [table[i ^ a] ^ table[i] ^ c for i, c in enumerate(cross.tolist())]
    return PlanarVerdict(False, a, _first_collision(values))


def is_modified_planar_components(F: VectorialFunction) -> bool:
    """Component-spectrum verdict: every component flat at its own twist.

    transforms.components_flat screens and butterflies the components of
    F's table in batched blocks of twists.
    """
    return transforms.components_flat(F.n, F.table, F.spec)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def function_to_json(F: VectorialFunction) -> dict:
    obj = {
        "mode": F.mode,
        "n": F.n,
        "field": field_to_json(F.spec) if F.spec is not None else None,
        "table": [f"0x{v:x}" for v in F.table],
    }
    return obj


@json_loader
def function_from_json(obj: dict) -> VectorialFunction:
    spec = field_from_json(obj["field"]) if obj.get("field") else None
    table = tuple(int(v, 16) for v in obj["table"])
    return VectorialFunction(obj["mode"], int(obj["n"]), table, spec)
