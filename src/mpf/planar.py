"""Vectorial functions and the modified-planarity verdicts.

A function F on 2^n points is stored as a tuple of outputs in encoding
order, tagged mv (outputs are coordinate vectors) or uv (outputs are
field elements).  Modified planarity can be decided two independent
ways: directly from the permutation definition (every shifted
derivative F(x+a) + F(x) + a*x must be a bijection), or through the
components, whose twisted spectra must all be flat.  The two verdicts
coincide; the library keeps both routes so they can cross-check each
other.  Both kernels, perm_witnesses and transforms.components_flat,
take an (m, 2^n) block with one row per function and return an (m,)
array; the search filters give both the same block.  The one-function
verdicts are each one call on a block of one row, so mpf analyze
cross-checks the kernels that search trusts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .errors import InputError, decode
from .gf2n import FieldSpec, check_field, check_setting, field_from_json, field_tables, field_to_json


@dataclass(frozen=True)
class VectorialFunction:
    """Table of 2^n outputs in [0, 2^n), in either setting."""

    mode: str
    n: int
    table: tuple[int, ...]
    spec: FieldSpec | None = None

    def __post_init__(self):
        check_setting(self.mode, self.n)
        check_field(self.mode, self.n, self.spec)
        object.__setattr__(self, "table", tuple(self.table))
        size = 1 << self.n
        if len(self.table) != size:
            raise InputError(f"table must have {size} entries")
        if min(self.table) < 0 or max(self.table) >= size:
            raise InputError("table entries out of range")

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
                raise InputError(f"quadratic exponent pair {(i, j)} out of range")
        for i in self.linearized:
            if not 0 <= i <= n - 1:
                raise InputError(f"linearized exponent index {i} out of range")
        if not 0 <= self.constant < self.spec.order:
            raise InputError("constant term out of range")


def do_monomials(spec: FieldSpec, exponents) -> np.ndarray:
    """(len(exponents), 2^n) int64 rows x -> x^e over every field element x.

    A unit x has x^e = exp[e * log x mod (q - 1)], one gather for every
    row, with e * log x taken in int64; the x = 0 column is 1 for e = 0
    (0^0 = 1) and 0 otherwise.
    """
    t = field_tables(spec)
    e = np.array(exponents, dtype=np.int64).reshape(-1, 1)
    rows = np.empty((len(e), spec.order), dtype=np.int64)
    rows[:, :1] = e == 0
    rows[:, 1:] = t.exp.take(e * t.log[1:] % (spec.order - 1))
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


def _cross(spec: FieldSpec | None, a, x):
    """The cross term a*x: the field product when spec is given, a & x otherwise."""
    return field_tables(spec).mul(a, x) if spec is not None else a & x


def _derivatives(spec: FieldSpec | None, tables: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F(x+a) + F(x) + a*x, (rows, directions, 2^n), for the rows of tables and a column of directions a."""
    return tables[:, a ^ x] ^ tables[:, None, :] ^ _cross(spec, a, x)


def perm_witnesses(n: int, tables, spec: FieldSpec | None = None) -> np.ndarray:
    """(m,) int64: the smallest bad direction of each row of an (m, 2^n) table block, 0 if none.

    Direction a is bad for a row F when x -> F(x+a) + F(x) + a*x is not a
    bijection (a*x is _cross: the field product when spec is given, the
    coordinatewise product otherwise).  The cross term is built once per
    block of directions, one boolean scatter at row offsets marks the
    values each (row, direction) hits, and a row leaves at its first bad
    block.  The first block of directions is one wide and each next one
    twice as wide, up to transforms._block(q, live rows), so a row that
    fails at a small direction costs little, and a step holds at most
    max(m, _block(q)) (row, direction) pairs of 2^n values.
    """
    q = 1 << n
    tables = np.asarray(tables)
    witnesses = np.zeros(len(tables), dtype=np.int64)
    x = np.arange(q)
    directions = x[:, None]
    live = np.arange(len(tables))
    lo, width = 1, 1
    while lo < q and len(live):
        values = _derivatives(spec, tables[live], directions[lo : lo + width], x)
        seen = np.zeros(values.size, dtype=bool)
        seen[values.reshape(-1, q) + np.arange(0, values.size, q)[:, None]] = True
        good = seen.reshape(values.shape).all(axis=-1)
        keep = good.all(axis=1)
        if not keep.all():
            witnesses[live[~keep]] = lo + good[~keep].argmin(axis=1)
            live = live[keep]
        lo += width
        width = min(2 * width, transforms._block(q, max(1, len(live))))
    return witnesses


def is_modified_planar_perm(F: VectorialFunction) -> PlanarVerdict:
    """Permutation-definition verdict: F(x+a) + F(x) + a*x bijective for all a != 0.

    The cross term a*x is the coordinatewise product for mv and the
    field product for uv.  One perm_witnesses call on a block of one
    table finds the smallest bad direction a, and the lexicographically
    smallest colliding pair (x1, x2) is read off direction a alone: in a
    stable sort of its values, each x is followed by the next x with the
    same value, so x1 is the least x so followed.
    """
    a = int(perm_witnesses(F.n, [F.table], F.spec)[0])
    if not a:
        return PlanarVerdict(True)
    values = _derivatives(F.spec, np.array([F.table]), np.array([[a]]), np.arange(F.size))[0, 0]
    order = np.argsort(values, kind="stable")
    follows = np.flatnonzero(values[order[1:]] == values[order[:-1]])
    i = follows[order[follows].argmin()]
    return PlanarVerdict(False, a, (int(order[i]), int(order[i + 1])))


def is_modified_planar_components(F: VectorialFunction) -> bool:
    """Component-spectrum verdict: every component flat at its own twist.

    transforms.components_flat screens and butterflies the components of
    F's table, a block of one row, in batched blocks of twists.
    """
    return bool(transforms.components_flat(F.n, [F.table], F.spec)[0])


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


def function_from_json(obj: dict) -> VectorialFunction:
    mode, n, field, table = decode("function", obj)
    return VectorialFunction(mode, n, table, field_from_json(field))
