"""Vectorial functions and the modified-planarity verdicts.

A function F on 2^n points is stored as a tuple of outputs in encoding
order, tagged mv (outputs are coordinate vectors) or uv (outputs are
field elements).  Modified planarity can be decided two independent
ways: directly from the permutation definition (every shifted
derivative F(x+a) + F(x) + a*x must be a bijection), or through the
components, whose twisted spectra must all be flat.  The two verdicts
coincide; the library keeps both routes so they can cross-check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import json_loader
from .gf2n import MAX_DEGREE, FieldSpec, field_from_json, field_tables, field_to_json
from .transforms import components_flat


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
        if any(not 0 <= v < size for v in self.table):
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


def do_to_table(p: DOPolynomial) -> VectorialFunction:
    """Evaluate a DO polynomial on every point of the field.

    The Frobenius powers x^(2^i) of every x are built once per field and
    cached; each term then adds one array of products.
    """
    spec = p.spec
    t = field_tables(spec)
    pows = t.frobenius_powers
    acc = np.full(spec.order, p.constant, dtype=np.int64)
    for (i, j), a in p.quad.items():
        acc ^= t.mul(a, t.mul(pows[i], pows[j]))
    for i, b in p.linearized.items():
        acc ^= t.mul(b, pows[i])
    return VectorialFunction("uv", spec.n, tuple(acc.tolist()), spec)


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


def is_modified_planar_perm(F: VectorialFunction) -> PlanarVerdict:
    """Permutation-definition verdict: F(x+a) + F(x) + a*x bijective for all a != 0.

    The cross term a*x is the coordinatewise product for mv and the
    field product for uv.  On failure the witness is the smallest bad
    direction a, with the lexicographically smallest colliding pair.
    """
    size = F.size
    table = F.table
    uv = F.mode == "uv"
    if uv:
        mul = field_tables(F.spec).mul
        arange = np.arange(size, dtype=np.int64)
    for a in range(1, size):
        if uv:
            cross = mul(a, arange)
            values = [table[x ^ a] ^ table[x] ^ int(cross[x]) for x in range(size)]
        else:
            values = [table[x ^ a] ^ table[x] ^ (a & x) for x in range(size)]
        if len(set(values)) < size:
            return PlanarVerdict(False, a, _first_collision(values))
    return PlanarVerdict(True)


def is_modified_planar_components(F: VectorialFunction) -> bool:
    """Component-spectrum verdict: every component flat at its own twist.

    transforms.components_flat screens and butterflies the components of
    F's table in batched blocks of twists.
    """
    return components_flat(F.n, F.table, F.spec)


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
