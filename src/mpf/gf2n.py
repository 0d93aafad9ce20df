"""Exact arithmetic in GF(2^n) with a polynomial-basis encoding.

Field elements are plain Python ints in [0, 2^n): bit k of the int is the
coefficient of alpha^k, where alpha is the residue class of X modulo the
irreducible modulus.  Addition is xor; 0 and 1 are the additive and
multiplicative identities.  No wrapper object is allocated per element,
so exhaustive loops over the field stay cheap.

A FieldSpec pins the degree and the modulus.  All derived lookup tables
(discrete-log pair, the sigma form, the trace-dual index map) are built
together, once per spec, by field_tables; scalar operations never need
them.  check_setting bounds n by MAX_DEGREE for every object, so the
tables and the scalar operations stop there too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InputError, decode

MODES = ("mv", "uv")  # the cross term x*y: coordinatewise product (mv), field product (uv)
MAX_DEGREE = 20

# Bound on one job's work, counted in steps, not bytes: the brute-force
# RDS route's ordered pairs and group scan, and a sampled search's 4^n
# steps per candidate and 2^n table entries per draw (which also bounds
# the passing tables it holds).  It admits every n <= 13.
MAX_WORK = 1 << 26


@dataclass(frozen=True)
class FieldSpec:
    """An instance of GF(2^n): degree plus irreducible modulus bits."""

    n: int
    modulus: int

    def __post_init__(self):
        check_setting("uv", self.n)
        if self.modulus < 0 or _poly_degree(self.modulus) != self.n:
            raise InputError(f"modulus {hex(self.modulus):.40} is not a polynomial of degree {self.n}")
        if not poly_is_irreducible(self.modulus):
            raise InputError(f"modulus {hex(self.modulus)} is reducible over GF(2)")

    @property
    def order(self) -> int:
        return 1 << self.n

    def elements(self) -> range:
        return range(1 << self.n)


def check_setting(mode: str, n: int) -> None:
    """Reject a mode outside MODES, or an n outside [1, MAX_DEGREE] before anything of size 2^n is built."""
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r:.40}")
    if not 1 <= n <= MAX_DEGREE:
        raise InputError(f"n must be in [1, {MAX_DEGREE}], got {n!s:.40}")


def check_field(mode: str, n: int, spec: FieldSpec | None) -> None:
    """A uv object carries a field of degree n; an mv object carries none."""
    if getattr(spec, "n", None) != (n if mode == "uv" else None):
        raise InputError(f"uv needs a field of degree n and mv none, got {mode} at n={n} with {spec}")


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_degree(m)
    while a and _poly_degree(a) >= dm:
        a ^= m << (_poly_degree(a) - dm)
    return a


def poly_is_irreducible(p: int) -> bool:
    """Trial division by every polynomial of degree 1..deg(p)//2."""
    deg = _poly_degree(p)
    if deg < 1:
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if _poly_mod(p, d) == 0:
            return False
    return True


@cache
def default_modulus(n: int) -> int:
    """Smallest irreducible polynomial of degree n, by integer encoding."""
    # Irreducibles exist in every degree, so the search always ends.
    return next(cand for cand in range(1 << n, 1 << (n + 1)) if poly_is_irreducible(cand))


@cache
def _default_field(n: int) -> FieldSpec:
    return FieldSpec(n, default_modulus(n))


def make_field(n: int, modulus: int | None = None) -> FieldSpec:
    """Fix GF(2^n); with no modulus given, the smallest irreducible is used.

    Raises InputError if the supplied modulus does not have degree
    exactly n or is reducible (the FieldSpec constructor checks).
    The default spec is built, and so checked, once per n.
    """
    check_setting("uv", n)
    return _default_field(n) if modulus is None else FieldSpec(n, modulus)


def fe_mul(spec: FieldSpec, a: int, b: int) -> int:
    """Product of two field elements (shift-and-reduce, exact)."""
    acc = 0
    top = 1 << spec.n
    mod = spec.modulus
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return acc


def trace_n(spec: FieldSpec, a: int) -> int:
    """Absolute trace: the sum of all Frobenius conjugates, a bit in {0,1}."""
    acc = a
    t = a
    for _ in range(spec.n - 1):
        t = fe_mul(spec, t, t)
        acc ^= t
    return acc


def sigma(spec: FieldSpec, c: int, x: int) -> int:
    """Second symmetric form of the Frobenius orbit of c*x, as a bit.

    sigma(c, x) = sum over i < j of (cx)^(2^i) * (cx)^(2^j).  The sum is
    its own square, so it always lands in {0, 1}; it depends on c and x
    only through the product cx.  Computed literally as the double sum.
    """
    y = fe_mul(spec, c, x)
    if y == 0:
        return 0
    pows = [y]
    for _ in range(spec.n - 1):
        pows.append(fe_mul(spec, pows[-1], pows[-1]))
    acc = 0
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            acc ^= fe_mul(spec, pows[i], pows[j])
    return acc


def dual_mask(spec: FieldSpec, u: int) -> int:
    """Bit mask m with Tr(u*x) = parity(m & x) for every x.

    Bit k of the mask is Tr(u * alpha^k); the map u -> m is linear and
    bijective (the trace pairing is nondegenerate).
    """
    m = 0
    for k in range(spec.n):
        if trace_n(spec, fe_mul(spec, u, 1 << k)):
            m |= 1 << k
    return m


# ---------------------------------------------------------------------------
# Cached per-field lookup tables (vectorized paths)
# ---------------------------------------------------------------------------

class _FieldTables:
    """The numpy tables of one FieldSpec, all built by the constructor."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        q = spec.order
        # Discrete-log pair over a generator of the multiplicative group,
        # made zero-aware: log[0] is a sentinel past every sum of two nonzero
        # logs, and exp repeats its cycle once and is zero from the sentinel
        # on, so a product is exp[log[a] + log[b]] with no mask or modulo.
        # Every index and value fits int32 (q <= 2^MAX_DEGREE).
        cycle = q - 1
        zero = 2 * cycle
        # The generator is the smallest element whose powers walk all q - 1
        # units, and that walk is the cycle (n = 1: the one unit 1).
        powers = [1]
        for gen in range(2, q):
            powers, v = [1], gen
            while v != 1:
                powers.append(v)
                v = fe_mul(spec, v, gen)
            if len(powers) == cycle:
                break
        exp = np.zeros(2 * zero + 1, dtype=np.int32)
        exp[:cycle] = exp[cycle:zero] = powers
        log = np.full(q, zero, dtype=np.int32)
        log[exp[:cycle]] = np.arange(cycle)
        self.exp = exp
        self.log = log
        # dual[u] = the mask m with Tr(u*x) = parity(m & x), and s2 = sigma(1, .),
        # doubled together over a = alpha^k: dual is linear, and sigma(y + a) =
        # sigma(y) + sigma(a) + Tr(y)Tr(a) + Tr(ya), the traces being bit 0 of
        # dual[y] and of dual[a], and bit k of dual[y].
        dual = np.zeros(q, dtype=np.int64)
        s2 = np.zeros(q, dtype=np.int64)
        for k in range(spec.n):
            step = 1 << k
            low, mask = dual[:step], dual_mask(spec, step)
            s2[step:2 * step] = s2[:step] ^ sigma(spec, 1, step) ^ (low & mask & 1) ^ ((low >> k) & 1)
            dual[step:2 * step] = low ^ mask
        self.dual = dual
        # sigma(1, .) o exp, so sigma(c, x) = sigma_exp[log c + log x]; like
        # exp it reads 0 from the zero sentinel of log on.
        self.sigma_exp = s2.take(exp).astype(np.uint8)

    def mul(self, a, b) -> np.ndarray:
        """Elementwise field product of integer arrays (broadcasting).

        One add of logs and one gather; ndarray.take gathers from a 1-D
        table faster than fancy indexing or np.take, at every size.
        """
        return self.exp.take(self.log.take(a) + self.log.take(b))


@cache
def field_tables(spec: FieldSpec) -> _FieldTables:
    return _FieldTables(spec)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def field_to_json(spec: FieldSpec) -> dict:
    return {"n": spec.n, "modulus": f"0x{spec.modulus:x}"}


def field_from_json(obj: dict | None) -> FieldSpec | None:
    """The field of a field object; None, an absent optional field, reads as None."""
    return None if obj is None else make_field(*decode("field", obj))
