"""Bit-packed Boolean functions on 2^n points.

A truth table is a single Python int of 2^n bits: bit t is the value at
the point encoded by t.  Multivariate tables index points by coordinate
bits (x_1 in bit 0); univariate tables index by the field-element
encoding of gf2n.  Pointwise xor of tables is plain integer xor, which
CPython evaluates word-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroShiftError
from .gf2n import MAX_DEGREE, FieldSpec, dual_mask, fe_mul

MODES = ("mv", "uv")


@dataclass(frozen=True)
class TruthTable:
    """Boolean function on 2^n points, bit-packed into one int."""

    n: int
    bits: int
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1 <= self.n <= MAX_DEGREE:
            raise ValueError(f"n must be in [1, {MAX_DEGREE}], got {self.n}")
        if self.bits < 0 or self.bits.bit_length() > 1 << self.n:
            raise ValueError("bits does not fit in 2^n positions")

    @property
    def size(self) -> int:
        return 1 << self.n

    def bit(self, t: int) -> int:
        return (self.bits >> t) & 1

    def values(self) -> list[int]:
        return [(self.bits >> t) & 1 for t in range(self.size)]

    def bit_array(self) -> np.ndarray:
        """Table as a 0/1 uint8 vector (index order, LSB first)."""
        nbytes = (self.size + 7) // 8
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.size]


def from_values(values, mode: str) -> TruthTable:
    """Build a table from an iterable of 0/1 values in index order."""
    vals = list(values)
    n = (len(vals) - 1).bit_length()
    if len(vals) != 1 << n:
        raise ValueError("number of values must be a power of two")
    bits = 0
    for t, v in enumerate(vals):
        if v & 1:
            bits |= 1 << t
    return TruthTable(n, bits, mode)


def pack_bits(array) -> int:
    """Pack a 0/1 vector (index order) into a truth-table int."""
    arr = np.asarray(array, dtype=np.uint8) & 1
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def weight(g: TruthTable) -> int:
    """Hamming weight: number of points where g is 1."""
    return g.bits.bit_count()


def is_balanced(g: TruthTable) -> bool:
    """True iff g takes the value 1 on exactly half of the points."""
    return g.bits.bit_count() == 1 << (g.n - 1)


_BLOCK_MASKS: dict[tuple[int, int], int] = {}


def _block_mask(n: int, j: int) -> int:
    """2^n-bit mask selecting the positions whose index bit j is 0."""
    mask = _BLOCK_MASKS.get((n, j))
    if mask is None:
        s = 1 << j
        mask = ((1 << (1 << n)) - 1) // ((1 << (2 * s)) - 1) * ((1 << s) - 1)
        _BLOCK_MASKS[(n, j)] = mask
    return mask


def xor_translate(bits: int, n: int, z: int) -> int:
    """Table of x -> g(x ^ z), as a block permutation of the packed bits."""
    for j in range(n):
        if (z >> j) & 1:
            s = 1 << j
            lo = _block_mask(n, j)
            bits = ((bits >> s) & lo) | ((bits & lo) << s)
    return bits


def linear_form_table(n: int, m: int) -> int:
    """Packed table of x -> parity(m & x)."""
    bits = 0
    for j in range(n):
        w = 1 << j
        if (m >> j) & 1:
            bits |= (bits ^ ((1 << w) - 1)) << w
        else:
            bits |= bits << w
    return bits


def shifted_derivative_mv(g: TruthTable, z: int, c: int) -> TruthTable:
    """Table of x -> g(x) + g(x+z) + c.(z o x), with o the bitwise product.

    The balance of this table over all nonzero z is the derivative-side
    bent4 criterion; z = 0 is rejected because the criterion only
    quantifies over nonzero shifts.
    """
    if g.mode != "mv":
        raise ValueError("shifted_derivative_mv needs a multivariate table")
    if not 0 <= z < g.size or not 0 <= c < g.size:
        raise ValueError("z and c must be points of the same dimension as g")
    if z == 0:
        raise ZeroShiftError("shift z must be nonzero")
    bits = g.bits ^ xor_translate(g.bits, g.n, z) ^ linear_form_table(g.n, c & z)
    return TruthTable(g.n, bits, "mv")


def shifted_derivative_uv(spec: FieldSpec, g: TruthTable, z: int, c: int) -> TruthTable:
    """Table of x -> g(x) + g(x+z) + Tr(c^2 x z), products in the field."""
    if g.mode != "uv":
        raise ValueError("shifted_derivative_uv needs a univariate table")
    if spec.n != g.n:
        raise ValueError("field degree does not match the table")
    if not 0 <= z < g.size or not 0 <= c < g.size:
        raise ValueError("z and c must be field elements")
    if z == 0:
        raise ZeroShiftError("shift z must be nonzero")
    u0 = fe_mul(spec, fe_mul(spec, c, c), z)
    bits = g.bits ^ xor_translate(g.bits, g.n, z) ^ linear_form_table(g.n, dual_mask(spec, u0))
    return TruthTable(g.n, bits, "uv")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def table_to_json(g: TruthTable) -> dict:
    return {"mode": g.mode, "n": g.n, "bits": f"0x{g.bits:x}"}


def table_from_json(obj: dict) -> TruthTable:
    return TruthTable(int(obj["n"]), int(obj["bits"], 16), obj["mode"])
