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

from .errors import InputError
from .gf2n import check_setting


@dataclass(frozen=True)
class TruthTable:
    """Boolean function on 2^n points, bit-packed into one int."""

    n: int
    bits: int
    mode: str

    def __post_init__(self):
        check_setting(self.mode, self.n)
        if self.bits < 0 or self.bits.bit_length() > 1 << self.n:
            raise InputError("bits does not fit in 2^n positions")

    @property
    def size(self) -> int:
        return 1 << self.n

    def bit_array(self) -> np.ndarray:
        """Table as a 0/1 uint8 vector (index order, LSB first)."""
        nbytes = (self.size + 7) // 8
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.size]


def from_values(values, mode: str) -> TruthTable:
    """Build a table from an iterable of values in index order, each read by its bit 0."""
    vals = list(values)
    n = (len(vals) - 1).bit_length()
    if len(vals) != 1 << n:
        raise InputError("number of values must be a power of two")
    packed = np.packbits(np.fromiter((v & 1 for v in vals), np.uint8, len(vals)), bitorder="little")
    return TruthTable(n, int.from_bytes(packed, "little"), mode)

