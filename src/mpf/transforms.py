"""Exact twisted spectra and star-group character sums, one identity for all.

Every spectrum here is a vector of 2^n Gaussian integers, held as an
int64 array of shape (2^n, 2) with columns (re, im); never floats.
At twist c the quarter turn of (-1)^g(x) times the twist, i^wt(c&x) (mv)
or (-1)^sigma(c,x) i^Tr(cx) (uv), is k = a + 2b with a = d.x linear
(d = c, or the dual mask of c) and b = g + Q_c, Q_c = bit 1 of wt(c&x)
or sigma(c,x).  As i^k = (1+i)/2 (-1)^b + (1-i)/2 (-1)^(a+b), the one real
butterfly A of (-1)^b gives V(u) = (A(u) + A(u^d) + i (A(u) - A(u^d))) / 2.
The univariate spectrum is reindexed through the trace-dual map so that
position u carries the character x -> (-1)^Tr(ux).

That identity serves all three kernels: transform_U / transform_V read
one spectrum off it, bent4_witnesses screens every twist by its column
sum A(0) and butterflies only the twists that can still be flat, and
character_norms sums the star-group characters of a point set, whose
points (x, y) only add c.y (mv) or Tr(c^2 y) (uv) to b.  Each kernel
knows a bound on its partial sums, so it calls the butterfly core
_butterfly directly; the public fwht scans its input for the bound.
Flatness (every squared modulus equal to 2^n) at some twist c is the
bent4 property; c = 0 is ordinary bentness and the all-ones / unit twist
is negabentness.  It says A(u)^2 + A(u^d)^2 = 2^(n+1) for every u; for
even n that forces |A| = 2^(n/2), so g is bent4 at c iff g + Q_c is bent
(Parker-Pott: f is negabent iff f + s_2 is bent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .boolfun import TruthTable
from .errors import NonPowerOfTwoError
from .gf2n import FieldSpec, field_tables


class GaussianInt(NamedTuple):
    re: int
    im: int

    @property
    def norm_sq(self) -> int:
        return self.re * self.re + self.im * self.im


# fwht's working dtypes, narrowest first, with the largest value each holds.
_WORK_DTYPES = [(int(np.iinfo(t).max), t) for t in (np.int16, np.int32, np.int64)]


@dataclass(frozen=True)
class Spectrum:
    """2^n exact transform values with the twist that produced them."""

    n: int
    mode: str
    twist: int
    values: np.ndarray  # shape (2^n, 2), int64, columns (re, im)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.shape != (1 << self.n, 2):
            raise ValueError(f"values must have shape ({1 << self.n}, 2)")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, u: int) -> GaussianInt:
        re, im = self.values[u]
        return GaussianInt(int(re), int(im))

    def norms_sq(self) -> np.ndarray:
        re = self.values[:, 0]
        im = self.values[:, 1]
        return re * re + im * im


def fwht(values) -> np.ndarray:
    """Walsh-Hadamard butterfly along axis 0, exact, as int64.

    Accepts a length-2^k integer array of any trailing shape; a Gaussian
    vector is the (2^k, 2) case.  output[u] = sum_x values[x] * (-1)^(u.x).
    Unnormalized: applying it twice multiplies by 2^k.  Every partial sum
    is at most max|values| * 2^k in size, so the butterfly runs in the
    narrowest of int16, int32 and int64 that holds that bound; past
    int64 it raises OverflowError rather than wrap.
    """
    a = np.asarray(values)
    if not np.issubdtype(a.dtype, np.integer):
        raise TypeError("fwht needs integer input; spectra are exact")
    size = a.shape[0]
    if size == 0 or size & (size - 1):
        raise NonPowerOfTwoError(f"length {size} is not a power of two")
    bound = max(-int(a.min()), int(a.max())) * size if a.size else 0
    return _butterfly(a, bound).astype(np.int64, copy=False)


def _butterfly(a: np.ndarray, bound: int) -> np.ndarray:
    """fwht's core on a power-of-two length, in the narrowest dtype holding bound.

    bound caps |every partial sum|; the caller vouches for it.  Returns
    the working dtype (int16, int32 or int64), not int64.
    """
    work = next((t for top, t in _WORK_DTYPES if bound <= top), None)
    if work is None:
        raise OverflowError(f"fwht sums up to {bound}, past int64")
    size = a.shape[0]
    out = a.astype(work, copy=True)
    scratch = np.empty((size // 2, *out.shape[1:]), dtype=work)
    h = 1
    while h < size:
        v = out.reshape(size // (2 * h), 2, h, *out.shape[1:])
        lo, hi = v[:, 0], v[:, 1]
        diff = scratch.reshape(lo.shape)
        np.subtract(lo, hi, out=diff)
        np.add(lo, hi, out=lo)
        hi[...] = diff
        h *= 2
    return out


def _quarter(x: np.ndarray, spec: FieldSpec | None, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q_c(x) as 0/1, d) for points x (a column) and twists c (a row).

    Q_c(x) is bit 1 of wt(c&x) with d = c (spec None, mv), or sigma(c,x)
    with d = dual[c] (uv), read by one gather of sigma(1, .) o exp at
    log x + log c; the zero sentinel of log reads 0 there.
    """
    if spec is None:
        return (np.bitwise_count(c & x) >> 1) & 1, c
    t = field_tables(spec)
    return t.sigma_exp.take(t.log.take(x) + t.log.take(c)), t.dual.take(c)


def _twisted_signs(bits: np.ndarray, spec: FieldSpec | None, twists) -> tuple[np.ndarray, ...]:
    """((-1)^b as int8 (2^n, m), d) for the twists c = twists[j]; see above.

    bits is g's 0/1 table (TruthTable.bit_array), spec None for mv.
    """
    x = np.arange(len(bits), dtype=np.int32)[:, None]
    b, d = _quarter(x, spec, np.asarray(twists, dtype=np.int32))
    b ^= bits[:, None]
    return 1 - 2 * b.view(np.int8), d


def _spectrum(g: TruthTable, spec: FieldSpec | None, c: int) -> Spectrum:
    """The spectrum at c, (A(u) + A(u^d) + i (A(u) - A(u^d))) / 2, reindexed for uv."""
    if not 0 <= c < g.size:
        raise ValueError("twist c out of range")
    signs, d = _twisted_signs(g.bit_array(), spec, [c])
    a = _butterfly(signs, g.size)[:, 0].astype(np.int64)
    b = a[np.arange(g.size) ^ d[0]]
    w = np.stack([a + b, a - b], axis=1) >> 1
    return Spectrum(g.n, g.mode, c, w if spec is None else w[field_tables(spec).dual])


def transform_U(g: TruthTable, c: int) -> Spectrum:
    """Twisted spectrum of a multivariate g at twist c.

    U(u) = sum_x (-1)^(g(x)+u.x) * i^wt(c&x).  c = 0 is the ordinary
    Walsh-Hadamard spectrum, c = all-ones the nega-Hadamard spectrum.
    Read off one real butterfly, with d = c (module docstring).
    """
    if g.mode != "mv":
        raise ValueError("transform_U needs a multivariate table")
    return _spectrum(g, None, c)


def transform_V(spec: FieldSpec, g: TruthTable, c: int) -> Spectrum:
    """Twisted spectrum of a univariate g at twist c.

    V(u) = sum_x (-1)^(g(x)+sigma(c,x)) * i^Tr(cx) * (-1)^Tr(ux).
    c = 0 is the univariate Walsh-Hadamard spectrum (characters Tr(ux)),
    c = 1 the univariate nega-Hadamard spectrum.  Read off one real
    butterfly, with d = dual[c] (module docstring).
    """
    if g.mode != "uv":
        raise ValueError("transform_V needs a univariate table")
    if spec.n != g.n:
        raise ValueError("field degree does not match the table")
    return _spectrum(g, spec, c)


def is_flat(s: Spectrum) -> bool:
    """True iff every value has squared modulus exactly 2^n."""
    return bool((s.norms_sq() == s.size).all())


# Bound on points (or table entries) x twists in one block of a batched
# spectral kernel, and on the survivor buffer of bent4_witnesses.  Larger
# blocks spread numpy's per-call cost over more twists but raise peak
# memory: traced at n = 10, about 17 bytes an entry in bent4_witnesses
# (block, survivor buffer and its butterfly; 29 at n = 9, whose pair
# test runs in int64) and 49 in character_norms.
_BLOCK_ENTRIES = 1 << 15


def bent4_witnesses(g: TruthTable, spec: FieldSpec | None = None) -> set[int]:
    """All twists c whose spectrum of g is flat.

    Nonempty means g is bent4; membership of 0 means bent, and of the
    all-ones point (mv) or the unit element (uv) means negabent.

    Each block of twists is first screened by its column sums.  The sum s0
    of column c of (-1)^b is A(0), and flatness at c needs
    A(u)^2 + A(u^d)^2 = 2^(n+1) for every u.  For even n that forces
    |A(u)| = 2^(n/2), so s0^2 = 2^n.  For odd n, u = 0 gives
    A(0)^2 + A(d)^2 = 4^k with k = (n+1)/2.  The only ways to write 4^k as
    a sum of two squares are (+-2^k)^2 + 0^2 and 0^2 + (+-2^k)^2: odd squares
    are 1 mod 4, so for k >= 1 both terms are even and halving them gives
    4^(k-1), down to 1 = (+-1)^2 + 0^2.  So s0^2 is 0 or 2^(n+1).  The
    columns that pass are copied into one (2^n, block) buffer with their
    c and d, and the buffer gets one real butterfly each time it fills,
    and once more at the end; a block whose columns all pass skips the
    copy and is butterflied where it is.  Even n then tests
    |A| = 2^(n/2) in the butterfly's own dtype; odd n pairs row u with
    row u^d in int64.  Flatness does not depend on the order of the
    values, so the dual-map reindex is skipped.
    """
    if g.mode == "mv":
        spec = None
    elif spec is None:
        raise ValueError("univariate witnesses need the field spec")
    elif spec.n != g.n:
        raise ValueError("field degree does not match the table")
    q = g.size
    bits = g.bit_array()
    odd = g.n & 1
    step = max(1, _BLOCK_ENTRIES // q)
    buf = np.empty((q, step), dtype=np.int8)
    buf_c = np.empty(step, dtype=np.int64)
    buf_d = np.empty(step, dtype=np.int64)
    found: set[int] = set()

    def flat(signs: np.ndarray, c: np.ndarray, d: np.ndarray) -> None:
        a = _butterfly(signs, q)
        if odd:
            a = a.astype(np.int64)
            np.square(a, out=a)
            a += np.take_along_axis(a, np.arange(q)[:, None] ^ d, axis=0)
            ok = (a == q << 1).all(axis=0)
        else:
            ok = (np.abs(a, out=a) == 1 << (g.n >> 1)).all(axis=0)
        found.update(c[ok].tolist())

    fill = 0
    for lo in range(0, q, step):
        signs, d = _twisted_signs(bits, spec, range(lo, min(q, lo + step)))
        s0 = np.einsum("ij->j", signs, dtype=np.int64)  # 2-3x faster than sum(axis=0)
        s0 *= s0
        keep = (s0 == q << 1) | (s0 == 0) if odd else s0 == q
        if keep.all():  # nothing to drop, so copying would be pure cost
            flat(signs, lo + np.arange(len(keep)), d)
            continue
        signs, c, d = signs[:, keep], lo + np.flatnonzero(keep), d[keep]
        while len(c):
            k = min(len(c), step - fill)
            buf[:, fill : fill + k] = signs[:, :k]
            buf_c[fill : fill + k] = c[:k]
            buf_d[fill : fill + k] = d[:k]
            signs, c, d = signs[:, k:], c[k:], d[k:]
            fill += k
            if fill == step:
                flat(buf, buf_c, buf_d)
                fill = 0
    if fill:
        flat(buf[:, :fill], buf_c[:fill], buf_d[:fill])
    return found


def character_norms(n: int, points, spec: FieldSpec | None = None, twists=None) -> np.ndarray:
    """Squared moduli |chi_{u,c}(R)|^2 of the star-group character sums, exactly.

    R is the multiset of (x, y) rows of `points`, in star_mv when spec is
    None and in star_uv over spec otherwise.  Entry [u, j] belongs to the
    character (u, twists[j]); twists defaults to every c.  On a graph
    {(x, F(x))}, column c is the twisted spectrum of the component at c.

    A point contributes (-1)^(u.x) i^(a + 2b) with a = d.x and
    b = Q_c(x) + L_c.y, L_c = c (mv) or dual[c^2] (uv).  The points at
    each (x, c) are counted by b into B(x) = sum (-1)^b, and one real
    butterfly A of B gives the sum as ((1+i) A(u) + (1-i) A(u^d)) / 2, of
    squared modulus (A(u)^2 + A(u^d)^2) / 2.  The halving is exact: both
    A(u) and A(u^d) are congruent to sum_x B(x) mod 2.
    """
    q = 1 << n
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    c = np.arange(q, dtype=np.int64) if twists is None else np.asarray(twists, dtype=np.int64)
    x, y = pts[:, :1], pts[:, 1:]
    t = None if spec is None else field_tables(spec)
    b, d = _quarter(x, spec, c)
    lc = c if t is None else t.dual.take(t.mul(c, c))
    b ^= np.bitwise_count(lc & y) & 1
    m = len(c)
    count = np.bincount(((x * m + np.arange(m)) * 2 + b).ravel(), minlength=q * m * 2).reshape(q, m, 2)
    # Every partial sum is at most sum_x |B(x)| <= |R| in size.
    a = _butterfly(count[..., 0] - count[..., 1], len(pts)).astype(np.int64)
    shifted = np.take_along_axis(a, np.arange(q)[:, None] ^ d, axis=0)
    norms = (a * a + shifted * shifted) >> 1
    return norms if t is None else norms[t.dual]


def characters_flat(n: int, points, spec: FieldSpec | None = None) -> bool:
    """True iff R has the character moduli of a (2^n, 2^n, 2^n, 1)-RDS.

    That is |chi_{0,0}(R)|^2 = 4^n, |chi_{u,0}(R)|^2 = 0 for u != 0, and
    |chi_{u,c}(R)|^2 = 2^n for every u and every c != 0.  A graph meets the
    first two by construction, so for a graph this is flatness of every
    component at its own twist.  Twists go in blocks [0, 2), [2, 4),
    [4, 8), ..., capped at a bounded number of entries, and the test
    stops at the first block that fails: most functions that are not
    modified planar already fail at a small twist.
    """
    q = 1 << n
    cap = max(1, _BLOCK_ENTRIES // max(len(points), q))
    lo = 0
    while lo < q:
        hi = min(q, lo + min(max(lo, 2), cap))
        want = np.full((q, hi - lo), q)
        if lo == 0:
            want[:, 0] = 0
            want[0, 0] = q * q
        if (character_norms(n, points, spec, range(lo, hi)) != want).any():
            return False
        lo = hi
    return True
