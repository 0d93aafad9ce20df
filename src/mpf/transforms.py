"""Exact twisted spectra and the character criterion, one identity for all.

Every spectrum here is a vector of 2^n Gaussian integers, held as an
int64 array of shape (2^n, 2) with columns (re, im); never floats.
At twist c the quarter turn of (-1)^g(x) times the twist, i^wt(c&x) (mv)
or (-1)^sigma(c,x) i^Tr(cx) (uv), is k = a + 2b with a = d.x linear
(d = c, or the dual mask of c) and b = g + Q_c, Q_c = bit 1 of wt(c&x)
or sigma(c,x).  As i^k = (1+i)/2 (-1)^b + (1-i)/2 (-1)^(a+b), the one real
butterfly A of (-1)^b gives V(u) = (A(u) + A(u^d) + i (A(u) - A(u^d))) / 2.
The univariate spectrum is reindexed through the trace-dual map so that
position u carries the character x -> (-1)^Tr(ux).

That identity serves all three kernels: transform_U / transform_V read one
spectrum off it, and bent4_witnesses and components_flat screen each twist
by flatness at u = 0 (_flat_at_zero on the sums A(0) and A(d)) and
butterfly only the twists that pass.  The screen is exact on a quadratic
b, as every twisted component of an affine or DO F is, so those reach
the butterfly only when flat.
components_flat screens each block of signs by its sums (_block_sums).
bent4_witnesses takes the sums of every twist first (_column_sums), then
builds and butterflies only the survivors.  For uv those sums need no
signs: sigma(c, x) = sigma(1, cx) depends on cx alone, so in the log domain
the q - 1 nonzero twists' sums are one exact correlation of +-1 bits,
the s_2 link behind Parker-Pott's "negabent iff g + s_2 is bent", read
by XOR and popcount on packed bits (q^2/8 byte operations).  An mv
twist is no such shift, but i^wt(c&x) = prod_k i^(c_k x_k) splits over
the bits, so n Gaussian butterfly passes give every twist's sums at once.
components_flat tests each component L_c.F of each table row F at its
own twist c, L_c = c (mv) or dual[c^2] (uv); that spectrum is the star-group
character sum of the graph of F at (u, c), so the RDS character route
shares it.  Each kernel knows a bound on its partial sums (2^n for +-1
inputs), so it calls the butterfly core _butterfly directly; the public
fwht scans its input for the bound.  Flatness (every squared modulus equal
to 2^n) at some twist c is the bent4 property; c = 0 is ordinary bentness
and the all-ones / unit twist is negabentness.  It says A(u)^2 + A(u^d)^2
= 2^(n+1) for every u; for even n that forces |A| = 2^(n/2), so g is bent4
at c iff g + Q_c is bent (Parker-Pott: f is negabent iff f + s_2 is bent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .boolfun import TruthTable
from .errors import InputError
from .gf2n import FieldSpec, check_field, field_tables


class GaussianInt(NamedTuple):
    re: int
    im: int


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
        v = np.array(self.values, dtype=np.int64)  # a copy: freezing it leaves the caller's array writeable
        if v.shape != (1 << self.n, 2):
            raise InputError(f"values must have shape ({1 << self.n}, 2)")
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
        raise InputError(f"length {size} is not a power of two")
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


def _twisted_signs(bits: np.ndarray, spec: FieldSpec | None, twists) -> tuple[np.ndarray, ...]:
    """((-1)^b as int8 (2^n, m), d) for the twists c = twists[j]; see above.

    bits is g's 0/1 table as a uint8 (2^n, 1) column, or one column per
    twist; spec None for mv.  Q_c(x) is bit 1 of wt(c&x) with d = c (mv),
    or sigma(c,x) with d = dual[c] (uv), read by one gather of
    sigma(1, .) o exp at log x + log c (log itself is log x, x in index
    order); the zero sentinel of log reads 0.
    """
    c = np.asarray(twists, dtype=np.int32)
    if spec is None:
        x = np.arange(len(bits), dtype=np.int32)[:, None]
        b, d = (np.bitwise_count(c & x) >> 1) & 1, c
    else:
        t = field_tables(spec)
        b, d = t.sigma_exp.take(t.log[:, None] + t.log.take(c)), t.dual.take(c)
    b ^= bits
    return 1 - 2 * b.view(np.int8), d


def _spectrum(g: TruthTable, spec: FieldSpec | None, c: int) -> Spectrum:
    """The spectrum at c, (A(u) + A(u^d) + i (A(u) - A(u^d))) / 2, reindexed for uv."""
    if not 0 <= c < g.size:
        raise InputError("twist c out of range")
    signs, d = _twisted_signs(g.bit_array()[:, None], spec, [c])
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
        raise InputError("transform_U needs a multivariate table")
    return _spectrum(g, None, c)


def transform_V(spec: FieldSpec, g: TruthTable, c: int) -> Spectrum:
    """Twisted spectrum of a univariate g at twist c.

    V(u) = sum_x (-1)^(g(x)+sigma(c,x)) * i^Tr(cx) * (-1)^Tr(ux).
    c = 0 is the univariate Walsh-Hadamard spectrum (characters Tr(ux)),
    c = 1 the univariate nega-Hadamard spectrum.  Read off one real
    butterfly, with d = dual[c] (module docstring).
    """
    if g.mode != "uv":
        raise InputError("transform_V needs a univariate table")
    check_field(g.mode, g.n, spec)
    return _spectrum(g, spec, c)


def is_flat(s: Spectrum) -> bool:
    """True iff every value has squared modulus exactly 2^n."""
    return bool((s.norms_sq() == s.size).all())


# Bound on table entries x twists in one block of a batched spectral
# kernel.  Larger blocks spread numpy's per-call cost over more twists
# but raise peak memory: traced on the uv zero function, whose twists
# all reach the butterfly, about 16 bytes an entry at n = 10 in
# bent4_witnesses and 15 in components_flat (28 and 27 at n = 9, whose
# pair test runs in int64).  The packed uv screen counts 64-bit words.
_BLOCK_ENTRIES = 1 << 15


def _block(q: int, per: int = 1) -> int:
    """Items of per x q entries each that fit in _BLOCK_ENTRIES, at least 1: every kernel's block rule."""
    return max(1, _BLOCK_ENTRIES // q // per)


def _flat_at_zero(n: int, s0: np.ndarray, ad: np.ndarray) -> np.ndarray:
    """Which columns of (-1)^b, from A(0) = s0 and A(d) = ad (_block_sums), pass flatness at u = 0.

    Flatness at column c is A(u)^2 + A(u^d)^2 = 2^(n+1) for every u, that
    is |V_c(u)|^2 = 2^n; the screen tests it at u = 0.  It is a necessary
    condition, so a flat column always passes.

    It is also exact when b is quadratic (degree <= 2), as every twisted
    component of an affine or DO F is.  Such a b is plateaued: A(u)^2 is 0
    or 2^(n+r) and its support is a coset of a subspace H of codimension
    r, with n - r even.  A sum of two such squares reaches 2^(n+1) only as
    2^n + 2^n (r = 0, b bent) or as 2^(n+1) + 0 (r = 1, exactly one of u,
    u^d in the coset, that is d not in H); neither depends on u.  A
    quadratic column that fails anywhere fails at u = 0, and only flat
    ones reach the butterfly.
    """
    return s0 * s0 + ad * ad == 2 << n


def _block_sums(signs: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A(0), A(d)) of the columns of (-1)^b (2^n, m), with their d, as int64 (m,) arrays.

    A(0) is the column sum s0, and A(d) = s0 - 2 (sum of s(x) over the x
    with d.x = 1).
    """
    s0 = np.einsum("ij->j", signs, dtype=np.int64)  # 2-3x faster than sum(axis=0)
    odd = np.bitwise_count(np.arange(len(signs), dtype=np.int32)[:, None] & d.astype(np.int32)).view(np.int8)
    odd &= 1
    odd *= signs  # s(x) where d.x = 1, else 0
    return s0, s0 - 2 * np.einsum("ij->j", odd, dtype=np.int64)


def _column_sums(bits: np.ndarray, spec: FieldSpec | None) -> tuple[np.ndarray, np.ndarray]:
    """(A(0), A(d)) of every twist c = 0..q-1 of g, as int64 (q,) arrays.

    bits is g's 0/1 table as a uint8 (2^n, 1) column; spec None for mv.
    For mv, one pass per bit of the Gaussian butterfly (v0, v1) ->
    (v0 + v1, v0 + i v1) turns int64 (re, im) from (-1)^g into
    T(c) = sum_x (-1)^g(x) i^wt(c&x), |T| <= 2^n.  As
    (-1)^bit1(w) = Re i^w + Im i^w and (-1)^(bit1(w)+bit0(w)) = Re i^w -
    Im i^w, A(0) = Re T + Im T and A(d) = Re T - Im T (d = c).  For uv,
    sigma(c, x) = sigma(1, cx), so for c = alpha^j the column sum is A(0) =
    (-1)^g(0) + sum_k G[k] W[j+k], with G[k] = (-1)^g(alpha^k) and
    W[i] = (-1)^sigma_exp[i] for i < 2q-3: all q-1 sums are one exact
    correlation of W with G.  As d.x = Tr(cx) for d = dual[c], A(d) is the
    same correlation with W[i] (-1)^Tr(alpha^i), the trace being bit 0 of
    dual[alpha^i].  At c = 0 both are the plain sum of (-1)^g.  As both
    are +-1, a sum is m - 2 popcount(Gbits xor Wbits[j : j+m]), m = q - 1:
    W's bits are packed at each of the 8 bit offsets, so a window is a byte
    slice, XORed with the packed G in 64-bit words, its bits from j + m on
    masked off: q^2/8 byte operations, in blocks of _block words.
    """
    q = len(bits)
    n = q.bit_length() - 1
    g = 1 - 2 * bits[:, 0].astype(np.int64)
    if spec is None:
        re, im = g, np.zeros(q, dtype=np.int64)
        for k in range(n):  # bit k of x and c: (v0, v1) -> (v0 + v1, v0 + i v1)
            r, i = re.reshape(-1, 2, 1 << k), im.reshape(-1, 2, 1 << k)
            r1, i1 = r[:, 0] - i[:, 1], i[:, 0] + r[:, 1]
            r[:, 0] += r[:, 1]
            i[:, 0] += i[:, 1]
            r[:, 1], i[:, 1] = r1, i1
        return re + im, re - im
    t = field_tables(spec)
    m = q - 1
    units = t.exp[:m]  # alpha^k, k = 0..q-2
    words, count = -(-m // 64), (m + 7) >> 3  # 64-bit words per window; windows per bit offset
    span = count - 1 + 8 * words  # bytes of one bit offset's row
    kernels = np.zeros((2, 8 * span + 7), dtype=np.uint8)  # bits of W, and of W (-1)^Tr
    kernels[:, : 2 * m - 1] = t.sigma_exp[: 2 * m - 1]  # j + k runs over 0..2q-4
    kernels[1, : 2 * m - 1] ^= (t.dual.take(t.exp[: 2 * m - 1]) & 1).astype(np.uint8)
    # Overlapping views by the ndarray constructor, not as_strided: on numpy 2.4 its read of
    # __array_interface__ grows an internal table with each new array, 0.5 MiB over 10^4 calls.
    shifted = np.ndarray((len(kernels), 8, 8 * span), np.uint8, kernels, strides=(kernels.strides[0], 1, 1))
    rows = np.packbits(shifted, axis=2, bitorder="little")  # rows[k, r] packs bits r, r + 1, ... of kernel k
    windows = np.ndarray((*rows.shape[:2], count, 8 * words), np.uint8, rows, strides=(*rows.strides, 1))
    gp = np.packbits(np.resize(bits[units, 0], 64 * words), bitorder="little")  # bits from m on are masked
    last = np.uint64((1 << (m - 64 * words + 64)) - 1)  # the bits of the last word before j + m
    step = min(count, _block(words, 8 * len(kernels)))
    buf = np.empty((len(kernels), 8, step, 8 * words), dtype=np.uint8)
    pops = np.empty((len(kernels), 8, count), dtype=np.int64)  # [k, r, a]: mismatches at j = 8a + r
    for lo in range(0, count, step):
        v = np.bitwise_xor(windows[:, :, lo : lo + step], gp, out=buf[:, :, : count - lo]).view("<u8")
        v[..., -1] &= last
        np.einsum("...i->...", np.bitwise_count(v, out=v.view("<i8")), out=pops[:, :, lo : lo + step])
    s = np.full((len(kernels), q), g.sum())  # c = 0: the plain sum
    s[:, units] = g[0] + m - 2 * pops.transpose(0, 2, 1).reshape(len(kernels), -1)[:, :m]
    return s[0], s[1]


def _flat_columns(signs: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """Which columns of (-1)^b (2^n, m), with their d, have a flat spectrum.

    One real butterfly of the block.  Even n tests |A| = 2^(n/2) in the
    butterfly's own dtype; odd n pairs row u with row u^d in int64.
    Flatness does not depend on the order of the values, so the dual-map
    reindex is skipped.
    """
    q = 1 << n
    a = _butterfly(signs, q)
    if n & 1:
        a = a.astype(np.int64)
        np.square(a, out=a)
        a += np.take_along_axis(a, np.arange(q)[:, None] ^ d, axis=0)
        return (a == q << 1).all(axis=0)
    return (np.abs(a, out=a) == 1 << (n >> 1)).all(axis=0)


def bent4_witnesses(g: TruthTable, spec: FieldSpec | None = None) -> set[int]:
    """All twists c whose spectrum of g is flat.

    Nonempty means g is bent4; membership of 0 means bent, and of the
    all-ones point (mv) or the unit element (uv) means negabent.

    Every twist is first screened by flatness at u = 0, from the sums
    A(0) and A(d) of all twists at once (_column_sums).  Signs are
    then built only for the twists that pass, in full blocks, and each
    block is butterflied (_flat_columns).
    """
    check_field(g.mode, g.n, spec)
    bits = g.bit_array()[:, None]
    survivors = np.flatnonzero(_flat_at_zero(g.n, *_column_sums(bits, spec)))
    step = _block(g.size)
    found: set[int] = set()
    for lo in range(0, len(survivors), step):
        c = survivors[lo : lo + step]
        signs, d = _twisted_signs(bits, spec, c)
        found.update(c[_flat_columns(signs, d, g.n)].tolist())
    return found


def components_flat(n: int, tables, spec: FieldSpec | None = None) -> np.ndarray:
    """(m,) bool: which rows of an (m, 2^n) table block have every nonzero component flat at its own twist.

    Row F holds F(x) in index order; spec None for mv.  The component at
    twist c != 0 is parity(L_c & F(x)), L_c = c (mv) or dual[c^2] (uv),
    and it is tested with bent4_witnesses' screen and flatness test at c.
    Its twisted spectrum is also the star-group character sum of the
    graph of F at (u, c), which is how rds_verify_characters uses this.
    Twists go in blocks of _block(q, m), so a block has at most
    max(m, _block(q)) columns.  A row leaves at its first failing block,
    and only the rows that pass the screen are butterflied.
    """
    q = 1 << n
    stack = np.asarray(tables, dtype=np.int64).T  # one column per row
    t = None if spec is None else field_tables(spec)
    flat = np.zeros(stack.shape[1], dtype=bool)
    live = np.arange(stack.shape[1])
    width = _block(q, max(1, len(live)))
    for lo in range(1, q, width):
        k = len(live)
        if not k:
            break
        c = np.arange(lo, min(q, lo + width))
        lc = c if t is None else t.dual.take(t.mul(c, c))
        bits = (np.bitwise_count(lc & stack[:, live, None]) & 1).reshape(q, -1)
        signs, d = _twisted_signs(bits, spec, np.tile(c, k))
        ok = _flat_at_zero(n, *_block_sums(signs, d)).reshape(k, -1).all(axis=1)
        if not ok.all():  # take, not a mask: a C-contiguous block butterflies fastest
            keep = ok.nonzero()[0]
            live = live[keep]
            signs = signs.reshape(q, k, -1).take(keep, axis=1).reshape(q, -1)
            d = d.reshape(k, -1).take(keep, axis=0).reshape(-1)
            if not len(live):
                break
        live = live[_flat_columns(signs, d, n).reshape(len(live), -1).all(axis=1)]
    flat[live] = True
    return flat
