"""Independent brute-force oracles for the test suite.

Everything here is deliberately written the slow, literal way (direct
double sums, coefficient-wise polynomial products, set-based bijection
checks) so that it shares no code path with the library implementations
it verifies.
"""

import functools

import numpy as np

from mpf.boolfun import TruthTable
from mpf.errors import SCHEMAS, MpfError, decode
from mpf.gf2n import FieldSpec, dual_mask, fe_mul, field_tables, field_to_json, make_field, sigma, trace_n
from mpf.planar import (
    DOPolynomial,
    PlanarVerdict,
    VectorialFunction,
    is_modified_planar_components,
    is_modified_planar_perm,
)
from mpf.rds import GroupSpec, graph_of, group_for, rds_verify_bruteforce, rds_verify_characters
from mpf.search import _check_bounds, class_size, decode_block, slot_monomials
from mpf.transforms import GaussianInt, Spectrum, fwht

QUARTER_RE = (1, 0, -1, 0)
QUARTER_IM = (0, 1, 0, -1)


@functools.cache
def trace_table(spec: FieldSpec) -> np.ndarray:
    """Tr(y) for every field element y, from the scalar trace."""
    return np.array([trace_n(spec, y) for y in spec.elements()], dtype=np.int64)


@functools.cache
def sigma_table(spec: FieldSpec) -> np.ndarray:
    """sigma(1, y) for every field element y, from the scalar double sum."""
    return np.array([sigma(spec, 1, y) for y in spec.elements()], dtype=np.int64)


@functools.cache
def trace_pairing(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """Tr(ux) as rows [u][x], from the scalar product and trace."""
    tr = trace_table(spec).tolist()
    return tuple(tuple(tr[fe_mul(spec, u, x)] for x in spec.elements()) for u in spec.elements())


def naive_poly_mul(a: int, b: int) -> int:
    """Carry-less product by explicit coefficient convolution."""
    out = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            for j in range(b.bit_length()):
                if (b >> j) & 1:
                    out ^= 1 << (i + j)
    return out


def naive_poly_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def naive_field_mul(spec: FieldSpec, a: int, b: int) -> int:
    return naive_poly_mod(naive_poly_mul(a, b), spec.modulus)


def naive_is_irreducible(p: int) -> bool:
    """No factorization into two polynomials of degree >= 1."""
    deg = p.bit_length() - 1
    for f in range(2, 1 << deg):
        if f.bit_length() - 1 < 1:
            continue
        for g in range(2, 1 << deg):
            if (f.bit_length() - 1) + (g.bit_length() - 1) != deg:
                continue
            if naive_poly_mul(f, g) == p:
                return False
    return True


def parity(v: int) -> int:
    return v.bit_count() & 1


def u_spectrum_weight_form(g: TruthTable, c: int) -> list[tuple[int, int]]:
    """Direct O(4^n) sum with twist i^wt(c&x)."""
    size = g.size
    out = []
    for u in range(size):
        re = im = 0
        for x in range(size):
            k = ((c & x).bit_count() + 2 * (bit(g, x) ^ parity(u & x))) & 3
            re += QUARTER_RE[k]
            im += QUARTER_IM[k]
        out.append((re, im))
    return out


def u_spectrum_symmetric_form(g: TruthTable, c: int) -> list[tuple[int, int]]:
    """Direct O(4^n) sum with twist (-1)^s2(c&x) * i^(c.x).

    s2 of a vector with w ones has value C(w, 2) mod 2; the dot product
    c.x is the parity of c&x.
    """
    size = g.size
    out = []
    for u in range(size):
        re = im = 0
        for x in range(size):
            w = (c & x).bit_count()
            s2 = (w * (w - 1) // 2) & 1
            k = ((w & 1) + 2 * (bit(g, x) ^ s2 ^ parity(u & x))) & 3
            re += QUARTER_RE[k]
            im += QUARTER_IM[k]
        out.append((re, im))
    return out


def v_spectrum_direct(spec: FieldSpec, g: TruthTable, c: int) -> list[tuple[int, int]]:
    """Direct O(4^n) sum using only scalar field operations."""
    size = g.size
    # The twist at x does not depend on u: (g(x) + sigma(c,x), Tr(cx)).
    twist = [(bit(g, x) ^ sigma(spec, c, x), trace_n(spec, fe_mul(spec, c, x))) for x in range(size)]
    out = []
    for u, tr_u in enumerate(trace_pairing(spec)):
        re = im = 0
        for x, (s0, t0) in enumerate(twist):
            s = s0 ^ tr_u[x]
            k = (t0 + 2 * s) & 3
            re += QUARTER_RE[k]
            im += QUARTER_IM[k]
        out.append((re, im))
    return out


def walsh_hadamard_direct(rows, us=None) -> list[list[int]]:
    """out[u] = sum_x (-1)^(u.x) rows[x], entrywise over each row, in Python ints.

    rows is a list of equal-length lists of ints; only the positions u in
    us (default every u) are computed.
    """
    us = range(len(rows)) if us is None else us
    out = []
    for u in us:
        acc = [0] * len(rows[0])
        for x, row in enumerate(rows):
            sign = -1 if parity(u & x) else 1
            acc = [a + sign * v for a, v in zip(acc, row)]
        out.append(acc)
    return out


def twisted_values_mv(g: TruthTable, c: int) -> list[tuple[int, int]]:
    """Pointwise (-1)^g(x) * i^wt(c&x), computed scalar."""
    out = []
    for x in range(g.size):
        k = ((c & x).bit_count() + 2 * bit(g, x)) & 3
        out.append((QUARTER_RE[k], QUARTER_IM[k]))
    return out


def twisted_values_uv(spec: FieldSpec, g: TruthTable, c: int) -> list[tuple[int, int]]:
    """Pointwise (-1)^(g(x)+sigma(c,x)) * i^Tr(cx), computed scalar."""
    out = []
    for x in range(g.size):
        k = (trace_n(spec, fe_mul(spec, c, x)) + 2 * (bit(g, x) ^ sigma(spec, c, x))) & 3
        out.append((QUARTER_RE[k], QUARTER_IM[k]))
    return out


def is_permutation(values) -> bool:
    values = list(values)
    return len(set(values)) == len(values)


def perm_verdict_direct(F: VectorialFunction) -> PlanarVerdict:
    """The permutation definition read literally, one direction at a time.

    Directions a = 1, 2, ... are tried in order, and D_a F(x) = F(x+a) +
    F(x) + a*x takes its cross term from scalar products (fe_mul for uv,
    a & x for mv).  The first D_a that is not a bijection is the witness;
    its smallest colliding pair is the first point whose value comes up
    again, with the next point that takes that value.
    """
    table = F.table
    for a in range(1, F.size):
        cross = [fe_mul(F.spec, a, x) if F.mode == "uv" else a & x for x in range(F.size)]
        values = [table[x ^ a] ^ table[x] ^ cross[x] for x in range(F.size)]
        if not is_permutation(values):
            x1 = next(x for x, v in enumerate(values) if values.count(v) > 1)
            return PlanarVerdict(False, a, (x1, values.index(values[x1], x1 + 1)))
    return PlanarVerdict(True)


def spectrum_pairs(s) -> list[tuple[int, int]]:
    return [(int(re), int(im)) for re, im in s.values]


_I_UNITS = (
    GaussianInt(1, 0),
    GaussianInt(0, 1),
    GaussianInt(-1, 0),
    GaussianInt(0, -1),
)


def z4n_elements(n: int) -> list[tuple[int, ...]]:
    """Every element of Z_4^n as n digits mod 4."""
    return [tuple((t >> (2 * k)) & 3 for k in range(n)) for t in range(4 ** n)]


def z4n_order(a) -> int:
    """Additive order in Z_4^n: 4 if a digit is odd, 2 if one is 2, else 1."""
    if any(v & 1 for v in a):
        return 4
    return 2 if any(a) else 1


def character_eval(g, u: int, c: int, a) -> GaussianInt:
    """The (u, c)-indexed character at a group element: a fourth root of unity.

    star_mv: (-1)^(u.x + c.y) * i^wt(c&x)
    star_uv: (-1)^(Tr(ux) + Tr(c^2 y) + sigma(c,x)) * i^Tr(cx)
    """
    x, y = a
    if g.law == "star_mv":
        sign = ((u & x).bit_count() + (c & y).bit_count()) & 1
        k = ((c & x).bit_count() + 2 * sign) & 3
    elif g.law == "star_uv":
        spec = g.spec
        tr = trace_table(spec)
        cx = fe_mul(spec, c, x)
        c2 = fe_mul(spec, c, c)
        sign = (int(tr[fe_mul(spec, u, x)]) ^ int(tr[fe_mul(spec, c2, y)]) ^ sigma(spec, c, x)) & 1
        k = (int(tr[cx]) + 2 * sign) & 3
    else:
        raise ValueError("characters are only provided for the star laws")
    return _I_UNITS[k]


def characters_direct(g, R) -> list[list[int]]:
    """|chi_{u,c}(R)|^2 as rows [u][c], one character value at a time (O(q^3))."""
    R = list(R)
    q = 1 << g.n
    out = [[0] * q for _ in range(q)]
    for c in range(q):
        for u in range(q):
            re = 0
            im = 0
            for r in R:
                v = character_eval(g, u, c, r)
                re += v.re
                im += v.im
            out[u][c] = re * re + im * im
    return out


def character_norms(n: int, points, spec: FieldSpec | None = None, twists=None) -> np.ndarray:
    """|chi_{u,c}(R)|^2 for any point multiset R, batched over twists (O(q^2 n)).

    R is the multiset of (x, y) rows of `points`, in star_mv when spec is
    None and in star_uv over spec otherwise.  Entry [u, j] belongs to the
    character (u, twists[j]); twists defaults to every c.

    A point contributes (-1)^(u.x) i^(a + 2b) with a = d.x and
    b = Q_c(x) + L_c.y: Q_c(x) is bit 1 of wt(c&x) with d = L_c = c (mv),
    or sigma(c,x) with d = dual[c] and L_c = dual[c^2] (uv).  The points at
    each (x, c) are counted by b into B(x) = sum (-1)^b, and one real
    butterfly A of B gives the sum as ((1+i) A(u) + (1-i) A(u^d)) / 2, of
    squared modulus (A(u)^2 + A(u^d)^2) / 2.  The halving is exact: both
    A(u) and A(u^d) are congruent to sum_x B(x) mod 2.
    """
    q = 1 << n
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    c = np.arange(q, dtype=np.int64) if twists is None else np.asarray(twists, dtype=np.int64)
    x, y = pts[:, :1], pts[:, 1:]
    if spec is None:
        b, d, lc = (np.bitwise_count(c & x) >> 1) & 1, c, c
    else:
        t = field_tables(spec)
        b, d, lc = sigma_table(spec)[t.mul(c, x)], t.dual[c], t.dual[t.mul(c, c)]
    b = b ^ (np.bitwise_count(lc & y) & 1)
    m = len(c)
    count = np.bincount(((x * m + np.arange(m)) * 2 + b).ravel(), minlength=q * m * 2).reshape(q, m, 2)
    a = fwht(count[..., 0] - count[..., 1])
    shifted = np.take_along_axis(a, np.arange(q)[:, None] ^ d, axis=0)
    norms = (a * a + shifted * shifted) >> 1
    return norms if spec is None else norms[t.dual]


def correlation_column_sums(bits, spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(A(0), A(d)) of every twist of a univariate g, as one int64 np.correlate each (O(q^2)).

    bits is g's 0/1 table as a uint8 (2^n, 1) column.  For c = alpha^j,
    A(0) = (-1)^g(0) + sum_k G[k] W[j+k], with G[k] = (-1)^g(alpha^k) and
    W[i] = (-1)^sigma_exp[i]; A(d) uses W[i] (-1)^Tr(alpha^i), the trace
    being bit 0 of dual[alpha^i].  At c = 0 both are the plain sum of
    (-1)^g.  This is the library's screen before it moved to packed
    bits, kept to check that one.
    """
    q = len(bits)
    g = 1 - 2 * bits[:, 0].astype(np.int64)
    t = field_tables(spec)
    units = t.exp[: q - 1]  # alpha^k, k = 0..q-2
    g_units = g.take(units)
    lags = 2 * q - 3  # j + k runs over 0..2q-4
    w = 1 - 2 * t.sigma_exp[:lags].astype(np.int64)

    def sums(kernel: np.ndarray) -> np.ndarray:
        s = np.empty(q, dtype=np.int64)
        s[0] = g.sum()
        s[units] = g[0] + np.correlate(kernel, g_units, "valid")
        return s

    return sums(w), sums(w * (1 - 2 * (t.dual.take(t.exp[:lags]) & 1)))


def component_mv(F: VectorialFunction, c: int) -> TruthTable:
    """Boolean component x -> c . F(x) (dot product of coordinate bits)."""
    if F.mode != "mv":
        raise ValueError("component_mv needs a multivariate function")
    if c == 0:
        raise ValueError("components are defined for nonzero c only")
    if not 0 < c < F.size:
        raise ValueError("c out of range")
    bits = 0
    for x, v in enumerate(F.table):
        if (c & v).bit_count() & 1:
            bits |= 1 << x
    return TruthTable(F.n, bits, "mv")


def component_uv(spec: FieldSpec, F: VectorialFunction, c: int) -> TruthTable:
    """Boolean component x -> Tr(c^2 F(x)), indexed by the twist c.

    Squaring is a bijection of the nonzero elements, so ranging c over
    them still covers every nonzero linear functional exactly once.
    """
    if F.mode != "uv":
        raise ValueError("component_uv needs a univariate function")
    if spec != F.spec:
        raise ValueError("field spec does not match the function")
    if c == 0:
        raise ValueError("components are defined for nonzero c only")
    if not 0 < c < F.size:
        raise ValueError("c out of range")
    t = field_tables(spec)
    out = trace_table(spec)[t.mul(fe_mul(spec, c, c), np.asarray(F.table, dtype=np.int64))]
    return TruthTable(F.n, pack_bits(out), "uv")


def do_table_pointwise(p: DOPolynomial) -> tuple[int, ...]:
    """A DO polynomial's table, one point at a time with scalar products."""
    spec = p.spec
    table = []
    for x in spec.elements():
        pows = [x]
        for _ in range(spec.n - 1):
            pows.append(fe_mul(spec, pows[-1], pows[-1]))
        acc = p.constant
        for (i, j), a in p.quad.items():
            acc ^= fe_mul(spec, a, fe_mul(spec, pows[i], pows[j]))
        for i, b in p.linearized.items():
            acc ^= fe_mul(spec, b, pows[i])
        table.append(acc)
    return tuple(table)


def affine_representatives(n: int) -> list[list[int]]:
    """Every table on 2^n points with F(0) = 0 and F(2^i) = 0 for each i < n.

    Every table is F + A for exactly one of these F and one affine map A
    (A(0) = F(0), A(2^i) = F(2^i) + F(0)), and adding A moves each
    derivative F(x+a) + F(x) + a*x by the constant A(a) + A(0): the
    permutation verdict, its witness and its collision stay put.  So at
    n = 3 these 4096 tables stand for all 2^24.
    """
    q = 1 << n
    free = [x for x in range(q) if x & (x - 1)]  # not 0 and not a unit vector
    tables = []
    for index in range(q ** len(free)):
        table = [0] * q
        for k, x in enumerate(free):
            table[x] = index >> (n * k) & (q - 1)
        tables.append(table)
    return tables


def inverse_twisted(s: Spectrum, spec: FieldSpec | None = None) -> np.ndarray:
    """Recover the twisted point values from a spectrum, exactly.

    Returns the Gaussian vector h with h(x) = (-1)^g(x) * (twist at x);
    the inverse is fixed as 1/2^n of the matching character sum, so
    inverse_twisted(transform(g, c)) round-trips to the twisted input.
    """
    w = fwht(s.values)
    if s.mode == "uv":
        if spec is None:
            raise ValueError("univariate inversion needs the field spec")
        w = w[field_tables(spec).dual]
    if (w & (s.size - 1)).any():
        raise ValueError("spectrum is not in the image of the transform")
    return w >> int(s.n)


# ---------------------------------------------------------------------------
# The paper's multivariate version: phi(x, y) = (M x, L y + Q(x)) carries
# star_uv onto star_mv and {0} x F onto itself, so it carries the graph of
# a univariate F onto the graph of a multivariate G.  Built from scalar
# field operations only.
# ---------------------------------------------------------------------------

@functools.cache
def transport_maps(spec: FieldSpec) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The tables (M, Q, L) over the field.

    Bit k of M(x) is Tr(alpha^k x^2), bit k of Q(x) is sigma(r_k, x) with
    r_k^2 = alpha^k, and bit k of L(y) is Tr(alpha^k y).
    """
    n = spec.n
    roots = []
    for k in range(n):
        r = 1 << k
        for _ in range(n - 1):  # r^(2^(n-1)) squares to r^(2^n) = r
            r = fe_mul(spec, r, r)
        roots.append(r)

    def table(bit_k):
        return tuple(sum(bit_k(k, v) << k for k in range(n)) for v in spec.elements())

    M = table(lambda k, x: trace_n(spec, fe_mul(spec, 1 << k, fe_mul(spec, x, x))))
    Q = table(lambda k, x: sigma(spec, roots[k], x))
    L = table(lambda k, y: trace_n(spec, fe_mul(spec, 1 << k, y)))
    return M, Q, L


def transport_point(spec: FieldSpec, a: tuple[int, int]) -> tuple[int, int]:
    """phi(x, y) = (M x, L y + Q(x)) for an element of star_uv over spec."""
    M, Q, L = transport_maps(spec)
    x, y = a
    return M[x], L[y] ^ Q[x]


def transport_function(F: VectorialFunction) -> VectorialFunction:
    """The multivariate G with G(M x) = L(F(x)) + Q(x), whose graph is phi(graph of F)."""
    M, Q, L = transport_maps(F.spec)
    table = [0] * F.size
    for x, v in enumerate(F.table):
        table[M[x]] = L[v] ^ Q[x]
    return VectorialFunction("mv", F.n, tuple(table))


# The same isomorphism can fix x: (x, y) -> (x, S(y) + Q(x)), with S the
# inverse of squaring, carries star_uv onto star_mv when Q(x + y) + Q(x) +
# Q(y) = S(xy) + (x & y), a polar form that is alternating (S(x x) = x).
# So G = S(F) + Q has D_a G = S(D_a F) + Q(a): the same bad directions and
# colliding pairs as F, with no map on a.
# ---------------------------------------------------------------------------

@functools.cache
def sqrt_form(spec: FieldSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tables (S, Q) over the field: S(y y) = y, Q(0) = 0 and Q(x + 2^k) = Q(x) + S(x alpha^k) for x < 2^k.

    That is Q(x + 2^k) = Q(x) + Q(2^k) + S(x 2^k) + (x & 2^k) with every
    Q(2^k) = 0, as x & 2^k = 0 for x < 2^k.
    """
    S = [0] * spec.order
    for y in spec.elements():
        S[fe_mul(spec, y, y)] = y
    Q = [0]
    for k in range(spec.n):
        Q += [Q[x] ^ S[fe_mul(spec, x, 1 << k)] for x in range(1 << k)]
    return tuple(S), tuple(Q)


def sqrt_transport(F: VectorialFunction) -> VectorialFunction:
    """The multivariate G = S(F) + Q of a univariate F, with (S, Q) = sqrt_form(F.spec)."""
    S, Q = sqrt_form(F.spec)
    return VectorialFunction("mv", F.n, tuple(S[v] ^ Q[x] for x, v in enumerate(F.table)))


# ---------------------------------------------------------------------------
# Codecs and enumerators that only the tests use; the library has no
# caller for them.
# ---------------------------------------------------------------------------

def bit(g: TruthTable, t: int) -> int:
    """The value of g at the point encoded by t."""
    return (g.bits >> t) & 1


def table_values(g: TruthTable) -> list[int]:
    """g's 0/1 values in index order."""
    return [bit(g, t) for t in range(g.size)]


def pack_bits(array) -> int:
    """Pack a 0/1 vector (index order) into a truth-table int."""
    arr = np.asarray(array, dtype=np.uint8) & 1
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def table_to_json(g: TruthTable) -> dict:
    return {"mode": g.mode, "n": g.n, "bits": f"0x{g.bits:x}"}


def table_from_json(obj: dict) -> TruthTable:
    mode, n, bits, _ = decode("truth_table", obj)  # a TruthTable has no field
    return TruthTable(n, bits, mode)


def elements_to_json(elements) -> list:
    return [[f"0x{v:x}" for v in e] for e in sorted(elements)]


def elements_from_json(items: list) -> list:
    return list(decode("elements", items, SCHEMAS["rds_input"]["elements"]))


def group_to_json(g: GroupSpec) -> dict:
    obj = {"law": g.law, "n": g.n}
    if g.spec is not None:
        obj["field"] = field_to_json(g.spec)
    return obj


def weight(g: TruthTable) -> int:
    """Hamming weight: number of points where g is 1."""
    return g.bits.bit_count()


def four_verdicts(F: VectorialFunction) -> tuple[bool, bool, bool, bool]:
    """The library's perm, components, brute-force RDS and character verdicts on F."""
    g = group_for(F)
    return (
        is_modified_planar_perm(F).is_planar,
        is_modified_planar_components(F),
        rds_verify_bruteforce(g, graph_of(F)).is_rds,
        rds_verify_characters(g, graph_of(F)),
    )


def class_polynomial(spec: FieldSpec, klass: str, index: int) -> DOPolynomial:
    """The affine or do_quadratic candidate at index, read one base-2^n digit at a time."""
    n, q = spec.n, spec.order
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    digits = [(index >> (n * s)) % q for s in range(n + 1 if klass == "affine" else len(pairs))]
    if klass == "affine":
        return DOPolynomial(spec, linearized=dict(enumerate(digits[:n])), constant=digits[n])
    return DOPolynomial(spec, quad=dict(zip(pairs, digits)))


def candidate_function(mode: str, n: int, klass: str, index: int) -> VectorialFunction:
    """Decode the index-th candidate of a class, in canonical order, by a one-index block."""
    table = decode_block(n, slot_monomials(n, klass), [index])[0].tolist()
    return VectorialFunction(mode, n, table, make_field(n) if mode == "uv" else None)


def enumerate_class(mode: str, n: int, klass: str):
    """Yield every function of a search class exactly once, in canonical order."""
    _check_bounds(n, klass)
    for index in range(class_size(mode, n, klass)):
        yield candidate_function(mode, n, klass, index)


# ---------------------------------------------------------------------------
# The derivative-side bent4 criterion: g is bent4 at c iff every shifted
# derivative at c (over nonzero shifts z) is balanced.  The library decides
# bent4 from the twisted spectrum, so this side stays independent of it.
# ---------------------------------------------------------------------------

class ZeroShiftError(MpfError):
    """A shifted derivative was requested at shift z = 0."""


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
