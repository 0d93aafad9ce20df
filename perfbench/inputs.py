"""Seeded input generation and independent reference checks.

Nothing here calls into ``mpf``: field products, irreducibility tests
and planarity witnesses are re-implemented from their definitions, so a
check never trusts the route it is checking.
"""

from __future__ import annotations

import random


def gf_mul(a: int, b: int, modulus: int) -> int:
    """Product in GF(2)[X]/(modulus), carry-less shift and reduce."""
    top = 1 << (modulus.bit_length() - 1)
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return acc


def _poly_gcd(a: int, b: int) -> int:
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + ([m] if m > 1 else [])


def is_irreducible(f: int) -> bool:
    """Rabin's test: X^(2^n) = X mod f, and gcd(X^(2^(n/p)) - X, f) = 1 for p | n."""
    n = f.bit_length() - 1
    if n <= 1:
        return n == 1
    powers = [2]  # powers[k] = X^(2^k) mod f
    for _ in range(n):
        powers.append(gf_mul(powers[-1], powers[-1], f))
    if powers[n] != 2:
        return False
    return all(_poly_gcd(f, powers[n // p] ^ 2) == 1 for p in _prime_factors(n))


def smallest_irreducible(n: int) -> int:
    return next(f for f in range(1 << n, 1 << (n + 1)) if is_irreducible(f))


def first_bad_direction(table, cross) -> int | None:
    """Smallest a != 0 with x -> F(x+a) + F(x) + cross(a, x) not injective.

    None means F is modified planar, straight from the definition.
    """
    q = len(table)
    for a in range(1, q):
        seen = set()
        for x in range(q):
            v = table[x ^ a] ^ table[x] ^ cross(a, x)
            if v in seen:
                return a
            seen.add(v)
    return None


def mv_cross(a: int, x: int) -> int:
    return a & x


def uv_cross(modulus: int):
    return lambda a, x: gf_mul(a, x, modulus)


def random_affine_uv(rng: random.Random, n: int, modulus: int) -> list[int]:
    """Table of L(x) + b with L linearized: planar, since L(a) + ax is a bijection."""
    q = 1 << n
    coeffs = [rng.randrange(q) for _ in range(n)]
    const = rng.randrange(q)
    table = []
    for x in range(q):
        acc, p = const, x
        for b in coeffs:
            acc ^= gf_mul(b, p, modulus)
            p = gf_mul(p, p, modulus)
        table.append(acc)
    return table


def _apply(cols: list[int], x: int) -> int:
    acc = 0
    for i, col in enumerate(cols):
        if (x >> i) & 1:
            acc ^= col
    return acc


def _invertible(cols: list[int]) -> bool:
    rows = list(cols)
    for bit in range(len(cols)):
        pivot = next((r for r in rows if (r >> bit) & 1), None)
        if pivot is None:
            return False
        rows.remove(pivot)
        rows = [r ^ pivot if (r >> bit) & 1 else r for r in rows]
    return True


def random_invertible(rng: random.Random, n: int) -> list[int]:
    while True:
        cols = [rng.randrange(1, 1 << n) for _ in range(n)]
        if _invertible(cols):
            return cols


def mv_image(rng: random.Random, uv_table: list[int], modulus: int) -> list[int]:
    """Carry a uv-planar function to an mv-planar one through a group isomorphism.

    With B invertible, A(x) = B(x^2) and Q the quadratic map whose polar
    form is A(x) o A(x') + B(x x'), the map (x, y) -> (A x, B y + Q x) is
    an isomorphism from the star_uv group onto the star_mv group that
    fixes the forbidden subgroup {0} x F.  It sends the graph of F onto
    the graph of G(A x) = B F(x) + Q(x), so G is modified planar exactly
    when F is.
    """
    n = modulus.bit_length() - 1
    cols = random_invertible(rng, n)

    def A(x):
        return _apply(cols, gf_mul(x, x, modulus))

    basis = [1 << i for i in range(n)]
    polar = {
        (i, j): A(basis[i]) & A(basis[j]) ^ _apply(cols, gf_mul(basis[i], basis[j], modulus))
        for i in range(n) for j in range(i + 1, n)
    }
    out = [0] * len(uv_table)
    for x, fx in enumerate(uv_table):
        qx = 0
        for (i, j), v in polar.items():
            if (x >> i) & (x >> j) & 1:
                qx ^= v
        out[A(x)] = _apply(cols, fx) ^ qx
    return out


def random_nonplanar(rng: random.Random, n: int, cross) -> tuple[list[int], int]:
    """Uniform random table, redrawn until the definition finds a bad direction."""
    q = 1 << n
    while True:
        table = [rng.randrange(q) for _ in range(q)]
        bad = first_bad_direction(table, cross)
        if bad is not None:
            return table, bad


def quadratic_bent_bits(rng: random.Random, n: int) -> int:
    """Packed table of y_0 y_h + ... + y_(h-1) y_(2h-1) + l.x + e, with y = Mx, n = 2h.

    An inner-product form under an invertible linear change of variables,
    plus an affine term, is bent; bentness does not depend on the basis,
    so the table is bent read as mv or as uv.
    """
    h = n // 2
    cols = random_invertible(rng, n)
    lin = rng.randrange(1 << n)
    const = rng.randrange(2)
    bits = 0
    for x in range(1 << n):
        y = _apply(cols, x)
        v = ((y & (y >> h) & ((1 << h) - 1)).bit_count() + (lin & x).bit_count() + const) & 1
        bits |= v << x
    return bits
