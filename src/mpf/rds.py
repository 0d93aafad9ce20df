"""Twisted groups of exponent 4 and relative difference set verifiers.

The two star groups put a graph-of-a-function difference structure on
pairs: (x1,y1) * (x2,y2) = (x1+x2, y1+y2+x1*x2), with the cross term the
coordinatewise product (star_mv) or the field product (star_uv).  Both
are isomorphic to Z_4^n.

A subset R is a relative difference set when every element outside the
forbidden subgroup N has the same number of ordered-difference
representations from R and no nonidentity element of N has any.  Two
independent verifiers test (2^n, 2^n, 2^n, 1) graphs relative to the
canonical N = {0} x F: exhaustive difference counting, which also takes
any other N, and the character-modulus criterion.  The count takes
5 bytes per group element, whatever the set: 320 MiB at n = 13.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError, decode
from .gf2n import MAX_WORK, MODES, FieldSpec, check_field, check_setting, fe_mul, field_from_json
from .planar import VectorialFunction
from .transforms import components_flat

LAWS = tuple("star_" + mode for mode in MODES)

Element = tuple[int, int]

@dataclass(frozen=True)
class GroupSpec:
    law: str
    n: int
    spec: FieldSpec | None = None

    def __post_init__(self):
        if self.law not in LAWS:
            raise InputError(f"law must be one of {LAWS}, got {self.law!r:.40}")
        mode = self.law.removeprefix("star_")
        check_setting(mode, self.n)
        check_field(mode, self.n, self.spec)

    @property
    def order(self) -> int:
        return 1 << (2 * self.n)


def group_identity(g: GroupSpec) -> Element:
    return (0, 0)


def group_elements(g: GroupSpec) -> Iterator[Element]:
    """Every element once, in increasing order."""
    q = 1 << g.n
    for x in range(q):
        for y in range(q):
            yield (x, y)


def group_op(g: GroupSpec, a: Element, b: Element) -> Element:
    x1, y1 = a
    x2, y2 = b
    if g.law == "star_mv":
        return (x1 ^ x2, y1 ^ y2 ^ (x1 & x2))
    return (x1 ^ x2, y1 ^ y2 ^ fe_mul(g.spec, x1, x2))


def group_inverse(g: GroupSpec, a: Element) -> Element:
    x, y = a
    if g.law == "star_mv":
        return (x, y ^ x)
    return (x, y ^ fe_mul(g.spec, x, x))


@dataclass(frozen=True)
class RdsReport:
    mu: int
    nu: int
    k: int
    lam: int | None
    is_rds: bool
    failing_element: Element | None = None
    failing_count: int | None = None


def _check_elements(g: GroupSpec, elements: Iterable) -> None:
    """Reject anything that is not an element of g: a pair in [0, 2^n)^2."""
    q = 1 << g.n
    for e in elements:
        if len(e) != 2 or not all(0 <= v < q for v in e):
            raise InputError(f"[{', '.join(map(hex, e)):.40}] is not an element of {g.law} at n={g.n}")


def _check_pair_work(g: GroupSpec, *sizes: int) -> None:
    """Refuse a brute-force job over MAX_WORK before building anything of its size.

    The work is the largest of |R|^2 ordered differences, a count for all
    |G| = 4^n elements and, for a given N, |N|^2 closure products.
    """
    work = max([g.order] + [k * k for k in sizes])
    if work > MAX_WORK:
        raise InputError(f"brute-force RDS work {work} at n={g.n} exceeds the bound {MAX_WORK}")


def _check_subgroup(g: GroupSpec, N: frozenset) -> None:
    """A finite set that holds the identity and is closed under the law is a subgroup."""
    if group_identity(g) not in N:
        raise InputError("identity missing from the forbidden subgroup N")
    for a in N:
        for b in N:
            if group_op(g, a, b) not in N:
                raise InputError(f"N not closed under the group law at {a}, {b}")


def rds_verify_bruteforce(
    g: GroupSpec, R: Iterable[Element], N: Iterable[Element] | None = None
) -> RdsReport:
    """Exhaustive ordered-difference count, d = r1 * r2^(-1).

    N defaults to {0} x F, a subgroup by construction; a given N is range-
    and closure-checked.  The convention does not change the verdict in
    these groups.  lam is None, and is_rds false, when |R|(|R| - 1) is
    not a multiple of |G| - |N|, or N is all of G.  Each (x, y) has an int32
    count at x * 2^n + y, the scan order; with its bool check that is 5
    bytes per element whatever R is, 80 MiB at n = 12 and 320 at n = 13.
    """
    R = list(R)
    canonical = N is None
    N = forbidden_subgroup(g) if canonical else frozenset(N)
    _check_pair_work(g, len(R), len(N))
    _check_elements(g, R)
    if not canonical:
        _check_elements(g, N)
        _check_subgroup(g, N)
    n, order = g.n, g.order
    counts = array("i", [0]) * order
    inverses = {r: group_inverse(g, r) for r in set(R)}
    for r1 in R:
        for r2 in R:
            x, y = group_op(g, r1, inverses[r2])
            counts[x << n | y] += 1
    nu = len(N)
    k = len(R)
    mu = order // nu
    off_n = order - nu
    lam_target = k * (k - 1) // off_n if off_n and k * (k - 1) % off_n == 0 else None
    have = np.frombuffer(counts, dtype=np.intc)
    # No count is -1, so with lam undefined every element off N fails.
    bad = have != (-1 if lam_target is None else lam_target)
    in_n = np.array([x << n | y for x, y in N])
    bad[in_n] = have[in_n] != 0
    bad[0] = False  # the identity holds the r1 = r2 pairs, which are no differences
    first = int(bad.argmax())
    failing, failing_count = (divmod(first, 1 << n), int(have[first])) if bad[first] else (None, None)
    is_rds = failing is None and lam_target is not None
    return RdsReport(mu, nu, k, lam_target, is_rds, failing, failing_count)


def forbidden_subgroup(g: GroupSpec) -> frozenset:
    """The canonical forbidden subgroup {0} x F, within the brute-force bound."""
    _check_pair_work(g)
    q = 1 << g.n
    return frozenset((0, y) for y in range(q))


def rds_verify_characters(g: GroupSpec, R: Iterable[Element]) -> bool:
    """Character-modulus criterion at (2^n, 2^n, 2^n, 1) parameters.

    True iff |chi_{u,c}(R)|^2 = 2^n for every c != 0 and every u,
    |chi_{u,0}(R)| = 0 for u != 0, and |chi_{0,0}(R)| = 2^n: R is then a
    relative difference set relative to the canonical forbidden subgroup
    {0} x F, the only one the criterion covers.  Twist 0 is the butterfly
    of the counts of each x, so it holds iff every x occurs exactly once:
    R is the graph of some F (Zhou 2013).  At c != 0 the character sum
    of a graph is the twisted spectrum of the component of F at c, so
    transforms.components_flat decides the rest from the y column sorted
    by x, a block of one row.
    """
    R = list(R)
    _check_elements(g, R)
    pts = np.array(R, dtype=np.int64).reshape(-1, 2)
    pts = pts[pts[:, 0].argsort()]
    if len(pts) != 1 << g.n or (pts[:, 0] != np.arange(len(pts))).any():
        return False
    return bool(components_flat(g.n, [pts[:, 1]], g.spec)[0])


def graph_of(F: VectorialFunction) -> set[Element]:
    """The 2^n-point set {(x, F(x))} inside the matching star group."""
    return {(x, v) for x, v in enumerate(F.table)}


def group_for(F: VectorialFunction) -> GroupSpec:
    """The star group a function's graph lives in."""
    return GroupSpec("star_" + F.mode, F.n, F.spec)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def group_from_json(obj: dict) -> GroupSpec:
    law, n, field = decode("group", obj)
    return GroupSpec(law, n, field_from_json(field))


def report_to_json(report: RdsReport) -> dict:
    return {
        "parameters": {"mu": report.mu, "nu": report.nu, "k": report.k, "lambda": report.lam},
        "is_rds": report.is_rds,
        "failing_element": (
            [f"0x{v:x}" for v in report.failing_element]
            if report.failing_element is not None
            else None
        ),
        "failing_count": report.failing_count,
    }
