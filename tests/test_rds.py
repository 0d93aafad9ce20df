import random

import pytest

from mpf.errors import BruteForceBoundsError, ElementRangeError, ForbiddenSubgroupError, NotASubgroupError
from mpf.gf2n import make_field
from oracles import character_eval, characters_direct, elements_to_json, z4n_elements, z4n_order
from mpf.planar import VectorialFunction, is_modified_planar_perm
from mpf.rds import (
    GroupSpec,
    elements_from_json,
    forbidden_subgroup,
    graph_of,
    group_elements,
    group_for,
    group_identity,
    group_inverse,
    group_op,
    group_from_json,
    group_to_json,
    rds_verify_bruteforce,
    rds_verify_characters,
)

F4 = make_field(2)
UV = GroupSpec("star_uv", 2, F4)
MV = GroupSpec("star_mv", 2)
ALPHA = 2


def test_star_uv_squaring():
    assert group_op(UV, (ALPHA, 0), (ALPHA, 0)) == (0, 3)  # (0, alpha^2)


def test_star_mv_squaring_gives_order_four():
    for x in range(4):
        for y in range(4):
            assert group_op(MV, (x, y), (x, y)) == (0, x)


def test_identity():
    for g in (UV, MV):
        e = group_identity(g)
        for a in group_elements(g):
            assert group_op(g, e, a) == a
            assert group_op(g, a, e) == a


def test_inverse_examples():
    assert group_inverse(UV, (ALPHA, 0)) == (ALPHA, 3)  # y + x^2
    assert group_inverse(MV, (1, 0)) == (1, 1)  # y + x
    assert group_inverse(UV, (0, 0)) == (0, 0)


@pytest.mark.parametrize("g", [UV, MV])
def test_group_axioms_exhaustive(g):
    elems = list(group_elements(g))
    e = group_identity(g)
    for a in elems:
        assert group_op(g, a, group_inverse(g, a)) == e
        for b in elems:
            ab = group_op(g, a, b)
            assert ab in set(elems)
            for c in elems[::5]:
                assert group_op(g, ab, c) == group_op(g, a, group_op(g, b, c))


def _element_order(g, a):
    e = group_identity(g)
    v = a
    k = 1
    while v != e:
        v = group_op(g, v, a)
        k += 1
    return k


@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_mv_order_histogram_matches_z4n(n):
    star = GroupSpec("star_mv", n)
    hist_star = sorted(_element_order(star, a) for a in group_elements(star))
    hist_z4 = sorted(z4n_order(a) for a in z4n_elements(n))
    assert hist_star == hist_z4


@pytest.mark.parametrize("n", [1, 2])
def test_star_uv_order_histogram_matches_z4n(n):
    star = GroupSpec("star_uv", n, make_field(n))
    hist_star = sorted(_element_order(star, a) for a in group_elements(star))
    hist_z4 = sorted(z4n_order(a) for a in z4n_elements(n))
    assert hist_star == hist_z4


def test_character_examples():
    assert character_eval(MV, 0, 0, (3, 2)) == (1, 0)
    assert character_eval(UV, 0, 0, (1, 3)) == (1, 0)
    assert character_eval(MV, 0, 0b11, (0b11, 0)) == (-1, 0)  # i^2
    assert character_eval(UV, 0, 1, (ALPHA, 0)) == (0, -1)  # -i


@pytest.mark.parametrize("g", [UV, MV])
def test_characters_are_homomorphisms_exhaustive(g):
    elems = list(group_elements(g))
    for u in range(4):
        for c in range(4):
            for a in elems:
                va = character_eval(g, u, c, a)
                for b in elems:
                    vb = character_eval(g, u, c, b)
                    vab = character_eval(g, u, c, group_op(g, a, b))
                    product = (
                        va.re * vb.re - va.im * vb.im,
                        va.re * vb.im + va.im * vb.re,
                    )
                    assert tuple(vab) == product


@pytest.mark.parametrize("g", [UV, MV])
def test_characters_are_pairwise_distinct(g):
    elems = list(group_elements(g))
    tables = {}
    for u in range(4):
        for c in range(4):
            table = tuple(character_eval(g, u, c, a) for a in elems)
            assert table not in tables.values()
            tables[(u, c)] = table
    assert len(tables) == 16


def test_bruteforce_rds_zero_graph_uv():
    zero = VectorialFunction("uv", 2, (0, 0, 0, 0), F4)
    report = rds_verify_bruteforce(UV, graph_of(zero), forbidden_subgroup(UV))
    assert (report.mu, report.nu, report.k, report.lam) == (4, 4, 4, 1)
    assert report.is_rds
    assert report.failing_element is None


def test_bruteforce_rds_zero_graph_mv_fails():
    zero = VectorialFunction("mv", 2, (0, 0, 0, 0))
    report = rds_verify_bruteforce(MV, graph_of(zero), forbidden_subgroup(MV))
    assert not report.is_rds
    assert report.failing_element is not None


def test_bruteforce_rds_r_equals_n():
    n_set = forbidden_subgroup(UV)
    report = rds_verify_bruteforce(UV, n_set, n_set)
    assert not report.is_rds


def test_bruteforce_rejects_non_subgroup():
    with pytest.raises(NotASubgroupError):
        rds_verify_bruteforce(UV, [(0, 0)], [(0, 0), (1, 0)])


def test_bruteforce_work_is_bounded_at_2_26():
    # n = 13 is the largest n whose canonical subgroup and graph fit:
    # |N|^2 = |R|^2 = |G| = 2^26.
    assert len(forbidden_subgroup(GroupSpec("star_mv", 13))) == 1 << 13
    with pytest.raises(BruteForceBoundsError):
        forbidden_subgroup(GroupSpec("star_mv", 14))
    with pytest.raises(BruteForceBoundsError):
        rds_verify_bruteforce(GroupSpec("star_mv", 14), [], [(0, 0)])
    # |R| = 2^13 passes the bound (and fails on its bad element); one more does not.
    R = [(0, 0)] * ((1 << 13) - 1) + [(4, 0)]
    with pytest.raises(ElementRangeError):
        rds_verify_bruteforce(MV, R, [(0, 0)])
    with pytest.raises(BruteForceBoundsError):
        rds_verify_bruteforce(MV, R + [(0, 0)], [(0, 0)])


def test_characters_verifier_examples():
    zero_uv = VectorialFunction("uv", 2, (0, 0, 0, 0), F4)
    assert rds_verify_characters(UV, graph_of(zero_uv), forbidden_subgroup(UV))
    zero_mv = VectorialFunction("mv", 2, (0, 0, 0, 0))
    assert not rds_verify_characters(MV, graph_of(zero_mv), forbidden_subgroup(MV))


@pytest.mark.parametrize(
    "g, bad",
    [(UV, (1, 9)), (UV, (4, 0)), (MV, (0, -1)), (MV, (1, 2, 3))],
)
def test_verifiers_reject_elements_outside_the_group(g, bad):
    R = [group_identity(g), bad]
    N = [group_identity(g)]
    with pytest.raises(ElementRangeError):
        rds_verify_bruteforce(g, R, N)
    with pytest.raises(ElementRangeError):
        rds_verify_bruteforce(g, [group_identity(g)], N + [bad])
    with pytest.raises(ElementRangeError):
        rds_verify_characters(g, R, forbidden_subgroup(g))


def test_characters_verifier_checks_the_trivial_twist():
    # A point taken twice has |chi|^2 = 4 = q at every character, so only
    # the c = 0 column, 16 at u = 0 and 0 elsewhere, tells it apart.
    for g in (UV, MV):
        R = [(0, 1), (0, 1)]
        assert not rds_verify_characters(g, R, forbidden_subgroup(g))
        assert not rds_verify_bruteforce(g, R, forbidden_subgroup(g)).is_rds


def test_characters_verifier_requires_canonical_subgroup():
    zero_uv = VectorialFunction("uv", 2, (0, 0, 0, 0), F4)
    with pytest.raises(ForbiddenSubgroupError):
        rds_verify_characters(UV, graph_of(zero_uv), [(0, 0), (1, 0)])


@pytest.mark.parametrize("g", [UV, MV])
def test_verifiers_agree_on_random_subsets(g):
    rng = random.Random(20240917)
    elems = list(group_elements(g))
    n_set = forbidden_subgroup(g)
    for _ in range(100):
        subset = rng.sample(elems, 4)
        brute = rds_verify_bruteforce(g, subset, n_set)
        assert rds_verify_characters(g, subset, n_set) == brute.is_rds


@pytest.mark.parametrize("g", [UV, MV])
def test_difference_convention_does_not_change_verdict(g):
    # tally r2^{-1} * r1 instead of r1 * r2^{-1} by hand and compare
    rng = random.Random(77)
    elems = list(group_elements(g))
    n_set = forbidden_subgroup(g)
    for _ in range(25):
        subset = rng.sample(elems, 4)
        report = rds_verify_bruteforce(g, subset, n_set)
        counts = {}
        for r1 in subset:
            for r2 in subset:
                if r1 != r2:
                    d = group_op(g, group_inverse(g, r2), r1)
                    counts[d] = counts.get(d, 0) + 1
        ok = all(counts.get(d, 0) == 0 for d in n_set if d != group_identity(g)) and all(
            counts.get(d, 0) == 1 for d in elems if d not in n_set
        )
        assert ok == report.is_rds


def test_graph_of_shapes():
    zero = VectorialFunction("uv", 2, (0, 0, 0, 0), F4)
    assert graph_of(zero) == {(x, 0) for x in range(4)}
    ident = VectorialFunction("uv", 2, (0, 1, 2, 3), F4)
    assert graph_of(ident) == {(x, x) for x in range(4)}
    assert len(graph_of(ident)) == 4
    assert group_for(ident) == UV


def test_grand_chain_spot_checks():
    rng = random.Random(5)
    for _ in range(40):
        table = tuple(rng.randrange(4) for _ in range(4))
        for F in (
            VectorialFunction("uv", 2, table, F4),
            VectorialFunction("mv", 2, table),
        ):
            g = group_for(F)
            planar = is_modified_planar_perm(F).is_planar
            report = rds_verify_bruteforce(g, graph_of(F), forbidden_subgroup(g))
            chars = rds_verify_characters(g, graph_of(F), forbidden_subgroup(g))
            assert planar == report.is_rds == chars


def test_group_and_elements_json_round_trip():
    assert group_from_json(group_to_json(UV)) == UV
    assert group_from_json(group_to_json(MV)) == MV
    elems = [(0, 3), (2, 1)]
    assert elements_from_json(elements_to_json(elems)) == sorted(elems)


@pytest.mark.parametrize("g", [UV, MV])
def test_group_elements_are_listed_once_in_increasing_order(g):
    elems = list(group_elements(g))
    assert elems == sorted(set(elems))
    assert len(elems) == g.order
