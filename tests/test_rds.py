import functools
import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpf.errors import InputError
from mpf.gf2n import make_field
from oracles import (
    character_eval,
    elements_from_json,
    elements_to_json,
    enumerate_class,
    four_verdicts,
    group_to_json,
    rds_report_counter,
    transport_function,
    transport_point,
    z4n_elements,
    z4n_order,
)
from mpf.planar import DOPolynomial, VectorialFunction, do_to_table, is_modified_planar_perm
from mpf.rds import (
    GroupSpec,
    forbidden_subgroup,
    graph_of,
    group_elements,
    group_for,
    group_identity,
    group_inverse,
    group_op,
    group_from_json,
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
    report = rds_verify_bruteforce(UV, graph_of(zero))
    assert (report.mu, report.nu, report.k, report.lam) == (4, 4, 4, 1)
    assert report.is_rds
    assert report.failing_element is None


def test_bruteforce_rds_zero_graph_mv_fails():
    zero = VectorialFunction("mv", 2, (0, 0, 0, 0))
    report = rds_verify_bruteforce(MV, graph_of(zero))
    assert not report.is_rds
    assert report.failing_element is not None


def test_bruteforce_rds_r_equals_n():
    n_set = forbidden_subgroup(UV)
    report = rds_verify_bruteforce(UV, n_set, n_set)
    assert not report.is_rds


def test_bruteforce_checks_only_a_given_subgroup(monkeypatch):
    # The canonical {0} x F is a subgroup in range by construction: only R
    # is range-checked.  A given N, even that same set, is checked in full.
    import mpf.rds

    checked = []
    real_elements, real_subgroup = mpf.rds._check_elements, mpf.rds._check_subgroup
    monkeypatch.setattr(mpf.rds, "_check_elements", lambda g, e: checked.append("elements") or real_elements(g, e))
    monkeypatch.setattr(mpf.rds, "_check_subgroup", lambda g, N: checked.append("subgroup") or real_subgroup(g, N))
    R = graph_of(VectorialFunction("uv", 2, (0, 0, 0, 0), F4))
    default = rds_verify_bruteforce(UV, R)
    assert checked == ["elements"]
    checked.clear()
    assert rds_verify_bruteforce(UV, R, forbidden_subgroup(UV)) == default
    assert checked == ["elements", "elements", "subgroup"]


@pytest.mark.parametrize("g", [GroupSpec("star_mv", 1), UV])
def test_bruteforce_whole_group_as_forbidden_is_no_rds(g):
    # |G| - |N| = 0 leaves lambda undefined, like any lambda that is not an integer.
    elems = list(group_elements(g))
    for R in ([group_identity(g)], elems):
        report = rds_verify_bruteforce(g, R, elems)
        assert (report.mu, report.nu, report.k) == (1, g.order, len(R))
        assert report.lam is None
        assert not report.is_rds


def test_bruteforce_rejects_non_subgroup():
    with pytest.raises(InputError, match="N not closed under the group law"):
        rds_verify_bruteforce(UV, [(0, 0)], [(0, 0), (1, 0)])


def _is_subgroup(g, N):
    """Oracle: N holds the identity, an inverse of each element, and every product."""
    e = group_identity(g)
    return (
        e in N
        and all(any(group_op(g, a, b) == e for b in N) for a in N)
        and all(group_op(g, a, b) in N for a in N for b in N)
    )


def _subgroup_check_cases():
    """Every subset of both groups at n = 1; at n = 2, seeded subgroups and one-element changes of them."""
    for g in (GroupSpec("star_mv", 1), GroupSpec("star_uv", 1, make_field(1))):
        elems = list(group_elements(g))
        for mask in range(1 << len(elems)):
            yield g, {a for i, a in enumerate(elems) if mask >> i & 1}
    rng = random.Random(1213)
    for g in (MV, UV):
        elems = list(group_elements(g))
        for _ in range(100):
            N = {group_identity(g), *rng.sample(elems, rng.randint(0, 3))}
            while (grown := N | {group_op(g, a, b) for a in N for b in N}) != N:
                N = grown
            if rng.random() < 0.5:
                N ^= {rng.choice(elems)}
            yield g, N


def test_bruteforce_rejects_exactly_the_non_subgroups():
    # Closure and the identity suffice in a finite group, so the check
    # needs no inverse test: it must still agree with the full definition.
    verdicts = []
    for g, N in _subgroup_check_cases():
        try:
            rds_verify_bruteforce(g, [group_identity(g)], sorted(N))
            rejected = False
        except InputError as exc:
            assert re.match("identity missing from the forbidden subgroup N|N not closed", str(exc)), exc
            rejected = True
        assert rejected == (not _is_subgroup(g, N)), (g, sorted(N))
        verdicts.append(rejected)
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 20


def test_bruteforce_work_is_bounded_at_2_26():
    # n = 13 is the largest n whose canonical subgroup and graph fit:
    # |N|^2 = |R|^2 = |G| = 2^26.
    assert len(forbidden_subgroup(GroupSpec("star_mv", 13))) == 1 << 13
    past_bound = f"brute-force RDS work {1 << 28} at n=14 exceeds the bound {1 << 26}"
    with pytest.raises(InputError, match=past_bound):
        forbidden_subgroup(GroupSpec("star_mv", 14))
    with pytest.raises(InputError, match=past_bound):
        rds_verify_bruteforce(GroupSpec("star_mv", 14), [], [(0, 0)])
    # |R| = 2^13 passes the bound (and fails on its bad element); one more does not.
    R = [(0, 0)] * ((1 << 13) - 1) + [(4, 0)]
    with pytest.raises(InputError, match=r"\[0x4, 0x0\] is not an element of star_mv at n=2"):
        rds_verify_bruteforce(MV, R, [(0, 0)])
    with pytest.raises(InputError, match=f"brute-force RDS work {(1 << 26) + (1 << 14) + 1} at n=2 exceeds"):
        rds_verify_bruteforce(MV, R + [(0, 0)], [(0, 0)])


def _every_subgroup(g):
    elems = list(group_elements(g))
    subsets = ({a for i, a in enumerate(elems) if mask >> i & 1} for mask in range(1 << len(elems)))
    return [sorted(N) for N in subsets if _is_subgroup(g, N)]


@pytest.mark.parametrize("g", [GroupSpec("star_mv", 1), GroupSpec("star_uv", 1, make_field(1))])
def test_bruteforce_matches_the_counter_oracle_on_every_set_at_n1(g):
    elems = list(group_elements(g))
    subgroups = _every_subgroup(g)
    assert len(subgroups) == 3  # Z_4: the trivial group, {0} x F and G
    for mask in range(1 << len(elems)):
        R = [a for i, a in enumerate(elems) if mask >> i & 1]
        for N in [None] + subgroups:
            assert rds_verify_bruteforce(g, R, N) == rds_report_counter(g, R, N), (R, N)


@pytest.mark.parametrize("g", [UV, MV])
def test_bruteforce_matches_the_counter_oracle_on_every_4_point_set_at_n2(g):
    rds = 0
    for R in itertools.combinations(group_elements(g), 4):
        report = rds_verify_bruteforce(g, R)
        assert report == rds_report_counter(g, R), R
        rds += report.is_rds
    assert 0 < rds < 1820


def _seeded_point_sets(g, rng):
    """Graphs (affine ones are RDS in star_uv), graphs with repeated points, multisets and a closed N."""
    q = 1 << g.n
    elems = list(group_elements(g))
    for _ in range(6):
        graph = [(x, rng.randrange(q)) for x in range(q)]
        yield graph, None
        affine = _linear_map([rng.randrange(q) for _ in range(g.n)])
        yield [(x, v ^ 1) for x, v in enumerate(affine)], None
        yield graph + rng.choices(graph, k=rng.randint(1, 3)), None
        yield rng.choices(elems, k=rng.randint(0, 3 * q)), None
        yield rng.choices(elems, k=q), None
        N = {group_identity(g), *rng.sample(elems, 2)}
        while (grown := N | {group_op(g, a, b) for a in N for b in N}) != N:
            N = grown
        yield rng.choices(elems, k=rng.randint(1, q)), sorted(N)


def test_bruteforce_matches_the_counter_oracle_on_seeded_sets_at_n3_and_n4():
    rng = random.Random(3304)
    kinds = set()
    for n in (3, 4):
        for g in (GroupSpec("star_mv", n), GroupSpec("star_uv", n, make_field(n))):
            for R, N in _seeded_point_sets(g, rng):
                report = rds_verify_bruteforce(g, R, N)
                assert report == rds_report_counter(g, R, N), (g, R, N)
                kinds.add((report.is_rds, report.lam is None, len(set(R)) < len(R)))
    # Verdicts true and false, lambda undefined, and repeated points all occur.
    assert {(True, False, False), (False, True, False), (False, False, True), (False, True, True)} <= kinds


def test_bruteforce_counts_past_16_bits():
    # Each ordered pair of the two points, 300 copies each, gives 300^2 =
    # 90000 differences: more than a 16-bit count holds.
    g = GroupSpec("star_mv", 1)
    R = [(0, 0)] * 300 + [(1, 0)] * 300
    report = rds_verify_bruteforce(g, R)
    assert report == rds_report_counter(g, R)
    assert (report.lam, report.failing_element, report.failing_count) == (179700, (1, 0), 90000)


def _linear_map(images):
    """The GF(2)-linear map sending bit i to images[i], as a table."""
    return [functools.reduce(operator.xor, (v for i, v in enumerate(images) if x >> i & 1), 0)
            for x in range(1 << len(images))]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["mv", "uv"]), st.integers(1, 4), st.data())
def test_adding_an_affine_function_keeps_the_graph_report(mode, n, data):
    # On a graph, r1 * r2^-1 = (a, F(x1) + F(x2) + cross(x1, x2)) with a = x1 + x2,
    # so adding L(x) + b moves every difference over direction a by L(a):
    # each direction's counts are permuted, and direction 0 (the subgroup
    # {0} x F) is left alone.
    q = 1 << n
    elem = st.integers(0, q - 1)
    table = data.draw(st.lists(elem, min_size=q, max_size=q) | st.just([0] * q))
    L = _linear_map(data.draw(st.lists(elem, min_size=n, max_size=n)))
    b = data.draw(elem)
    spec = make_field(n) if mode == "uv" else None
    F = VectorialFunction(mode, n, tuple(table), spec)
    G = VectorialFunction(mode, n, tuple(v ^ L[x] ^ b for x, v in enumerate(table)), spec)
    before = rds_verify_bruteforce(group_for(F), graph_of(F))
    after = rds_verify_bruteforce(group_for(G), graph_of(G))
    fields = operator.attrgetter("is_rds", "mu", "nu", "k", "lam")
    assert fields(after) == fields(before)
    assert (after.failing_element or [None])[0] == (before.failing_element or [None])[0]


def test_characters_verifier_examples():
    zero_uv = VectorialFunction("uv", 2, (0, 0, 0, 0), F4)
    assert rds_verify_characters(UV, graph_of(zero_uv))
    zero_mv = VectorialFunction("mv", 2, (0, 0, 0, 0))
    assert not rds_verify_characters(MV, graph_of(zero_mv))


@pytest.mark.parametrize(
    "g, bad",
    [(UV, (1, 9)), (UV, (4, 0)), (MV, (0, -1)), (MV, (1, 2, 3))],
)
def test_verifiers_reject_elements_outside_the_group(g, bad):
    R = [group_identity(g), bad]
    N = [group_identity(g)]
    not_an_element = re.escape(f"[{', '.join(map(hex, bad))}] is not an element of {g.law} at n={g.n}")
    with pytest.raises(InputError, match=not_an_element):
        rds_verify_bruteforce(g, R, N)
    with pytest.raises(InputError, match=not_an_element):
        rds_verify_bruteforce(g, [group_identity(g)], N + [bad])
    with pytest.raises(InputError, match=not_an_element):
        rds_verify_characters(g, R)


def test_characters_verifier_checks_the_trivial_twist():
    # A point taken twice has |chi|^2 = 4 = q at every character, so only
    # the c = 0 column, 16 at u = 0 and 0 elsewhere, tells it apart.
    for g in (UV, MV):
        R = [(0, 1), (0, 1)]
        assert not rds_verify_characters(g, R)
        assert not rds_verify_bruteforce(g, R).is_rds


@pytest.mark.parametrize("g", [UV, MV])
def test_verifiers_agree_on_random_subsets(g):
    rng = random.Random(20240917)
    elems = list(group_elements(g))
    n_set = forbidden_subgroup(g)
    for _ in range(100):
        subset = rng.sample(elems, 4)
        brute = rds_verify_bruteforce(g, subset)
        assert rds_verify_bruteforce(g, subset, n_set) == brute
        assert rds_verify_characters(g, subset) == brute.is_rds


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
            report = rds_verify_bruteforce(g, graph_of(F))
            chars = rds_verify_characters(g, graph_of(F))
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


# ---------------------------------------------------------------------------
# The multivariate version: phi(x, y) = (M x, L y + Q(x)) from star_uv onto
# star_mv (tests/oracles.py) moves a univariate F to a multivariate G.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transport_is_an_isomorphism_onto_star_mv_that_fixes_the_forbidden_subgroup(n):
    spec = make_field(n)
    uv, mv = GroupSpec("star_uv", n, spec), GroupSpec("star_mv", n)
    elems = list(group_elements(uv))
    image = {a: transport_point(spec, a) for a in elems}
    assert sorted(image.values()) == list(group_elements(mv))
    assert {image[a] for a in forbidden_subgroup(uv)} == forbidden_subgroup(mv)
    if n <= 3:
        pairs = itertools.product(elems, elems)
    else:
        rng = random.Random(n)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(3000)]
    for a, b in pairs:
        assert image[group_op(uv, a, b)] == group_op(mv, image[a], image[b]), (a, b)


def _transport_cases():
    """Every uv function at n <= 2, every DO quadratic at n = 3, a seeded sample at n = 4, 5."""
    for n in (1, 2):
        yield from enumerate_class("uv", n, "all")
    yield from enumerate_class("uv", 3, "do_quadratic")
    rng = random.Random(1611)
    for n in (4, 5):
        spec = make_field(n)
        q = 1 << n
        pairs = list(itertools.combinations(range(n), 2))
        # x^5 is planar at n = 4; affine functions are planar at every n.
        quads = [{(0, 2): 1}] if n == 4 else []
        quads += [{}] * 4 + [{pair: rng.randrange(q) for pair in pairs} for _ in range(12)]
        for quad in quads:
            linearized = {i: rng.randrange(q) for i in range(n)}
            yield do_to_table(DOPolynomial(spec, quad, linearized, rng.randrange(q)))


def test_every_route_agrees_on_a_function_and_its_transport():
    planar = 0
    total = 0
    for F in _transport_cases():
        G = transport_function(F)
        verdicts = set(four_verdicts(F) + four_verdicts(G))
        assert len(verdicts) == 1, F.table
        planar += verdicts.pop()
        total += 1
    assert 0 < planar < total
