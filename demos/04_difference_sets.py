"""Graphs of functions as relative difference sets.

The pairs (x, y) with the twisted law (x1,y1)*(x2,y2) =
(x1+x2, y1+y2+x1*x2) form a group of exponent 4, and the graph
{(x, F(x))} of a modified planar F is a (2^n, 2^n, 2^n, 1) relative
difference set relative to the forbidden subgroup {0} x F, which both
verifiers take as given.  Two independent verifiers: exhaustive
difference counting, and character sums whose moduli must hit
prescribed values exactly.
"""

from mpf import (
    TruthTable,
    VectorialFunction,
    graph_of,
    group_for,
    make_field,
    rds_verify_bruteforce,
    rds_verify_characters,
    transform_V,
)

f4 = make_field(2)
zero = VectorialFunction("uv", 2, (0, 0, 0, 0), f4)
group = group_for(zero)
R = graph_of(zero)

print("group law: star_uv on GF(4) x GF(4)")
print("graph of the zero function:", sorted(R))

# Difference counting: every element off N = {0} x F is hit exactly once.
report = rds_verify_bruteforce(group, R)
print(f"\nbrute-force verdict: {report.is_rds}")
print(f"parameters (mu, nu, k, lambda) = ({report.mu}, {report.nu}, {report.k}, {report.lam})")

# Character route: |chi(R)|^2 = 2^n for every character with c != 0.
print("character verdict:", rds_verify_characters(group, R))

# A failing example: the multivariate zero function.  The witness is the
# first element with the wrong representation count.
zero_mv = VectorialFunction("mv", 2, (0, 0, 0, 0))
gm = group_for(zero_mv)
bad = rds_verify_bruteforce(gm, graph_of(zero_mv))
print(f"\nmv zero graph: is_rds={bad.is_rds}, witness={bad.failing_element} (count {bad.failing_count})")

# The character sum at (u, c) over a graph is the twisted spectrum V^c at u
# of the component Tr(c^2 F(x)); for F = 0 every component is zero.  So
# column c = 0 is 16 at u = 0 and 0 elsewhere, every other column is flat at 4.
print("\n|chi_{u,c}(R)|^2, one row per u, one column per twist c:")
columns = [transform_V(f4, TruthTable(2, 0, "uv"), c).norms_sq() for c in range(4)]
for u, row in enumerate(zip(*columns)):
    print(f"  u={u}: {[int(v) for v in row]}")
