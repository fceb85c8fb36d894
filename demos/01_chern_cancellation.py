"""Walk through the Chern-class cancellation at n = 2, p = 7, step by step.

The goal: integers a_1, a_2, a_3 (coprime to p) and delta_1, delta_2 with

    (1 + a_1 M p w)(1 + a_2 M p w)(1 + a_3 M p w) * c(G_1(delta_1)) * c(G_2(delta_2)) = 1

exactly in Q[w]/(w^3).  Every quantity below is exact.
"""

from pgroupcert import (
    OmegaSeries,
    atilde_table,
    certify,
    chern_G,
    compute_M,
    direct_sum,
    find_roots,
    solve_deltas,
)
from pgroupcert.certdoc import CONSTRUCTION_CHECKS

n, p = 2, 7
M = compute_M(n)
print(f"n = {n}, p = {p}, M(n) = {M}")

print("\n-- step 1: cube roots of unity mod p^2 = 49 --")
roots = find_roots(n, p)
print(f"residues: {roots.residues}")
print(f"lifts a_j: {roots.lifts}")

print("\n-- step 2: symmetric functions and the inverse series --")
sol = solve_deltas(n, p, M, roots)
print(f"s_j = sigma_j(a): {sol.s}   (both divisible by p^n = {p**n})")
print(f"b_j (inverse-series coefficients): {sol.b}")
print(f"   divisibility: b_1 / (M p^2) = {sol.b[0] // (M * p**2)}, "
      f"b_2 / (M p^4) = {sol.b[1] // (M * p**4)}")

print("\n-- step 3: the solved deltas and the bundle classes --")
print(f"delta = {sol.delta}")
table = atilde_table(n)
print(f"atilde table: { {k: str(v) for k, v in table.items()} }")
for k in (1, 2):
    print(f"c(G_{k}({sol.delta[k-1]})) = {chern_G(n, k, sol.delta[k-1], p)}")

print("\n-- step 4: the product is 1 --")
# The solver took the deltas from the logarithm of the line product and
# formed no product; multiply every class out here to see the cancellation.
lines = [OmegaSeries.from_dict(n, {0: 1, 1: a * M * p}) for a in roots.lifts]
classes = [chern_G(n, k, sol.delta[k - 1], p) for k in range(1, n + 1)]
print(f"full product: {direct_sum(lines + classes)}")

print("\n-- the same thing, packaged as a certificate --")
cert = certify(n, 1, p)
# certify raises CertificationError instead of returning a certificate that lacks one.
print(f"identities established: {', '.join(CONSTRUCTION_CHECKS)}")
print(f"rank of the flat bundle: {cert.rank} (= n+1 + n(n+1)/2 * n!)")
print(f"group order p^{cert.row.order_exponent} = {cert.group_order}, "
      f"abelian bound p^{cert.row.abelian_exponent}, "
      f"abelian fraction {cert.row.bound}")
