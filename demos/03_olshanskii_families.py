"""Families of symplectic forms with no common isotropic subspace, certified two ways.

Gluing r Heisenberg factors along invertible matrices A_1..A_r produces a
group of order p^(2n+r) whose abelian subgroups project to subspaces
isotropic for every pulled-back form simultaneously.  If no k-dimensional
subspace survives all r forms, abelian subgroups top out at p^(r + min(k, 2n)).

enumerate_isotropic decides that, and it is the one place the rank argument
lives: each pulled-back form is nondegenerate, and a nondegenerate form on
F_p^(2n) has no isotropic subspace above dimension n, so a k > n question
is answered with no search.  When k <= n it searches every k-dimensional
subspace exhaustively.
"""

import time

from pgroupcert import (
    enumerate_isotropic,
    gaussian_binomial,
    olshanskii_search,
    product_subgroup_bound,
)

print("-- small case: n=1, r=2, p=3 (k = 4 exceeds the ambient dimension 2) --")
spec = olshanskii_search(1, 2, 3, seed=7)
bound = product_subgroup_bound(spec)
print(f"certified: {spec.certified}, k = {spec.k}")
print(f"group order exponent {spec.row.order_exponent}, structural abelian exponent "
      f"{spec.row.abelian_exponent}")
print(f"exact: max common-isotropic dimension {bound.max_common_isotropic_dim} "
      f"=> max abelian order is p^{bound.exact_abelian_exponent}")

print("\n-- the flagship case: n=4, r=4, p=3, settled by nondegeneracy --")
start = time.perf_counter()
spec44 = olshanskii_search(4, 4, 3, seed=7)
elapsed = time.perf_counter() - start
print(f"k = {spec44.k} > n = {spec44.n}: no 6-dimensional subspace of F_3^8 is isotropic "
      f"for even one nondegenerate form")
print(f"certified: {spec44.certified} in {elapsed * 1000:.1f} ms, no subspace enumerated "
      f"({len(spec44.transcript['attempts'])} attempt(s))")
print(f"bound exponents: order {spec44.row.order_exponent}, abelian {spec44.row.abelian_exponent}")
print(f"abelian fraction bound: {spec44.row.bound}")

print("\n-- the rank argument, where enumerate_isotropic applies it --")
print(f"6-dimensional subspaces of F_3^8: {gaussian_binomial(8, 6, 3)}")
start = time.perf_counter()
common = enumerate_isotropic(list(spec44.forms), spec44.k, budget=0)
print(f"common isotropic 6-dim subspaces: {len(common)}, answered under budget 0 in "
      f"{(time.perf_counter() - start) * 1000:.2f} ms: an isotropic W lies in W-perp, "
      f"of dimension 8 - dim W, so dim W <= 4")

print("\n-- n=3, r=7, p=3: k = 3 <= n, certified by enumeration --")
start = time.perf_counter()
spec73 = olshanskii_search(3, 7, 3, seed=1)
elapsed = time.perf_counter() - start
print(f"3-dimensional subspaces of F_3^6 the search decides: "
      f"{spec73.transcript['subspaces_examined_per_attempt']}")
print(f"certified: {spec73.certified} in {elapsed * 1000:.1f} ms "
      f"({len(spec73.transcript['attempts'])} attempt(s))")
print(f"bound exponents: order {spec73.row.order_exponent}, abelian {spec73.row.abelian_exponent}")
