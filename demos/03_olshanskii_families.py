"""Families of symplectic forms with no common isotropic subspace, verified exhaustively.

Gluing r Heisenberg factors along invertible matrices A_1..A_r produces a
group of order p^(2n+r) whose abelian subgroups project to subspaces
isotropic for every pulled-back form simultaneously.  If no k-dimensional
subspace survives all r forms, abelian subgroups top out at p^(r+k).
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
print(f"group order exponent {bound.order_exponent}, structural abelian exponent "
      f"{bound.abelian_exponent}")
print(f"exact: max common-isotropic dimension {bound.max_common_isotropic_dim} "
      f"=> max abelian order is p^{bound.exact_abelian_exponent}")

print("\n-- the flagship case: n=4, r=4, p=3 --")
count = gaussian_binomial(8, 6, 3)
print(f"6-dimensional subspaces of F_3^8 the search must decide: {count}")
start = time.perf_counter()
spec44 = olshanskii_search(4, 4, 3, seed=7)
elapsed = time.perf_counter() - start
print(f"certified: {spec44.certified} in {elapsed:.1f}s "
      f"({len(spec44.transcript['attempts'])} attempt(s))")
print(f"bound exponents: order {spec44.order_exponent}, abelian {spec44.abelian_exponent}")
print(f"abelian fraction bound: {spec44.abelian_exponent}/{spec44.order_exponent}")

print("\n-- re-verify the family from its matrices alone --")
start = time.perf_counter()
common = enumerate_isotropic(list(spec44.forms), spec44.k)
print(f"common isotropic 6-dim subspaces found: {len(common)} "
      f"({time.perf_counter() - start:.1f}s)")
