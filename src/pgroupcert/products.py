"""Product subgroups of r copies of the Heisenberg group, glued along a family of symplectic forms.

Given invertible matrices A_1..A_r over F_p, the subgroup consists of
the tuples (g_1, ..., g_r) whose projections satisfy A_1^-1 eta(g_1) =
... = A_r^-1 eta(g_r).  It has order p^(2n+r), and two tuples commute
exactly when the common projection vectors are orthogonal for every
pulled-back form omega_j = omega(A_j . , A_j . ).  So if no k-dimensional
subspace is isotropic for all the omega_j simultaneously, abelian
subgroups have at most p^(r+k) elements.

Families certifying that property exist whenever 4n < r(k-1); the search
below samples matrices pseudorandomly (seeded) and never reports a family
as certified on randomized evidence alone.  When k > n the certificate is
the rank argument: each omega_j is nondegenerate (the spec proves it by
rank), and a nondegenerate form on F_p^(2n) has no isotropic subspace of
dimension above n, because W lies in W-perp and dim W-perp = 2n - dim W.
When k <= n the family is verified by exhaustive subspace enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .primes import is_prime
from .symplectic import (
    DEFAULT_SUBSPACE_BUDGET,
    BudgetExceeded,
    Matrix,
    SymplecticForm,
    enumerate_isotropic,
    gaussian_binomial,
    random_invertible,
)

DEFAULT_SEARCH_ATTEMPTS = 20


def isotropy_free_dimension(n: int, r: int) -> int:
    """The target dimension k = floor(4n/r) + 2; always satisfies 4n < r(k-1).

    When r divides 4n this is exactly 2 + 4n/r; otherwise it is the
    smallest integer choice compatible with the same inequality.
    """
    k = 4 * n // r + 2
    assert 4 * n < r * (k - 1)
    return k


@dataclass
class ProductSubgroupSpec:
    """A family of matrices defining the product subgroup, its forms, and its verification state.

    The forms are the pullbacks of the standard form by the matrices, so
    they are derived here rather than passed in.  For a square A and an
    invertible M, A^T M A is invertible exactly when A is, so the rank
    check each pulled-back form runs is also the invertibility check of
    its matrix.
    """

    n: int
    p: int
    r: int
    k: int
    mats: tuple[Matrix, ...]
    certified: bool
    transcript: dict = field(default_factory=dict)
    forms: tuple[SymplecticForm, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.mats) != self.r:
            raise ValueError("need exactly r matrices")
        if not 4 * self.n < self.r * (self.k - 1):
            raise ValueError(f"k={self.k} violates 4n < r(k-1) at n={self.n}, r={self.r}")
        dim = 2 * self.n
        standard = SymplecticForm.standard(self.n, self.p)
        forms = []
        for j, a in enumerate(self.mats, start=1):
            # pullback zips columns, so a wrong shape would be truncated, not refused.
            if len(a) != dim or any(len(row) != dim for row in a):
                raise ValueError(f"A_{j} is not {dim} x {dim}")
            try:
                forms.append(standard.pullback(a))
            except ValueError:
                raise ValueError(f"A_{j} is not invertible mod {self.p}") from None
        self.forms = tuple(forms)

    @property
    def order_exponent(self) -> int:
        return 2 * self.n + self.r

    @property
    def abelian_exponent(self) -> int:
        """Structural bound exponent: r + min(k, 2n)."""
        return self.r + min(self.k, 2 * self.n)


def identity_matrix(dim: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def olshanskii_search(
    n: int,
    r: int,
    p: int,
    seed: int = 0,
    budget: int = DEFAULT_SUBSPACE_BUDGET,
    attempts: int = DEFAULT_SEARCH_ATTEMPTS,
) -> ProductSubgroupSpec:
    """Search for r symplectic forms on F_p^(2n) with no common k-dimensional isotropic subspace.

    A_1 is always the identity; the rest are sampled from the seeded rng.
    When k > n the first family drawn is certified by nondegeneracy, no
    subspace is enumerated and the budget does not apply; otherwise
    certification is by exhaustive enumeration, refused up front when
    the Gaussian binomial exceeds the budget.  If no family
    passes within the attempt budget the result comes back uncertified,
    with the transcript recording every attempt; existence for small
    parameters is not guaranteed, so honest exhaustion is a valid
    outcome.
    """
    if r < 2:
        raise ValueError("r must be at least 2 (the single-factor case uses the plain group bound)")
    if n < 1:
        raise ValueError("n must be at least 1")
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p={p} is not an odd prime")
    k = isotropy_free_dimension(n, r)
    total = gaussian_binomial(2 * n, k, p)
    if k <= n and total > budget:
        raise BudgetExceeded(total, budget)
    rng = random.Random(seed)
    transcript: dict = {"seed": seed, "attempts": [], "subspaces_examined_per_attempt": total}
    for attempt in range(1, attempts + 1):
        mats = (identity_matrix(2 * n),) + tuple(
            random_invertible(2 * n, p, rng) for _ in range(r - 1)
        )
        spec = ProductSubgroupSpec(n=n, p=p, r=r, k=k, mats=mats, certified=False, transcript=transcript)
        found = 0 if k > n else len(enumerate_isotropic(list(spec.forms), k, budget=budget))
        transcript["attempts"].append({"attempt": attempt, "common_isotropic_found": found})
        if not found:
            spec.certified = True
            return spec
    transcript["exhausted"] = True
    return spec


@dataclass(frozen=True)
class ProductBound:
    order_exponent: int
    abelian_exponent: int
    exact_abelian_exponent: int | None
    max_common_isotropic_dim: int | None


def product_subgroup_bound(
    spec: ProductSubgroupSpec, exact_budget: int = DEFAULT_SUBSPACE_BUDGET
) -> ProductBound:
    """Bound exponents (order, abelian) for a certified family.

    Structurally the abelian exponent is r + min(k, 2n).  When the
    enumerations fit the budget, the exact maximal common-isotropic
    dimension d is computed as well, giving the exact maximal abelian
    order p^(r+d) (the preimage of a maximal common-isotropic subspace
    is abelian and attains it).  The search for d starts at min(k-1, n):
    no isotropic space lies above n, and since gb(2n, d, p) is largest
    at d = n, a budget that admits n admits every larger d as well.
    """
    if not spec.certified:
        raise ValueError("bounds are only reported for certified families")
    d_exact: int | None = None
    for d in range(min(spec.k - 1, spec.n), -1, -1):
        try:
            found = enumerate_isotropic(list(spec.forms), d, budget=exact_budget)
        except BudgetExceeded:
            d_exact = None
            break
        if found:
            d_exact = d
            break
    return ProductBound(
        order_exponent=spec.order_exponent,
        abelian_exponent=spec.abelian_exponent,
        exact_abelian_exponent=None if d_exact is None else spec.r + d_exact,
        max_common_isotropic_dim=d_exact,
    )
