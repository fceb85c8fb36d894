"""Product subgroups of r copies of the Heisenberg group, glued along a family of symplectic forms.

Given invertible matrices A_1..A_r over F_p, the subgroup consists of
the tuples (g_1, ..., g_r) whose projections satisfy A_1^-1 eta(g_1) =
... = A_r^-1 eta(g_r).  It has order p^(2n+r), and two tuples commute
exactly when the common projection vectors are orthogonal for every
pulled-back form omega_j = omega(A_j . , A_j . ).  So if no k-dimensional
subspace is isotropic for all the omega_j simultaneously, abelian
subgroups have at most p^(r + min(k, 2n)) elements: groups.lambda_row
derives that bound, and k, for every layer.

Families certifying that property exist whenever 4n < r(k-1); the search
below samples matrices pseudorandomly (seeded) and never reports a family
as certified on randomized evidence alone: symplectic.enumerate_isotropic
decides each family, by exhaustive search when k <= n and by the rank
argument, which lives there alone, when k > n.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .groups import lambda_row
from .primes import is_prime
from .symplectic import (
    DEFAULT_SUBSPACE_BUDGET,
    MAX_FORM_FAMILY_ENTRIES,
    BudgetExceeded,
    Matrix,
    SymplecticForm,
    enumerate_isotropic,
    gaussian_binomial,
    max_common_isotropic_dim,
    random_invertible,
)

DEFAULT_SEARCH_ATTEMPTS = 20


class ProductSubgroupSpec:
    """A family of matrices defining the product subgroup, its forms, and its verification state.

    The forms are the pullbacks of the standard form by the matrices, so
    they are derived here rather than passed in.  For a square A and an
    invertible M, A^T M A is invertible exactly when A is, so the rank
    check each pulled-back form runs is also the invertibility check of
    its matrix.  ``row`` is the lambda_row at this family's k, which holds
    the structural bound exponents.  ``certified`` and ``transcript`` are
    filled in by the search; the rest is fixed at construction.
    """

    __slots__ = ("n", "p", "r", "k", "mats", "certified", "transcript", "forms", "row")

    def __init__(
        self,
        n: int,
        p: int,
        r: int,
        k: int,
        mats: tuple[Matrix, ...],
        certified: bool,
        transcript: dict | None = None,
    ) -> None:
        if len(mats) != r:
            raise ValueError("need exactly r matrices")
        if not 4 * n < r * (k - 1):
            raise ValueError(f"k={k} violates 4n < r(k-1) at n={n}, r={r}")
        dim = 2 * n
        standard = SymplecticForm.standard(n, p)
        forms = []
        for j, a in enumerate(mats, start=1):
            # pullback zips columns, so a wrong shape would be truncated, not refused.
            if len(a) != dim or any(len(row) != dim for row in a):
                raise ValueError(f"A_{j} is not {dim} x {dim}")
            try:
                forms.append(standard.pullback(a))
            except ValueError:
                raise ValueError(f"A_{j} is not invertible mod {p}") from None
        self.n, self.p, self.r, self.k, self.mats = n, p, r, k, mats
        self.certified = certified
        self.transcript = {} if transcript is None else transcript
        self.forms = tuple(forms)
        self.row = lambda_row(n, r, k)


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
    Each family drawn is decided by enumerate_isotropic, whose budget
    binds only when k <= n, so an over-budget search is refused at the
    first attempt.  A family of more than MAX_FORM_FAMILY_ENTRIES matrix
    entries is refused before any matrix is drawn.  If no family passes
    within the attempt budget the result comes back uncertified, with the transcript recording every attempt;
    existence for small parameters is not guaranteed, so honest
    exhaustion is a valid outcome.
    """
    if r < 2:
        raise ValueError("r must be at least 2 (the single-factor case uses the plain group bound)")
    if n < 1:
        raise ValueError("n must be at least 1")
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    if r * (2 * n) ** 2 > MAX_FORM_FAMILY_ENTRIES:
        raise ValueError(
            f"r * (2n)^2 matrix entries at n={n}, r={r} exceeds the limit {MAX_FORM_FAMILY_ENTRIES}"
        )
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p={p} is not an odd prime")
    k = lambda_row(n, r).k
    total = gaussian_binomial(2 * n, k, p)
    rng = random.Random(seed)
    transcript: dict = {"seed": seed, "attempts": [], "subspaces_examined_per_attempt": total}
    for attempt in range(1, attempts + 1):
        mats = (identity_matrix(2 * n),) + tuple(
            random_invertible(2 * n, p, rng) for _ in range(r - 1)
        )
        spec = ProductSubgroupSpec(n=n, p=p, r=r, k=k, mats=mats, certified=False, transcript=transcript)
        found = len(enumerate_isotropic(spec.forms, k, budget=budget))
        transcript["attempts"].append({"attempt": attempt, "common_isotropic_found": found})
        if not found:
            spec.certified = True
            return spec
    transcript["exhausted"] = True
    return spec


class ProductBound(NamedTuple):
    """The exact bound of a certified family; its structural exponents are the family's row."""

    exact_abelian_exponent: int | None
    max_common_isotropic_dim: int | None


def product_subgroup_bound(
    spec: ProductSubgroupSpec, exact_budget: int = DEFAULT_SUBSPACE_BUDGET
) -> ProductBound:
    """The exact abelian exponent of a certified family, where the budget allows.

    When the enumerations fit the budget, the exact maximal common-isotropic
    dimension d < k is computed by max_common_isotropic_dim, giving the
    exact maximal abelian order p^(r+d) (the preimage of a maximal
    common-isotropic subspace is abelian and attains it).  Otherwise both
    fields are None.
    """
    if not spec.certified:
        raise ValueError("bounds are only reported for certified families")
    try:
        d_exact = max_common_isotropic_dim(spec.forms, spec.k, budget=exact_budget)
    except BudgetExceeded:
        d_exact = None
    return ProductBound(
        exact_abelian_exponent=None if d_exact is None else spec.r + d_exact,
        max_common_isotropic_dim=d_exact,
    )
