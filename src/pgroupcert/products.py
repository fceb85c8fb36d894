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
as certified on randomized evidence alone: symplectic.enumerate_isotropic
decides each family, by exhaustive search when k <= n and by the rank
argument, which lives there alone, when k > n.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

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


def isotropy_free_dimension(n: int, r: int) -> int:
    """The target dimension k = floor(4n/r) + 2; always satisfies 4n < r(k-1).

    When r divides 4n this is exactly 2 + 4n/r; otherwise it is the
    smallest integer choice compatible with the same inequality.
    """
    k = 4 * n // r + 2
    assert 4 * n < r * (k - 1)
    return k


class LambdaRow(NamedTuple):
    """One (n, r) entry of the abelian-fraction bound table.

    ``bound`` = abelian_exponent / order_exponent bounds
    log|A|/log|Gamma| over abelian subgroups A of a group of order
    p^order_exponent.  lambda_row is the one place these numbers are
    derived.  ``exponent_form_exact`` records whether r | 4n, in which
    case the standard choice of k makes r + k exactly 2 + r + 4n/r.
    """

    n: int
    r: int
    k: int | None
    abelian_exponent: int
    order_exponent: int
    bound: Fraction
    exponent_form_exact: bool


def lambda_row(n: int, r: int, k: int | None = None) -> LambdaRow:
    """The abelian-subgroup bound for r glued copies of the group on (n, p).

    The group has order p^(2n+r).  For r = 1 it is the Heisenberg group
    itself, whose abelian subgroups have at most p^(n+1) elements, and k
    is None.  For r > 1 the bound assumes a form family with no common
    isotropic k-space, k = isotropy_free_dimension(n, r) unless given,
    and abelian subgroups then have at most p^(r + min(k, 2n)) elements.
    """
    if r == 1:
        abelian, k = n + 1, None
    else:
        if k is None:
            k = isotropy_free_dimension(n, r)
        abelian = r + min(k, 2 * n)
    order = 2 * n + r
    return LambdaRow(
        n=n,
        r=r,
        k=k,
        abelian_exponent=abelian,
        order_exponent=order,
        bound=Fraction(abelian, order),
        exponent_form_exact=(4 * n) % r == 0,
    )


class ProductSubgroupSpec:
    """A family of matrices defining the product subgroup, its forms, and its verification state.

    The forms are the pullbacks of the standard form by the matrices, so
    they are derived here rather than passed in.  For a square A and an
    invertible M, A^T M A is invertible exactly when A is, so the rank
    check each pulled-back form runs is also the invertibility check of
    its matrix.  ``certified`` and ``transcript`` are filled in by the
    search; the rest is fixed at construction.
    """

    __slots__ = ("n", "p", "r", "k", "mats", "certified", "transcript", "forms")

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

    @property
    def order_exponent(self) -> int:
        return lambda_row(self.n, self.r, self.k).order_exponent

    @property
    def abelian_exponent(self) -> int:
        """Structural bound exponent, from lambda_row at this family's k."""
        return lambda_row(self.n, self.r, self.k).abelian_exponent


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
    k = isotropy_free_dimension(n, r)
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
    dimension d < k is computed as well, by max_common_isotropic_dim,
    giving the exact maximal abelian order p^(r+d) (the preimage of a
    maximal common-isotropic subspace is abelian and attains it).
    """
    if not spec.certified:
        raise ValueError("bounds are only reported for certified families")
    try:
        d_exact = max_common_isotropic_dim(spec.forms, spec.k, budget=exact_budget)
    except BudgetExceeded:
        d_exact = None
    return ProductBound(
        order_exponent=spec.order_exponent,
        abelian_exponent=spec.abelian_exponent,
        exact_abelian_exponent=None if d_exact is None else spec.r + d_exact,
        max_common_isotropic_dim=d_exact,
    )
