"""End-to-end construction solver: roots of unity, the constant M(n), the delta solver, certificates.

The pipeline, for an odd prime p = 1 mod (n+1) with p > M(n):

1. the (n+1)-st roots of unity in (Z/p^n)* are found and lifted to
   integers a_1..a_(n+1); their elementary symmetric functions are all
   divisible by p^n;
2. the product of the line-bundle classes prod (1 + a_j M p omega) is
   inverted, producing integers b_j divisible by M p^(2j);
3. an ascending elimination solves for integers delta_1..delta_n with
   prod c(G_j(delta_j)) = 1 + sum b_j omega^j, asserting integrality at
   every division;
4. the full product of total Chern classes is then exactly 1, so the
   direct sum of the n+1 line powers and the n pulled-back bundles has
   vanishing Chern classes, rank n+1 + n(n+1)/2 * n!.

Every certificate records all raw integers plus the outcome of each
check, so an independent checker can re-derive everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from . import certdoc, primes
from .exterior import MAX_SYMMETRIZATION_N, atilde_table, omega_power_table
from .groups import max_abelian_exponent
from .products import LambdaRow, lambda_row
from .series import (
    OmegaSeries,
    chern_G,
    direct_sum,
    line_power_chern,
)

DEFAULT_PRIME_CEILING = 10**6


class PreconditionError(ValueError):
    """A caller-supplied parameter violates the construction's hypotheses."""


class CertificationError(RuntimeError):
    """An internal identity that the construction guarantees failed to hold."""


class DivisibilityError(CertificationError):
    """A divisibility step the proofs guarantee failed (bad parameters or a bug)."""


class SearchExhausted(RuntimeError):
    """The prime search hit its ceiling without a hit."""


def _is_prime(p: int) -> bool:
    """primes.is_prime, refusing an input beyond its deterministic range as a PreconditionError."""
    try:
        return primes.is_prime(p)
    except ValueError as exc:
        raise PreconditionError(f"cannot decide whether {p} is prime: {exc}") from None


# -- roots of unity --------------------------------------------------------


@dataclass(frozen=True)
class RootFamily:
    """The n+1 solutions of alpha^(n+1) = 1 in (Z/p^n)*, with integer lifts."""

    n: int
    p: int
    residues: tuple[int, ...]
    lifts: tuple[int, ...]
    lift_convention: str

    def validate(self) -> None:
        n, p = self.n, self.p
        q = p**n
        if len(self.residues) != n + 1 or len(set(self.residues)) != n + 1:
            raise PreconditionError("need n+1 distinct residues")
        for alpha in self.residues:
            if pow(alpha, n + 1, q) != 1:
                raise CertificationError(f"{alpha} is not an (n+1)-st root of unity mod {q}")
        residue_set = set(self.residues)
        for a in self.residues:
            for b in self.residues:
                if a * b % q not in residue_set:
                    raise CertificationError("residues are not closed under multiplication")
        for a, alpha in zip(self.lifts, self.residues):
            if a % q != alpha % q:
                raise CertificationError(f"lift {a} does not reduce to residue {alpha}")
            if a % p == 0:
                raise CertificationError(f"lift {a} is divisible by p={p}")
        for j in range(1, n + 1):
            sigma = elementary_symmetric(list(self.lifts))[j - 1]
            if sigma % q:
                raise CertificationError(
                    f"symmetric function sigma_{j} = {sigma} is not divisible by p^n = {q}"
                )


def _primitive_root_mod_prime_power(p: int, n: int) -> int:
    """A generator of the cyclic group (Z/p^n)*, p an odd prime.

    The primes dividing phi = (p-1) p^(n-1) are those of p-1, and p itself
    when n >= 2; factoring p-1 alone keeps trial division from running up
    to p on the leftover p^2 when n >= 3.
    """
    phi = (p - 1) * p ** (n - 1)
    factors = primes.prime_factors(p - 1) + ([p] if n >= 2 else [])
    g = 2
    while True:
        if g % p and all(pow(g, phi // ell, p**n) != 1 for ell in factors):
            return g
        g += 1


def find_roots(n: int, p: int, lift: str = "nonneg") -> RootFamily:
    """All n+1 roots of alpha^(n+1) = 1 mod p^n, via a generator of the unit group.

    ``lift`` picks the integer representatives: "nonneg" takes the least
    nonnegative ones, "symmetric" the ones in (-p^n/2, p^n/2).
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if p == 2:
        raise PreconditionError("odd primes only")
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if p % (n + 1) != 1:
        raise PreconditionError(f"need p = 1 mod n+1, got p={p}, n+1={n + 1}")
    if lift not in ("nonneg", "symmetric"):
        raise PreconditionError(f"unknown lift convention {lift!r}")
    q = p**n
    phi = (p - 1) * p ** (n - 1)
    g = _primitive_root_mod_prime_power(p, n)
    zeta = pow(g, phi // (n + 1), q)
    residues = tuple(sorted(pow(zeta, i, q) for i in range(n + 1)))
    if lift == "nonneg":
        lifts = residues
    else:
        lifts = tuple(a if a <= q // 2 else a - q for a in residues)
    family = RootFamily(n=n, p=p, residues=residues, lifts=lifts, lift_convention=lift)
    family.validate()
    # generators alpha of the cyclic root group have alpha^j - 1 invertible
    # mod p^n for 1 <= j <= n; that makes sigma_j vanish mod p^n.  Roots of
    # smaller order (such as -1 when n+1 is even) do not satisfy this,
    # which is why the check is restricted to generators.
    for alpha in generators_of_root_group(family):
        for j in range(1, n + 1):
            if gcd(pow(alpha, j, q) - 1, p) != 1:
                raise CertificationError(
                    f"alpha^{j} - 1 is not a unit mod p^n for generator alpha={alpha}"
                )
    return family


def generators_of_root_group(family: RootFamily) -> list[int]:
    """Residues of multiplicative order exactly n+1 (generators of the cyclic root group)."""
    n, q = family.n, family.p**family.n
    out = []
    for alpha in family.residues:
        order = 1
        power = alpha % q
        while power != 1:
            power = power * alpha % q
            order += 1
        if order == n + 1:
            out.append(alpha)
    return out


# -- the constant M(n) -----------------------------------------------------


def _least_positive_multiple(value: Fraction) -> int:
    """Least positive integer m with m/value an integer."""
    return abs(value.numerator)


@lru_cache(maxsize=None)
def _m_chain(n: int) -> tuple[int, ...]:
    """Witnesses (m_1, ..., m_n) of the spanning recursion, minimal at each step.

    m_n is the least positive integer multiple of atilde_{n,1}; for
    i < n, m_i' is the least positive multiple of atilde_{i,1}, m_i'' is
    the least positive integer with m_i'' * atilde_{i,j} in m_(i+1) Z for
    every j > 1, and m_i = m_i' * m_i''.
    """
    table = atilde_table(n)
    chain = [0] * (n + 1)
    chain[n] = _least_positive_multiple(table[(n, 1)])
    for i in range(n - 1, 0, -1):
        m_prime = _least_positive_multiple(table[(i, 1)])
        m_doubleprime = 1
        for j in range(2, n // i + 1):
            ratio = table[(i, j)] / chain[i + 1]
            m_doubleprime = m_doubleprime * ratio.denominator // gcd(
                m_doubleprime, ratio.denominator
            )
        chain[i] = m_prime * m_doubleprime
    return tuple(chain[1:])


def compute_M(n: int) -> int:
    """The divisibility threshold M(n); deterministic in n alone (no p involved)."""
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if n > MAX_SYMMETRIZATION_N:
        raise PreconditionError(f"n={n} exceeds the supported maximum {MAX_SYMMETRIZATION_N}")
    return _m_chain(n)[0]


# -- symmetric functions and the delta solver ------------------------------


def elementary_symmetric(values: list[int]) -> list[int]:
    """sigma_1, ..., sigma_len(values)."""
    coeffs = [1]
    for v in values:
        coeffs = [c + v * (coeffs[i - 1] if i else 0) for i, c in enumerate(coeffs)] + [
            v * coeffs[-1]
        ]
    return coeffs[1:]


@dataclass(frozen=True)
class DeltaSolution:
    delta: tuple[int, ...]
    b: tuple[int, ...]
    s: tuple[int, ...]


def solve_deltas(n: int, p: int, M: int, roots: RootFamily) -> DeltaSolution:
    """Solve for integers delta_1..delta_n cancelling the line-power product.

    Checks, in order: p^n divides each symmetric function s_j; the
    inverse-series coefficients b_j are divisible by M p^(2j); each
    elimination step divides exactly.  Any failure raises
    DivisibilityError naming the step and the offending values.
    """
    if (roots.n, roots.p) != (n, p):
        raise PreconditionError("root family does not match (n, p)")
    roots.validate()
    q = p**n
    sigma = elementary_symmetric(list(roots.lifts))
    s = tuple(sigma[:n])
    for j, sj in enumerate(s, start=1):
        if sj % q:
            raise DivisibilityError(
                f"s_{j} = {sj} is not divisible by p^n = {q} (n={n}, p={p})"
            )

    product = OmegaSeries.one(n)
    for a in roots.lifts:
        product = product * OmegaSeries.from_dict(n, {0: 1, 1: a * M * p})
    expected = OmegaSeries.from_dict(
        n, {0: 1, **{j: s[j - 1] * M**j * p**j for j in range(1, n + 1)}}
    )
    if product != expected:
        raise CertificationError(
            "product of line classes disagrees with its symmetric-function expansion"
        )

    inv = product.inverse()
    b = []
    for j in range(1, n + 1):
        coeff = inv.coefficient(j)
        if coeff.denominator != 1:
            raise CertificationError(f"b_{j} = {coeff} is not an integer")
        b.append(coeff.numerator)
        modulus = M * p ** (2 * j)
        if b[-1] % modulus:
            raise DivisibilityError(
                f"b_{j} = {b[-1]} is not divisible by M*p^(2j) = {modulus}"
            )

    table = atilde_table(n)
    residual = inv
    deltas: list[int] = []
    for i in range(1, n + 1):
        alpha_i = residual.coefficient(i)
        denom = Fraction(p) ** (2 * i) * table[(i, 1)]
        delta_i = alpha_i / denom
        if delta_i.denominator != 1:
            raise DivisibilityError(
                f"step i={i}: residual coefficient {alpha_i} is not divisible by "
                f"p^(2i)*atilde_{{{i},1}} = {denom}"
            )
        deltas.append(delta_i.numerator)
        residual = residual * chern_G(n, i, deltas[-1], p).chern.inverse()
        for j in range(1, i + 1):
            if residual.coefficient(j) != 0:
                raise CertificationError(
                    f"step i={i} left a nonzero coefficient at omega^{j}"
                )
    if not residual.is_one():
        raise CertificationError(f"delta elimination left residual {residual!r}")
    return DeltaSolution(delta=tuple(deltas), b=tuple(b), s=s)


# -- certificates -----------------------------------------------------------


def rank_formula(n: int) -> int:
    return n + 1 + n * (n + 1) // 2 * factorial(n)


#: Facts the construction consumes but cannot verify by finite computation.
CITED_ASSUMPTIONS = (
    "the first Chern class of the base line bundle over the 2n-torus equals p*omega "
    "(a curvature computation, consumed as input)",
    "a complex vector bundle over the torus with vanishing Chern classes is stably "
    "trivial (K-theory input); the stabilization padding is not made explicit, so "
    "tau is reported as the rank of the constructed bundle modulo that padding",
    "rank-k building-block bundles with top Chern class delta*(k-1)! times the "
    "k-fold monomial class exist (clutching construction, consumed as input)",
    "the equivariant smooth-action construction promoting the bundle data to group "
    "actions on products of the torus with another manifold is consumed as input",
)


@dataclass
class ConstructionCertificate:
    n: int
    r: int
    p: int
    M: int
    lift_convention: str
    residues: tuple[int, ...]
    a: tuple[int, ...]
    s: tuple[int, ...]
    b: tuple[int, ...]
    delta: tuple[int, ...]
    atilde: dict[tuple[int, int], Fraction]
    chern_product: OmegaSeries
    rank: int
    tau: int
    tau_note: str
    tau_best_known: int
    group_order_exponent: int
    group_order: int
    abelian_exponent: int
    abelian_bound_conditional: bool
    lambda_gamma: Fraction
    checks: dict[str, bool]
    notes: list[str] = field(default_factory=list)
    assumptions: tuple[str, ...] = CITED_ASSUMPTIONS

    @property
    def overall_pass(self) -> bool:
        return all(self.checks.values())


def _omega_power_notes(n: int) -> list[str]:
    notes = []
    rows = omega_power_table(n)
    mismatches = [row.k for row in rows if not row.matches_closed_form]
    if mismatches:
        notes.append(
            "omega-power coefficients come from direct expansion "
            f"(k! times sign (-1)^(k(k-1)/2) on sorted monomials); the commonly quoted "
            f"closed form (-1)^k * n!/(n-k)! disagrees at k={mismatches} and is "
            "recorded for comparison only"
        )
    notes.append(
        "the table atilde_{k,j} = ((k-1)!)^j * a_{k,j} absorbs the (k-1)! factor "
        "carried by the top Chern class of each rank-k building block; the raw "
        "symmetrization coefficients a_{k,j} are the unscaled ones"
    )
    return notes


def _fits_document(p: int, e: int) -> bool:
    """p**e (p >= 2) has at most certdoc.MAX_INT_DIGITS digits.

    p**e has at least e * (bit_length(p) - 1) bits, so an exponent too large
    for the limit is refused before the power is taken.
    """
    limit = 10**certdoc.MAX_INT_DIGITS
    if e * (p.bit_length() - 1) >= limit.bit_length():
        return False
    return p**e < limit


def certify(n: int, r: int, p: int, lift: str = "nonneg") -> ConstructionCertificate:
    """Run the full pipeline and assemble a certificate; raises on any failure.

    Preconditions (PreconditionError): n, r >= 1; p an odd prime with
    p = 1 mod (n+1) and p > M(n); a group order p^(2n+r) that a document
    can hold.  Internal identities (CertificationError) abort with the
    failing equation.
    """
    if n < 1 or r < 1:
        raise PreconditionError("n and r must be at least 1")
    M = compute_M(n)
    if p == 2:
        raise PreconditionError("odd primes only")
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if p % (n + 1) != 1:
        raise PreconditionError(f"need p = 1 mod n+1 = {n + 1}, got p = {p}")
    if p <= M:
        raise PreconditionError(f"need p > M(n) = {M}, got p = {p}")
    row = lambda_row(n, r)
    if not _fits_document(p, row.order_exponent):
        raise PreconditionError(
            f"the group order p^{row.order_exponent} has more than {certdoc.MAX_INT_DIGITS} digits"
        )

    roots = find_roots(n, p, lift=lift)
    solution = solve_deltas(n, p, M, roots)

    lines = [line_power_chern(n, p, a_j * M) for a_j in roots.lifts]
    pulled = [chern_G(n, j, solution.delta[j - 1], p) for j in range(1, n + 1)]
    total = direct_sum(lines + pulled)

    checks: dict[str, bool] = {}
    if not total.chern.is_one():
        raise CertificationError(
            f"product of total Chern classes is not 1: {total.chern!r}"
        )
    checks["chern_product_is_one"] = True

    q = p**n
    sigma = elementary_symmetric(list(roots.lifts))
    checks["sigma_divisible_by_p_pow_n"] = all(sigma[j] % q == 0 for j in range(n))
    checks["b_divisible_by_M_p_pow_2j"] = all(
        solution.b[j - 1] % (M * p ** (2 * j)) == 0 for j in range(1, n + 1)
    )
    checks["deltas_integral"] = True  # solve_deltas would have raised otherwise
    checks["p_coprime_to_aM"] = all(a % p for a in roots.lifts) and M % p != 0
    checks["roots_closed_under_multiplication"] = True  # validated in find_roots

    expected_rank = rank_formula(n)
    if total.rank != expected_rank:
        raise CertificationError(
            f"rank {total.rank} does not match the formula value {expected_rank}"
        )
    checks["rank_formula"] = True

    if r == 1 and max_abelian_exponent(n, p) != row.abelian_exponent:
        raise CertificationError(
            f"the Heisenberg group at (n, p) = ({n}, {p}) does not have abelian exponent "
            f"{row.abelian_exponent}"
        )
    checks["abelian_bound_recorded"] = True
    # The bound for r > 1 rests on a form family with no common isotropic k-space.
    conditional = row.k is not None

    notes = _omega_power_notes(n)
    if conditional:
        notes.append(
            "the abelian bound for r > 1 assumes a certified family of symplectic "
            "forms with no common isotropic subspace of the target dimension; "
            "produce and verify one with the olshanskii subcommand"
        )
    if lift == "nonneg":
        notes.append("lifts are least nonnegative representatives")
    else:
        notes.append("lifts are symmetric representatives in (-p^n/2, p^n/2)")

    tau = total.rank
    tau_best_known = 2 if n == 1 else tau
    if n == 1:
        notes.append(
            "for n = 1 a direct rank-2 construction exists, so tau(1) = 2 beats "
            "the generic rank 3; both values are recorded"
        )

    return ConstructionCertificate(
        n=n,
        r=r,
        p=p,
        M=M,
        lift_convention=lift,
        residues=roots.residues,
        a=roots.lifts,
        s=solution.s,
        b=solution.b,
        delta=solution.delta,
        atilde=atilde_table(n),
        chern_product=total.chern,
        rank=total.rank,
        tau=tau,
        tau_note="rank of the constructed bundle; stable-triviality padding not included",
        tau_best_known=tau_best_known,
        group_order_exponent=row.order_exponent,
        group_order=p**row.order_exponent,
        abelian_exponent=row.abelian_exponent,
        abelian_bound_conditional=conditional,
        lambda_gamma=row.bound,
        checks=checks,
        notes=notes,
    )


# -- prime search and the bound table ---------------------------------------


def find_prime(
    n: int, h: int = 1, min_p: int = 1, ceiling: int = DEFAULT_PRIME_CEILING
) -> int:
    """Least prime p >= max(min_p, M(n)+1, 3) with p = 1 mod (n+1) and p not dividing h.

    Such primes exist in abundance (primes in the arithmetic progression
    1 mod n+1 avoiding finitely many divisors of h); the ceiling only
    guards against runaway loops and raises SearchExhausted when hit.
    """
    M = compute_M(n)
    start = max(min_p, M + 1, 3)
    modulus = n + 1
    candidate = start + (-(start - 1)) % modulus  # least value >= start congruent to 1
    while candidate <= ceiling:
        if candidate % 2 and _is_prime(candidate) and h % candidate != 0:
            return candidate
        candidate += modulus
    raise SearchExhausted(
        f"no prime p = 1 mod {modulus} with p > {max(min_p - 1, M)} and p coprime to "
        f"{h} below the ceiling {ceiling}"
    )


def lambda_table(max_n: int, max_r: int) -> list[LambdaRow]:
    if max_n < 1 or max_r < 1:
        raise PreconditionError("max_n and max_r must be at least 1")
    return [lambda_row(n, r) for n in range(1, max_n + 1) for r in range(1, max_r + 1)]


def epsilon_witness(rows: list[LambdaRow], epsilon: Fraction) -> LambdaRow | None:
    """The first row (ordered by n, then r) whose bound is strictly below epsilon."""
    for row in sorted(rows, key=lambda row: (row.n, row.r)):
        if row.bound < epsilon:
            return row
    return None
