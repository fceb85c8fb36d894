"""End-to-end construction solver: roots of unity, the constant M(n), the delta solver, certificates.

The pipeline, for an odd prime p = 1 mod (n+1) with p > M(n), where M(n)
is n! or (n-1)! by the proof in compute_M:

1. the (n+1)-st roots of unity in (Z/p^n)* are found and lifted to
   integers a_1..a_(n+1); their elementary symmetric functions s_j are all
   divisible by p^n;
2. the product of the line-bundle classes prod (1 + a_j M p omega) is read
   off the s_j by Vieta, 1 + sum s_j (M p)^j omega^j, and its one inverse
   gives integers b_j divisible by M p^(2j);
3. the deltas come from a closed form, with no series product: as
   atilde_{k,j} = atilde_{k,1}^j / j!, c(G_k(delta)) is
   exp(delta p^(2k) atilde_{k,1} omega^k), and the omega^k coefficient of
   log prod_j (1 + a_j M p omega) is T_k = (-1)^(k+1) (M p)^k P_k / k with
   P_k = sum_j a_j^k, so the product of all classes is exactly 1 when
   every delta_k = -T_k / (p^(2k) atilde_{k,1}) divides exactly.  The
   check chern_product_is_one rests on that identity and those divisions,
   and verify checks it at each k, and its own table's exponential shape.
   The direct sum of the n+1 line powers and the n pulled-back bundles then
   has vanishing Chern classes and the closed-form rank n+1 + n(n+1)/2 * n!.

Every certificate records all raw integers, so an independent checker can
re-derive everything, and in ``checks`` the names of the identities
certify established (certdoc.CONSTRUCTION_CHECKS).  certify raises
CertificationError instead of returning a certificate in which one of them
failed, and the CLI then exits 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from . import certdoc, primes
from .exterior import MAX_SYMMETRIZATION_N, atilde_table, construction_notes
from .groups import LambdaRow, lambda_row, max_abelian_exponent
from .series import OmegaSeries, elementary_symmetric


class PreconditionError(ValueError):
    """A caller-supplied parameter violates the construction's hypotheses."""


class CertificationError(RuntimeError):
    """An internal identity that the construction guarantees failed to hold."""


class DivisibilityError(CertificationError):
    """A divisibility step the proofs guarantee failed (bad parameters or a bug)."""


class SearchExhausted(RuntimeError):
    """The prime search examined primes.MAX_PRIME_CANDIDATES candidates without a hit."""


def _is_prime(p: int) -> bool:
    """primes.is_prime, refusing an input beyond its deterministic range as a PreconditionError."""
    try:
        return primes.is_prime(p)
    except ValueError as exc:
        raise PreconditionError(f"cannot decide whether {p} is prime: {exc}") from None


# -- roots of unity --------------------------------------------------------


class RootFamily(NamedTuple):
    """The n+1 solutions of alpha^(n+1) = 1 in (Z/p^n)*, with integer lifts."""

    n: int
    p: int
    residues: tuple[int, ...]
    lifts: tuple[int, ...]
    lift_convention: str

    def validate(self) -> tuple[int, ...]:
        """Check the family's identities; return sigma_1..sigma_n of the lifts, each divisible by p^n.

        Closure is multiplied out, not proved by cyclicity as verify does: a hand-built family's
        p may be undecided (at p = 15, the roots 4 and 11 of x^2 = 1 are not closed).
        """
        n, p = self.n, self.p
        q = p**n
        if len(self.residues) != n + 1 or len(set(self.residues)) != n + 1:
            raise PreconditionError("need n+1 distinct residues")
        for alpha in self.residues:
            if pow(alpha, n + 1, q) != 1:
                raise CertificationError(f"{alpha} is not an (n+1)-st root of unity mod {q}")
        residue_set = set(self.residues)
        if any(a * b % q not in residue_set for a in self.residues for b in self.residues):
            raise CertificationError("residues are not closed under multiplication")
        for a, alpha in zip(self.lifts, self.residues):
            # A lift divisible by p would reduce to a non-unit, never to a root.
            if a % q != alpha % q:
                raise CertificationError(f"lift {a} does not reduce to residue {alpha}")
        s = tuple(elementary_symmetric(list(self.lifts))[:n])
        for j, sigma in enumerate(s, start=1):
            if sigma % q:
                raise CertificationError(
                    f"symmetric function sigma_{j} = {sigma} is not divisible by p^n = {q}"
                )
        return s


def _root_of_unity_generator(n: int, p: int) -> int:
    """An element of order exactly n+1 in (Z/p^n)*, for an odd prime p = 1 mod (n+1).

    The group is cyclic of order phi = (p-1) p^(n-1), so h = g^(phi/(n+1))
    has order dividing n+1 for every unit g, and order exactly n+1 unless
    h^((n+1)/l) = 1 for a prime l dividing n+1.  Only n+1 is factored.  A
    primitive root g mod p gives h = g^((p-1)/(n+1)) of order n+1 mod p,
    so the search ends before g reaches p.
    """
    q = p**n
    exponent = (p - 1) * p ** (n - 1) // (n + 1)
    factors = primes.prime_factors(n + 1)
    g = 2
    while True:
        h = pow(g, exponent, q)
        if all(pow(h, (n + 1) // ell, q) != 1 for ell in factors):
            return h
        g += 1


def find_roots(n: int, p: int, lift: str = "nonneg") -> RootFamily:
    """All n+1 roots of alpha^(n+1) = 1 mod p^n, as the powers of one element of order n+1.

    The cyclic group (Z/p^n)* has exactly one subgroup of order n+1, so
    these powers are all of the roots whichever such element is found.

    ``lift`` picks the integer representatives: "nonneg" takes the least
    nonnegative ones, "symmetric" the ones in (-p^n/2, p^n/2).

    This is the one place the conditions on p (odd, prime, 1 mod n+1) are
    decided.  The family is not validated here: solve_deltas runs
    RootFamily.validate on every family it is given.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if p == 2:
        raise PreconditionError("odd primes only")
    if not _is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if p % (n + 1) != 1:
        raise PreconditionError(f"need p = 1 mod n+1 = {n + 1}, got p = {p}")
    if lift not in ("nonneg", "symmetric"):
        raise PreconditionError(f"unknown lift convention {lift!r}")
    q = p**n
    zeta = _root_of_unity_generator(n, p)
    residues = tuple(sorted(pow(zeta, i, q) for i in range(n + 1)))
    if lift == "nonneg":
        lifts = residues
    else:
        lifts = tuple(a if a <= q // 2 else a - q for a in residues)
    return RootFamily(n=n, p=p, residues=residues, lifts=lifts, lift_convention=lift)


# -- the constant M(n) -----------------------------------------------------


def compute_M(n: int) -> int:
    """The divisibility threshold M(n) in closed form: n! when n = 1 or n is prime, else (n-1)!.

    M(n) is m_1 of the spanning recursion on the atilde table, which
    verify.m_chain runs on its own block-count table: m_n is the least
    positive multiple of atilde_{n,1}, and for i < n,
    m_i = |atilde_{i,1}| * lcm_{2 <= j <= n/i} den(atilde_{i,j} / m_(i+1)).

    Proof.  Let c_i = (i-1)!(n-i)!.  The closed-form table has
    atilde_{i,1} = eps_i c_i and atilde_{i,j} = eps_i^j c_i^j / j!, so
    m_n = c_n and, for i < n, m_i = c_i * lcm_j den(c_i^j / (j! m_(i+1))).

    1. m_i = c_i for 2 <= i <= n, except m_2 = 12 at n = 5.  By downward
       induction on i from m_n = c_n: given m_(i+1) = c_(i+1), since
       c_(i+1) = c_i * i / (n-i) the j-th term is an integer exactly
       when j! * i divides c_i^(j-1) (n-i).  Every j in range has
       n >= j i, so n-i >= (j-1) i >= i.
       - j >= 3: j <= 2(j-1) <= n-i, so j! and i both divide (n-i)!,
         and j! * i divides ((n-i)!)^2, which divides c_i^(j-1).
       - j = 2: the condition is 2i | (i-1)!(n-i)!(n-i).  For i >= 3,
         2 and i are distinct factors of (n-i)!.  For i = 2 it reads
         4 | (n-2)!(n-2), which holds at n = 4 and n >= 6 and fails at
         n = 5, where m_2 = 6 * den(36/8) = 12.
    2. m_1 = n! when n is 1 or prime, and (n-1)! otherwise.  Here
       c_1 = (n-1)!.  At n = 1 there is no term and m_1 = 1.  For n >= 2,
       n != 5, m_2 = c_2 = (n-2)!, so the j-th term is
       (n-1) ((n-1)!)^(j-1) / j!, an integer for every j < n.  The j = n
       term has denominator n / gcd(n, (n-1) ((n-1)!)^(n-2)): that is n
       when n is prime, and 1 when n is composite, since n | (n-1)! for
       composite n >= 6 and gcd(4, 3 * 6^2) = 4.  At n = 5, where
       m_2 = 12, the terms 2 * 24^(j-1) / j! are integers for j = 2, 3, 4,
       and j = 5 has denominator 5, so m_1 = 4! * 5 = 5!.

    At n = 1 both branches give 1, so the code needs only the primality of n.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if n > MAX_SYMMETRIZATION_N:
        raise PreconditionError(f"n={n} exceeds the supported maximum {MAX_SYMMETRIZATION_N}")
    return factorial(n) if primes.is_prime(n) else factorial(n - 1)


# -- the delta solver --------------------------------------------------------


class DeltaSolution(NamedTuple):
    delta: tuple[int, ...]
    b: tuple[int, ...]
    s: tuple[int, ...]


def solve_deltas(n: int, p: int, M: int, roots: RootFamily) -> DeltaSolution:
    """Solve for integers delta_1..delta_n cancelling the line-power product, in closed form.

    roots.validate checks the family and returns its s_j, each divisible
    by p^n.  The line product 1 + sum s_j (M p)^j omega^j is inverted
    once for the b_j, which must be integers divisible by M p^(2j).  Each
    delta_k = -T_k / (p^(2k) atilde_{k,1}) (module docstring), with the
    power sums P_k from running powers of the lifts.  A failed
    divisibility raises DivisibilityError naming k and the values.
    """
    if (roots.n, roots.p) != (n, p):
        raise PreconditionError("root family does not match (n, p)")
    s = roots.validate()

    line_product = OmegaSeries(n, [1, *(s_j * (M * p) ** j for j, s_j in enumerate(s, start=1))])
    inv = line_product.inverse()
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
    deltas: list[int] = []
    powers = [1] * len(roots.lifts)
    for k in range(1, n + 1):
        powers = [x * a for x, a in zip(powers, roots.lifts)]
        log_coeff = Fraction((-1) ** (k + 1) * (M * p) ** k * sum(powers), k)
        denom = p ** (2 * k) * table[(k, 1)]
        delta_k = -log_coeff / denom
        if delta_k.denominator != 1:
            raise DivisibilityError(
                f"k={k}: the omega^{k} coefficient {log_coeff} of the logarithm of the line "
                f"product is not divisible by p^(2k)*atilde_{{{k},1}} = {denom}"
            )
        deltas.append(delta_k.numerator)
    return DeltaSolution(tuple(deltas), tuple(b), s)


# -- certificates -----------------------------------------------------------


def rank_formula(n: int) -> int:
    return n + 1 + n * (n + 1) // 2 * factorial(n)


class ConstructionCertificate(NamedTuple):
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
    rank: int
    tau: int
    tau_note: str
    tau_best_known: int
    #: The abelian-subgroup bound of the group on (n, p) with r factors;
    #: for r > 1 it is conditional on a form family (row.k is not None).
    row: LambdaRow
    group_order: int
    notes: list[str]


def certify(n: int, r: int, p: int, lift: str = "nonneg") -> ConstructionCertificate:
    """Run the full pipeline once and assemble a certificate; raises on any failure.

    Each precondition raises PreconditionError where it is decided: r >= 1
    here; 1 <= n <= MAX_SYMMETRIZATION_N in compute_M; p > M(n) and a group
    order p^(2n+r) that a document can hold here, before any root is sought,
    since both bound the work; p an odd prime = 1 mod (n+1) in find_roots.
    The identities named in certdoc.CONSTRUCTION_CHECKS are decided where
    they are produced, and a failed one raises CertificationError: the root
    family, sigma_j and the lifts being units mod p by RootFamily.validate
    (M is a unit since p > M), b and delta (hence the Chern product, by
    the logarithm identity) in solve_deltas, the r = 1 abelian bound here,
    the rank by its closed form.  p > M(n) is the paper's hypothesis, not a
    consequence of those identities: they hold at primes = 1 mod (n+1) below
    M(n) too, so it is checked here and never derived.
    """
    if r < 1:
        raise PreconditionError("r must be at least 1")
    M = compute_M(n)
    if p <= M:
        raise PreconditionError(f"need p > M(n) = {M}, got p = {p}")
    row = lambda_row(n, r)
    if not certdoc.fits_document(p, row.order_exponent):
        raise PreconditionError(
            f"the group order p^{row.order_exponent} has more than {certdoc.MAX_INT_DIGITS} digits"
        )

    roots = find_roots(n, p, lift=lift)
    solution = solve_deltas(n, p, M, roots)
    if r == 1 and max_abelian_exponent(n, p) != row.abelian_exponent:
        raise CertificationError(
            f"the Heisenberg group at (n, p) = ({n}, {p}) does not have abelian exponent "
            f"{row.abelian_exponent}"
        )
    # n+1 line powers of rank 1 and G_k of rank k*n!, summed in closed form.
    rank = rank_formula(n)

    notes, tau_note = construction_notes(n, lift, conditional=row.k is not None)
    tau_best_known = 2 if n == 1 else rank

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
        rank=rank,
        tau=rank,
        tau_note=tau_note,
        tau_best_known=tau_best_known,
        row=row,
        group_order=p**row.order_exponent,
        notes=notes,
    )


# -- prime search and the bound table ---------------------------------------


def find_prime(n: int, h: int = 1, min_p: int = 1) -> int:
    """Least prime p >= max(min_p, M(n)+1, 3) with p = 1 mod (n+1) and p not dividing h.

    Such primes exist in abundance (primes in the arithmetic progression
    1 mod n+1 avoiding finitely many divisors of h).  The search examines
    the first primes.MAX_PRIME_CANDIDATES members of that progression from
    the start, and raises SearchExhausted when none qualifies.
    """
    M = compute_M(n)
    start = max(min_p, M + 1, 3)
    modulus = n + 1
    first = start + (-(start - 1)) % modulus  # least value >= start congruent to 1
    for candidate in range(first, first + modulus * primes.MAX_PRIME_CANDIDATES, modulus):
        if candidate % 2 and _is_prime(candidate) and h % candidate != 0:
            return candidate
    raise SearchExhausted(
        f"no prime p = 1 mod {modulus} with p > {max(min_p - 1, M)} and p not dividing h "
        f"among the first {primes.MAX_PRIME_CANDIDATES} candidates"
    )


def lambda_table(max_n: int, max_r: int) -> list[LambdaRow]:
    if max_n < 1 or max_r < 1:
        raise PreconditionError("max_n and max_r must be at least 1")
    if max_n * max_r > certdoc.MAX_LAMBDA_TABLE_ROWS:
        raise PreconditionError(
            f"max_n * max_r = {max_n * max_r} rows exceeds the limit {certdoc.MAX_LAMBDA_TABLE_ROWS}"
        )
    return [lambda_row(n, r) for n in range(1, max_n + 1) for r in range(1, max_r + 1)]

