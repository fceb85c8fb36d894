"""Truncated polynomial ring Q[omega]/(omega^(n+1)) and the Chern classes of the construction.

Total Chern classes of every bundle in the construction live in the
subring generated by omega, so an OmegaSeries, the coefficient vector
c_0..c_n, is the one type for them: a line power's class is
1 + c_1 omega, chern_G builds the class of a pulled-back symmetrized
bundle, and direct_sum multiplies classes.  Ranks are not carried; the
construction's rank is the closed form solver.rank_formula.  The product
of the line classes 1 + a_j x is 1 + sum_j sigma_j x^j, with sigma_j from
elementary_symmetric.  Neither solver nor verifier builds the classes: both
go through the logarithm, and tests/chern_oracle.py multiplies them out.

A series is the total Chern class of an actual bundle exactly when
c_0 = 1 and the underlying cohomology class is integral; since omega^j
expands to j! times a sum of monomials (up to sign), that integrality
test is ``j! * c_j`` being an integer for every j, not integrality of
the omega-coefficients themselves (those are genuinely rational: the
omega^2 coefficient of a rank-2 symmetrized bundle at n=2 is delta^2/2).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .exterior import atilde_table

Rational = int | Fraction


class OmegaSeries:
    """c_0 + c_1*omega + ... + c_n*omega^n with exact rational coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[Rational]):
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != n + 1:
            raise ValueError(f"need exactly {n + 1} coefficients, got {len(cs)}")
        self.n = n
        self.coeffs = cs

    @classmethod
    def one(cls, n: int) -> "OmegaSeries":
        return cls(n, [1] + [0] * n)

    @classmethod
    def from_dict(cls, n: int, entries: dict[int, Rational]) -> "OmegaSeries":
        coeffs = [Fraction(0)] * (n + 1)
        for j, c in entries.items():
            if not 0 <= j <= n:
                raise ValueError(f"omega^{j} vanishes at truncation order {n}")
            coeffs[j] = Fraction(c)
        return cls(n, coeffs)

    def coefficient(self, j: int) -> Fraction:
        return self.coeffs[j] if 0 <= j <= self.n else Fraction(0)

    def __mul__(self, other: "OmegaSeries") -> "OmegaSeries":
        if not isinstance(other, OmegaSeries):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mismatched truncation orders {self.n} and {other.n}")
        n = self.n
        out = [Fraction(0)] * (n + 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j in range(n + 1 - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] += ci * cj
        return OmegaSeries(n, out)

    def inverse(self) -> "OmegaSeries":
        """Inverse of 1 + s_1 omega + ... + s_n omega^n, exact.

        Its coefficients follow from c_0 = 1 and c_j = -sum_{i=1..j} s_i c_(j-i),
        the omega^j coefficient of the product set to zero.
        """
        if self.coeffs[0] != 1:
            raise ValueError(f"constant term must be 1 to invert, got {self.coeffs[0]}")
        s = self.coeffs
        c = [Fraction(1)]
        for j in range(1, self.n + 1):
            c.append(-sum(s[i] * c[j - i] for i in range(1, j + 1) if s[i]))
        return OmegaSeries(self.n, c)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_integral_class(self) -> bool:
        """Whether the represented cohomology class is integral.

        omega^j is j! times a signed sum of basis monomials, so the class
        c_j * omega^j is integral iff j! * c_j is an integer.
        """
        return all(
            (Fraction(factorial(j)) * c).denominator == 1
            for j, c in enumerate(self.coeffs)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OmegaSeries):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*w")
            else:
                parts.append(f"{c}*w^{j}")
        return " + ".join(parts) if parts else "0"


def elementary_symmetric(values: list[int]) -> list[int]:
    """sigma_1, ..., sigma_len(values): prod (1 + v x) = 1 + sum_j sigma_j x^j."""
    coeffs = [1]
    for v in values:
        coeffs = [c + v * (coeffs[i - 1] if i else 0) for i, c in enumerate(coeffs)] + [
            v * coeffs[-1]
        ]
    return coeffs[1:]


def chern_G(n: int, k: int, delta: int, p: int) -> OmegaSeries:
    """c(G_k(delta)): coefficient delta^j * p^(2jk) * atilde_{k,j} at omega^(jk).

    G_k(delta) is the symmetrized rank-k*n! bundle pulled back along the
    p-power self-map of the torus, which scales degree-2m classes by p^(2m);
    at p = 1 it is the symmetrized bundle itself.  The atilde values come
    from the closed-form symmetrization table; the result is checked to be
    an integral class (it always is for integer delta, since it is a
    product of integral classes).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    table = atilde_table(n)
    entries: dict[int, Rational] = {0: 1}
    for j in range(1, n // k + 1):
        entries[j * k] = delta**j * p ** (2 * j * k) * table[(k, j)]
    series = OmegaSeries.from_dict(n, entries)
    if not series.is_integral_class():
        raise ValueError(f"c(G_{k}({delta})) is not an integral class: {series!r}")
    return series


def direct_sum(classes: Sequence[OmegaSeries]) -> OmegaSeries:
    """Whitney sum: total Chern classes multiply."""
    if not classes:
        raise ValueError("empty direct sum")
    total = classes[0]
    for c in classes[1:]:
        total = total * c
    return total
