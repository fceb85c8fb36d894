"""Truncated polynomial ring Q[omega]/(omega^(n+1)) and Chern data of the bundle constructions.

Total Chern classes of every bundle in the construction live in the
subring generated by omega, so they are represented as coefficient
vectors c_0..c_n.  A series is the total Chern class of an actual bundle
exactly when c_0 = 1 and the underlying cohomology class is integral;
since omega^j expands to j! times a sum of monomials (up to sign), that
integrality test is ``j! * c_j`` being an integer for every j, not
integrality of the omega-coefficients themselves (those are genuinely
rational: the omega^2 coefficient of a rank-2 symmetrized bundle at n=2
is delta^2/2).
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

    def __pow__(self, exponent: int) -> "OmegaSeries":
        if exponent < 0:
            raise ValueError("negative powers: use inverse() first")
        result = OmegaSeries.one(self.n)
        for _ in range(exponent):
            result = result * self
        return result

    def inverse(self) -> "OmegaSeries":
        """Inverse of 1 + s as the alternating sum 1 - s + s^2 - ..., truncated.

        The tail s has zero constant term, so the sum terminates after n
        steps and the result is exact.
        """
        if self.coeffs[0] != 1:
            raise ValueError(f"constant term must be 1 to invert, got {self.coeffs[0]}")
        n = self.n
        s = OmegaSeries(n, (0,) + self.coeffs[1:])
        term = OmegaSeries.one(n)
        acc = OmegaSeries.one(n)
        for _ in range(n):
            term = term * s
            term = OmegaSeries(n, [-c for c in term.coeffs])
            acc = OmegaSeries(n, [a + t for a, t in zip(acc.coeffs, term.coeffs)])
        return acc

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

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

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


def assert_chern_series(series: OmegaSeries, context: str) -> None:
    if series.coeffs[0] != 1:
        raise ValueError(f"{context}: total Chern class must start with 1")
    if not series.is_integral_class():
        raise ValueError(
            f"{context}: not an integral cohomology class: {series!r}"
        )


class BundleDescriptor:
    """Rank and total Chern class of one of the construction bundles.

    Labels: ``line-power`` (a tensor power of the base line bundle),
    ``F`` (symmetrized bundle of rank k*n!), ``G`` (its pullback along
    the p-power self-map of the torus), ``direct-sum``.
    """

    __slots__ = ("label", "rank", "chern", "params")

    def __init__(self, label: str, rank: int, chern: OmegaSeries, params: dict | None = None) -> None:
        if rank < 1:
            raise ValueError("rank must be at least 1")
        assert_chern_series(chern, f"{label} bundle")
        self.label = label
        self.rank = rank
        self.chern = chern
        self.params = {} if params is None else params

    @property
    def n(self) -> int:
        return self.chern.n


def line_power_chern(n: int, p: int, m: int) -> BundleDescriptor:
    """The m-th tensor power of the base line bundle: rank 1, c_1 = m*p*omega."""
    chern = OmegaSeries.from_dict(n, {0: 1, 1: m * p} if n >= 1 else {0: 1})
    return BundleDescriptor("line-power", 1, chern, {"p": p, "m": m})


def chern_F(n: int, k: int, delta: int) -> BundleDescriptor:
    """Symmetrized bundle of rank k*n! with Chern coefficients delta^j * atilde_{k,j} at omega^(jk).

    The atilde values come from the closed-form symmetrization table; the
    result is checked to be an integral class (it always is for integer
    delta, since it is a product of integral classes).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    table = atilde_table(n)
    entries: dict[int, Fraction] = {0: Fraction(1)}
    for j in range(1, n // k + 1):
        entries[j * k] = Fraction(delta) ** j * table[(k, j)]
    chern = OmegaSeries.from_dict(n, entries)
    rank = k * factorial(n)
    return BundleDescriptor("F", rank, chern, {"k": k, "delta": delta})


def pullback_w(bundle: BundleDescriptor, p: int) -> BundleDescriptor:
    """Pull back along the p-power self-map of the torus.

    Degree-2j classes scale by p^(2j); rank is unchanged.
    """
    chern = OmegaSeries(
        bundle.chern.n,
        [c * Fraction(p) ** (2 * j) for j, c in enumerate(bundle.chern.coeffs)],
    )
    label = "G" if bundle.label == "F" else f"w-pullback({bundle.label})"
    params = dict(bundle.params)
    params["p"] = p
    return BundleDescriptor(label, bundle.rank, chern, params)


def chern_G(n: int, k: int, delta: int, p: int) -> BundleDescriptor:
    """Pullback of the symmetrized bundle: coefficients delta^j * p^(2jk) * atilde_{k,j}."""
    return pullback_w(chern_F(n, k, delta), p)


def direct_sum(bundles: Sequence[BundleDescriptor]) -> BundleDescriptor:
    """Whitney sum: ranks add, total Chern classes multiply."""
    if not bundles:
        raise ValueError("empty direct sum")
    n = bundles[0].n
    for b in bundles:
        if b.n != n:
            raise ValueError(f"mismatched base torus: n={b.n} vs n={n}")
    chern = OmegaSeries.one(n)
    rank = 0
    for b in bundles:
        chern = chern * b.chern
        rank += b.rank
    return BundleDescriptor("direct-sum", rank, chern, {"summands": len(bundles)})
