"""Test-only oracle: the full exterior algebra on ``u_1..u_n, v_1..v_n``.

The library computes the symmetrization coefficients in the commuting
subring ``y_i = u_i v_i``, by a closed form and by counting block
splittings.  This module keeps the brute routes the tests compare them
with: exact wedge arithmetic with sorted-generator normal forms,
coordinate-permutation pullbacks, and the product of
``1 + sigma^*(u_[k] v_[k])`` over all n! permutations, rewritten in
powers of omega, which costs n! products in a 2^(2n)-term algebra and so
is only run for small n; and the expansion of the subset product
``prod_{|S|=k} (1 + c y_S)`` over bitmask-indexed integers, which costs
up to 2^n terms.

Coefficients are `fractions.Fraction`, never floats.  Values are treated
as immutable; all operations return new objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator, Mapping

Rational = int | Fraction


def _sort_with_sign(indices: Iterable[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort generator indices, returning (sorted tuple, sign) or None on a repeat.

    The sign is the parity of the permutation that sorts the sequence,
    i.e. (-1)**inversions.
    """
    seq = list(indices)
    inversions = 0
    for i in range(1, len(seq)):
        cur = seq[i]
        j = i
        while j > 0 and seq[j - 1] > cur:
            seq[j] = seq[j - 1]
            j -= 1
            inversions += 1
        seq[j] = cur
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return None
    return tuple(seq), (-1 if inversions % 2 else 1)


class ExteriorClass:
    """An element of the exterior algebra on ``u_1..u_n, v_1..v_n``.

    ``terms`` maps sorted tuples of generator indices (0-based; ``u_i`` is
    index ``i-1``, ``v_i`` is index ``n+i-1``) to nonzero Fractions.  The
    empty tuple is the coefficient of 1.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Rational] | None = None):
        if n < 1:
            raise ValueError("n must be at least 1")
        clean: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if any(g < 0 or g >= 2 * n for g in key):
                raise ValueError(f"generator index out of range for n={n}: {key}")
            sorted_key = _sort_with_sign(key)
            if sorted_key is None:
                continue
            key2, sign = sorted_key
            new = clean.get(key2, Fraction(0)) + sign * coeff
            if new:
                clean[key2] = new
            else:
                clean.pop(key2, None)
        self.n = n
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "ExteriorClass":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "ExteriorClass":
        return cls(n, {(): 1})

    @classmethod
    def u(cls, n: int, i: int) -> "ExteriorClass":
        """The degree-one generator u_i, 1 <= i <= n."""
        if not 1 <= i <= n:
            raise ValueError(f"u_{i} undefined for n={n}")
        return cls(n, {(i - 1,): 1})

    @classmethod
    def v(cls, n: int, i: int) -> "ExteriorClass":
        """The degree-one generator v_i, 1 <= i <= n."""
        if not 1 <= i <= n:
            raise ValueError(f"v_{i} undefined for n={n}")
        return cls(n, {(n + i - 1,): 1})

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "ExteriorClass | Rational") -> "ExteriorClass":
        if isinstance(other, (int, Fraction)):
            other = ExteriorClass(self.n, {(): other})
        if not isinstance(other, ExteriorClass):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mismatched n: {self.n} vs {other.n}")
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            new = merged.get(key, Fraction(0)) + coeff
            if new:
                merged[key] = new
            else:
                merged.pop(key, None)
        out = ExteriorClass.zero(self.n)
        out.terms = merged
        return out

    __radd__ = __add__

    def __neg__(self) -> "ExteriorClass":
        out = ExteriorClass.zero(self.n)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other: "ExteriorClass | Rational") -> "ExteriorClass":
        if isinstance(other, (int, Fraction)):
            other = ExteriorClass(self.n, {(): other})
        return self + (-other)

    def __rsub__(self, other: Rational) -> "ExteriorClass":
        return ExteriorClass(self.n, {(): other}) - self

    def __mul__(self, other: "ExteriorClass | Rational") -> "ExteriorClass":
        if isinstance(other, (int, Fraction)):
            scalar = Fraction(other)
            out = ExteriorClass.zero(self.n)
            if scalar:
                out.terms = {k: c * scalar for k, c in self.terms.items()}
            return out
        if not isinstance(other, ExteriorClass):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mismatched n: {self.n} vs {other.n}")
        acc: dict[tuple[int, ...], Fraction] = {}
        for ka, ca in self.terms.items():
            set_a = set(ka)
            for kb, cb in other.terms.items():
                if set_a & set(kb):
                    continue
                # both halves are sorted, so counting the pairs (a, b)
                # with b < a gives the merge sign directly
                inversions = 0
                for a in ka:
                    for b in kb:
                        if b < a:
                            inversions += 1
                key = _sort_with_sign(ka + kb)
                assert key is not None
                merged, _ = key
                sign = -1 if inversions % 2 else 1
                new = acc.get(merged, Fraction(0)) + sign * ca * cb
                if new:
                    acc[merged] = new
                else:
                    acc.pop(merged, None)
        out = ExteriorClass.zero(self.n)
        out.terms = acc
        return out

    def __rmul__(self, other: Rational) -> "ExteriorClass":
        return self * other

    def __pow__(self, exponent: int) -> "ExteriorClass":
        if exponent < 0:
            raise ValueError("negative powers are undefined here")
        result = ExteriorClass.one(self.n)
        for _ in range(exponent):
            result = result * self
        return result

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.terms.values())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExteriorClass(self.n, {(): other})
        if not isinstance(other, ExteriorClass):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            coeff = self.terms[key]
            mono = "*".join(
                f"u{g + 1}" if g < self.n else f"v{g - self.n + 1}" for g in key
            )
            names.append(f"{coeff}" if not mono else f"{coeff}*{mono}")
        return " + ".join(names)


def wedge(a: ExteriorClass, b: ExteriorClass) -> ExteriorClass:
    """Graded-commutative product; the sign comes from merging sorted generator lists."""
    return a * b


def omega(n: int) -> ExteriorClass:
    """The standard degree-two class: the sum of u_i*v_i over i."""
    return ExteriorClass(n, {(i, n + i): 1 for i in range(n)})


@dataclass(frozen=True)
class IndexPermutation:
    """A permutation of {1..n}, stored as the tuple of images (sigma(1), ..., sigma(n))."""

    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.sigma}")

    @property
    def n(self) -> int:
        return len(self.sigma)

    @classmethod
    def identity(cls, n: int) -> "IndexPermutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def iter_all(cls, n: int) -> Iterator["IndexPermutation"]:
        for images in itertools.permutations(range(1, n + 1)):
            yield cls(images)

    def __call__(self, i: int) -> int:
        return self.sigma[i - 1]


def permutation_pullback(c: ExteriorClass, perm: IndexPermutation) -> ExteriorClass:
    """Apply u_i -> u_{sigma(i)}, v_i -> v_{sigma(i)} and re-sort each monomial.

    This is a ring homomorphism and fixes omega.
    """
    if perm.n != c.n:
        raise ValueError(f"permutation of [{perm.n}] applied to a class with n={c.n}")
    n = c.n
    acc: dict[tuple[int, ...], Fraction] = {}
    for key, coeff in c.terms.items():
        mapped = tuple(
            perm(g + 1) - 1 if g < n else n + perm(g - n + 1) - 1 for g in key
        )
        sorted_key = _sort_with_sign(mapped)
        assert sorted_key is not None  # bijections never create repeats
        k2, sign = sorted_key
        new = acc.get(k2, Fraction(0)) + sign * coeff
        if new:
            acc[k2] = new
        else:
            acc.pop(k2, None)
    out = ExteriorClass.zero(n)
    out.terms = acc
    return out


def _uv_key(n: int, subset: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted generator tuple of u_I * v_I for a 0-based index subset I."""
    return tuple(sorted(subset)) + tuple(n + i for i in sorted(subset))


def oracle_symmetrization_coefficients(n: int, k: int) -> list[Fraction]:
    """a_{k,j} with prod_sigma (1 + pullback_sigma(u_[k]*v_[k])) = 1 + sum_j a_{k,j} omega^(jk).

    The product runs over all n! permutations and is rewritten in powers
    of omega by peeling off one directly expanded power at a time; the
    residue left outside the omega subring must vanish.
    """
    base = ExteriorClass(n, {_uv_key(n, tuple(range(k))): 1})
    product = ExteriorClass.one(n)
    for perm in IndexPermutation.iter_all(n):
        product = product * (1 + permutation_pullback(base, perm))

    residual = product - 1
    coefficients: list[Fraction] = []
    for j in range(1, n // k + 1):
        power = omega(n) ** (j * k)
        probe_key = next(iter(power.terms))
        a_kj = residual.terms.get(probe_key, Fraction(0)) / power.terms[probe_key]
        coefficients.append(a_kj)
        residual = residual - a_kj * power
    assert residual.is_zero(), f"residual outside the omega subring: {residual!r}"
    return coefficients


def _subset_masks(n: int, size: int) -> list[int]:
    return [sum(1 << i for i in subset) for subset in itertools.combinations(range(n), size)]


def subset_expansion_coefficients(n: int, k: int) -> list[Fraction]:
    """a_{k,1..n//k} by expanding prod_{|S|=k} (1 + eps_k k!(n-k)! y_S) over subsets.

    Each term is a bitmask of the y_i it contains.  The result must be
    1 plus a uniform multiple of e_{jk}(y) for each j, and a_{k,1} must be
    nonzero; anything else fails an assertion.  There is no cap on n; the
    work grows as 2^n.
    """
    assert 1 <= k <= n, f"need 1 <= k <= n, got k={k}, n={n}"
    sign = -1 if k * (k - 1) // 2 % 2 else 1
    c = sign * factorial(k) * factorial(n - k)
    terms = {0: 1}
    for block in _subset_masks(n, k):
        # targets contain the block and sources miss it, so updating in place is safe
        for mask, coeff in list(terms.items()):
            if not mask & block:
                terms[mask | block] = terms.get(mask | block, 0) + c * coeff

    constant = terms.pop(0)
    coefficients = []
    for j in range(1, n // k + 1):
        row = {terms.pop(mask, 0) for mask in _subset_masks(n, j * k)}
        assert len(row) == 1, f"degree-{j * k} part at (n={n}, k={k}) is not a multiple of e_{j * k}(y)"
        coefficients.append(Fraction(row.pop(), factorial(j * k)))
    assert constant == 1 and not any(terms.values()), (
        f"symmetrized product at (n={n}, k={k}) is not a polynomial in omega"
    )
    assert coefficients[0] != 0, f"leading coefficient a_{{{k},1}} vanished at n={n}"
    return coefficients
