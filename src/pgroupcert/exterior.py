"""Symmetrization coefficients of the Chern-cancellation step, computed in the subring y_i = u_i v_i.

The cohomology of the 2n-torus is the exterior algebra on ``u_1..u_n,
v_1..v_n``.  Everything the construction needs lies in the subring
generated by the degree-two classes ``y_i = u_i v_i``, which commute and
square to zero, so the subring is ``Z[y]/(y_i^2)`` with one integer
coefficient per subset of ``{1..n}`` (a bitmask).  Three facts reduce
the symmetrized product to that ring:

* ``u_[k] v_[k] = eps_k y_[k]`` with ``eps_k = (-1)^(k(k-1)/2)``: moving
  each ``v_i`` left past the ``k - i`` later ``u``'s costs that many signs.
  The same sign relates every sorted monomial ``u_I v_I`` to ``y_I``.
* ``omega = sum y_i``, so ``omega^m = m! e_m(y)`` by the multinomial
  theorem for commuting nilpotents; on sorted monomials that is the
  coefficient ``m! eps_m`` of ``omega_power_table``.
* A permutation sigma sends ``u_[k] v_[k]`` to ``eps_k y_sigma([k])``, and
  exactly ``k!(n-k)!`` permutations send ``[k]`` onto a given k-set S.  As
  ``y_S^2 = 0``, the product over all n! permutations collapses to
  ``prod_{|S|=k} (1 + c y_S)`` with ``c = eps_k k!(n-k)!``.

Expanding that product, the degree-``jk`` part sums ``c^j y_T`` over the
ways to split a jk-set T into j disjoint k-sets, of which there are
``(jk)! / ((k!)^j j!)``.  Dividing by ``omega^(jk) = (jk)! e_(jk)(y)``
gives the closed form ``a_{k,j} = (eps_k (n-k)!)^j / j!``.

The producer reads ``a_table``/``atilde_table`` from that closed form; the
verifier calls ``symmetrization_coefficients``, which expands the subset
product over bitmask-indexed integers and checks that the result is a
polynomial in omega.  All arithmetic is exact; nothing is a float.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

#: The one work bound on n, for the producer's tables and the verifier's
#: expansion alike.  Past it the bundle rank n+1 + n(n+1)/2 * n! and the
#: threshold M(n) leave desk scale.
MAX_SYMMETRIZATION_N = 10


class SymmetrizationError(RuntimeError):
    """The symmetrized product left a residue outside the subring generated by omega."""


def _check_cap(n: int) -> None:
    if n > MAX_SYMMETRIZATION_N:
        raise ValueError(f"n={n} exceeds the symmetrization cap {MAX_SYMMETRIZATION_N}")


def _sign(k: int) -> int:
    """eps_k = (-1)^(k(k-1)/2), the sign of u_[k] v_[k] against y_[k]."""
    return -1 if k * (k - 1) // 2 % 2 else 1


def _subset_masks(n: int, size: int) -> list[int]:
    return [sum(1 << i for i in subset) for subset in itertools.combinations(range(n), size)]


@dataclass(frozen=True)
class OmegaPowerRow:
    """One row of the omega-power table: omega**k == coefficient * sum_{|I|=k} u_I*v_I (sorted).

    The commonly quoted closed form ``(-1)**k * n!/(n-k)!`` is kept in
    ``closed_form_coefficient`` for comparison only; see ``matches_closed_form``.
    """

    k: int
    coefficient: Fraction
    closed_form_coefficient: Fraction

    @property
    def matches_closed_form(self) -> bool:
        return self.coefficient == self.closed_form_coefficient


def omega_power_table(n: int) -> list[OmegaPowerRow]:
    """The uniform sorted-monomial coefficient k! * eps_k of omega**k, for k = 1..n."""
    return [
        OmegaPowerRow(
            k=k,
            coefficient=Fraction(factorial(k) * _sign(k)),
            closed_form_coefficient=Fraction((-1) ** k * factorial(n), factorial(n - k)),
        )
        for k in range(1, n + 1)
    ]


def symmetrization_coefficients(n: int, k: int) -> list[Fraction]:
    """a_{k,1..n//k} by expanding prod_{|S|=k} (1 + eps_k k!(n-k)! y_S) over subsets.

    Each term is a bitmask of the y_i it contains.  The result must be
    1 plus a uniform multiple of e_{jk}(y) for each j, and a_{k,1} must be
    nonzero; anything else raises SymmetrizationError.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_cap(n)
    c = _sign(k) * factorial(k) * factorial(n - k)
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
        if len(row) != 1:
            raise SymmetrizationError(
                f"degree-{j * k} part at (n={n}, k={k}) is not a multiple of e_{j * k}(y)"
            )
        coefficients.append(Fraction(row.pop(), factorial(j * k)))
    if constant != 1 or any(terms.values()):
        raise SymmetrizationError(f"symmetrized product at (n={n}, k={k}) is not a polynomial in omega")
    if coefficients[0] == 0:
        raise SymmetrizationError(f"leading coefficient a_{{{k},1}} vanished at n={n}")
    return coefficients


def _closed_form(n: int, scaled: bool) -> dict[tuple[int, int], Fraction]:
    _check_cap(n)
    table = {}
    for k in range(1, n + 1):
        base = _sign(k) * factorial(n - k) * (factorial(k - 1) if scaled else 1)
        for j in range(1, n // k + 1):
            table[(k, j)] = Fraction(base**j, factorial(j))
    return table


def a_table(n: int) -> dict[tuple[int, int], Fraction]:
    """Raw symmetrization coefficients a_{k,j} = (eps_k (n-k)!)^j / j!, 1 <= k <= n, 1 <= j <= n//k."""
    return _closed_form(n, scaled=False)


def atilde_table(n: int) -> dict[tuple[int, int], Fraction]:
    """Scaled coefficients atilde_{k,j} = ((k-1)!)^j * a_{k,j}.

    The scaling accounts for the (k-1)! factor carried by the top Chern
    class of each rank-k building-block bundle, so the total Chern class
    of the symmetrized rank-k*n! bundle reads 1 + sum_j delta^j
    atilde_{k,j} omega^(jk).
    """
    return _closed_form(n, scaled=True)
