"""Symmetrization coefficients of the Chern-cancellation step, computed in the subring y_i = u_i v_i.

The cohomology of the 2n-torus is the exterior algebra on ``u_1..u_n,
v_1..v_n``.  Everything the construction needs lies in the subring
generated by the degree-two classes ``y_i = u_i v_i``, which commute and
square to zero, so the subring is ``Z[y]/(y_i^2)`` with one integer
coefficient per subset of ``{1..n}``.  Three facts reduce the
symmetrized product to that ring:

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

The producer reads ``a_table``/``atilde_table`` from that closed form.  The
verifier calls ``symmetrization_coefficients``, which counts the same
splittings a second way: the coefficient of ``y_T`` with ``|T| = jk`` is
``c^j w(jk)``, where ``w(m) = C(m-1, k-1) w(m-k)`` and ``w(0) = 1`` (choose
the block holding T's least element, then split the rest), so
``a_{k,j} = c^j w(jk) / (jk)!``.  All arithmetic is exact; nothing is a
float.

Both sides also share ``construction_notes``, the notes a construction
certificate records.  M(n) is not read off a table here: the producer
takes its proved closed form (solver.compute_M), and the verifier runs
the divisibility recursion (verify.m_chain) on its own table.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

#: The one work bound on n, for the producer's and the verifier's tables
#: alike.  Past it the bundle rank n+1 + n(n+1)/2 * n! and the threshold
#: M(n) leave desk scale.
MAX_SYMMETRIZATION_N = 10


def _check_cap(n: int) -> None:
    if n > MAX_SYMMETRIZATION_N:
        raise ValueError(f"n={n} exceeds the symmetrization cap {MAX_SYMMETRIZATION_N}")


def _sign(k: int) -> int:
    """eps_k = (-1)^(k(k-1)/2), the sign of u_[k] v_[k] against y_[k]."""
    return -1 if k * (k - 1) // 2 % 2 else 1


class OmegaPowerRow(NamedTuple):
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
    """a_{k,1..n//k} of prod_{|S|=k} (1 + c y_S), c = eps_k k!(n-k)!, by counting block splittings.

    The coefficient of y_T with |T| = jk is c^j times the number w(jk) of
    ways to split T into j disjoint k-sets; dividing by the coefficient
    (jk)! of y_T in omega^(jk) gives a_{k,j}.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    _check_cap(n)
    c = _sign(k) * factorial(k) * factorial(n - k)
    coefficients = []
    splittings = 1  # w(0)
    for j in range(1, n // k + 1):
        splittings *= comb(j * k - 1, k - 1)
        coefficients.append(Fraction(c**j * splittings, factorial(j * k)))
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


def construction_notes(n: int, lift: str, conditional: bool) -> tuple[list[str], str]:
    """The notes and the tau note a construction certificate records, from n, its lift and its bound.

    ``conditional`` is whether the abelian bound rests on a form family
    (r > 1).  The omega-power note reads the discrepancy off
    omega_power_table.
    """
    notes = []
    mismatches = [row.k for row in omega_power_table(n) if not row.matches_closed_form]
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
    if n == 1:
        notes.append(
            "for n = 1 a direct rank-2 construction exists, so tau(1) = 2 beats "
            "the generic rank 3; both values are recorded"
        )
    return notes, "rank of the constructed bundle; stable-triviality padding not included"
