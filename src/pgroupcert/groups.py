"""Exact arithmetic in finite Heisenberg-type p-groups and abelian-subgroup oracles.

The group on parameters (n, p) has elements (x, y, z) with x, y in
(Z_p)^n and z in Z_p, multiplied by

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + <x, y'>)

with the dot product taken mod p.  This cocycle is the one for which the
commutator law reads [g, h] = f^(omega(eta(g), eta(h))) with the standard
symplectic form omega and f the central generator (0, 0, 1); the sign is
pinned by the test suite via [a_i, b_i] = f.

The law is written once, in group_law, on coordinate tuples x + y + (z,).
The abelian-fraction bound of r such groups glued along a form family is
derived once too, in lambda_row, and so is what a group document records,
in group_report: producer and verifier both call them.
Two independent routes to the maximal-abelian-subgroup order are
provided.  The structural one proves attainment by a closed form (the
span {(x, 0, z)} is abelian of order p^(n+1), checked on its generators
through group_law) and the upper bound by asking
symplectic.enumerate_isotropic for (n+1)-dimensional isotropic subspaces,
which it rules out by the rank argument for every n and p.  The
brute-force oracle uses only the group law.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .symplectic import (
    DEFAULT_SUBSPACE_BUDGET,
    BudgetExceeded,
    SymplecticForm,
    enumerate_isotropic,
)

#: The brute oracle's ceiling on group-law calls, which its producer and its
#: verifier share.  max_abelian_order fills an m x m product table, so m^2 is
#: its work: this admits (n, p) = (1, 3), (1, 5), (1, 7) and (2, 3), and
#: refuses (1, 11) and larger before any element is listed.
BRUTE_WORK_BUDGET = 200_000

#: Largest n for which group reports are produced and re-checked; the
#: structural bound costs O(n^3) arithmetic on n-dependent matrices.
MAX_GROUP_N = 64


Coords = tuple[int, ...]


def group_law(p: int, g: Coords, h: Coords) -> Coords:
    """The product of two elements given as coordinate tuples x + y + (z,), reduced mod p."""
    n = len(g) // 2
    twist = sum(map(operator.mul, g[:n], h[n : 2 * n]))
    return (*[(a + b) % p for a, b in zip(g[: 2 * n], h[: 2 * n])], (g[-1] + h[-1] + twist) % p)


def group_order(n: int, p: int) -> int:
    return p ** (2 * n + 1)


class LambdaRow(NamedTuple):
    """One (n, r) entry of the abelian-fraction bound table.

    ``bound`` = abelian_exponent / order_exponent bounds
    log|A|/log|Gamma| over abelian subgroups A of a group of order
    p^order_exponent.  ``exponent_form_exact`` records whether r | 4n, in
    which case the standard choice of k makes r + k exactly 2 + r + 4n/r.
    """

    n: int
    r: int
    k: int | None
    abelian_exponent: int
    order_exponent: int
    bound: Fraction
    exponent_form_exact: bool


def lambda_row(n: int, r: int, k: int | None = None) -> LambdaRow:
    """The abelian-subgroup bound for r glued copies of the group on (n, p); the one place it is derived.

    The group has order p^(2n+r).  For r = 1 it is the Heisenberg group
    itself, whose abelian subgroups have at most p^(n+1) elements, and k
    is None.  For r > 1 the bound assumes a form family with no common
    isotropic k-space, and abelian subgroups then have at most
    p^(r + min(k, 2n)) elements.  Unless given, k = floor(4n/r) + 2: the
    least k with 4n < r(k-1), since k - 1 = floor(4n/r) + 1 > 4n/r.
    """
    if r == 1:
        abelian, k = n + 1, None
    else:
        if k is None:
            k = 4 * n // r + 2
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


def epsilon_witness(rows: list[LambdaRow], epsilon: Fraction) -> LambdaRow | None:
    """The first row (ordered by n, then r) whose bound is strictly below epsilon."""
    for row in sorted(rows, key=lambda row: (row.n, row.r)):
        if row.bound < epsilon:
            return row
    return None


def max_abelian_order(elements: Sequence, mul: Callable) -> int:
    """Largest abelian subgroup order of a finite group, via centralizer intersections.

    Uses only the multiplication table.  Every maximal abelian subgroup A
    equals its own centralizer, hence is a finite intersection of single
    -element centralizers; so closing the centralizer family under
    pairwise intersection and keeping the members that verify (by
    exhaustive pairwise products) as abelian subgroups finds every
    maximal abelian subgroup.  Every abelian subgroup lies inside a
    maximal one, so the maximum order over this family is exact.
    """
    index = {g: i for i, g in enumerate(elements)}
    # table[i][j] is the index of elements[i] * elements[j]; the centralizers
    # below read every entry, so it is filled once, up front.
    table = [[index[mul(g, h)] for h in elements] for g in elements]

    m = len(elements)
    centralizers = {frozenset(j for j in range(m) if row[j] == table[j][i]) for i, row in enumerate(table)}

    closed = set(centralizers)
    frontier = list(centralizers)
    while frontier:
        nxt = []
        for s in frontier:
            for t in centralizers:
                meet = s & t
                if meet not in closed:
                    closed.add(meet)
                    nxt.append(meet)
        frontier = nxt

    best = 1
    for candidate in sorted(closed, key=len, reverse=True):
        if len(candidate) <= best:
            break
        members = sorted(candidate)
        abelian = all(
            table[i][j] == table[j][i] for i, j in itertools.combinations(members, 2)
        )
        if not abelian:
            continue
        member_set = set(members)
        closed_under_product = all(
            table[i][j] in member_set for i in members for j in members
        )
        if closed_under_product:
            best = len(candidate)
    return best


def brute_force_lambda(n: int, p: int) -> tuple[int, Fraction]:
    """Exact maximal abelian subgroup order and log|A|/log|Gamma| by exhaustion.

    Independent of the symplectic correspondence: only group
    multiplication is used, applied to coordinate tuples.  Refused with
    BudgetExceeded, before any element is listed, when the m^2 product
    table would have more than BRUTE_WORK_BUDGET entries.
    """
    calls = group_order(n, p) ** 2
    if calls > BRUTE_WORK_BUDGET:
        raise BudgetExceeded(calls, BRUTE_WORK_BUDGET, what="group-law calls")
    coords = list(itertools.product(range(p), repeat=2 * n + 1))
    best = max_abelian_order(coords, partial(group_law, p))
    exponent = 0
    order = best
    while order % p == 0:
        order //= p
        exponent += 1
    if order != 1:
        raise RuntimeError(f"maximal abelian order {best} is not a power of p={p}")
    return best, Fraction(exponent, 2 * n + 1)


class GroupReport(NamedTuple):
    """What a group document records of the group on (n, p), besides n, p and the mode."""

    order: int
    max_abelian_order: int
    max_abelian_exponent: int
    lam: Fraction
    #: Whether the brute-force exponent equals the structural one; None in structural mode.
    modes_agree: bool | None


def group_report(n: int, p: int, mode: str) -> GroupReport:
    """The group's order and largest abelian order, by the structural bound or also by brute force.

    The producer and the verifier both call it, and a group document is the
    encoding of its result.  Brute mode raises BudgetExceeded as
    brute_force_lambda does.
    """
    structural = max_abelian_exponent(n, p)
    if mode == "brute":
        max_order, lam = brute_force_lambda(n, p)
        exponent = int(lam * (2 * n + 1))
        return GroupReport(group_order(n, p), max_order, exponent, lam, exponent == structural)
    return GroupReport(group_order(n, p), p**structural, structural, Fraction(structural, 2 * n + 1), None)


def max_abelian_exponent(n: int, p: int, isotropic_budget: int = DEFAULT_SUBSPACE_BUDGET) -> int:
    """The exponent e with maximal abelian subgroup order p^e; always n+1.

    * attainment, by the closed form: group_law is checked, pair by pair,
      to multiply the n+1 generators (e_i in x, and the central e_z) as
      coordinate addition mod p.  The twist <x, y'> is bilinear and
      vanishes when y' = 0, so the span {(x, 0, z)} of the generators is
      an abelian subgroup of order p^(n+1), for every n and p.
    * upper bound: abelian subgroups project to isotropic subspaces of the
      standard form, and enumerate_isotropic finds no (n+1)-dimensional
      one; it settles that by the rank argument, so isotropic_budget is
      only forwarded to it and never refuses.
    """
    dim = 2 * n + 1
    gens = [tuple(int(j == i) for j in range(dim)) for i in (*range(n), 2 * n)]
    for g in gens:
        for h in gens:
            if group_law(p, g, h) != tuple((a + b) % p for a, b in zip(g, h)):
                raise RuntimeError(f"generators {g} and {h} do not multiply as coordinate addition")

    if enumerate_isotropic([SymplecticForm.standard(n, p)], n + 1, budget=isotropic_budget):
        raise RuntimeError(f"found an isotropic subspace of dimension {n + 1}; the bound is wrong")
    return n + 1
