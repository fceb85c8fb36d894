"""Exact arithmetic in finite Heisenberg-type p-groups and abelian-subgroup oracles.

The group on parameters (n, p) has elements (x, y, z) with x, y in
(Z_p)^n and z in Z_p, multiplied by

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + <x, y'>)

with the dot product taken mod p.  This cocycle is the one for which the
commutator law reads [g, h] = f^(omega(eta(g), eta(h))) with the standard
symplectic form omega and f the central generator (0, 0, 1); the sign is
pinned by the test suite via [a_i, b_i] = f.

The law is written once, in group_law, on coordinate tuples x + y + (z,);
HeisenbergElement multiplies through it.  Two independent routes to the
maximal-abelian-subgroup order are provided: a structural computation
through isotropic subspaces, and a brute-force oracle that only uses the
group law.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .symplectic import (
    BudgetExceeded,
    SymplecticForm,
    Subspace,
    enumerate_isotropic,
    gaussian_binomial,
)

DEFAULT_BRUTE_BUDGET = 10_000

#: The brute oracle's ceiling on group-law calls.  max_abelian_order fills an
#: m x m product table, so m^2 is its work: this admits (n, p) = (1, 3), (1, 5),
#: (1, 7) and (2, 3), and refuses (1, 11) and larger before any product is taken.
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


@dataclass(frozen=True)
class HeisenbergElement:
    n: int
    p: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    z: int

    def __post_init__(self) -> None:
        if len(self.x) != self.n or len(self.y) != self.n:
            raise ValueError("x and y must have length n")
        object.__setattr__(self, "x", tuple(v % self.p for v in self.x))
        object.__setattr__(self, "y", tuple(v % self.p for v in self.y))
        object.__setattr__(self, "z", self.z % self.p)

    # -- group structure ------------------------------------------------

    def _check_compatible(self, other: "HeisenbergElement") -> None:
        if (self.n, self.p) != (other.n, other.p):
            raise ValueError(
                f"elements of different groups: (n,p)=({self.n},{self.p}) vs ({other.n},{other.p})"
            )

    @classmethod
    def from_coords(cls, n: int, p: int, coords: Coords) -> "HeisenbergElement":
        return cls(n, p, coords[:n], coords[n : 2 * n], coords[2 * n])

    def coords(self) -> Coords:
        return self.x + self.y + (self.z,)

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        self._check_compatible(other)
        return HeisenbergElement.from_coords(self.n, self.p, group_law(self.p, self.coords(), other.coords()))

    def inverse(self) -> "HeisenbergElement":
        twist = sum(a * b for a, b in zip(self.x, self.y))
        return HeisenbergElement(
            self.n,
            self.p,
            tuple(-a for a in self.x),
            tuple(-a for a in self.y),
            -self.z + twist,
        )

    def __pow__(self, exponent: int) -> "HeisenbergElement":
        base = self if exponent >= 0 else self.inverse()
        result = identity(self.n, self.p)
        for _ in range(abs(exponent)):
            result = result * base
        return result

    def commutator(self, other: "HeisenbergElement") -> "HeisenbergElement":
        """g^-1 h^-1 g h, computed literally through group multiplication."""
        return self.inverse() * other.inverse() * self * other

    def commutes_with(self, other: "HeisenbergElement") -> bool:
        return self * other == other * self

    def is_identity(self) -> bool:
        return self.z == 0 and not any(self.x) and not any(self.y)

    def eta(self) -> tuple[int, ...]:
        """Projection to (Z_p)^(2n) killing the center."""
        return self.x + self.y


def identity(n: int, p: int) -> HeisenbergElement:
    return HeisenbergElement(n, p, (0,) * n, (0,) * n, 0)


def gen_a(n: int, p: int, i: int) -> HeisenbergElement:
    """Generator a_i = (e_i, 0, 0)."""
    if not 1 <= i <= n:
        raise ValueError(f"a_{i} undefined for n={n}")
    x = tuple(1 if j == i - 1 else 0 for j in range(n))
    return HeisenbergElement(n, p, x, (0,) * n, 0)


def gen_b(n: int, p: int, i: int) -> HeisenbergElement:
    """Generator b_i = (0, e_i, 0)."""
    if not 1 <= i <= n:
        raise ValueError(f"b_{i} undefined for n={n}")
    y = tuple(1 if j == i - 1 else 0 for j in range(n))
    return HeisenbergElement(n, p, (0,) * n, y, 0)


def gen_f(n: int, p: int) -> HeisenbergElement:
    """Central generator f = (0, 0, 1)."""
    return HeisenbergElement(n, p, (0,) * n, (0,) * n, 1)


def group_order(n: int, p: int) -> int:
    return p ** (2 * n + 1)


def _all_coords(n: int, p: int, budget: int) -> list[Coords]:
    order = group_order(n, p)
    if order > budget:
        raise BudgetExceeded(order, budget, what="group elements")
    return list(itertools.product(range(p), repeat=2 * n + 1))


def enumerate_group(n: int, p: int, budget: int = DEFAULT_BRUTE_BUDGET) -> list[HeisenbergElement]:
    return [HeisenbergElement.from_coords(n, p, c) for c in _all_coords(n, p, budget)]


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


def brute_force_lambda(
    n: int, p: int, budget: int = DEFAULT_BRUTE_BUDGET
) -> tuple[int, Fraction]:
    """Exact maximal abelian subgroup order and log|A|/log|Gamma| by exhaustion.

    Independent of the symplectic correspondence: only group
    multiplication is used, applied to coordinate tuples.  Refused with
    BudgetExceeded when the group has more than ``budget`` elements or its
    m^2 product table more than BRUTE_WORK_BUDGET entries.
    """
    coords = _all_coords(n, p, budget)
    calls = len(coords) ** 2
    if calls > BRUTE_WORK_BUDGET:
        raise BudgetExceeded(calls, BRUTE_WORK_BUDGET, what="group-law calls")
    best = max_abelian_order(coords, partial(group_law, p))
    exponent = 0
    order = best
    while order % p == 0:
        order //= p
        exponent += 1
    if order != 1:
        raise RuntimeError(f"maximal abelian order {best} is not a power of p={p}")
    return best, Fraction(exponent, 2 * n + 1)


def standard_lagrangian(n: int, p: int) -> Subspace:
    """span(e_1..e_n) inside F_p^(2n): isotropic of the maximal dimension n."""
    basis = tuple(
        tuple(1 if j == i else 0 for j in range(2 * n)) for i in range(n)
    )
    return Subspace(p, basis)


def lagrangian_preimage_generators(n: int, p: int) -> list[HeisenbergElement]:
    """Generators of the pullback of the standard Lagrangian: a_1..a_n and f."""
    return [gen_a(n, p, i) for i in range(1, n + 1)] + [gen_f(n, p)]


def max_abelian_exponent(
    n: int,
    p: int,
    isotropic_budget: int = 10**7,
    closure_budget: int = DEFAULT_BRUTE_BUDGET,
) -> int:
    """The exponent e with maximal abelian subgroup order p^e; always n+1.

    Both directions are asserted computationally where feasible:

    * attainment: the preimage of the standard Lagrangian is abelian of
      order p^(n+1).  Its generators are checked to commute pairwise (a
      group generated by pairwise commuting elements is abelian); for
      small orders the full closure is enumerated and counted.
    * upper bound: abelian subgroups project to isotropic subspaces, and
      no (n+1)-dimensional isotropic subspace exists.  When the
      Gaussian-binomial count fits the budget this is certified by
      exhaustive enumeration.
    """
    lagrangian = standard_lagrangian(n, p)
    form = SymplecticForm.standard(n, p)
    if not lagrangian.is_isotropic_for(form):
        raise RuntimeError("standard Lagrangian failed its isotropy check")

    gens = lagrangian_preimage_generators(n, p)
    for g, h in itertools.combinations(gens, 2):
        if not g.commutes_with(h):
            raise RuntimeError(f"Lagrangian preimage generators do not commute: {g}, {h}")

    order = p ** (n + 1)
    if order <= closure_budget:
        closure = {identity(n, p)}
        frontier = [identity(n, p)]
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    h = g * s
                    if h not in closure:
                        closure.add(h)
                        nxt.append(h)
            frontier = nxt
        if len(closure) != order:
            raise RuntimeError(
                f"Lagrangian preimage closure has {len(closure)} elements, expected {order}"
            )

    if gaussian_binomial(2 * n, n + 1, p) <= isotropic_budget:
        bigger = enumerate_isotropic([form], n + 1, budget=isotropic_budget)
        if bigger:
            raise RuntimeError(
                f"found an isotropic subspace of dimension {n + 1}; the bound is wrong"
            )
    return n + 1
