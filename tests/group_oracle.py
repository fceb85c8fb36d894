"""Test-only oracle: Heisenberg group elements as objects, multiplied through the library's group law.

The library computes on coordinate tuples x + y + (z,) through
``groups.group_law``.  This module wraps them as elements with inverses,
powers and commutators, so the tests can check the presentation, the
group axioms and the commutator law literally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from pgroupcert.groups import Coords, group_law, group_order
from pgroupcert.symplectic import BudgetExceeded

#: Most elements enumerate_group lists.
ELEMENT_BUDGET = 10_000


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


def enumerate_group(n: int, p: int, budget: int = ELEMENT_BUDGET) -> list[HeisenbergElement]:
    """Every element, in coordinate order; refused when the group has more than ``budget``."""
    order = group_order(n, p)
    if order > budget:
        raise BudgetExceeded(order, budget, what="group elements")
    return [
        HeisenbergElement.from_coords(n, p, c)
        for c in itertools.product(range(p), repeat=2 * n + 1)
    ]
