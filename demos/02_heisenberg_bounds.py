"""Abelian-subgroup bounds of the Heisenberg groups, two independent ways.

The group on (n, p) has p^(2n+1) elements; its largest abelian subgroups
have exactly p^(n+1).  The structural route goes through isotropic
subspaces of the commutator form; the brute-force route only multiplies
group elements.  They must agree wherever both run.
"""

import itertools
from fractions import Fraction

from pgroupcert import SymplecticForm, brute_force_lambda, group_order, max_abelian_exponent
from pgroupcert.groups import group_law

print(f"{'(n, p)':>8} {'|G|':>6} {'brute max |A|':>14} {'structural':>11} {'lambda':>7}")
for n, p in [(1, 3), (1, 5), (1, 7), (2, 3)]:
    brute_order, lam = brute_force_lambda(n, p)
    structural = max_abelian_exponent(n, p)
    print(
        f"{(n, p)!s:>8} {group_order(n, p):>6} {brute_order:>14} "
        f"{p**structural:>11} {str(lam):>7}"
    )

print("\nthe commutator law pins the whole structure:")
n, p = 2, 3
form = SymplecticForm.standard(n, p)
elements = list(itertools.product(range(p), repeat=2 * n + 1))  # tuples x + y + (z,)


def inverse(g):
    # (x, y, z)^-1 = (-x, -y, -z + <x, y>)
    twist = sum(a * b for a, b in zip(g[:n], g[n : 2 * n]))
    return (*[-a % p for a in g[: 2 * n]], (twist - g[-1]) % p)


def commutator(g, h):
    """g^-1 h^-1 g h, through the group law only."""
    return group_law(p, group_law(p, group_law(p, inverse(g), inverse(h)), g), h)


sample = [elements[17], elements[101], elements[200]]
for g in sample:
    for h in sample:
        w = form.evaluate(g[: 2 * n], h[: 2 * n])
        assert commutator(g, h) == (0,) * (2 * n) + (w,)  # f^w with f = (0, 0, 1)
        print(f"[{g[:n]}{g[n:2 * n]}{g[-1]}, {h[:n]}{h[n:2 * n]}{h[-1]}] = f^{w}")

print("\nas n grows at r = 1 the abelian fraction (n+1)/(2n+1) falls toward 1/2:")
for n in range(1, 8):
    print(f"  n = {n}: {Fraction(n + 1, 2 * n + 1)}")
