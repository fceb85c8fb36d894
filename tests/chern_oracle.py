"""Test-only oracles for the Chern cancellation, by series products.

The library never multiplies the classes out.  certify solves for the
deltas in closed form through the logarithm, and verify checks the
exponential shape of its own table and, at each k, the logarithm identity
k delta_k p^(2k) atilde_{k,1} = (-M p)^k P_k.  This module keeps the only
multiply-out any check compares them with: the line classes
1 + a_j M p omega and the classes c(G_k(delta_k)), each built from its
definition; and the forward pass that solves for the deltas one at a
time, clearing omega^i at step i.
"""

from __future__ import annotations

from fractions import Fraction

from pgroupcert.series import OmegaSeries


def g_class(n: int, k: int, delta: int | Fraction, p: int, atilde) -> OmegaSeries:
    """c(G_k(delta)): delta^j p^(2jk) atilde_{k,j} at omega^(jk), for j = 1..n//k."""
    entries = {0: Fraction(1)}
    for j in range(1, n // k + 1):
        entries[j * k] = Fraction(delta) ** j * Fraction(p) ** (2 * j * k) * atilde[(k, j)]
    return OmegaSeries.from_dict(n, entries)


def line_product(n: int, p: int, M: int, lifts) -> OmegaSeries:
    """prod_j (1 + a_j M p omega), one series product per lift."""
    product = OmegaSeries.one(n)
    for a in lifts:
        product = product * OmegaSeries.from_dict(n, {0: 1, 1: a * M * p})
    return product


def chern_product(n: int, p: int, M: int, lifts, delta, atilde) -> OmegaSeries:
    """The line classes times every c(G_k(delta_k)), multiplied out."""
    product = line_product(n, p, M, lifts)
    for k in range(1, n + 1):
        product = product * g_class(n, k, delta[k - 1], p, atilde)
    return product


def forward_pass_deltas(n: int, p: int, M: int, lifts, atilde) -> tuple[Fraction, ...]:
    """Step i takes delta_i = -T_i / (p^(2i) atilde_{i,1}) and multiplies T by c(G_i(delta_i)).

    T starts as the line product; G_i has no term below omega^i, so step i
    clears omega^i and leaves omega^1..omega^(i-1) clear.  The deltas are
    returned as fractions, so a non-integral one shows as such.
    """
    product = line_product(n, p, M, lifts)
    deltas = []
    for i in range(1, n + 1):
        delta_i = -product.coefficient(i) / (Fraction(p) ** (2 * i) * atilde[(i, 1)])
        deltas.append(delta_i)
        product = product * g_class(n, i, delta_i, p, atilde)
    assert product.is_one()
    return tuple(deltas)
