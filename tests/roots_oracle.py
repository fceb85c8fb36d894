"""Test-only oracles for the roots of unity in (Z/p^n)*.

The library finds the (n+1)-st roots of unity from one element of order
n+1 and factors only n+1.  This module keeps the routes the tests compare
it with: a generator of the whole unit group, found by factoring p - 1,
whose power g^(phi/(n+1)) generates the same subgroup; and the order of
an element by repeated multiplication.  Both cost work that grows with p,
so they are only run at small primes.
"""

from __future__ import annotations

from pgroupcert import primes


def primitive_root_mod_prime_power(p: int, n: int) -> int:
    """A generator of the cyclic group (Z/p^n)*, p an odd prime.

    The primes dividing phi = (p-1) p^(n-1) are those of p-1, and p itself
    when n >= 2; factoring p-1 alone keeps trial division from running up
    to p on the leftover p^2 when n >= 3.
    """
    phi = (p - 1) * p ** (n - 1)
    factors = primes.prime_factors(p - 1) + ([p] if n >= 2 else [])
    g = 2
    while True:
        if g % p and all(pow(g, phi // ell, p**n) != 1 for ell in factors):
            return g
        g += 1


def multiplicative_order(g: int, q: int) -> int:
    """The least k >= 1 with g^k = 1 mod q, by repeated multiplication; g must be a unit."""
    k, x = 1, g % q
    while x != 1:
        x = x * g % q
        k += 1
    return k
