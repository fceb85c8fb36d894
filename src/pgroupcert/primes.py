"""Deterministic primality testing and integer factorization helpers."""

from __future__ import annotations

#: is_prime decides every n below this and refuses the rest: the witnesses
#: below prove primality for all such n via the strong-pseudoprime test.
DETERMINISTIC_LIMIT = 3317044064679887385961981

#: Most members of the progression 1 mod (n+1) that the prime search examines,
#: and so the most that the verifier's minimality walk below a stored prime may.
MAX_PRIME_CANDIDATES = 10_000

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all inputs below DETERMINISTIC_LIMIT (~3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= DETERMINISTIC_LIMIT:
        raise ValueError("input exceeds the deterministic witness range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(n: int) -> bool:
    """n is an odd prime; an input beyond is_prime's deterministic range counts as not prime."""
    try:
        return n % 2 == 1 and is_prime(n)
    except ValueError:
        return False


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (inputs here are desk-scale)."""
    if n < 2:
        return []
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors
