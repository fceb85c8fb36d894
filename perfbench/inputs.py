"""Seeded input lists for the benchmark workloads.

Everything here depends only on the workload name and the seed, and uses
none of the library: the library only ever receives the generated values.
The same seed always gives the same lists.
"""

from __future__ import annotations

import math
import random

LIFTS = ("nonneg", "symmetric")

# M(n) for n = 1..6; certify needs a prime p > M(n).  The values are fixed
# properties of n, so they are tabulated rather than asked of the library.
M_OF_N = {1: 1, 2: 2, 3: 6, 4: 6, 5: 120, 6: 120}

# certify-warm draws p log-uniformly from [P_LOW, P_HIGH].  Below 216 the
# r = 1, n = 2 certificate enumerates its ~p^3 isotropic subspaces in both
# producer and verifier (seconds per document), which would turn this
# workload into a second isotropic-enumeration benchmark; form-search
# already measures that layer.
P_LOW = 223
P_HIGH = 10**6
WARM_BINS = 6  # log-spaced bins of p per (n, r, lift) combination


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.4e14."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17):
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


def next_usable_prime(n: int, at_least: int) -> int:
    """Least odd prime p >= at_least with p = 1 mod (n+1) and p > M(n)."""
    p = max(at_least, M_OF_N[n] + 1, 3)
    p += (1 - p) % (n + 1)
    while not (p % 2 and is_prime(p)):
        p += n + 1
    return p


def small_usable_primes(n: int, count: int) -> list[int]:
    out = [next_usable_prime(n, 1)]
    while len(out) < count:
        out.append(next_usable_prime(n, out[-1] + 1))
    return out


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def cli_cold(seed: int) -> dict:
    rng = _rng("cli-cold", seed)
    # p is one of the two least usable primes: with r = 1, n = 2 the CLI
    # enumerates ~p^3 subspaces in numpy batches, and at p = 31 those add
    # 7 MB, so a wider choice would make peak_rss_mb follow the seed.
    certify = [
        {"n": n, "r": rng.randint(1, 3), "p": rng.choice(small_usable_primes(n, 2)), "lifts": rng.choice(LIFTS)}
        for n in range(1, 7)
    ]
    # Two large primes, one per half-decade of [1e5, 1e6], where factoring
    # (p-1) p^(n-1) in the producer costs time that grows with p.  n stays
    # at 3 or 4 so that these runs do not add cold n = 5, 6 tables.
    for low in (5.0, 5.5):
        n = rng.randint(3, 4)
        p = next_usable_prime(n, math.ceil(10 ** (low + rng.uniform(0, 0.5))))
        certify.append({"n": n, "r": rng.randint(1, 3), "p": p, "lifts": rng.choice(LIFTS)})
    # The first document of each command also serves as a negative control;
    # starting at n = 1 keeps that control off the slow cold n = 5, 6 tables.
    certify.sort(key=lambda item: (item["n"], item["p"]))
    # n <= 4 keeps the two find-prime processes free of the cold n = 5, 6
    # tables, so their cost does not swing with the seed; certify covers those.
    find_prime = [
        {"n": rng.randint(1, 4), "h": rng.randint(1, 10**6), "min": int(10 ** rng.uniform(0, 4))}
        for _ in range(2)
    ]
    den = rng.randint(2, 20)
    lambda_table = [
        {"max_n": rng.randint(1, 8), "max_r": rng.randint(1, 8), "epsilon": f"{rng.randint(1, den - 1)}/{den}"}
    ]
    # The brute-force group oracle is fixed at its smallest case: its
    # dictionary-heavy closure was the noisiest work on a shared machine.
    group = [{"n": 1, "p": 5, "mode": "brute"}]
    return {"certify": certify, "find_prime": find_prime, "lambda_table": lambda_table, "group": group}


def certify_warm(seed: int) -> dict:
    """(n, r, lift) over n in 1..6, r in 1..3 and both lifts, with WARM_BINS primes each.

    The primes are log-uniform over [P_LOW, P_HIGH], drawn as a Latin
    hypercube: inside each log-bin the combinations get a seeded permutation
    of evenly spaced offsets.  Every seed thus sees the same spread of prime
    sizes (certify's cost grows with p), while the primes themselves and
    their pairing with (n, r, lift) change with the seed.
    """
    rng = _rng("certify-warm", seed)
    combos = [(n, r, lift) for n in range(1, 7) for r in range(1, 4) for lift in LIFTS]
    lo, hi = math.log10(P_LOW), math.log10(P_HIGH)
    items = []
    for b in range(WARM_BINS):
        slots = list(range(len(combos)))
        rng.shuffle(slots)
        for (n, r, lift), slot in zip(combos, slots):
            u = (slot + rng.random()) / len(combos)
            x = 10 ** (lo + (b + u) / WARM_BINS * (hi - lo))
            items.append({"n": n, "r": r, "p": next_usable_prime(n, math.ceil(x)), "lifts": lift})
    rng.shuffle(items)
    return {"certify": items}


def form_search(seed: int) -> dict:
    rng = _rng("form-search", seed)
    return {"search": [{"n": 4, "r": 4, "p": 3, "seed": rng.randrange(2**31)}]}


GENERATORS = {
    "cli-cold": cli_cold,
    "certify-warm": certify_warm,
    "form-search": form_search,
}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)
