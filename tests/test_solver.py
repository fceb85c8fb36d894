"""Roots of unity, the constant M, the delta solver, certificates, prime search."""

import itertools
from fractions import Fraction
from math import factorial, gcd, prod

import pytest

import chern_oracle
from pgroupcert import certdoc, exterior, primes, series, solver, verify
from pgroupcert.exterior import MAX_SYMMETRIZATION_N, atilde_table
from pgroupcert.groups import epsilon_witness, lambda_row
from pgroupcert.series import OmegaSeries
from pgroupcert.solver import (
    CertificationError,
    DivisibilityError,
    PreconditionError,
    RootFamily,
    SearchExhausted,
    certify,
    compute_M,
    elementary_symmetric,
    find_prime,
    find_roots,
    lambda_table,
    rank_formula,
    solve_deltas,
)
from pgroupcert.verify import verify_document
from roots_oracle import multiplicative_order, primitive_root_mod_prime_power

F = Fraction


# -- roots of unity -----------------------------------------------------------


def test_find_roots_n1_p3():
    family = find_roots(1, 3)
    assert family.residues == (1, 2)  # the square roots of 1 mod 3


def test_find_roots_n2_p7_pinned_and_oracle():
    family = find_roots(2, 7)
    assert family.residues == (1, 18, 30)
    # independent oracle: enumerate every unit mod 49
    oracle = tuple(
        a for a in range(1, 49) if a % 7 and pow(a, 3, 49) == 1
    )
    assert family.residues == oracle


# The oracle route to the roots: a generator of the whole unit group,
# found by factoring p - 1.  The two tests below check the oracle itself.


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_primitive_root_is_the_least_generator(p, n):
    q = p**n
    phi = (p - 1) * p ** (n - 1)
    least = next(g for g in range(2, q) if g % p and multiplicative_order(g, q) == phi)
    assert primitive_root_mod_prime_power(p, n) == least


@pytest.mark.parametrize("n,expected", [(1, 5), (2, 10), (3, 10)])
def test_primitive_root_when_the_least_root_mod_p_fails_mod_p_squared(n, expected):
    # 5 is the least primitive root mod 40487 (the only such prime below
    # 60,000), but 5^(p-1) = 1 mod p^2, so it generates no unit group mod
    # p^n for n >= 2: the factor p of phi is what rules it out.
    p = 40487
    assert pow(5, p - 1, p * p) == 1
    assert primitive_root_mod_prime_power(p, n) == expected


def _usable_primes(n, count):
    """The least `count` odd primes p = 1 mod (n+1) above M(n)."""
    out, p = [], compute_M(n) + 1
    while len(out) < count:
        if p % 2 and p % (n + 1) == 1 and primes.is_prime(p):
            out.append(p)
        p += 1
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_find_roots_matches_the_unit_group_generator_route(n):
    # The subgroup of order n+1 is unique, so the powers of g^(phi/(n+1)),
    # g a generator of (Z/p^n)*, are the same residues.
    for p in _usable_primes(n, 16):
        q = p**n
        g = primitive_root_mod_prime_power(p, n)
        zeta = pow(g, (p - 1) * p ** (n - 1) // (n + 1), q)
        assert find_roots(n, p).residues == tuple(sorted(pow(zeta, i, q) for i in range(n + 1)))


@pytest.mark.parametrize(
    "n,p", [(1, 3), (1, 5), (1, 7), (2, 7), (2, 13), (2, 19), (3, 5), (3, 13), (3, 17), (4, 11)]
)
def test_find_roots_is_the_brute_root_set(n, p):
    q = p**n
    brute = tuple(a for a in range(1, q) if pow(a, n + 1, q) == 1)
    assert find_roots(n, p).residues == brute



def test_find_roots_preconditions():
    with pytest.raises(PreconditionError):
        find_roots(1, 2)  # odd primes only
    with pytest.raises(PreconditionError):
        find_roots(2, 5)  # 5 != 1 mod 3
    with pytest.raises(PreconditionError):
        find_roots(1, 9)  # not prime


def test_symmetric_lifts():
    family = find_roots(1, 5, lift="symmetric")
    assert family.lifts == (1, -1)


def test_sigma_divisibility_direct():
    family = find_roots(2, 7)
    sigma = elementary_symmetric(list(family.lifts))
    assert sigma[0] == 49 and sigma[0] % 49 == 0
    assert sigma[1] == 588 and sigma[1] % 49 == 0


@pytest.mark.parametrize("n,p", [(1, 3), (1, 5), (2, 7), (2, 13), (3, 13)])
def test_sigma_divisibility_all_cases(n, p):
    family = find_roots(n, p)
    sigma = elementary_symmetric(list(family.lifts))
    for j in range(1, n + 1):
        assert sigma[j - 1] % p**n == 0


def test_generator_powers_minus_one_are_units():
    for n, p in [(3, 13), (4, 11), (5, 127)]:
        family = find_roots(n, p)
        q = p**n
        gens = [alpha for alpha in family.residues if multiplicative_order(alpha, q) == n + 1]
        assert gens  # a cyclic group of order n+1 has generators
        for alpha in gens:
            for j in range(1, n + 1):
                assert gcd(pow(alpha, j, q) - 1, p) == 1


# -- the constant M ------------------------------------------------------------


def test_compute_M_values():
    assert compute_M(1) == 1
    assert compute_M(2) == 2
    assert compute_M(3) == 6
    assert compute_M(4) == 6


@pytest.mark.parametrize("n", range(1, 61))
def test_M_is_n_factorial_for_small_or_prime_n_and_else_n_minus_1_factorial(monkeypatch, n):
    # compute_M's closed form against the recursion it is proved from, on the
    # producer's closed-form table and on the verifier's block-count table.
    monkeypatch.setattr(exterior, "MAX_SYMMETRIZATION_N", 60)
    monkeypatch.setattr(solver, "MAX_SYMMETRIZATION_N", 60)
    expected = factorial(n) if n == 1 or primes.is_prime(n) else factorial(n - 1)
    assert compute_M(n) == expected
    for table in (atilde_table(n), verify._rederive_atilde(n)):
        chain = verify.m_chain(n, table)
        assert chain[0] == expected
        # The witnesses m_2..m_n of the proof: (i-1)!(n-i)!, except m_2 = 12 at n = 5.
        witnesses = [12 if (n, i) == (5, 2) else factorial(i - 1) * factorial(n - i) for i in range(2, n + 1)]
        assert list(chain[1:]) == witnesses


def test_M_recursion_witnesses_n2():
    # m_2 = 1 (atilde_{2,1} = -1), m_1' = 1, m_1'' = 2 (atilde_{1,2} = 1/2)
    for table in (atilde_table(2), verify._rederive_atilde(2)):
        assert verify.m_chain(2, table) == (2, 1)


# -- the delta solver ------------------------------------------------------------


def test_solve_deltas_n1_symmetric_lifts():
    family = find_roots(1, 5, lift="symmetric")
    sol = solve_deltas(1, 5, 1, family)
    assert sol.s == (0,)
    assert sol.b == (0,)
    assert sol.delta == (0,)


def test_solve_deltas_n1_nonneg_lifts():
    family = find_roots(1, 3)
    sol = solve_deltas(1, 3, 1, family)
    assert sol.delta == (-1,)
    product = OmegaSeries(1, (1, 3)) * OmegaSeries(1, (1, 6)) * OmegaSeries(1, (1, -9))
    assert product.is_one()


def test_solve_deltas_n2_p7_pinned():
    family = find_roots(2, 7)
    sol = solve_deltas(2, 7, 2, family)
    assert sol.s == (49, 588)
    assert sol.b == (-686, 355348)
    assert sol.delta == (-14, -50)


def test_solve_deltas_n2_oracle_box_search():
    # independent check: brute-force the unique integer pair (d1, d2) in a box
    # solving prod_j c(G_j(d_j)) = 1 + b_1 w + b_2 w^2, using only the atilde
    # table and plain convolution
    n, p, M = 2, 7, 2
    family = find_roots(n, p)
    sol = solve_deltas(n, p, M, family)
    table = atilde_table(n)
    target = (F(1), F(sol.b[0]), F(sol.b[1]))
    hits = []
    for d1 in range(-64, 65):
        for d2 in range(-64, 65):
            # c(G_1(d1)) = 1 + d1 p^2 a11 w + d1^2 p^4 a12 w^2 ; c(G_2(d2)) = 1 + d2 p^4 a21 w^2
            g1 = (F(1), d1 * p**2 * table[(1, 1)], d1**2 * p**4 * table[(1, 2)])
            g2 = (F(1), F(0), d2 * p**4 * table[(2, 1)])
            prod = (
                g1[0] * g2[0],
                g1[1] * g2[0] + g1[0] * g2[1],
                g1[2] * g2[0] + g1[1] * g2[1] + g1[0] * g2[2],
            )
            if prod == target:
                hits.append((d1, d2))
    assert hits == [sol.delta]


def test_solve_deltas_shifted_lifts_still_cancel():
    # lifts are only determined mod p^n; shifting one changes delta but the
    # product identity still holds
    n, p, M = 2, 7, 2
    base = find_roots(n, p)
    shifted = RootFamily(
        n=n,
        p=p,
        residues=base.residues,
        lifts=(base.lifts[0] + 49, base.lifts[1], base.lifts[2]),
        lift_convention="shifted",
    )
    sol = solve_deltas(n, p, M, shifted)
    assert chern_oracle.chern_product(n, p, M, shifted.lifts, sol.delta, atilde_table(n)).is_one()
    assert sol.delta != solve_deltas(n, p, M, base).delta


def _two_primes(n):
    """find_prime(n) and the next prime that qualifies."""
    first = find_prime(n)
    return first, find_prime(n, min_p=first + 1)


@pytest.mark.parametrize("lift", ["nonneg", "symmetric"])
@pytest.mark.parametrize("n", range(1, MAX_SYMMETRIZATION_N + 1))
def test_closed_form_deltas_are_the_forward_pass_deltas(n, lift):
    # Negative lifts make the odd power sums change sign.
    M, table = compute_M(n), atilde_table(n)
    for p in _two_primes(n):
        family = find_roots(n, p, lift=lift)
        sol = solve_deltas(n, p, M, family)
        assert sol.delta == chern_oracle.forward_pass_deltas(n, p, M, family.lifts, table), p
        assert chern_oracle.chern_product(n, p, M, family.lifts, sol.delta, table).is_one(), p


# The least three primes = 1 (mod n+1) per n, every one at or below M(n).
PRIMES_AT_OR_BELOW_M = {5: (7, 13, 19), 6: (29, 43, 71), 7: (17, 41, 73), 8: (19, 37, 73), 9: (11, 31, 41), 10: (23, 67, 89)}


@pytest.mark.parametrize("n, p", [(n, p) for n, ps in PRIMES_AT_OR_BELOW_M.items() for p in ps])
def test_p_exceeds_M_is_checked_but_not_derived(n, p):
    # Every recorded identity holds at these primes; only the paper's hypothesis
    # p > M(n) excludes them, and certify still refuses them.
    M = compute_M(n)
    assert primes.is_odd_prime(p) and p % (n + 1) == 1 and p <= M
    for lift in ("nonneg", "symmetric"):
        family = find_roots(n, p, lift=lift)
        sol = solve_deltas(n, p, M, family)
        assert chern_oracle.chern_product(n, p, M, family.lifts, sol.delta, atilde_table(n)).is_one()
        with pytest.raises(PreconditionError, match=r"need p > M\(n\)"):
            certify(n, 1, p, lift=lift)


def test_a_delta_that_does_not_divide_exactly_is_a_divisibility_error():
    # With M = 1 in place of M(2) = 2 the b_j still divide, but delta_2 does not.
    family = find_roots(2, 7)
    forward = chern_oracle.forward_pass_deltas(2, 7, 1, family.lifts, atilde_table(2))
    assert forward[0].denominator == 1 and forward[1].denominator != 1
    with pytest.raises(DivisibilityError, match=r"k=2: .* not divisible by p\^\(2k\)\*atilde_\{2,1\} = -2401"):
        solve_deltas(2, 7, 1, family)


# The cube roots of unity mod 49 are 1, 18 and 30.
@pytest.mark.parametrize(
    "family,message",
    [
        # 4 and 11 square to 1 mod 15, but 4 * 11 = 14 mod 15: no prime modulus allows this
        (RootFamily(1, 15, (4, 11), (4, 11), "crafted"), "not closed under multiplication"),
        (RootFamily(2, 7, (1, 2, 18), (1, 2, 18), "crafted"), r"2 is not an \(n\+1\)-st root"),
        (RootFamily(2, 7, (1, 18, 30), (1, 18, 31), "crafted"), "lift 31 does not reduce"),
        # a lift divisible by p reduces to a non-unit, so it cannot reduce to a root
        (RootFamily(2, 7, (1, 18, 30), (0, 18, 30), "crafted"), "lift 0 does not reduce"),
    ],
    ids=["not-closed", "not-a-root", "lift-off-its-residue", "lift-divisible-by-p"],
)
def test_bad_root_families_are_rejected(family, message):
    with pytest.raises(CertificationError, match=message):
        family.validate()
    with pytest.raises(CertificationError, match=message):
        solve_deltas(family.n, family.p, 1, family)


def test_solve_deltas_rejects_a_family_for_other_parameters():
    family = find_roots(2, 7)
    with pytest.raises(PreconditionError, match="does not match"):
        solve_deltas(2, 13, 2, family)
    with pytest.raises(PreconditionError, match="does not match"):
        solve_deltas(3, 7, 2, family)


# -- certificates ------------------------------------------------------------------


# The identities certify establishes; it raises before it would return a certificate without one.
CONSTRUCTION_CHECKS = {
    "abelian_bound_recorded", "b_divisible_by_M_p_pow_2j", "chern_product_is_one", "deltas_integral",
    "p_coprime_to_aM", "rank_formula", "roots_closed_under_multiplication", "sigma_divisible_by_p_pow_n",
}


def _assert_payload_records_every_check(cert):
    payload = certdoc.construction_payload(cert)
    assert payload["checks"] == dict.fromkeys(CONSTRUCTION_CHECKS, True)
    assert payload["overall_pass"] is True
    assert payload["assumptions"] == list(certdoc.CITED_ASSUMPTIONS)


def test_certify_1_1_3():
    cert = certify(1, 1, 3)
    _assert_payload_records_every_check(cert)
    assert cert.group_order == 27 and cert.row.order_exponent == 3
    assert cert.row.abelian_exponent == 2
    assert cert.row.bound == F(2, 3)
    assert cert.rank == cert.tau == 3
    assert cert.tau_best_known == 2
    assert chern_oracle.chern_product(1, 3, cert.M, cert.a, cert.delta, cert.atilde).is_one()


def test_certify_2_1_7():
    cert = certify(2, 1, 7)
    _assert_payload_records_every_check(cert)
    assert cert.row.bound == F(3, 5)
    assert cert.rank == 9
    assert cert.group_order == 7**5


@pytest.mark.parametrize("n,p", [(1, 3), (2, 7), (3, 13)])
def test_certify_builds_each_G_class_once(monkeypatch, n, p):
    # The deltas come from the closed form, so no class c(G_k) is built at all.
    assert not hasattr(solver, "chern_G")
    calls = []
    real = series.chern_G
    monkeypatch.setattr(series, "chern_G", lambda *args: calls.append(args) or real(*args))
    cert = certify(n, 1, p)
    assert calls == []
    assert chern_oracle.chern_product(n, p, cert.M, cert.a, cert.delta, cert.atilde).is_one()


@pytest.mark.parametrize("n", [1, 6, 10])
def test_certify_builds_the_atilde_table_twice(monkeypatch, n):
    # Once for the deltas and once for the stored table; M is a closed form.
    p = find_prime(n)
    calls = []
    real = exterior.atilde_table

    def counted(m):
        calls.append(m)
        return real(m)

    for module in (exterior, series, solver):
        monkeypatch.setattr(module, "atilde_table", counted)
    certify(n, 1, p)
    assert calls == [n, n]


def test_certify_preconditions():
    for n, r, p in [
        (1, 1, 2),  # odd primes only
        (2, 1, 5),  # 5 != 1 mod 3
        (2, 1, 3),  # p = 3 is 0 mod 3
        (0, 1, 3),
        (1, 0, 3),
        (1, 1, 9),  # composite, above M(1) = 1
        (3, 1, 4),  # composite, at most M(3) = 6
    ]:
        with pytest.raises(PreconditionError):
            certify(n, r, p)


@pytest.mark.parametrize("n,r,p,lift", [(1, 1, 3, "nonneg"), (2, 2, 13, "symmetric"), (3, 1, 13, "nonneg")])
def test_certify_validates_the_roots_and_tests_p_for_primality_once(monkeypatch, n, r, p, lift):
    validated, primality_tests = [], []
    real_validate, real_is_prime = RootFamily.validate, primes.is_prime
    monkeypatch.setattr(RootFamily, "validate", lambda family: validated.append(family) or real_validate(family))
    monkeypatch.setattr(primes, "is_prime", lambda m: primality_tests.append(m) or real_is_prime(m))
    certify(n, r, p, lift=lift)
    assert len(validated) == 1
    assert primality_tests.count(p) == 1


@pytest.mark.parametrize("n", [3, 6, 10])
def test_certify_inverts_once_and_multiplies_once_per_class(monkeypatch, n):
    # The deltas come from the closed form, so certify makes no series product;
    # only the b_j need an inverse.  verify inverts the line product once too.
    p = find_prime(n)
    inverses, products = [], []
    real_inverse, real_mul = OmegaSeries.inverse, OmegaSeries.__mul__
    monkeypatch.setattr(OmegaSeries, "inverse", lambda a: inverses.append(a) or real_inverse(a))
    monkeypatch.setattr(OmegaSeries, "__mul__", lambda a, b: products.append(a) or real_mul(a, b))
    cert = certify(n, 1, p)
    assert len(inverses) == 1
    assert products == []
    doc = certdoc.build_document(
        "construction", "certify", {"n": n, "r": 1, "p": p, "lifts": "nonneg"}, certdoc.construction_payload(cert)
    )
    inverses.clear()
    assert verify_document(doc).ok
    assert len(inverses) == 1


def test_certify_is_p_independent_in_M_rank_tau():
    for n, (p1, p2) in [(1, (3, 5)), (2, (7, 13)), (3, (13, 29))]:
        c1, c2 = certify(n, 1, p1), certify(n, 1, p2)
        assert c1.M == c2.M
        assert c1.rank == c2.rank
        assert c1.tau == c2.tau


def test_certify_r2_is_conditional():
    cert = certify(1, 2, 3)
    assert cert.row == lambda_row(1, 2)
    assert cert.row.k is not None  # the bound is conditional on a form family
    assert cert.row.order_exponent == 4
    assert cert.row.abelian_exponent == 2 + min(4, 2)
    assert any("olshanskii" in note for note in cert.notes)


def test_rank_formula_values():
    assert [rank_formula(n) for n in (1, 2, 3)] == [3, 9, 40]


def test_certificate_records_closed_form_discrepancy():
    cert = certify(2, 1, 7)
    assert any("closed form" in note for note in cert.notes)


# -- prime search and the bound table -------------------------------------------------


def test_find_prime_examples():
    assert find_prime(1) == 3
    assert find_prime(2) == 7
    assert find_prime(2, h=7) == 13
    assert find_prime(3) == 13
    assert find_prime(1, min_p=4) == 5
    assert find_prime(2, min_p=2_000_000) == 2_000_029


def test_find_prime_exhaustion():
    # At n = 2 the search starts at 4, the least value = 1 mod 3 from max(1, M + 1, 3) = 3,
    # and h divides out every prime among the candidates it examines.
    examined = range(4, 4 + 3 * primes.MAX_PRIME_CANDIDATES, 3)
    qualifying = [c for c in examined if c % 2 and primes.is_prime(c)]
    h = prod(qualifying)
    with pytest.raises(SearchExhausted, match=f"among the first {primes.MAX_PRIME_CANDIDATES} candidates"):
        find_prime(2, h=h)
    # The last candidate examined is still found when h spares it.
    assert find_prime(2, h=h // qualifying[-1]) == qualifying[-1]


def test_lambda_table_row_limit_is_inclusive():
    assert certdoc.MAX_LAMBDA_TABLE_ROWS == 100 * 100
    assert len(lambda_table(100, 100)) == 100 * 100
    with pytest.raises(PreconditionError, match="exceeds the limit"):
        lambda_table(101, 100)


def test_lambda_table_values():
    rows = {(row.n, row.r): row for row in lambda_table(4, 4)}
    assert rows[(1, 1)].bound == F(2, 3)
    assert rows[(2, 1)].bound == F(3, 5)
    assert rows[(4, 1)].bound == F(5, 9)
    assert rows[(4, 4)].bound == F(10, 12)
    assert rows[(4, 4)].abelian_exponent == 10
    assert rows[(4, 4)].order_exponent == 12
    assert rows[(4, 4)].exponent_form_exact
    assert not rows[(3, 5) if (3, 5) in rows else (1, 3)].exponent_form_exact


def test_certify_refuses_a_group_that_disagrees_with_the_row(monkeypatch):
    monkeypatch.setattr(solver, "max_abelian_exponent", lambda n, p: n + 2)
    with pytest.raises(CertificationError, match="abelian exponent 3"):
        certify(2, 1, 7)
    certify(2, 2, 7)  # r > 1 reads the row alone


def test_lambda_r1_column_strictly_decreasing_toward_half():
    rows = [row for row in lambda_table(9, 1)]
    bounds = [row.bound for row in rows]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert all(b > F(1, 2) for b in bounds)


def test_epsilon_witness():
    rows = lambda_table(3, 1)
    hit = epsilon_witness(rows, F(2, 3))
    assert hit is not None and (hit.n, hit.r) == (2, 1)  # 3/5 < 2/3, (1,1) is not
    assert epsilon_witness(rows, F(1, 10)) is None
