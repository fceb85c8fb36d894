"""Roots of unity, the constant M, the delta solver, certificates, prime search."""

import itertools
from fractions import Fraction
from math import gcd

import pytest

from pgroupcert import solver
from pgroupcert.exterior import atilde_table
from pgroupcert.series import OmegaSeries
from pgroupcert.solver import (
    CertificationError,
    PreconditionError,
    RootFamily,
    SearchExhausted,
    _primitive_root_mod_prime_power,
    certify,
    compute_M,
    elementary_symmetric,
    epsilon_witness,
    find_prime,
    find_roots,
    generators_of_root_group,
    lambda_table,
    rank_formula,
    solve_deltas,
)

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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_primitive_root_is_the_least_generator(p, n):
    q = p**n
    phi = (p - 1) * p ** (n - 1)

    def order(g):
        k, x = 1, g % q
        while x != 1:
            x = x * g % q
            k += 1
        return k

    least = next(g for g in range(2, q) if g % p and order(g) == phi)
    assert _primitive_root_mod_prime_power(p, n) == least


@pytest.mark.parametrize("n,expected", [(1, 5), (2, 10), (3, 10)])
def test_primitive_root_when_the_least_root_mod_p_fails_mod_p_squared(n, expected):
    # 5 is the least primitive root mod 40487 (the only such prime below
    # 60,000), but 5^(p-1) = 1 mod p^2, so it generates no unit group mod
    # p^n for n >= 2: the factor p of phi is what rules it out.
    p = 40487
    assert pow(5, p - 1, p * p) == 1
    assert _primitive_root_mod_prime_power(p, n) == expected


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
    family = find_roots(3, 13)
    q = 13**3
    gens = generators_of_root_group(family)
    assert gens  # a cyclic group of order n+1 has generators
    for alpha in gens:
        for j in range(1, 4):
            assert gcd(pow(alpha, j, q) - 1, 13) == 1


# -- the constant M ------------------------------------------------------------


def test_compute_M_values():
    assert compute_M(1) == 1
    assert compute_M(2) == 2
    assert compute_M(3) == 6
    assert compute_M(4) == 6


def test_M_recursion_witnesses_n2():
    # m_2 = 1 (atilde_{2,1} = -1), m_1' = 1, m_1'' = 2 (atilde_{1,2} = 1/2)
    from pgroupcert.solver import _m_chain

    assert _m_chain(2) == (2, 1)


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
    product = OmegaSeries.one(n)
    for a in shifted.lifts:
        product = product * OmegaSeries.from_dict(n, {0: 1, 1: a * M * p})
    table = atilde_table(n)
    for i in (1, 2):
        entries = {0: F(1)}
        for j in range(1, n // i + 1):
            entries[j * i] = F(sol.delta[i - 1]) ** j * F(p) ** (2 * j * i) * table[(i, j)]
        product = product * OmegaSeries.from_dict(n, entries)
    assert product.is_one()
    assert sol.delta != solve_deltas(n, p, M, base).delta


# -- certificates ------------------------------------------------------------------


def test_certify_1_1_3():
    cert = certify(1, 1, 3)
    assert cert.overall_pass
    assert cert.group_order == 27 and cert.group_order_exponent == 3
    assert cert.abelian_exponent == 2
    assert cert.lambda_gamma == F(2, 3)
    assert cert.rank == cert.tau == 3
    assert cert.tau_best_known == 2
    assert cert.chern_product.is_one()


def test_certify_2_1_7():
    cert = certify(2, 1, 7)
    assert cert.overall_pass
    assert cert.lambda_gamma == F(3, 5)
    assert cert.rank == 9
    assert cert.group_order == 7**5


def test_certify_preconditions():
    with pytest.raises(PreconditionError):
        certify(1, 1, 2)
    with pytest.raises(PreconditionError):
        certify(2, 1, 5)  # 5 != 1 mod 3
    with pytest.raises(PreconditionError):
        certify(2, 1, 3)  # p = 3 is 0 mod 3
    with pytest.raises(PreconditionError):
        certify(0, 1, 3)


def test_certify_is_p_independent_in_M_rank_tau():
    for n, (p1, p2) in [(1, (3, 5)), (2, (7, 13)), (3, (13, 29))]:
        c1, c2 = certify(n, 1, p1), certify(n, 1, p2)
        assert c1.M == c2.M
        assert c1.rank == c2.rank
        assert c1.tau == c2.tau


def test_certify_r2_is_conditional():
    cert = certify(1, 2, 3)
    assert cert.abelian_bound_conditional
    assert cert.group_order_exponent == 4
    assert cert.abelian_exponent == 2 + min(4, 2)
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


def test_find_prime_exhaustion():
    with pytest.raises(SearchExhausted):
        find_prime(2, ceiling=6)


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
