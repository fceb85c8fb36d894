"""Independent re-checking of stored certificate documents.

The verifier trusts nothing but the raw integers in the document: it
re-derives the symmetrization table by expanding the subset product
prod_{|S|=k} (1 + eps_k k!(n-k)! y_S) in the subring y_i = u_i v_i (the
producer reads the same table from its closed form instead), re-runs the
divisibility recursion for M, re-evaluates the symmetric functions,
re-multiplies the Chern product, re-checks matrix congruences and re-runs
the isotropic-subspace enumerations.  A form family whose k exceeds n is
settled by nondegeneracy instead: its forms pass a rank check, and a
nondegenerate form on F_p^(2n) has no isotropic subspace above dimension
n.  It never calls the producing solver; only the series/enumeration
primitives are shared.

A content digest binds each document.  Checks that would be expensive to
re-run are skipped (and reported as not run) once the digest has already
failed, since the document is rejected either way.  The digest is not a
signature, though, so the size parameters of every document kind are
bounded before any arithmetic depends on them, a stored power of p is
compared by bit length before the power is computed, and the brute-force
group oracle runs under the verifier's own budget, never the one a report
claims, and is refused when its m^2 product table would be too large.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Any

from . import primes
from .certdoc import (
    ParseError,
    compute_digest,
    decode_fraction,
    decode_int,
    decode_int_list,
    decode_matrix,
    document_digestable,
)
from .exterior import MAX_SYMMETRIZATION_N, SymmetrizationError, symmetrization_coefficients
from .groups import DEFAULT_BRUTE_BUDGET, MAX_GROUP_N, brute_force_lambda, max_abelian_exponent
from .series import OmegaSeries
from .symplectic import (
    DEFAULT_SUBSPACE_BUDGET,
    BudgetExceeded,
    SymplecticForm,
    enumerate_isotropic,
    gaussian_binomial,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    kind: str
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]


def decode_series(value: Any) -> OmegaSeries:
    if not isinstance(value, dict) or "n" not in value or "coeffs" not in value:
        raise ParseError("expected a truncated series object")
    return OmegaSeries(decode_int(value["n"]), [decode_fraction(c) for c in value["coeffs"]])


# -- local re-derivations (kept independent of the solver module) -----------


def _elementary_symmetric(values: list[int]) -> list[int]:
    coeffs = [1]
    for v in values:
        coeffs = [c + v * (coeffs[i - 1] if i else 0) for i, c in enumerate(coeffs)] + [
            v * coeffs[-1]
        ]
    return coeffs[1:]


def _recompute_m(n: int, table: dict[tuple[int, int], Fraction]) -> int:
    chain = [0] * (n + 1)
    chain[n] = abs(table[(n, 1)].numerator)
    for i in range(n - 1, 0, -1):
        m_prime = abs(table[(i, 1)].numerator)
        m_dd = 1
        for j in range(2, n // i + 1):
            den = (table[(i, j)] / chain[i + 1]).denominator
            m_dd = m_dd * den // gcd(m_dd, den)
        chain[i] = m_prime * m_dd
    return chain[1]


def _rederive_atilde(n: int) -> dict[tuple[int, int], Fraction]:
    """atilde_{k,j} = ((k-1)!)^j * a_{k,j}, with a_{k,j} from the subset expansion."""
    return {
        (k, j): Fraction(factorial(k - 1)) ** j * a
        for k in range(1, n + 1)
        for j, a in enumerate(symmetrization_coefficients(n, k), start=1)
    }


def _bound_row(n: int, r: int, k: int | None = None) -> tuple[int | None, int, int, bool]:
    """(k, abelian exponent, order exponent, r | 4n) of the abelian-subgroup bound at (n, r).

    r = 1 is the Heisenberg group itself, abelian exponent n + 1 and no k.
    For r > 1 the bound assumes a form family with no common isotropic
    k-space, k = floor(4n/r) + 2 unless given, and is r + min(k, 2n).  The
    order exponent is 2n + r either way.
    """
    if r == 1:
        return None, n + 1, 2 * n + 1, True
    if k is None:
        k = 4 * n // r + 2
    return k, r + min(k, 2 * n), 2 * n + r, (4 * n) % r == 0


def _is_power(value: int, p: int, e: int) -> bool:
    """value == p**e, computing the power only when its size is bounded by value's.

    For |p| >= 2 the power has more than e bits, so an exponent above the
    bit length of value cannot match and is rejected before any work.
    """
    if e < 0 or (abs(p) >= 2 and e > value.bit_length()):
        return False
    return value == p**e


# -- the dispatcher -----------------------------------------------------------


def verify_document(
    doc: dict[str, Any], budget: int = DEFAULT_SUBSPACE_BUDGET
) -> VerificationReport:
    kind = doc.get("kind")
    results: list[CheckResult] = []

    stored_digest = doc.get("digest")
    expected_digest = compute_digest(document_digestable(doc))
    digest_ok = stored_digest == expected_digest
    results.append(
        CheckResult(
            "document_digest",
            digest_ok,
            "" if digest_ok else "content does not match its digest",
        )
    )

    # Each kind's checker appends to results as it goes, so a check that
    # raises on a malformed field still leaves the ones computed before it.
    try:
        if kind == "construction":
            _verify_construction(doc["certificate"], digest_ok, budget, results)
        elif kind == "group":
            _verify_group(doc["certificate"], digest_ok, results)
        elif kind == "olshanskii":
            _verify_olshanskii(doc["certificate"], digest_ok, budget, results)
        elif kind == "lambda_table":
            _verify_lambda_table(doc["certificate"], results)
        elif kind == "prime":
            _verify_prime(doc["certificate"], results)
        else:
            results.append(CheckResult("kind", False, f"unknown document kind {kind!r}"))
    except ParseError:
        raise
    except SymmetrizationError as exc:
        results.append(CheckResult("atilde_table", False, str(exc)))
    except (KeyError, TypeError, ValueError) as exc:
        results.append(CheckResult("well_formed", False, f"malformed certificate: {exc}"))
    return VerificationReport(kind=str(kind), results=results)


def _check(name: str, condition: bool, detail_if_bad: str) -> CheckResult:
    return CheckResult(name, bool(condition), "" if condition else detail_if_bad)


def _skipped(name: str) -> CheckResult:
    return CheckResult(name, False, "not run: document already failed integrity")


# -- construction certificates -------------------------------------------------


def _verify_construction(cert: dict, digest_ok: bool, budget: int, out: list[CheckResult]) -> None:
    n = decode_int(cert["n"])
    r = decode_int(cert["r"])
    p = decode_int(cert["p"])
    params_ok = 1 <= n <= MAX_SYMMETRIZATION_N and r >= 1 and p >= 3 and p % 2 == 1
    out.append(
        _check(
            "params",
            params_ok,
            f"bad parameters n={n}, r={r}, p={p} "
            f"(need 1 <= n <= {MAX_SYMMETRIZATION_N}, r >= 1 and an odd p >= 3)",
        )
    )
    if not params_ok:
        return
    M = decode_int(cert["M"])
    residues = decode_int_list(cert["residues"])
    lifts = decode_int_list(cert["a"])
    s = decode_int_list(cert["s"])
    b = decode_int_list(cert["b"])
    delta = decode_int_list(cert["delta"])
    q = p**n

    out.append(
        _check(
            "prime",
            p % 2 == 1 and primes.is_prime(p) and p % (n + 1) == 1,
            f"p={p} is not an odd prime congruent to 1 mod {n + 1}",
        )
    )

    fresh_table = _rederive_atilde(n)
    stored_table = {
        (decode_int(e["k"]), decode_int(e["j"])): decode_fraction(e["value"])
        for e in cert["atilde"]
    }
    out.append(
        _check(
            "atilde_table",
            stored_table == fresh_table,
            "stored symmetrization table disagrees with the subset expansion",
        )
    )

    fresh_m = _recompute_m(n, fresh_table)
    out.append(_check("M", M == fresh_m, f"stored M={M}, recomputed {fresh_m}"))
    out.append(_check("p_exceeds_M", p > fresh_m, f"p={p} is not above M={fresh_m}"))

    roots_ok = (
        len(residues) == n + 1
        and len(set(residues)) == n + 1
        and all(pow(alpha, n + 1, q) == 1 for alpha in residues)
        and all(x * y % q in set(residues) for x in residues for y in residues)
        and all(a % q == alpha % q for a, alpha in zip(lifts, residues))
        and all(a % p for a in lifts)
    )
    out.append(_check("roots", roots_ok, "root family fails its defining identities"))

    sigma = _elementary_symmetric(lifts)[:n]
    out.append(
        _check(
            "sigma_divisibility",
            list(s) == sigma and all(v % q == 0 for v in sigma),
            f"symmetric functions {sigma} (stored {s}) not all divisible by p^n={q}",
        )
    )

    product = OmegaSeries.one(n)
    for a in lifts:
        product = product * OmegaSeries.from_dict(n, {0: 1, 1: a * M * p})
    inv = product.inverse()
    b_ok = all(inv.coefficient(j) == b[j - 1] for j in range(1, n + 1)) and all(
        b[j - 1] % (M * p ** (2 * j)) == 0 for j in range(1, n + 1)
    )
    out.append(
        _check("b_series", b_ok, "stored b does not match the inverse series or its divisibility")
    )

    total = product
    for i in range(1, n + 1):
        entries = {0: Fraction(1)}
        for j in range(1, n // i + 1):
            entries[j * i] = (
                Fraction(delta[i - 1]) ** j * Fraction(p) ** (2 * j * i) * fresh_table[(i, j)]
            )
        total = total * OmegaSeries.from_dict(n, entries)
    stored_product = decode_series(cert["chern_product"])
    out.append(
        _check(
            "chern_product",
            total.is_one() and stored_product.is_one(),
            f"rebuilt Chern product is {total!r}",
        )
    )

    rank = decode_int(cert["rank"])
    tau = decode_int(cert["tau"])
    expected_rank = n + 1 + n * (n + 1) // 2 * factorial(n)
    out.append(
        _check(
            "rank_tau",
            rank == expected_rank
            and tau == rank
            and decode_int(cert["tau_best_known"]) == (2 if n == 1 else rank),
            f"rank/tau fields disagree with the formula value {expected_rank}",
        )
    )

    group = cert["group"]
    k, expected_abelian, order_exponent, _ = _bound_row(n, r)
    group_ok = (
        decode_int(group["order_exponent"]) == order_exponent
        and _is_power(decode_int(group["order"]), p, order_exponent)
        and decode_int(group["abelian_exponent"]) == expected_abelian
        and group["abelian_bound_conditional"] == (k is not None)
        and decode_fraction(group["lambda"]) == Fraction(expected_abelian, order_exponent)
    )
    out.append(_check("group_bounds", group_ok, "group bound arithmetic does not re-derive"))

    if r == 1:
        if digest_ok:
            structural_ok = max_abelian_exponent(n, p, isotropic_budget=budget) == expected_abelian
            count = gaussian_binomial(2 * n, n + 1, p)
            if not structural_ok:
                detail = "structural abelian bound re-check failed"
            elif count > budget:
                detail = f"structural-only: {count} subspaces over budget {budget}"
            else:
                detail = ""
            out.append(CheckResult("abelian_bound_structural", structural_ok, detail))
        else:
            out.append(_skipped("abelian_bound_structural"))

    out.append(
        _check(
            "recorded_checks",
            bool(cert["overall_pass"]) and all(bool(v) for v in cert["checks"].values()),
            "certificate records a failed check",
        )
    )


# -- group reports --------------------------------------------------------------


def _verify_group(cert: dict, digest_ok: bool, out: list[CheckResult]) -> None:
    n = decode_int(cert["n"])
    p = decode_int(cert["p"])
    params_ok = 1 <= n <= MAX_GROUP_N and primes.is_odd_prime(p)
    out.append(
        _check(
            "params",
            params_ok,
            f"bad parameters n={n}, p={p} (need 1 <= n <= {MAX_GROUP_N} and an odd prime p)",
        )
    )
    if not params_ok:
        return
    mode = cert["mode"]
    order = decode_int(cert["order"])
    stored_max = decode_int(cert["max_abelian_order"])
    stored_exp = decode_int(cert["max_abelian_exponent"])
    lam = decode_fraction(cert["lambda"])

    out.append(_check("mode", mode in ("structural", "brute"), f"unknown mode {mode!r}"))
    out.append(
        _check(
            "order",
            _is_power(order, p, 2 * n + 1) and decode_int(cert["order_exponent"]) == 2 * n + 1,
            "group order fields disagree",
        )
    )
    out.append(
        _check(
            "lambda_arithmetic",
            _is_power(stored_max, p, stored_exp) and lam == Fraction(stored_exp, 2 * n + 1),
            "lambda is not the stored exponent ratio",
        )
    )

    if not digest_ok:
        out.append(_skipped("bound_recomputation"))
        return

    try:
        structural = max_abelian_exponent(n, p)
        if mode == "brute":
            # The stored budget is the producer's claim, not a bound the verifier accepts.
            brute_order, brute_lambda = brute_force_lambda(n, p, budget=DEFAULT_BRUTE_BUDGET)
            ok = (
                brute_order == stored_max
                and brute_lambda == lam
                and structural == stored_exp
                and cert.get("modes_agree") is True
            )
            out.append(_check("bound_recomputation", ok, "brute-force re-run disagrees"))
        else:
            out.append(
                _check(
                    "bound_recomputation",
                    structural == stored_exp,
                    f"structural exponent {structural} != stored {stored_exp}",
                )
            )
    except BudgetExceeded as exc:
        out.append(CheckResult("bound_recomputation", False, str(exc)))


# -- product-subgroup (form family) certificates ---------------------------------


def _verify_olshanskii(cert: dict, digest_ok: bool, budget: int, out: list[CheckResult]) -> None:
    n = decode_int(cert["n"])
    p = decode_int(cert["p"])
    r = decode_int(cert["r"])
    k = decode_int(cert["k"])
    mats = [decode_matrix(a) for a in cert["mats"]]
    form_matrices = [decode_matrix(f) for f in cert["forms"]]
    certified = bool(cert["certified"])

    # This bounds every size below by the document's own: n by the stored
    # matrices, which must be 2n x 2n, and p by the primality test's range.
    # The number of stored forms is left to form_congruence, which needs
    # them to be exactly the r pullbacks.
    dim = 2 * n
    params_ok = (
        n >= 1
        and r >= 2
        and primes.is_odd_prime(p)
        and len(mats) == r
        and all(len(m) == dim and all(len(row) == dim for row in m) for m in mats + form_matrices)
    )
    out.append(
        _check(
            "params",
            params_ok,
            f"bad parameters n={n}, r={r}, p={p} (need n >= 1, r >= 2, an odd prime p, "
            f"r matrices, and every stored matrix and form 2n x 2n)",
        )
    )
    if not params_ok:
        return

    out.append(
        _check(
            "k_choice",
            k == _bound_row(n, r)[0] and 4 * n < r * (k - 1),
            f"k={k} is not the floor(4n/r)+2 choice or violates 4n < r(k-1)",
        )
    )
    # A square A is invertible exactly when its pullback A^T M A is
    # nondegenerate, and the pullback proves that by rank, so one row
    # reduction per matrix settles both.
    standard = SymplecticForm.standard(n, p)
    try:
        forms = [standard.pullback(a) for a in mats]
    except ValueError:
        forms = []
    invertible = len(forms) == r
    out.append(_check("matrices_invertible", invertible, "some A_j is not invertible mod p"))

    congruent = invertible and [f.matrix for f in forms] == form_matrices
    out.append(
        _check(
            "form_congruence",
            congruent,
            "stored forms are not exactly the pullbacks of the standard form by the stored matrices",
        )
    )

    _, abelian_exponent, order_exponent, _ = _bound_row(n, r, k)
    exponents_ok = (
        decode_int(cert["order_exponent"]) == order_exponent
        and decode_int(cert["abelian_exponent"]) == abelian_exponent
    )
    out.append(_check("bound_exponents", exponents_ok, "bound exponent arithmetic is off"))

    if not digest_ok:
        out.append(_skipped("isotropic_enumeration"))
        return
    if not congruent:
        out.append(CheckResult("isotropic_enumeration", False, "not run: forms invalid"))
        return

    if k > n:
        # Every form is nondegenerate, so no subspace above dimension n is
        # isotropic for any of them: W lies in W-perp, of dimension 2n - dim W.
        detail = f"nondegeneracy: k={k} > n={n}"
        if not certified:
            detail += f", but certified={certified}"
        out.append(CheckResult("isotropic_enumeration", certified, detail))
    else:
        try:
            common = enumerate_isotropic(forms, k, budget=budget)
        except BudgetExceeded as exc:
            out.append(CheckResult("isotropic_enumeration", False, str(exc)))
            return
        out.append(
            _check(
                "isotropic_enumeration",
                (len(common) == 0) == certified,
                f"enumeration found {len(common)} common isotropic subspaces but "
                f"certified={certified}",
            )
        )

    bound = cert.get("bound")
    if bound is not None and bound.get("max_common_isotropic_dim") is not None:
        stored_d = decode_int(bound["max_common_isotropic_dim"])
        d_exact = None
        try:
            for d in range(min(k - 1, n), -1, -1):
                if enumerate_isotropic(forms, d, budget=budget):
                    d_exact = d
                    break
            out.append(
                _check(
                    "exact_abelian_bound",
                    d_exact == stored_d
                    and decode_int(bound["exact_abelian_exponent"]) == r + stored_d,
                    f"recomputed max common-isotropic dim {d_exact} != stored {stored_d}",
                )
            )
        except BudgetExceeded as exc:
            out.append(CheckResult("exact_abelian_bound", False, str(exc)))


# -- bound tables and prime documents ---------------------------------------------


def _verify_lambda_table(cert: dict, out: list[CheckResult]) -> None:
    max_n = decode_int(cert["max_n"])
    max_r = decode_int(cert["max_r"])
    rows = cert["rows"]
    # The rows must be exactly the (n, r) grid, so every later division by r
    # and every size below is bounded by the rows the document really holds.
    pairs = {(decode_int(row["n"]), decode_int(row["r"])) for row in rows}
    params_ok = (
        max_n >= 1
        and max_r >= 1
        and len(rows) == max_n * max_r
        and len(pairs) == len(rows)
        and all(1 <= n <= max_n and 1 <= r <= max_r for n, r in pairs)
    )
    out.append(
        _check(
            "params",
            params_ok,
            f"bad parameters max_n={max_n}, max_r={max_r} (need both >= 1 and the "
            f"{len(rows)} rows to be exactly the (n, r) grid 1..max_n x 1..max_r)",
        )
    )
    if not params_ok:
        return
    all_ok = True
    detail = ""
    for row in rows:
        n = decode_int(row["n"])
        r = decode_int(row["r"])
        k, abelian, order, exact = _bound_row(n, r)
        row_k = row["k"] if row["k"] is None else decode_int(row["k"])
        if (
            row_k != k
            or decode_int(row["abelian_exponent"]) != abelian
            or decode_int(row["order_exponent"]) != order
            or decode_fraction(row["bound"]) != Fraction(abelian, order)
            or bool(row["exponent_form_exact"]) != exact
        ):
            all_ok = False
            detail = f"row (n={n}, r={r}) does not re-derive"
            break
    out.append(_check("rows", all_ok, detail))

    if "epsilon" in cert:
        epsilon = decode_fraction(cert["epsilon"])
        witness = None
        for row in sorted(rows, key=lambda row: (decode_int(row["n"]), decode_int(row["r"]))):
            if decode_fraction(row["bound"]) < epsilon:
                witness = {"n": decode_int(row["n"]), "r": decode_int(row["r"])}
                break
        stored = cert["epsilon_witness"]
        stored_norm = (
            stored
            if stored == "none in range"
            else {"n": decode_int(stored["n"]), "r": decode_int(stored["r"])}
        )
        out.append(
            _check(
                "epsilon_witness",
                stored_norm == (witness if witness is not None else "none in range"),
                "stored epsilon witness does not re-derive",
            )
        )


def _verify_prime(cert: dict, out: list[CheckResult]) -> None:
    n = decode_int(cert["n"])
    if not 1 <= n <= MAX_SYMMETRIZATION_N:
        out.append(CheckResult("M", False, f"n={n} is outside 1..{MAX_SYMMETRIZATION_N}"))
        return
    h = decode_int(cert["h"])
    min_p = decode_int(cert["min"])
    p = decode_int(cert["prime"])
    M = decode_int(cert["M"])

    fresh_m = _recompute_m(n, _rederive_atilde(n))
    out.append(_check("M", M == fresh_m, f"stored M={M}, recomputed {fresh_m}"))

    qualifies = (
        p % 2 == 1
        and primes.is_prime(p)
        and p % (n + 1) == 1
        and p > fresh_m
        and p >= max(min_p, 3)
        and h % p != 0
    )
    out.append(_check("prime_qualifies", qualifies, f"{p} fails a required condition"))

    start = max(min_p, fresh_m + 1, 3)
    candidate = start + (1 - start) % (n + 1)
    minimal = True
    while candidate < p:
        if candidate % 2 and primes.is_prime(candidate) and h % candidate != 0:
            minimal = False
            break
        candidate += n + 1
    out.append(_check("prime_minimal", minimal, f"{candidate} qualifies and is smaller"))
