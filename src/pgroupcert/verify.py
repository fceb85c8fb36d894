"""Re-checking of stored certificate documents.

Every kind but the form family ends in one payload check: the verifier
rebuilds the certificate from values it holds itself, with the certdoc
builder the producer uses, and compares the two in canonical JSON: 1 is not
true, "1" is not 1, and a dropped, added or re-encoded field fails as a
wrong value does.  Only a failed comparison walks the stored payload beside
the rebuilt one, decoding each flag and {num, den} pair there, so a flag
that is not a JSON boolean or a zero denominator stays a parse error.

Where a document claims no independence from its producer, those values
come from the derivation the producer uses: group reports
(groups.group_report), bound tables (groups.lambda_row and
epsilon_witness) and the prime of a prime document (the walk
solver.find_prime makes).

A construction is derived from n, r, p and its stored residues, lifts and
lift convention alone, and never by the producing solver.  roots holds by
the cyclicity of (Z/p^n)*.  The verifier re-derives on its own the
symmetrization table, by counting the block splittings in the subset
product prod_{|S|=k} (1 + eps_k k!(n-k)! y_S) of the subring y_i = u_i v_i
(the producer reads the same table from its closed form instead), M by the
divisibility recursion m_chain on that table (the producer takes M's proved
closed form instead), b by multiplying out the lifts and inverting (the
producer reads it off the symmetric functions), and each delta_k from the
logarithm identity k delta_k p^(2k) atilde_{k,1} = (-M p)^k P_k on its own
table and M.  Its checks ask of these values what the construction proves:
sigma_j divisible by p^n, b_j by M p^(2j), each delta_k an integer, and the
table of the shape atilde_{k,j} = atilde_{k,1}^j / j! under which those
deltas make the Chern product 1.  The payload rebuilt from them, with the
rank, the bound row and the notes, must then be the stored certificate.  A
form family is checked by its matrix congruences and the enumeration.

It shares with the producer what a copy would not derive a second time:

* the symmetric functions series.elementary_symmetric;
* the certificate's notes and tau note, exterior.construction_notes;
* the bound rule, groups.lambda_row, which defines k and the exponents of
  each (n, r);
* the structural bound of the r = 1 group, groups.max_abelian_exponent;
* the enumeration, symplectic.enumerate_isotropic and
  max_common_isotropic_dim, which it asks again about the stored forms.
  That call is the one place the rank argument lives: a form family whose
  k exceeds n, and the r = 1 upper bound, are settled there by
  nondegeneracy, for every p and under no budget;
* the truncated-series arithmetic of OmegaSeries;
* the payload builders of certdoc, with the cited assumptions and the
  recorded checks a construction payload holds.

A content digest binds each document.  Checks that would be expensive to
re-run are skipped (and reported as not run) once the digest has already
failed, since the document is rejected either way.  The digest is not a
signature, though, so the size parameters of every document kind are
bounded before any arithmetic depends on them (a construction's p by
is_prime's deterministic range, and its r by the group order a document
can hold), no series arithmetic runs on lifts that fail roots, a failure
detail shows an integer past 4300 digits by its bit length, and the
brute-force group oracle and the prime walk stop at the bounds their
producers share.  A group, prime or lambda-table document's command must
be the one its certificate's fields give, with no seed, so every field of
it is checked.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from types import SimpleNamespace
from typing import Any, NamedTuple

from . import primes
from .certdoc import (
    DECIMAL_LIMIT,
    MAX_INT_DIGITS,
    MAX_LAMBDA_TABLE_ROWS,
    NESTED_TOO_DEEPLY,
    ParseError,
    canonical_json,
    compute_digest,
    construction_payload,
    decode_bool,
    decode_fraction,
    decode_int,
    decode_int_list,
    decode_matrix,
    document_digestable,
    fits_document,
    group_report_payload,
    lambda_table_payload,
    prime_payload,
)
from .exterior import MAX_SYMMETRIZATION_N, construction_notes, symmetrization_coefficients
from .groups import MAX_GROUP_N, epsilon_witness, group_report, lambda_row, max_abelian_exponent
from .series import OmegaSeries, elementary_symmetric
from .symplectic import (
    DEFAULT_SUBSPACE_BUDGET,
    MAX_FORM_FAMILY_ENTRIES,
    BudgetExceeded,
    SymplecticForm,
    enumerate_isotropic,
    max_common_isotropic_dim,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    kind: str
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]


# -- local re-derivations (kept independent of the solver module) -----------


def _rederive_atilde(n: int) -> dict[tuple[int, int], Fraction]:
    """atilde_{k,j} = ((k-1)!)^j * a_{k,j}, with a_{k,j} from the block-count recursion."""
    return {
        (k, j): Fraction(factorial(k - 1)) ** j * a
        for k in range(1, n + 1)
        for j, a in enumerate(symmetrization_coefficients(n, k), start=1)
    }


def m_chain(n: int, table: dict[tuple[int, int], Fraction]) -> tuple[int, ...]:
    """Witnesses (m_1, ..., m_n) of the spanning recursion on an atilde table; M(n) = m_1.

    m_n is the least positive integer multiple of atilde_{n,1}; for
    i < n, m_i' is the least positive multiple of atilde_{i,1}, m_i'' is
    the least positive integer with m_i'' * atilde_{i,j} in m_(i+1) Z for
    every j > 1, and m_i = m_i' * m_i''.  The verifier feeds it its
    block-count table; the producer takes M from the closed form that
    solver.compute_M proves from this recursion, so the two routes differ.
    """
    chain = [0] * (n + 1)
    chain[n] = abs(table[(n, 1)].numerator)
    for i in range(n - 1, 0, -1):
        m_doubleprime = 1
        for j in range(2, n // i + 1):
            den = (table[(i, j)] / chain[i + 1]).denominator
            m_doubleprime = m_doubleprime * den // gcd(m_doubleprime, den)
        chain[i] = abs(table[(i, 1)].numerator) * m_doubleprime
    return tuple(chain[1:])


# -- the dispatcher -----------------------------------------------------------


def verify_document(
    doc: dict[str, Any], budget: int = DEFAULT_SUBSPACE_BUDGET
) -> VerificationReport:
    kind = doc.get("kind")
    results: list[CheckResult] = []

    # Each kind's checker appends to results as it goes, so a check that
    # raises on a malformed field still leaves the ones computed before it.
    # A document that parsed just under the recursion limit can exhaust it
    # here, a few frames deeper, in the digest's encoder or in a check.
    try:
        digest_ok = doc.get("digest") == compute_digest(document_digestable(doc))
        results.append(
            CheckResult("document_digest", digest_ok, "" if digest_ok else "content does not match its digest")
        )
        if kind == "construction":
            _verify_construction(doc["certificate"], digest_ok, results)
        elif kind == "group":
            _verify_group(doc["certificate"], digest_ok, results)
            results.append(_verify_command(doc, "group", ("n", "p", "mode")))
        elif kind == "olshanskii":
            _verify_olshanskii(doc["certificate"], digest_ok, budget, results)
        elif kind == "lambda_table":
            _verify_lambda_table(doc, results)
        elif kind == "prime":
            _verify_prime(doc["certificate"], results)
            results.append(_verify_command(doc, "find-prime", ("n", "h", "min")))
        else:
            results.append(CheckResult("kind", False, f"unknown document kind {kind!r}"))
    except ParseError:
        raise
    except RecursionError as exc:
        raise ParseError(NESTED_TOO_DEEPLY) from exc
    except (KeyError, TypeError, ValueError) as exc:
        results.append(CheckResult("well_formed", False, f"malformed certificate: {exc}"))
    return VerificationReport(kind=str(kind), results=results)


def _show(value: Any) -> str:
    """str(value), except that an integer past certdoc.MAX_INT_DIGITS digits shows its bit length.

    A document may hold integers that str() refuses to convert, so every
    value a failure detail names goes through here, inside lists, tuples
    and fractions too.
    """
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) >= DECIMAL_LIMIT:
        return f"<{value.bit_length()}-bit integer>"
    if isinstance(value, Fraction):
        num = _show(value.numerator)
        return num if value.denominator == 1 else f"{num}/{_show(value.denominator)}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_show, value)) + "]"
    return str(value)


def _check(name: str, condition: bool, template: str, *values: Any) -> CheckResult:
    """A named result; a failure's detail is ``template`` filled with the shown values."""
    if condition:
        return CheckResult(name, True)
    return CheckResult(name, False, template.format(*map(_show, values)))


def _skipped(name: str) -> CheckResult:
    return CheckResult(name, False, "not run: document already failed integrity")


def _same(name: str, stored: dict, expected: dict, where: str) -> CheckResult:
    """A check that stored equals expected in canonical JSON, so 1 is not true and "1" is not 1.

    The two are compared once.  Only a failure walks the stored payload beside
    the rebuilt one, with _decode_as_rebuilt, and then looks for the first key
    that differs, and within rows for the first row.
    """
    if canonical_json(stored) == canonical_json(expected):
        return CheckResult(name, True)
    _decode_as_rebuilt(stored, expected)
    key = next(
        key for key in sorted(stored.keys() | expected.keys())
        if key not in stored or key not in expected or canonical_json(stored[key]) != canonical_json(expected[key])
    )
    where, a, b = f"{where}.{key}", stored.get(key), expected.get(key)
    if key not in stored or key not in expected:
        return CheckResult(name, False, f"{where} is " + ("missing" if key in expected else "not a rebuilt field"))
    if key == "rows" and isinstance(a, list):
        i = next((i for i, pair in enumerate(zip(a, b)) if canonical_json(pair[0]) != canonical_json(pair[1])), None)
        if i is not None:
            return CheckResult(name, False, f"{where}[{i}] differs from the rebuilt row")
    return CheckResult(name, False, f"{where} is {_shown(a)}, rebuilt {_shown(b)}")


def _decode_as_rebuilt(stored: Any, rebuilt: Any) -> None:
    """Decode each stored value where the rebuilt payload has a flag or a {num, den} pair.

    So a flag that is not a JSON boolean, or a zero denominator, is a parse
    error.  Only the rebuilt payload's keys and list positions are followed.
    """
    if isinstance(rebuilt, bool):
        decode_bool(stored)
    elif isinstance(rebuilt, dict) and rebuilt.keys() == {"num", "den"}:
        decode_fraction(stored)
    elif isinstance(rebuilt, dict) and isinstance(stored, dict):
        for key, value in rebuilt.items():
            if key in stored:
                _decode_as_rebuilt(stored[key], value)
    elif isinstance(rebuilt, list) and isinstance(stored, list):
        for item, value in zip(stored, rebuilt):
            _decode_as_rebuilt(item, value)


def _shown(value: Any) -> str:
    """A stored JSON value for a failure detail: its JSON; past 60 characters an integer by _show, else cut short."""
    text = canonical_json(value)
    if len(text) <= 60:
        return text
    try:
        return _show(decode_int(value))
    except ParseError:
        return text[:57] + "..."


def _verify_command(doc: dict, name: str, keys: tuple[str, ...], **derived: Any) -> CheckResult:
    """The command is ``name`` with the certificate's ``keys`` (and ``derived``) as params, and the seed null."""
    params = {key: doc["certificate"][key] for key in keys} | derived
    stored = {key: doc[key] for key in ("command", "seed") if key in doc}
    return _same("command", stored, {"command": {"name": name, "params": params}, "seed": None}, "document")


# -- construction certificates -------------------------------------------------


def _verify_construction(cert: dict, digest_ok: bool, out: list[CheckResult]) -> None:
    """Derive a construction certificate from n, r, p and its roots, then compare the rebuilt payload with it.

    roots holds by cyclicity; sigma, b and delta are derived from the lifts with the
    verifier's own M and table, delta by the logarithm identity (see the comments).
    p_exceeds_M is checked, not derived: p > M(n) is the paper's hypothesis,
    and every other recorded identity also holds at primes = 1 mod (n+1) below M(n).
    """
    n = decode_int(cert["n"])
    r = decode_int(cert["r"])
    p = decode_int(cert["p"])
    # Every series check does arithmetic in p; certify cannot reach a p past is_prime's range,
    # nor a group order p^(2n+r) that a document cannot hold.
    params_ok = (
        1 <= n <= MAX_SYMMETRIZATION_N
        and r >= 1
        and 3 <= p < primes.DETERMINISTIC_LIMIT
        and p % 2 == 1
        and fits_document(p, 2 * n + r)
    )
    out.append(
        _check(
            "params",
            params_ok,
            "bad parameters n={}, r={}, p={} (need 1 <= n <= {}, r >= 1, an odd p with 3 <= p < {} "
            "and a group order p^(2n+r) of at most {} digits)",
            n, r, p, MAX_SYMMETRIZATION_N, primes.DETERMINISTIC_LIMIT, MAX_INT_DIGITS,
        )
    )
    if not params_ok:
        return
    residues = decode_int_list(cert["residues"])
    lifts = decode_int_list(cert["a"])
    q = p**n

    prime_ok = primes.is_odd_prime(p) and p % (n + 1) == 1
    out.append(_check("prime", prime_ok, "p={} is not an odd prime congruent to 1 mod {}", p, n + 1))

    table = _rederive_atilde(n)
    M = m_chain(n, table)[0]
    out.append(_check("p_exceeds_M", p > M, "p={} is not above M={}", p, M))

    # Each lift convention is a window of q consecutive integers: [0, q) or |a| <= (q-1)/2.
    convention = cert["lift_convention"]
    windows = {"nonneg": 0, "symmetric": -(q // 2)}
    held = [name for name, low in windows.items() if all(low <= a < low + q for a in lifts)]
    # prime_ok makes (Z/p^n)* cyclic with n+1 | p-1, so its roots of x^(n+1) = 1
    # are its one subgroup of order n+1: n+1 distinct reduced roots are all of
    # them, and so are closed under multiplication with no product taken.
    roots_ok = (
        prime_ok
        and convention in held
        and len(lifts) == len(residues) == len(set(residues)) == n + 1
        and all(0 <= alpha < q and pow(alpha, n + 1, q) == 1 for alpha in residues)
        and all(a % q == alpha % q for a, alpha in zip(lifts, residues))
        and all(a % p for a in lifts)
    )
    out.append(_check("roots", roots_ok, "root family fails its identities or its lift range"))

    row = lambda_row(n, r)
    if not roots_ok:
        # Only roots bounds each lift by its window of q, so no series arithmetic runs without it.
        out.extend(
            CheckResult(name, False, "not run: roots failed")
            for name in ("sigma_divisibility", "b_series", "chern_product", "payload")
        )
    else:
        sigma = elementary_symmetric(lifts)[:n]
        out.append(
            _check(
                "sigma_divisibility",
                all(v % q == 0 for v in sigma),
                "symmetric functions {} not all divisible by p^n={}",
                sigma, q,
            )
        )

        product = OmegaSeries.one(n)
        for a in lifts:
            product = product * OmegaSeries.from_dict(n, {0: 1, 1: a * M * p})
        inv = product.inverse()
        # The product has integer coefficients and constant term 1, so its inverse's are integers.
        b = [inv.coefficient(j).numerator for j in range(1, n + 1)]
        out.append(
            _check(
                "b_series",
                all(b[j - 1] % (M * p ** (2 * j)) == 0 for j in range(1, n + 1)),
                "the inverse line product {} is not divisible by M p^(2j)",
                b,
            )
        )

        # With atilde_{k,j} = atilde_{k,1}^j / j!, c(G_k(delta)) = exp(delta p^(2k) atilde_{k,1} omega^k), and
        # log prod_j (1 + a_j M p omega) = -sum_k (-M p)^k P_k omega^k / k with P_k = sum_j a_j^k, so the
        # product of all classes is 1 exactly when k delta_k p^(2k) atilde_{k,1} = (-M p)^k P_k at each k.
        exponential = all(entry == table[(k, 1)] ** j / factorial(j) for (k, j), entry in table.items())
        powers, deltas = [1] * (n + 1), []
        for k in range(1, n + 1):
            powers = [x * a for x, a in zip(powers, lifts)]
            deltas.append(Fraction((-M * p) ** k * sum(powers), k * p ** (2 * k)) / table[(k, 1)])
        fractional = [k for k, d in enumerate(deltas, start=1) if d.denominator != 1]
        out.append(
            _check(
                "chern_product",
                exponential and not fractional,
                "delta is not an integer at k in {}, table exponential: {}",
                fractional, exponential,
            )
        )

        rank = n + 1 + n * (n + 1) // 2 * factorial(n)
        notes, tau_note = construction_notes(n, convention, conditional=row.k is not None)
        expected = SimpleNamespace(
            n=n, r=r, p=p, M=M, lift_convention=convention, residues=residues, a=lifts, s=sigma, b=b,
            # A fractional delta has failed chern_product already; its integer part only fills the payload.
            delta=[int(d) for d in deltas], atilde=table,
            rank=rank, tau=rank, tau_note=tau_note, tau_best_known=2 if n == 1 else rank, row=row, notes=notes,
        )
        out.append(_same("payload", cert, construction_payload(expected), "certificate"))

    if r == 1:
        if digest_ok:
            out.append(
                _check(
                    "abelian_bound_structural",
                    max_abelian_exponent(n, p) == row.abelian_exponent,
                    "structural abelian bound re-check failed",
                )
            )
        else:
            out.append(_skipped("abelian_bound_structural"))


# -- group reports --------------------------------------------------------------


def _verify_group(cert: dict, digest_ok: bool, out: list[CheckResult]) -> None:
    """Rebuild the report from n, p and the mode with group_report, and compare it with the certificate."""
    n = decode_int(cert["n"])
    p = decode_int(cert["p"])
    mode = cert["mode"]
    params_ok = 1 <= n <= MAX_GROUP_N and primes.is_odd_prime(p) and mode in ("structural", "brute")
    out.append(
        _check(
            "params",
            params_ok,
            "bad parameters n={}, p={} (need 1 <= n <= {}, an odd prime p and the mode structural or brute)",
            n, p, MAX_GROUP_N,
        )
    )
    if not params_ok:
        return
    if not digest_ok:
        out.append(_skipped("payload"))
        return
    try:
        report = group_report(n, p, mode)
    except BudgetExceeded as exc:
        out.append(CheckResult("payload", False, str(exc)))
        return
    if report.modes_agree is False:
        out.append(CheckResult("payload", False, "the brute-force and structural exponents differ"))
    else:
        out.append(_same("payload", cert, group_report_payload(n, p, mode, report), "certificate"))


# -- product-subgroup (form family) certificates ---------------------------------


def _verify_olshanskii(cert: dict, digest_ok: bool, budget: int, out: list[CheckResult]) -> None:
    n = decode_int(cert["n"])
    p = decode_int(cert["p"])
    r = decode_int(cert["r"])
    k = decode_int(cert["k"])
    mats = [decode_matrix(a) for a in cert["mats"]]
    form_matrices = [decode_matrix(f) for f in cert["forms"]]
    certified = decode_bool(cert["certified"])

    # This bounds every size below: the family by MAX_FORM_FAMILY_ENTRIES,
    # n by the stored matrices, which must be 2n x 2n, and p by the
    # primality test's range.  The number of stored forms is left to
    # form_congruence, which needs them to be exactly the r pullbacks.
    dim = 2 * n
    params_ok = (
        n >= 1
        and r >= 2
        and r * dim * dim <= MAX_FORM_FAMILY_ENTRIES
        and primes.is_odd_prime(p)
        and len(mats) == r
        and all(len(m) == dim and all(len(row) == dim for row in m) for m in mats + form_matrices)
    )
    out.append(
        _check(
            "params",
            params_ok,
            "bad parameters n={}, r={}, p={} (need n >= 1, r >= 2, at most {} matrix entries "
            "r * (2n)^2, an odd prime p, r matrices, and every stored matrix and form 2n x 2n)",
            n, r, p, MAX_FORM_FAMILY_ENTRIES,
        )
    )
    if not params_ok:
        return

    row = lambda_row(n, r)
    k_ok = k == row.k
    out.append(_check("k_choice", k_ok, "k={} is not lambda_row's choice {}", k, row.k))
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

    # olshanskii_search writes A_1 = I; a symplectic A_1 pulls the standard form back to itself too.
    identity_first = all(entry == (i == j) for i, entries in enumerate(mats[0]) for j, entry in enumerate(entries))
    congruent = invertible and identity_first and [f.matrix for f in forms] == form_matrices
    out.append(
        _check(
            "form_congruence",
            congruent,
            "A_1 is not the identity, or the stored forms are not exactly the pullbacks "
            "of the standard form by the stored matrices",
        )
    )

    # A stored bound repeats the row's exponents and is checked by
    # exact_abelian_bound, so a document that cannot be searched reports
    # that check as not run too, never drops it.
    bound = cert.get("bound")
    if bound is not None and not isinstance(bound, dict):
        raise TypeError(f"bound must be an object, got {type(bound).__name__}")
    exponents_ok = all(
        decode_int(fields["order_exponent"]) == row.order_exponent
        and decode_int(fields["abelian_exponent"]) == row.abelian_exponent
        for fields in ([cert] if bound is None else [cert, bound])
    )
    out.append(_check("bound_exponents", exponents_ok, "bound exponent arithmetic is off"))
    # A skipped exact search stores both fields null; either one present claims the exact bound.
    stored = tuple((bound or {}).get(key) for key in ("max_common_isotropic_dim", "exact_abelian_exponent"))
    has_bound = stored != (None, None)
    searches = ("isotropic_enumeration", "exact_abelian_bound")[: 1 + has_bound]
    if not digest_ok:
        out.extend(map(_skipped, searches))
        return
    if not (congruent and k_ok):
        reason = "k invalid" if congruent else "forms invalid"
        out.extend(CheckResult(name, False, f"not run: {reason}") for name in searches)
        return

    try:
        common = enumerate_isotropic(forms, k, budget=budget)
    except BudgetExceeded as exc:
        out.append(CheckResult("isotropic_enumeration", False, str(exc)))
        return
    out.append(
        _check(
            "isotropic_enumeration",
            (len(common) == 0) == certified,
            "enumeration found {} common isotropic subspaces but certified={}",
            len(common), certified,
        )
    )

    if has_bound:
        try:
            d_exact = max_common_isotropic_dim(forms, k, budget=budget)
            out.append(
                _check(
                    "exact_abelian_bound",
                    None not in stored and tuple(map(decode_int, stored)) == (d_exact, r + d_exact),
                    "stored dimension and exponent {}, recomputed {}",
                    stored, (d_exact, r + d_exact),
                )
            )
        except BudgetExceeded as exc:
            out.append(CheckResult("exact_abelian_bound", False, str(exc)))


# -- bound tables and prime documents ---------------------------------------------


def _verify_lambda_table(doc: dict, out: list[CheckResult]) -> None:
    """Rebuild the table from max_n, max_r and epsilon with lambda_row, and compare it with the certificate."""
    cert = doc["certificate"]
    epsilon = decode_fraction(cert["epsilon"]) if "epsilon" in cert else None
    max_n = decode_int(cert["max_n"])
    max_r = decode_int(cert["max_r"])
    params_ok = max_n >= 1 and max_r >= 1 and max_n * max_r <= MAX_LAMBDA_TABLE_ROWS
    out.append(
        _check(
            "params",
            params_ok,
            "bad parameters max_n={}, max_r={} (need both >= 1 and at most {} rows)",
            max_n, max_r, MAX_LAMBDA_TABLE_ROWS,
        )
    )
    if params_ok:
        rows = [lambda_row(n, r) for n in range(1, max_n + 1) for r in range(1, max_r + 1)]
        witness = epsilon_witness(rows, epsilon) if epsilon is not None else None
        out.append(_same("payload", cert, lambda_table_payload(max_n, max_r, rows, epsilon, witness), "certificate"))
    # lambda-table writes its --epsilon in lowest terms.
    written = None if epsilon is None else str(epsilon)
    out.append(_verify_command(doc, "lambda-table", ("max_n", "max_r"), epsilon=written))


def _verify_prime(cert: dict, out: list[CheckResult]) -> None:
    """M by m_chain on the verifier's own table; the prime by re-running the search's walk, then comparing."""
    n = decode_int(cert["n"])
    params_ok = 1 <= n <= MAX_SYMMETRIZATION_N
    out.append(_check("params", params_ok, "n={} is outside 1..{}", n, MAX_SYMMETRIZATION_N))
    if not params_ok:
        return
    h = decode_int(cert["h"])
    min_p = decode_int(cert["min"])
    M = decode_int(cert["M"])
    fresh_m = m_chain(n, _rederive_atilde(n))[0]
    out.append(_check("M", M == fresh_m, "stored M={}, recomputed {}", M, fresh_m))

    # The walk solver.find_prime makes: MAX_PRIME_CANDIDATES members of 1 mod (n+1) from max(min, M+1, 3),
    # up to the first that qualifies.  find_prime refuses a walk that reaches is_prime's range
    # before one qualifies, so the verifier refuses it there too, before testing that candidate.
    start = max(min_p, fresh_m + 1, 3)
    first = start + (1 - start) % (n + 1)
    found = None
    for c in range(first, first + (n + 1) * primes.MAX_PRIME_CANDIDATES, n + 1):
        if c >= primes.DETERMINISTIC_LIMIT:
            out.append(_check("payload", False, "the walk reaches {}, past is_prime's range", c))
            return
        if c % 2 and primes.is_prime(c) and h % c != 0:
            found = c
            break
    if found is None:
        detail = f"no prime qualifies among the {primes.MAX_PRIME_CANDIDATES} candidates the search examines"
        out.append(CheckResult("payload", False, detail))
    else:
        out.append(_same("payload", cert, prime_payload(n, h, min_p, found, fresh_m), "certificate"))
