"""Certificate documents: exact JSON encoding, canonical serialization, content digest.

Exactness is the product, so nothing is ever a float: integers beyond
2**53 are encoded as decimal strings (to survive lossy JSON consumers),
or as "0x..." hex strings past MAX_INT_DIGITS decimal digits, and
rationals are always {"num": ..., "den": ...} string pairs.  A
document is written in its canonical form (sorted keys, no whitespace,
ASCII, one line), and the sha256 digest of the canonical form of its body
binds the document content: the verifier rejects any mutation, including
ones that would happen to form a differently-valid witness.

This layer imports only the standard library: the producer's types are
named for type checking alone, so the verifier and each CLI process load
it without the mathematics.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .groups import GroupReport, LambdaRow
    from .products import ProductBound, ProductSubgroupSpec
    from .solver import ConstructionCertificate

SCHEMA_VERSION = "1"

_SAFE_INT_BOUND = 2**53

#: Most decimal digits a document integer is written with: CPython's default
#: limit on int/str conversion, which writing and reading a document both go
#: through.  A larger integer is written in hex, which the limit does not cover.
MAX_INT_DIGITS = 4300

#: Integers of absolute value below this are written in decimal.
DECIMAL_LIMIT = 10**MAX_INT_DIGITS

#: Most hex digits a "0x..." integer may have, checked before it is parsed:
#: 2^19 bits, above the largest count a size-bounded form-family search
#: records (about 379,000 bits, at n = 73, r = 3 and p near is_prime's ceiling).
MAX_HEX_DIGITS = 2**17

#: Most rows (max_n * max_r) a lambda table may have; its producer refuses
#: a larger grid before building a row, and its verifier before reading one.
MAX_LAMBDA_TABLE_ROWS = 10_000


#: The identities solver.certify establishes, each decided where it is produced
#: (see certify).  certify raises CertificationError rather than return a
#: certificate in which one failed, so the payload records each as true.
CONSTRUCTION_CHECKS = (
    "abelian_bound_recorded", "b_divisible_by_M_p_pow_2j", "chern_product_is_one", "deltas_integral",
    "p_coprime_to_aM", "rank_formula", "roots_closed_under_multiplication", "sigma_divisible_by_p_pow_n",
)

#: Facts the construction consumes but cannot verify by finite computation;
#: a construction certificate stores them and its verifier compares them.
CITED_ASSUMPTIONS = (
    "the first Chern class of the base line bundle over the 2n-torus equals p*omega "
    "(a curvature computation, consumed as input)",
    "a complex vector bundle over the torus with vanishing Chern classes is stably "
    "trivial (K-theory input); the stabilization padding is not made explicit, so "
    "tau is reported as the rank of the constructed bundle modulo that padding",
    "rank-k building-block bundles with top Chern class delta*(k-1)! times the "
    "k-fold monomial class exist (clutching construction, consumed as input)",
    "the equivariant smooth-action construction promoting the bundle data to group "
    "actions on products of the torus with another manifold is consumed as input",
)


class ParseError(ValueError):
    """The document is not valid JSON of the expected schema."""


#: The ParseError message for a document whose nesting exhausts the interpreter's
#: recursion limit, in the JSON decoder or in a later encoder or check.
NESTED_TOO_DEEPLY = "nested too deeply to decode or encode"


# -- exact scalar encoding ---------------------------------------------------


def _int_string(value: int) -> str:
    """Decimal up to MAX_INT_DIGITS digits, "0x..." (or "-0x...") past them."""
    return str(value) if abs(value) < DECIMAL_LIMIT else hex(value)


def encode_int(value: int) -> int | str:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an int, got {type(value).__name__}")
    return value if abs(value) <= _SAFE_INT_BOUND else _int_string(value)


def decode_int(value: Any) -> int:
    if isinstance(value, bool):
        raise ParseError("booleans are not integers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        base = 10
        magnitude = value.lstrip("-")
        if magnitude.startswith("0x"):
            base = 16
            if len(magnitude) - 2 > MAX_HEX_DIGITS:
                raise ParseError(f"hex integer of {len(magnitude) - 2} digits exceeds the limit {MAX_HEX_DIGITS}")
        try:
            return int(value, base)
        except ValueError as exc:
            raise ParseError(f"bad integer literal {value!r}") from exc
    raise ParseError(f"expected an integer, got {type(value).__name__}")


def decode_bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"expected a boolean, got {type(value).__name__}")
    return value


def encode_fraction(value: Fraction | int) -> dict[str, str]:
    frac = Fraction(value)
    return {"num": _int_string(frac.numerator), "den": _int_string(frac.denominator)}


def decode_fraction(value: Any) -> Fraction:
    if not isinstance(value, dict) or set(value) != {"num", "den"} or decode_int(value["den"]) == 0:
        raise ParseError(f"expected a num/den pair with a nonzero den, got {value!r}")
    return Fraction(decode_int(value["num"]), decode_int(value["den"]))


# The entry types of a list of plain ints: a bool or an int subclass is not one.
_PLAIN_INT = {int}


def encode_int_list(values) -> list[int | str]:
    """encode_int of each entry; a list of plain ints within 2**53 is copied as it is."""
    values = list(values)
    if (
        values
        and set(map(type, values)) <= _PLAIN_INT
        and -_SAFE_INT_BOUND <= min(values)
        and max(values) <= _SAFE_INT_BOUND
    ):
        return values
    return [encode_int(v) for v in values]


def decode_int_list(values: Any) -> list[int]:
    """decode_int of each entry; a list of plain ints is copied as it is."""
    if not isinstance(values, list):
        raise ParseError(f"expected a list, got {type(values).__name__}")
    if set(map(type, values)) <= _PLAIN_INT:
        return values[:]
    return [decode_int(v) for v in values]


def encode_matrix(matrix) -> list[list[int | str]]:
    return [encode_int_list(row) for row in matrix]


def decode_matrix(value: Any) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise ParseError("expected a matrix (list of rows)")
    return tuple(tuple(decode_int_list(row)) for row in value)


# -- canonical form and digest ----------------------------------------------


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def compute_digest(digestable: dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(digestable).encode("ascii")).hexdigest()


def build_document(
    kind: str,
    command: str,
    params: dict[str, Any],
    certificate: dict[str, Any],
    seed: int | None = None,
) -> dict[str, Any]:
    """Wrap a certificate payload; the digest covers everything except the timestamp."""
    body = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "command": {"name": command, "params": params},
        "seed": seed,
        "certificate": certificate,
    }
    doc = dict(body)
    doc["digest"] = compute_digest(body)
    doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    return doc


def document_digestable(doc: dict[str, Any]) -> dict[str, Any]:
    return {
        "schema_version": doc.get("schema_version"),
        "kind": doc.get("kind"),
        "command": doc.get("command"),
        "seed": doc.get("seed"),
        "certificate": doc.get("certificate"),
    }


def serialize_document(doc: dict[str, Any]) -> str:
    return canonical_json(doc) + "\n"


def parse_document(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(NESTED_TOO_DEEPLY) from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    for key in ("kind", "command", "certificate", "digest"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    return doc


def fits_document(p: int, e: int) -> bool:
    """p**e (p >= 2) has at most MAX_INT_DIGITS digits; a lower bound on its bits refuses a large e unpowered."""
    if e * (p.bit_length() - 1) >= DECIMAL_LIMIT.bit_length():
        return False
    return p**e < DECIMAL_LIMIT


# -- payload builders for each certificate type (verify rebuilds some with them) --


def construction_payload(cert: ConstructionCertificate) -> dict[str, Any]:
    return {
        "n": cert.n,
        "r": cert.r,
        "p": encode_int(cert.p),
        "M": encode_int(cert.M),
        "lift_convention": cert.lift_convention,
        "residues": encode_int_list(cert.residues),
        "a": encode_int_list(cert.a),
        "s": encode_int_list(cert.s),
        "b": encode_int_list(cert.b),
        "delta": encode_int_list(cert.delta),
        "atilde": [
            {"k": k, "j": j, "value": encode_fraction(v)}
            for (k, j), v in sorted(cert.atilde.items())
        ],
        "chern_product": unit_series_payload(cert.n),
        "rank": encode_int(cert.rank),
        "tau": encode_int(cert.tau),
        "tau_note": cert.tau_note,
        "tau_best_known": encode_int(cert.tau_best_known),
        "group": construction_group_payload(cert.p, cert.row),
        "checks": dict.fromkeys(CONSTRUCTION_CHECKS, True),
        "overall_pass": True,
        "notes": list(cert.notes),
        "assumptions": list(CITED_ASSUMPTIONS),
    }


def unit_series_payload(n: int) -> dict[str, Any]:
    """A construction's chern_product: solver's deltas make it the unit series by the logarithm identity."""
    return {"n": n, "coeffs": [encode_fraction(int(j == 0)) for j in range(n + 1)]}


def construction_group_payload(p: int, row: LambdaRow) -> dict[str, Any]:
    """A construction's group block: the order p^(2n+r) and the bound lambda_row(n, r) gives."""
    return {
        "order_exponent": row.order_exponent,
        "order": encode_int(p**row.order_exponent),
        "abelian_exponent": row.abelian_exponent,
        "abelian_bound_conditional": row.k is not None,
        "lambda": encode_fraction(row.bound),
    }


def group_report_payload(n: int, p: int, mode: str, report: GroupReport) -> dict[str, Any]:
    payload = {
        "n": n,
        "p": encode_int(p),
        "mode": mode,
        "order_exponent": 2 * n + 1,
        "order": encode_int(report.order),
        "max_abelian_order": encode_int(report.max_abelian_order),
        "max_abelian_exponent": report.max_abelian_exponent,
        "lambda": encode_fraction(report.lam),
    }
    if report.modes_agree is not None:
        payload["modes_agree"] = report.modes_agree
    return payload


def olshanskii_payload(spec: ProductSubgroupSpec, bound: ProductBound | None) -> dict[str, Any]:
    row = spec.row
    transcript = dict(spec.transcript)
    for key in ("seed", "subspaces_examined_per_attempt"):
        if transcript.get(key) is not None:
            transcript[key] = encode_int(transcript[key])
    payload = {
        "n": spec.n,
        "p": encode_int(spec.p),
        "r": spec.r,
        "k": spec.k,
        "mats": [encode_matrix(a) for a in spec.mats],
        "forms": [encode_matrix(f.matrix) for f in spec.forms],
        "certified": spec.certified,
        "transcript": transcript,
        "order_exponent": row.order_exponent,
        "abelian_exponent": row.abelian_exponent,
    }
    if bound is not None:
        payload["bound"] = {
            "order_exponent": row.order_exponent,
            "abelian_exponent": row.abelian_exponent,
            "exact_abelian_exponent": bound.exact_abelian_exponent,
            "max_common_isotropic_dim": bound.max_common_isotropic_dim,
        }
    return payload


def lambda_table_payload(
    max_n: int,
    max_r: int,
    rows: list[LambdaRow],
    epsilon: Fraction | None,
    witness: LambdaRow | None,
) -> dict[str, Any]:
    payload = {
        "max_n": max_n,
        "max_r": max_r,
        # Every field of each row, its bound as a fraction pair.
        "rows": [{**row._asdict(), "bound": encode_fraction(row.bound)} for row in rows],
    }
    if epsilon is not None:
        payload["epsilon"] = encode_fraction(epsilon)
        payload["epsilon_witness"] = (
            {"n": witness.n, "r": witness.r} if witness is not None else "none in range"
        )
    return payload


def prime_payload(n: int, h: int, min_p: int, prime: int, M: int) -> dict[str, Any]:
    return {
        "n": n,
        "h": encode_int(h),
        "min": encode_int(min_p),
        "M": encode_int(M),
        "prime": encode_int(prime),
    }
