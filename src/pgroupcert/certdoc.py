"""Certificate documents: exact JSON encoding, canonical serialization, content digest.

Exactness is the product, so nothing is ever a float: integers beyond
2**53 are encoded as decimal strings (to survive lossy JSON consumers)
and rationals are always {"num": ..., "den": ...} string pairs.  Keys
are sorted everywhere, so serialized documents are diffable, and the
sha256 digest of the canonical serialization binds the document content:
the verifier rejects any mutation, including ones that would happen to
form a differently-valid witness.

This layer imports only the standard library: the producer's types are
named for type checking alone, so the verifier and each CLI process load
it without the mathematics.  Decoders that build library objects, such as
the truncated series of a Chern product, live with the verifier.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .products import LambdaRow, ProductBound, ProductSubgroupSpec
    from .series import OmegaSeries
    from .solver import ConstructionCertificate

SCHEMA_VERSION = "1"

_SAFE_INT_BOUND = 2**53

#: Most decimal digits a document integer may have: CPython's default limit
#: on int/str conversion, which writing and reading a document both go through.
MAX_INT_DIGITS = 4300


class ParseError(ValueError):
    """The document is not valid JSON of the expected schema."""


# -- exact scalar encoding ---------------------------------------------------


def encode_int(value: int) -> int | str:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an int, got {type(value).__name__}")
    return value if abs(value) <= _SAFE_INT_BOUND else str(value)


def decode_int(value: Any) -> int:
    if isinstance(value, bool):
        raise ParseError("booleans are not integers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError as exc:
            raise ParseError(f"bad integer literal {value!r}") from exc
    raise ParseError(f"expected an integer, got {type(value).__name__}")


def encode_fraction(value: Fraction | int) -> dict[str, str]:
    frac = Fraction(value)
    return {"num": str(frac.numerator), "den": str(frac.denominator)}


def decode_fraction(value: Any) -> Fraction:
    if not isinstance(value, dict) or set(value) != {"num", "den"}:
        raise ParseError(f"expected a num/den pair, got {value!r}")
    return Fraction(decode_int(value["num"]), decode_int(value["den"]))


def encode_int_list(values) -> list[int | str]:
    return [encode_int(v) for v in values]


def decode_int_list(values: Any) -> list[int]:
    if not isinstance(values, list):
        raise ParseError(f"expected a list, got {type(values).__name__}")
    return [decode_int(v) for v in values]


def encode_matrix(matrix) -> list[list[int | str]]:
    return [encode_int_list(row) for row in matrix]


def decode_matrix(value: Any) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise ParseError("expected a matrix (list of rows)")
    return tuple(tuple(decode_int_list(row)) for row in value)


def encode_series(series: OmegaSeries) -> dict[str, Any]:
    return {
        "n": series.n,
        "coeffs": [encode_fraction(c) for c in series.coeffs],
    }


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
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def parse_document(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    for key in ("kind", "command", "certificate", "digest"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    return doc


# -- payload builders for each certificate type ------------------------------


def construction_payload(cert: ConstructionCertificate) -> dict[str, Any]:
    return {
        "n": cert.n,
        "r": cert.r,
        "p": cert.p,
        "M": cert.M,
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
        "chern_product": encode_series(cert.chern_product),
        "rank": encode_int(cert.rank),
        "tau": encode_int(cert.tau),
        "tau_note": cert.tau_note,
        "tau_best_known": encode_int(cert.tau_best_known),
        "group": {
            "order_exponent": cert.group_order_exponent,
            "order": encode_int(cert.group_order),
            "abelian_exponent": cert.abelian_exponent,
            "abelian_bound_conditional": cert.abelian_bound_conditional,
            "lambda": encode_fraction(cert.lambda_gamma),
        },
        "checks": dict(sorted(cert.checks.items())),
        "overall_pass": cert.overall_pass,
        "notes": list(cert.notes),
        "assumptions": list(cert.assumptions),
    }


def group_report_payload(
    n: int,
    p: int,
    mode: str,
    order: int,
    max_abelian_order: int,
    max_abelian_exponent: int,
    lam: Fraction,
    budget: int,
    modes_agree: bool | None,
) -> dict[str, Any]:
    payload = {
        "n": n,
        "p": p,
        "mode": mode,
        "order_exponent": 2 * n + 1,
        "order": encode_int(order),
        "max_abelian_order": encode_int(max_abelian_order),
        "max_abelian_exponent": max_abelian_exponent,
        "lambda": encode_fraction(lam),
        "budget": budget,
    }
    if modes_agree is not None:
        payload["modes_agree"] = modes_agree
    return payload


def olshanskii_payload(spec: ProductSubgroupSpec, bound: ProductBound | None) -> dict[str, Any]:
    payload = {
        "n": spec.n,
        "p": spec.p,
        "r": spec.r,
        "k": spec.k,
        "mats": [encode_matrix(a) for a in spec.mats],
        "forms": [encode_matrix(f.matrix) for f in spec.forms],
        "certified": spec.certified,
        "transcript": spec.transcript,
        "order_exponent": spec.order_exponent,
        "abelian_exponent": spec.abelian_exponent,
    }
    if bound is not None:
        payload["bound"] = {
            "order_exponent": bound.order_exponent,
            "abelian_exponent": bound.abelian_exponent,
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
        "rows": [
            {
                "n": row.n,
                "r": row.r,
                "k": row.k,
                "abelian_exponent": row.abelian_exponent,
                "order_exponent": row.order_exponent,
                "bound": encode_fraction(row.bound),
                "exponent_form_exact": row.exponent_form_exact,
            }
            for row in rows
        ],
    }
    if epsilon is not None:
        payload["epsilon"] = encode_fraction(epsilon)
        payload["epsilon_witness"] = (
            {"n": witness.n, "r": witness.r} if witness is not None else "none in range"
        )
    return payload


def prime_payload(n: int, h: int, min_p: int, ceiling: int, prime: int, M: int) -> dict[str, Any]:
    return {
        "n": n,
        "h": encode_int(h),
        "min": encode_int(min_p),
        "ceiling": encode_int(ceiling),
        "M": encode_int(M),
        "prime": encode_int(prime),
    }
