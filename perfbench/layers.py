"""The library's layers as the traced run sees them: wrapped calls, counts and per-layer metrics."""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Target, Tracer, self_times

PACKAGE = "pgroupcert"


def _gaussian_binomial(m: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^m (kept here so counting calls no library code)."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (m - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def _count_isotropic(counts, args, result) -> None:
    forms, k = args["forms"], args["k"]
    counts["symplectic.subspaces_examined"] += _gaussian_binomial(forms[0].dim, k, forms[0].p)
    counts["symplectic.survivors"] += len(result)


def _count_max_abelian_exponent(counts, args, result) -> None:
    n, p = args["n"], args["p"]
    if _gaussian_binomial(2 * n, n + 1, p) > args["isotropic_budget"]:
        counts["groups.upper_bound_skipped"] += 1


def _count_brute(counts, args, result) -> None:
    counts["groups.elements"] += args["p"] ** (2 * args["n"] + 1)


def _count_search(counts, args, result) -> None:
    counts["products.searches"] += 1
    counts["products.certified"] += bool(result.certified)
    counts["products.attempts"] += len(result.transcript["attempts"])


def _count_bound(counts, args, result) -> None:
    counts["products.exact_bound_skipped"] += result.exact_abelian_exponent is None


def _count_bytes(counts, args, result) -> None:
    counts["certdoc.bytes"] += len(result.encode("utf-8"))


def _count_checks(counts, args, result) -> None:
    run = [r for r in result.results if not r.detail.startswith("not run")]
    counts["verify.checks_run"] += len(run)
    counts["verify.checks_failed"] += sum(not r.passed for r in run)


def _document_kind(args) -> str:
    doc = args["doc"]
    return str(doc.get("kind")) if isinstance(doc, dict) else ""


TARGETS = [
    Target("pgroupcert.exterior", "atilde_table", "exterior.atilde_table"),
    Target("pgroupcert.exterior", "a_table", "exterior.a_table"),
    Target("pgroupcert.exterior", "symmetrization_coefficients", "exterior.symmetrization_coefficients"),
    Target("pgroupcert.exterior", "omega_power_table", "exterior.omega_power_table"),
    Target("pgroupcert.primes", "prime_factors", "primes.prime_factors"),
    Target("pgroupcert.primes", "is_prime", "primes.is_prime"),
    Target("pgroupcert.series", "OmegaSeries.__mul__", "series.mul"),
    Target("pgroupcert.series", "OmegaSeries.inverse", "series.inverse"),
    Target("pgroupcert.series", "chern_G", "series.chern_G"),
    Target("pgroupcert.series", "direct_sum", "series.direct_sum"),
    Target("pgroupcert.solver", "find_roots", "solver.find_roots"),
    Target("pgroupcert.solver", "solve_deltas", "solver.solve_deltas"),
    Target("pgroupcert.solver", "compute_M", "solver.compute_M"),
    Target("pgroupcert.solver", "certify", "solver.certify"),
    Target("pgroupcert.certdoc", "build_document", "certdoc.build_document"),
    Target("pgroupcert.certdoc", "serialize_document", "certdoc.serialize_document", count=_count_bytes),
    Target("pgroupcert.certdoc", "parse_document", "certdoc.parse_document"),
    Target("pgroupcert.symplectic", "enumerate_isotropic", "symplectic.enumerate_isotropic", count=_count_isotropic),
    Target("pgroupcert.symplectic", "random_invertible", "symplectic.random_invertible"),
    Target("pgroupcert.products", "olshanskii_search", "products.olshanskii_search", count=_count_search),
    Target("pgroupcert.products", "product_subgroup_bound", "products.product_subgroup_bound", count=_count_bound),
    Target("pgroupcert.groups", "max_abelian_order", "groups.max_abelian_order"),
    Target("pgroupcert.groups", "brute_force_lambda", "groups.brute_force_lambda", count=_count_brute),
    Target("pgroupcert.groups", "max_abelian_exponent", "groups.max_abelian_exponent", count=_count_max_abelian_exponent),
    Target("pgroupcert.verify", "verify_document", "verify.verify_document", count=_count_checks, tag=_document_kind),
]

# (name, unit); the per_layer list of BENCHMARK.json, in the same order.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("exterior.atilde_table.calls", "count"),
    ("exterior.atilde_table.self_s", "s"),
    ("exterior.a_table.self_s", "s"),
    ("exterior.symmetrization_coefficients.self_s", "s"),
    ("exterior.omega_power_table.self_s", "s"),
    ("primes.prime_factors.calls", "count"),
    ("primes.prime_factors.self_s", "s"),
    ("primes.is_prime.calls", "count"),
    ("solver.find_roots.self_s", "s"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.inverse.calls", "count"),
    ("series.inverse.self_s", "s"),
    ("series.chern_G.calls", "count"),
    ("series.direct_sum.self_s", "s"),
    ("solver.solve_deltas.self_s", "s"),
    ("solver.compute_M.self_s", "s"),
    ("solver.certify.self_s", "s"),
    ("certdoc.build_document.self_s", "s"),
    ("certdoc.serialize_document.self_s", "s"),
    ("certdoc.parse_document.self_s", "s"),
    ("certdoc.bytes", "bytes"),
    ("symplectic.enumerate_isotropic.calls", "count"),
    ("symplectic.enumerate_isotropic.self_s", "s"),
    ("symplectic.subspaces_examined", "count"),
    ("symplectic.survivors", "count"),
    ("symplectic.random_invertible.calls", "count"),
    ("products.olshanskii_search.self_s", "s"),
    ("products.attempts", "count"),
    ("products.certified_ratio", "ratio"),
    ("products.product_subgroup_bound.self_s", "s"),
    ("products.exact_bound_skipped", "count"),
    ("groups.max_abelian_order.self_s", "s"),
    ("groups.brute_force_lambda.self_s", "s"),
    ("groups.elements", "count"),
    ("groups.max_abelian_exponent.self_s", "s"),
    ("groups.upper_bound_skipped", "count"),
    ("verify.verify_document.self_s", "s"),
    ("verify.construction.self_s", "s"),
    ("verify.olshanskii.self_s", "s"),
    ("verify.group.self_s", "s"),
    ("verify.prime.self_s", "s"),
    ("verify.lambda_table.self_s", "s"),
    ("verify.checks_run", "count"),
    ("verify.checks_failed", "count"),
    ("trace.overhead_ratio", "ratio"),
]


def install(tracer: Tracer) -> None:
    tracer.install(TARGETS, PACKAGE)


def per_layer_metrics(tracer: Tracer, passes: int, import_s: list[float], overhead_ratio: float) -> dict[str, float]:
    """Per-layer values per traced pass; ``import_s`` holds one fresh-process import time per CLI child."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    names, tags = tracer.names, tracer.tag_id
    for i, own in enumerate(self_times(tracer.start, tracer.end, tracer.parent)):
        name = names[tracer.name_id[i]]
        calls[name] += 1
        self_s[name] += own
        if name == "verify.verify_document":
            self_s[f"verify.{names[tags[i]]}"] += own
    counts = tracer.counts
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]] / passes
        elif name.endswith(".self_s"):
            values[name] = self_s[name[: -len(".self_s")]] / passes
        else:
            values[name] = counts[name] / passes
    searches = counts["products.searches"]
    values["products.certified_ratio"] = counts["products.certified"] / searches if searches else 0.0
    values["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: values[name] for name, _unit in PER_LAYER}

