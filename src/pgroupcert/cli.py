"""Command-line front end: produce certificates, re-verify them, tabulate bounds.

Exit codes are a stable contract: 0 on success, 1 when a verification or
certification check fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import click

from . import certdoc, solver
from .groups import MAX_GROUP_N, brute_force_lambda, group_order, max_abelian_exponent
from .products import olshanskii_search, product_subgroup_bound
from .symplectic import DEFAULT_SUBSPACE_BUDGET, BudgetExceeded
from .verify import verify_document


def _write_output(text: str, out: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


@click.group()
def main() -> None:
    """Exact certificates for the Heisenberg-group bundle constructions."""


@main.command()
@click.option("--n", type=int, required=True, help="Torus half-dimension.")
@click.option("--r", type=int, default=1, show_default=True, help="Number of group factors.")
@click.option("--p", type=int, default=None, help="Odd prime = 1 mod (n+1), > M(n); auto-searched when omitted.")
@click.option("--lifts", type=click.Choice(["nonneg", "symmetric"]), default="nonneg", show_default=True)
@click.option("--out", default="-", show_default=True, help="Output path ('-' for stdout).")
def certify(n: int, r: int, p: int | None, lifts: str, out: str) -> None:
    """Run the full Chern-cancellation pipeline and emit a certificate."""
    try:
        if p is None:
            p = solver.find_prime(n)
        cert = solver.certify(n, r, p, lift=lifts)
    except (solver.PreconditionError, solver.SearchExhausted) as exc:
        raise click.UsageError(str(exc))
    except solver.CertificationError as exc:
        click.echo(f"certification failed: {exc}", err=True)
        sys.exit(1)
    doc = certdoc.build_document(
        kind="construction",
        command="certify",
        params={"n": n, "r": r, "p": p, "lifts": lifts},
        certificate=certdoc.construction_payload(cert),
    )
    _write_output(certdoc.serialize_document(doc), out)
    if not cert.overall_pass:
        sys.exit(1)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--p", type=int, required=True, help="Odd prime.")
@click.option("--mode", type=click.Choice(["structural", "brute"]), default="structural", show_default=True)
@click.option("--budget", type=int, default=10_000, show_default=True, help="Max group order for brute mode.")
@click.option("--out", default="-", show_default=True)
def group(n: int, p: int, mode: str, budget: int, out: str) -> None:
    """Report the order, maximal abelian order, and abelian fraction of one Heisenberg group."""
    if not 1 <= n <= MAX_GROUP_N or p < 3 or p % 2 == 0:
        raise click.UsageError(f"need 1 <= n <= {MAX_GROUP_N} and an odd prime p")
    order = group_order(n, p)
    try:
        structural = max_abelian_exponent(n, p)
        if mode == "brute":
            max_order, lam = brute_force_lambda(n, p, budget=budget)
            exponent = 0
            rest = max_order
            while rest % p == 0:
                rest //= p
                exponent += 1
            modes_agree = exponent == structural
        else:
            exponent = structural
            max_order = p**exponent
            lam = Fraction(exponent, 2 * n + 1)
            modes_agree = None
    except BudgetExceeded as exc:
        raise click.UsageError(str(exc))
    doc = certdoc.build_document(
        kind="group",
        command="group",
        params={"n": n, "p": p, "mode": mode, "budget": budget},
        certificate=certdoc.group_report_payload(
            n, p, mode, order, max_order, exponent, lam, budget, modes_agree
        ),
    )
    _write_output(certdoc.serialize_document(doc), out)
    if modes_agree is False:
        sys.exit(1)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--r", type=int, required=True, help="Number of forms; at least 2.")
@click.option("--p", type=int, required=True, help="Odd prime.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--budget", type=int, default=DEFAULT_SUBSPACE_BUDGET, show_default=True)
@click.option("--attempts", type=int, default=20, show_default=True)
@click.option("--out", default="-", show_default=True)
def olshanskii(n: int, r: int, p: int, seed: int, budget: int, attempts: int, out: str) -> None:
    """Search for a form family with no common isotropic subspace of dimension floor(4n/r)+2."""
    if r < 2:
        raise click.UsageError("r must be at least 2")
    try:
        spec = olshanskii_search(n, r, p, seed=seed, budget=budget, attempts=attempts)
    except (ValueError, BudgetExceeded) as exc:
        raise click.UsageError(str(exc))
    bound = product_subgroup_bound(spec, exact_budget=budget) if spec.certified else None
    doc = certdoc.build_document(
        kind="olshanskii",
        command="olshanskii",
        params={"n": n, "r": r, "p": p, "seed": seed, "budget": budget, "attempts": attempts},
        certificate=certdoc.olshanskii_payload(spec, bound),
        seed=seed,
    )
    _write_output(certdoc.serialize_document(doc), out)
    if not spec.certified:
        sys.exit(1)


@main.command("lambda-table")
@click.option("--max-n", type=int, required=True)
@click.option("--max-r", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--epsilon", type=str, default=None, help="Exact rational like 2/3; adds the least (n, r) with bound below it.")
@click.option("--out", default="-", show_default=True)
def lambda_table_cmd(max_n: int, max_r: int, fmt: str, epsilon: str | None, out: str) -> None:
    """Tabulate the abelian-fraction bounds (n+1)/(2n+1) and (r+k)/(2n+r)."""
    try:
        rows = solver.lambda_table(max_n, max_r)
        eps = Fraction(epsilon) if epsilon is not None else None
    except (solver.PreconditionError, ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(str(exc))
    witness = solver.epsilon_witness(rows, eps) if eps is not None else None
    if fmt == "csv":
        lines = ["n,r,k,abelian_exponent,order_exponent,bound"]
        for row in rows:
            lines.append(
                f"{row.n},{row.r},{'' if row.k is None else row.k},"
                f"{row.abelian_exponent},{row.order_exponent},{row.bound}"
            )
        _write_output("\n".join(lines) + "\n", out)
        return
    doc = certdoc.build_document(
        kind="lambda_table",
        command="lambda-table",
        params={"max_n": max_n, "max_r": max_r, "epsilon": epsilon},
        certificate=certdoc.lambda_table_payload(max_n, max_r, rows, eps, witness),
    )
    _write_output(certdoc.serialize_document(doc), out)


@main.command("find-prime")
@click.option("--n", type=int, required=True)
@click.option("--h", type=int, default=1, show_default=True, help="The prime must not divide h.")
@click.option("--min", "min_p", type=int, default=1, show_default=True)
@click.option("--ceiling", type=int, default=solver.DEFAULT_PRIME_CEILING, show_default=True)
@click.option("--out", default="-", show_default=True)
def find_prime_cmd(n: int, h: int, min_p: int, ceiling: int, out: str) -> None:
    """Least prime p >= max(min, M(n)+1, 3) with p = 1 mod (n+1) not dividing h."""
    try:
        p = solver.find_prime(n, h=h, min_p=min_p, ceiling=ceiling)
    except (solver.PreconditionError, solver.SearchExhausted) as exc:
        raise click.UsageError(str(exc))
    doc = certdoc.build_document(
        kind="prime",
        command="find-prime",
        params={"n": n, "h": h, "min": min_p, "ceiling": ceiling},
        certificate=certdoc.prime_payload(n, h, min_p, ceiling, p, solver.compute_M(n)),
    )
    _write_output(certdoc.serialize_document(doc), out)


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--budget", type=int, default=DEFAULT_SUBSPACE_BUDGET, show_default=True)
def verify(path: str, budget: int) -> None:
    """Re-check every claim of a stored certificate from its raw data."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = certdoc.parse_document(handle.read())
        report = verify_document(doc, budget=budget)
    except (OSError, certdoc.ParseError) as exc:
        raise click.UsageError(f"cannot parse {path}: {exc}")
    for result in report.results:
        status = "ok  " if result.passed else "FAIL"
        detail = f"  ({result.detail})" if result.detail else ""
        click.echo(f"{status} {report.kind}:{result.name}{detail}")
    if not report.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
