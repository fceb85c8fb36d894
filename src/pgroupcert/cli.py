"""Command-line front end: produce certificates, re-verify them, tabulate bounds.

Built on the standard library's argparse, so a fresh process pays for the
interpreter and the library only.  Exit codes are a stable contract: 0 on
success, 1 when a verification or certification check fails, 2 on usage or
parse errors, which include a missing or unreadable ``verify`` path and the
library's PreconditionError, ParseError and BudgetExceeded.

``main(args)`` returns the exit status, for ``sys.exit(main())``;
``main.main(args=..., prog_name=...)`` raises SystemExit with it instead.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import NoReturn

from . import certdoc, primes, solver
from .groups import DEFAULT_BRUTE_BUDGET, MAX_GROUP_N, brute_force_lambda, group_order, max_abelian_exponent
from .products import DEFAULT_SEARCH_ATTEMPTS, olshanskii_search, product_subgroup_bound
from .symplectic import DEFAULT_SUBSPACE_BUDGET, BudgetExceeded
from .verify import verify_document


class UsageError(Exception):
    """Bad input for a command; reported under the command's usage line with exit status 2."""


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def certify(args: argparse.Namespace) -> int:
    """Run the full Chern-cancellation pipeline and emit a certificate."""
    n, r, p, lifts = args.n, args.r, args.p, args.lifts
    try:
        if p is None:
            p = solver.find_prime(n)
        cert = solver.certify(n, r, p, lift=lifts)
    except (solver.PreconditionError, solver.SearchExhausted) as exc:
        raise UsageError(str(exc)) from exc
    except solver.CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    doc = certdoc.build_document(
        kind="construction",
        command="certify",
        params={"n": n, "r": r, "p": p, "lifts": lifts},
        certificate=certdoc.construction_payload(cert),
    )
    _write_output(certdoc.serialize_document(doc), args.out)
    return 0 if cert.overall_pass else 1


def group(args: argparse.Namespace) -> int:
    """Report the order, maximal abelian order, and abelian fraction of one Heisenberg group."""
    n, p, mode, budget = args.n, args.p, args.mode, args.budget
    if not 1 <= n <= MAX_GROUP_N or not primes.is_odd_prime(p):
        raise UsageError(f"need 1 <= n <= {MAX_GROUP_N} and an odd prime p")
    order = group_order(n, p)
    try:
        structural = max_abelian_exponent(n, p)
        if mode == "brute":
            max_order, lam = brute_force_lambda(n, p, budget=budget)
            exponent = int(lam * (2 * n + 1))
            modes_agree = exponent == structural
        else:
            exponent = structural
            max_order = p**exponent
            lam = Fraction(exponent, 2 * n + 1)
            modes_agree = None
    except BudgetExceeded as exc:
        raise UsageError(str(exc)) from exc
    doc = certdoc.build_document(
        kind="group",
        command="group",
        params={"n": n, "p": p, "mode": mode, "budget": budget},
        certificate=certdoc.group_report_payload(
            n, p, mode, order, max_order, exponent, lam, budget, modes_agree
        ),
    )
    _write_output(certdoc.serialize_document(doc), args.out)
    return 1 if modes_agree is False else 0


def olshanskii(args: argparse.Namespace) -> int:
    """Search for a form family with no common isotropic subspace of dimension floor(4n/r)+2."""
    n, r, p, seed, budget, attempts = args.n, args.r, args.p, args.seed, args.budget, args.attempts
    if r < 2:
        raise UsageError("r must be at least 2")
    try:
        spec = olshanskii_search(n, r, p, seed=seed, budget=budget, attempts=attempts)
    except (ValueError, BudgetExceeded) as exc:
        raise UsageError(str(exc)) from exc
    bound = product_subgroup_bound(spec, exact_budget=budget) if spec.certified else None
    doc = certdoc.build_document(
        kind="olshanskii",
        command="olshanskii",
        params={"n": n, "r": r, "p": p, "seed": seed, "budget": budget, "attempts": attempts},
        certificate=certdoc.olshanskii_payload(spec, bound),
        seed=seed,
    )
    _write_output(certdoc.serialize_document(doc), args.out)
    return 0 if spec.certified else 1


def lambda_table(args: argparse.Namespace) -> int:
    """Tabulate the abelian-fraction bounds (n+1)/(2n+1) and (r+k)/(2n+r)."""
    max_n, max_r, epsilon = args.max_n, args.max_r, args.epsilon
    try:
        rows = solver.lambda_table(max_n, max_r)
        eps = Fraction(epsilon) if epsilon is not None else None
    except (solver.PreconditionError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from exc
    witness = solver.epsilon_witness(rows, eps) if eps is not None else None
    if args.fmt == "csv":
        lines = ["n,r,k,abelian_exponent,order_exponent,bound"]
        for row in rows:
            lines.append(
                f"{row.n},{row.r},{'' if row.k is None else row.k},"
                f"{row.abelian_exponent},{row.order_exponent},{row.bound}"
            )
        _write_output("\n".join(lines) + "\n", args.out)
        return 0
    doc = certdoc.build_document(
        kind="lambda_table",
        command="lambda-table",
        params={"max_n": max_n, "max_r": max_r, "epsilon": epsilon},
        certificate=certdoc.lambda_table_payload(max_n, max_r, rows, eps, witness),
    )
    _write_output(certdoc.serialize_document(doc), args.out)
    return 0


def find_prime(args: argparse.Namespace) -> int:
    """Least prime p >= max(min, M(n)+1, 3) with p = 1 mod (n+1) not dividing h."""
    n, h, min_p, ceiling = args.n, args.h, args.min_p, args.ceiling
    try:
        p = solver.find_prime(n, h=h, min_p=min_p, ceiling=ceiling)
    except (solver.PreconditionError, solver.SearchExhausted) as exc:
        raise UsageError(str(exc)) from exc
    doc = certdoc.build_document(
        kind="prime",
        command="find-prime",
        params={"n": n, "h": h, "min": min_p, "ceiling": ceiling},
        certificate=certdoc.prime_payload(n, h, min_p, ceiling, p, solver.compute_M(n)),
    )
    _write_output(certdoc.serialize_document(doc), args.out)
    return 0


def verify(args: argparse.Namespace) -> int:
    """Re-check every claim of a stored certificate from its raw data."""
    path = args.path
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = certdoc.parse_document(handle.read())
        report = verify_document(doc, budget=args.budget)
    except (OSError, certdoc.ParseError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}") from exc
    for result in report.results:
        status = "ok  " if result.passed else "FAIL"
        detail = f"  ({result.detail})" if result.detail else ""
        print(f"{status} {report.kind}:{result.name}{detail}")
    return 0 if report.ok else 1


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Exact certificates for the Heisenberg-group bundle constructions.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, handler) -> argparse.ArgumentParser:
        doc = handler.__doc__
        sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        sub.set_defaults(handler=handler, parser=sub)
        return sub

    def out_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--out", default="-", help="Output path, '-' for stdout (default: %(default)s).")

    sub = command("certify", certify)
    sub.add_argument("--n", type=int, required=True, help="Torus half-dimension.")
    sub.add_argument("--r", type=int, default=1, help="Number of group factors (default: %(default)s).")
    sub.add_argument("--p", type=int, help="Odd prime = 1 mod (n+1), > M(n); auto-searched when omitted.")
    sub.add_argument("--lifts", choices=["nonneg", "symmetric"], default="nonneg", help="(default: %(default)s)")
    out_option(sub)

    sub = command("group", group)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, required=True, help="Odd prime.")
    sub.add_argument("--mode", choices=["structural", "brute"], default="structural", help="(default: %(default)s)")
    sub.add_argument(
        "--budget", type=int, default=DEFAULT_BRUTE_BUDGET, help="Max group order for brute mode (default: %(default)s)."
    )
    out_option(sub)

    sub = command("olshanskii", olshanskii)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=int, required=True, help="Number of forms; at least 2.")
    sub.add_argument("--p", type=int, required=True, help="Odd prime.")
    sub.add_argument("--seed", type=int, default=0, help="(default: %(default)s)")
    sub.add_argument("--budget", type=int, default=DEFAULT_SUBSPACE_BUDGET, help="(default: %(default)s)")
    sub.add_argument("--attempts", type=int, default=DEFAULT_SEARCH_ATTEMPTS, help="(default: %(default)s)")
    out_option(sub)

    sub = command("lambda-table", lambda_table)
    sub.add_argument("--max-n", type=int, required=True)
    sub.add_argument("--max-r", type=int, required=True)
    sub.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json", help="(default: %(default)s)")
    sub.add_argument("--epsilon", help="Exact rational like 2/3; adds the least (n, r) with bound below it.")
    out_option(sub)

    sub = command("find-prime", find_prime)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--h", type=int, default=1, help="The prime must not divide h (default: %(default)s).")
    sub.add_argument("--min", dest="min_p", type=int, default=1, help="(default: %(default)s)")
    sub.add_argument("--ceiling", type=int, default=solver.DEFAULT_PRIME_CEILING, help="(default: %(default)s)")
    out_option(sub)

    sub = command("verify", verify)
    sub.add_argument("path", metavar="PATH")
    sub.add_argument("--budget", type=int, default=DEFAULT_SUBSPACE_BUDGET, help="(default: %(default)s)")
    return parser


def main(args: list[str] | None = None, prog_name: str = "pgroupcert") -> int:
    """Run one command line (``sys.argv[1:]`` when ``args`` is None); returns its exit status."""
    try:
        namespace = _parser(prog_name).parse_args(args)
        try:
            return namespace.handler(namespace)
        except UsageError as exc:
            namespace.parser.error(str(exc))
    except SystemExit as exc:  # argparse reports --help and usage errors by exiting
        return exc.code if isinstance(exc.code, int) else 2


def _main_exiting(args: list[str] | None = None, prog_name: str = "pgroupcert") -> NoReturn:
    sys.exit(main(args, prog_name))


# The click-style entry ``main.main(args=..., prog_name=...)``, which
# perfbench/child.py calls and which raises SystemExit with the status.
main.main = _main_exiting  # type: ignore[attr-defined]


if __name__ == "__main__":
    sys.exit(main())
