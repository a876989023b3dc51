"""Command-line front end.

Subcommands: analyze | snc | bounds | dims | verify.  Each computes one
result before anything is printed: its exit code, its JSON payload and the
text lines that render it.  `main` prints the payload under --json and the
lines otherwise.  Exit codes: 0 ok, 1 polynomial parse error, 2
precondition or validation failure, 3 size guard exceeded.  If the reader
closes the pipe, the exit code stays the command's and nothing goes to
stderr.  Set WHIDEAL_NO_COLOR to suppress ANSI styling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .dims import (
    HodgeNumberTable,
    graded_piece_dim,
    projective_bounds,
    pushforward_filtration_dim,
    surjectivity_threshold,
)
from .errors import ParseError, SizeGuardError, ValidationError, require_int
from .invariants import classify, jacobian_witness, witness_annotation
from .poly import fraction_text, parse_polynomial
from .snc import (
    SncModel,
    hodge_ideal_snc,
    refuse_checks_past_limit,
    refuse_generators_past_limit,
    verify_snc_theorems,
    weighted_hodge_ideal_snc,
)


def _style(text: str, code: str) -> str:
    if sys.stdout.isatty() and not os.environ.get("WHIDEAL_NO_COLOR"):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _check_lines(runs, show_model: bool) -> list[str]:
    """One `PASS|FAIL name [n= r= ]p= [l=]` line per check, then a verdict."""
    lines = []
    for v in runs:
        model = f"n={v.model.n} r={v.model.r} " if show_model else ""
        for check in v.checks:
            where = model + f"p={check.p}" + ("" if check.l is None else f" l={check.l}")
            verdict = _style("PASS", "32") if check.passed else _style("FAIL", "31")
            lines.append(f"{verdict} {check.name} {where}")
    lines.append("all checks passed" if all(v.all_passed for v in runs) else "some checks FAILED")
    return lines


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from exc


def _check_digits(**values: int) -> None:
    """ValidationError naming the first value too long to print as decimal text."""
    for name, value in values.items():
        try:
            str(value)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ValidationError(f"{name} exceeds {limit} digits, the interpreter's limit") from None


def _refuse_binomial_past_digits(name: str, m: int, k: int) -> None:
    """The ValidationError of `_check_digits`, raised before C(m, k) is
    computed, when a lower bound alone puts C(m, k) past the digit limit.

    With k' = min(k, m - k) >= 1 and b the bit length of m // k',
    C(m, k) >= (m // k')^k' >= 2^(k'(b - 1)), and 1000 / 3322 < log10(2),
    so 1000 k'(b - 1) > 3322 * limit means more than `limit` digits.
    Borderline values are left to the exact check.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    k = min(k, m - k)
    if limit and k >= 1 and 1000 * k * ((m // k).bit_length() - 1) > 3322 * limit:
        raise ValidationError(f"{name} exceeds {limit} digits, the interpreter's limit")


def _read_polynomial(args):
    if args.file is not None:
        text = _read_text(args.file, "polynomial file")
    elif args.polynomial is not None:
        text = args.polynomial
    else:
        raise ValidationError("provide polynomial text or --file")
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip()) if args.vars else None
    return parse_polynomial(text, variables)


def _yes_no(triviality: dict) -> str:
    return " ".join(f"p={p}:{'yes' if v else 'no'}" for p, v in sorted(triviality.items()))


def cmd_analyze(args) -> tuple[int, dict, list[str]]:
    f = _read_polynomial(args)
    report = classify(f, allow_nonconvenient=args.allow_nonconvenient)
    if args.witness is not None:
        witness_poly = parse_polynomial(args.witness, f.variables)
        if len(witness_poly.terms) != 1 or set(witness_poly.terms.values()) != {Fraction(1)}:
            raise ValidationError(f"witness {args.witness!r} must be a single monic monomial")
        (m,) = witness_poly.terms
        p = report.p_level if report.p_level is not None else 0
        outside = jacobian_witness(f, m, p, limit=args.groebner_limit)
        report = report.with_notes(
            [witness_annotation(f, m, p, outside, report.nilpotency_upper)]
        )
    nilp = report.nilpotency_upper
    types = report.type_range
    exact = report.exact_type
    lines = [
        _style("singularity report", "1"),
        f"  variables: {', '.join(report.variables)}",
        f"  minimal exponent: {report.minimal_exponent}",
        f"  p level: {'-' if report.p_level is None else report.p_level}",
        f"  minimizing facets r: {report.r}",
        f"  diagonal face dim s: {'-' if report.s is None else report.s}",
        f"  simplicial: {'yes' if report.simplicial else 'no'}",
        f"  weight nilpotency bound: {'-' if nilp is None else nilp}",
        f"  hodge ideal trivial: {_yes_no(report.hodge_triviality)}",
        f"  w1 ideal trivial: {_yes_no(report.w1_triviality)}",
        "  type range: " + ("-" if types is None else ", ".join(f"({a},{b})" for a, b in types)),
        "  exact type: " + ("undetermined" if exact is None else f"({exact[0]},{exact[1]})"),
        "  compact facets:",
    ]
    for facet in report.polyhedron.facets:
        cov = ", ".join(fraction_text(b) for b in facet.covector)
        pts = " ".join("(" + ",".join(str(x) for x in pt) + ")" for pt in facet.incident_points)
        lines.append(f"    B = ({cov})  incident: {pts}")
    lines.append("  notes:")
    lines += [f"    - {note}" for note in report.notes]
    return 0, report.to_json_dict(), lines


def cmd_snc(args) -> tuple[int, dict, list[str]]:
    model = SncModel(args.n, args.r)
    if args.l is None:
        ideal = hodge_ideal_snc(model, args.p)
    else:
        ideal = weighted_hodge_ideal_snc(model, args.p, args.l)
    payload = {
        "schema": "whideal-snc/1",
        "n": args.n,
        "r": args.r,
        "p": args.p,
        "l": args.l,
        "generators": ideal.to_json(),
        "rendered": ideal.render(),
    }
    lines = [payload["rendered"]]
    if not args.verify:
        return 0, payload, lines
    verification = verify_snc_theorems(model, args.p)
    payload["verification"] = verification.to_json_dict()
    lines += _check_lines([verification], show_model=False)
    return (0 if verification.all_passed else 2), payload, lines


def cmd_bounds(args) -> tuple[int, dict, list[str]]:
    if args.d >= 1 and args.p >= 0:
        _refuse_binomial_past_digits("bound_w2_points", (args.p + 1) * args.d - 1, args.n)
    z2, z = projective_bounds(args.n, args.d, args.p)
    _check_digits(bound_w2_points=z2, bound_singular_points=z)
    payload = {
        "schema": "whideal-bounds/1",
        "n": args.n,
        "d": args.d,
        "p": args.p,
        "bound_w2_points": z2,
        "bound_singular_points": z,
    }
    lines = [f"points with nontrivial W_2 piece <= {z2}", f"singular points <= {z}"]
    if args.l is not None:
        threshold = surjectivity_threshold(args.n, args.d, args.p, args.l)
        payload["l"] = args.l
        payload["surjectivity_threshold"] = threshold
        lines.append(f"surjectivity threshold (l={args.l}): k >= {threshold}")
    return 0, payload, lines


def cmd_dims(args) -> tuple[int, dict, list[str]]:
    try:
        data = json.loads(_read_text(args.table, "table"))
    except ValueError as exc:  # bad JSON, or an integer past the digit limit
        raise ValidationError(f"cannot read table {args.table!r}: {exc}") from exc
    table = HodgeNumberTable.from_json_dict(data)
    value = graded_piece_dim(table, args.l, args.p)
    payload = {
        "schema": "whideal-dims/1",
        "n": table.n,
        "l": args.l,
        "p": args.p,
        "graded_piece_dim": value,
    }
    lines = [f"dim Gr_F^(n-p) at l={args.l}, p={args.p}: {value}"]
    if args.pushforward is not None:
        amb_n, push_p = args.pushforward
        # P also indexes the graded pieces, so check it here, under its own
        # name, rather than let graded_piece_dim blame --p.
        require_int("--pushforward N", amb_n, 1)
        require_int("--pushforward P", push_p, 0)
        if push_p > table.n - 2:
            raise ValidationError(f"need --pushforward P <= n-2, got P={push_p}, n={table.n}")
        d = {}
        for r in range(push_p + 1):
            d[r] = graded_piece_dim(table, args.l, r)
            # Every term C(N + P - r, P - r) d(r) is >= 0, so one past the
            # limit puts the sum past it.
            if d[r]:
                _refuse_binomial_past_digits("pushforward_dim", amb_n + push_p - r, push_p - r)
        pushforward = pushforward_filtration_dim(d, push_p, amb_n)
        _check_digits(pushforward_dim=pushforward)
        payload["pushforward_dim"] = pushforward
        lines.append(f"dim F_p pushforward (n={amb_n}, p={push_p}): {pushforward}")
    return 0, payload, lines


def cmd_verify(args) -> tuple[int, dict, list[str]]:
    require_int("n", args.n, 1)
    if args.r is None:
        # Every r is counted before any check or generator is built.
        refuse_checks_past_limit(args.n, args.p_max)
        r_values = range(1, args.n + 1)
        refuse_generators_past_limit(args.p_max, r_values)
    else:
        r_values = [args.r]
    results = [verify_snc_theorems(SncModel(args.n, r), args.p_max) for r in r_values]
    all_ok = all(v.all_passed for v in results)
    payload = {
        "schema": "whideal-verify/1",
        "n": args.n,
        "p_max": args.p_max,
        "runs": [v.to_json_dict() for v in results],
        "all_passed": all_ok,
    }
    return (0 if all_ok else 2), payload, _check_lines(results, show_model=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whideal",
        description="Exact weighted Hodge ideal and minimal exponent calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="singularity report for a polynomial")
    p_an.add_argument("polynomial", nargs="?", help="polynomial text")
    p_an.add_argument("--file", help="read polynomial text from a file")
    p_an.add_argument("--vars", help="comma-separated variable order")
    p_an.add_argument("--allow-nonconvenient", action="store_true")
    p_an.add_argument("--witness", help="monomial to test against the Jacobian ideal")
    p_an.add_argument("--groebner-limit", type=int, default=None, metavar="N",
                      help="lift the membership size guard to N")
    p_an.set_defaults(func=cmd_analyze)

    p_snc = sub.add_parser("snc", help="Hodge ideals of a normal-crossings model")
    p_snc.add_argument("--n", type=int, required=True)
    p_snc.add_argument("--r", type=int, required=True)
    p_snc.add_argument("--p", type=int, required=True)
    p_snc.add_argument("--l", type=int, default=None)
    p_snc.add_argument("--verify", action="store_true",
                       help="also run the structural checks up to p")
    p_snc.set_defaults(func=cmd_snc)

    p_b = sub.add_parser("bounds", help="projective point-count bounds")
    p_b.add_argument("--n", type=int, required=True)
    p_b.add_argument("--d", type=int, required=True)
    p_b.add_argument("--p", type=int, required=True)
    p_b.add_argument("--l", type=int, default=None)
    p_b.set_defaults(func=cmd_bounds)

    p_d = sub.add_parser("dims", help="graded dimensions from a Hodge number table")
    p_d.add_argument("--table", required=True, help="JSON table file")
    p_d.add_argument("--l", type=int, required=True)
    p_d.add_argument("--p", type=int, required=True)
    p_d.add_argument("--pushforward", type=int, nargs=2, metavar=("N", "P"),
                     help="also compute the pushforward filtration dimension")
    p_d.set_defaults(func=cmd_dims)

    p_v = sub.add_parser("verify", help="structural checks for normal-crossings models")
    p_v.add_argument("--n", type=int, required=True)
    p_v.add_argument("--r", type=int, default=None)
    p_v.add_argument("--p-max", type=int, default=2)
    p_v.set_defaults(func=cmd_verify)

    # main prints every result as text or as JSON, so every subcommand
    # takes --json; it comes last in each help listing.
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, lines = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Send what is still buffered to devnull, so the
        # flush at interpreter exit stays quiet, and keep the exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
