"""Command-line front end.

Subcommands: analyze | snc | bounds | dims | verify.  Exit codes: 0 ok,
1 polynomial parse error, 2 precondition or validation failure, 3 size
guard exceeded.  Set WHIDEAL_NO_COLOR to suppress ANSI styling.
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
from .snc import SncModel, hodge_ideal_snc, verify_snc_theorems, weighted_hodge_ideal_snc


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("WHIDEAL_NO_COLOR")


def _style(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _pass_fail(ok: bool) -> str:
    return _style("PASS", "32") if ok else _style("FAIL", "31")


def _print_checks(runs, show_model: bool):
    """One `PASS|FAIL name [n= r= ]p= [l=]` line per check, then a verdict."""
    for v in runs:
        model = f"n={v.model.n} r={v.model.r} " if show_model else ""
        for check in v.checks:
            where = model + f"p={check.p}" + ("" if check.l is None else f" l={check.l}")
            print(f"{_pass_fail(check.passed)} {check.name} {where}")
    print("all checks passed" if all(v.all_passed for v in runs) else "some checks FAILED")


def _emit_json(payload: dict):
    print(json.dumps(payload, indent=2))


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from exc


def _read_polynomial(args):
    if args.file is not None:
        text = _read_text(args.file, "polynomial file")
    else:
        text = args.polynomial
    variables = None
    if args.vars:
        variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    return parse_polynomial(text, variables)


def cmd_analyze(args) -> int:
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
    if args.json:
        _emit_json(report.to_json_dict())
        return 0
    print(_style("singularity report", "1"))
    print(f"  variables: {', '.join(report.variables)}")
    print(f"  minimal exponent: {report.minimal_exponent}")
    print(f"  p level: {'-' if report.p_level is None else report.p_level}")
    print(f"  minimizing facets r: {report.r}")
    print(f"  diagonal face dim s: {'-' if report.s is None else report.s}")
    print(f"  simplicial: {'yes' if report.simplicial else 'no'}")
    nilp = "-" if report.nilpotency_upper is None else report.nilpotency_upper
    print(f"  weight nilpotency bound: {nilp}")
    hodge = " ".join(
        f"p={p}:{'yes' if v else 'no'}" for p, v in sorted(report.hodge_triviality.items())
    )
    w1 = " ".join(
        f"p={p}:{'yes' if v else 'no'}" for p, v in sorted(report.w1_triviality.items())
    )
    print(f"  hodge ideal trivial: {hodge}")
    print(f"  w1 ideal trivial: {w1}")
    if report.type_range is None:
        print("  type range: -")
    else:
        print("  type range: " + ", ".join(f"({a},{b})" for a, b in report.type_range))
    if report.exact_type is None:
        print("  exact type: undetermined")
    else:
        print(f"  exact type: ({report.exact_type[0]},{report.exact_type[1]})")
    print("  compact facets:")
    for facet in report.polyhedron.facets:
        cov = ", ".join(fraction_text(b) for b in facet.covector)
        pts = " ".join("(" + ",".join(str(x) for x in pt) + ")" for pt in facet.incident_points)
        print(f"    B = ({cov})  incident: {pts}")
    print("  notes:")
    for note in report.notes:
        print(f"    - {note}")
    return 0


def cmd_snc(args) -> int:
    model = SncModel(args.n, args.r)
    if args.l is None:
        ideal = hodge_ideal_snc(model, args.p)
    else:
        ideal = weighted_hodge_ideal_snc(model, args.p, args.l)
    verification = verify_snc_theorems(model, args.p) if args.verify else None
    if args.json:
        payload = {
            "schema": "whideal-snc/1",
            "n": args.n,
            "r": args.r,
            "p": args.p,
            "l": args.l,
            "generators": ideal.to_json(),
            "rendered": ideal.render(),
        }
        if verification is not None:
            payload["verification"] = verification.to_json_dict()
        _emit_json(payload)
    else:
        print(ideal.render())
        if verification is not None:
            _print_checks([verification], show_model=False)
    if verification is not None and not verification.all_passed:
        return 2
    return 0


def cmd_bounds(args) -> int:
    z2, z = projective_bounds(args.n, args.d, args.p)
    threshold = None
    if args.l is not None:
        threshold = surjectivity_threshold(args.n, args.d, args.p, args.l)
    if args.json:
        payload = {
            "schema": "whideal-bounds/1",
            "n": args.n,
            "d": args.d,
            "p": args.p,
            "bound_w2_points": z2,
            "bound_singular_points": z,
        }
        if threshold is not None:
            payload["l"] = args.l
            payload["surjectivity_threshold"] = threshold
        _emit_json(payload)
    else:
        print(f"points with nontrivial W_2 piece <= {z2}")
        print(f"singular points <= {z}")
        if threshold is not None:
            print(f"surjectivity threshold (l={args.l}): k >= {threshold}")
    return 0


def cmd_dims(args) -> int:
    text = _read_text(args.table, "table")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"cannot read table {args.table!r}: {exc}") from exc
    table = HodgeNumberTable.from_json_dict(data)
    value = graded_piece_dim(table, args.l, args.p)
    pushforward = None
    if args.pushforward is not None:
        amb_n, push_p = args.pushforward
        # P also indexes the graded pieces, so check it here, under its own
        # name, rather than let graded_piece_dim blame --p.
        require_int("--pushforward N", amb_n, 1)
        require_int("--pushforward P", push_p, 0)
        if push_p > table.n - 2:
            raise ValidationError(f"need --pushforward P <= n-2, got P={push_p}, n={table.n}")
        d = {r: graded_piece_dim(table, args.l, r) for r in range(push_p + 1)}
        pushforward = pushforward_filtration_dim(d, push_p, amb_n)
    if args.json:
        payload = {
            "schema": "whideal-dims/1",
            "n": table.n,
            "l": args.l,
            "p": args.p,
            "graded_piece_dim": value,
        }
        if pushforward is not None:
            payload["pushforward_dim"] = pushforward
        _emit_json(payload)
    else:
        print(f"dim Gr_F^(n-p) at l={args.l}, p={args.p}: {value}")
        if pushforward is not None:
            print(f"dim F_p pushforward (n={args.pushforward[0]}, p={args.pushforward[1]}): {pushforward}")
    return 0


def cmd_verify(args) -> int:
    require_int("n", args.n, 1)
    r_values = [args.r] if args.r is not None else list(range(1, args.n + 1))
    results = []
    for r in r_values:
        results.append(verify_snc_theorems(SncModel(args.n, r), args.p_max))
    all_ok = all(v.all_passed for v in results)
    if args.json:
        _emit_json(
            {
                "schema": "whideal-verify/1",
                "n": args.n,
                "p_max": args.p_max,
                "runs": [v.to_json_dict() for v in results],
                "all_passed": all_ok,
            }
        )
    else:
        _print_checks(results, show_model=True)
    return 0 if all_ok else 2


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
    p_an.add_argument("--json", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_snc = sub.add_parser("snc", help="Hodge ideals of a normal-crossings model")
    p_snc.add_argument("--n", type=int, required=True)
    p_snc.add_argument("--r", type=int, required=True)
    p_snc.add_argument("--p", type=int, required=True)
    p_snc.add_argument("--l", type=int, default=None)
    p_snc.add_argument("--verify", action="store_true",
                       help="also run the structural checks up to p")
    p_snc.add_argument("--json", action="store_true")
    p_snc.set_defaults(func=cmd_snc)

    p_b = sub.add_parser("bounds", help="projective point-count bounds")
    p_b.add_argument("--n", type=int, required=True)
    p_b.add_argument("--d", type=int, required=True)
    p_b.add_argument("--p", type=int, required=True)
    p_b.add_argument("--l", type=int, default=None)
    p_b.add_argument("--json", action="store_true")
    p_b.set_defaults(func=cmd_bounds)

    p_d = sub.add_parser("dims", help="graded dimensions from a Hodge number table")
    p_d.add_argument("--table", required=True, help="JSON table file")
    p_d.add_argument("--l", type=int, required=True)
    p_d.add_argument("--p", type=int, required=True)
    p_d.add_argument("--pushforward", type=int, nargs=2, metavar=("N", "P"),
                     help="also compute the pushforward filtration dimension")
    p_d.add_argument("--json", action="store_true")
    p_d.set_defaults(func=cmd_dims)

    p_v = sub.add_parser("verify", help="structural checks for normal-crossings models")
    p_v.add_argument("--n", type=int, required=True)
    p_v.add_argument("--r", type=int, default=None)
    p_v.add_argument("--p-max", type=int, default=2)
    p_v.add_argument("--json", action="store_true")
    p_v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.func is cmd_analyze and args.polynomial is None and args.file is None:
        print("error: provide polynomial text or --file", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
