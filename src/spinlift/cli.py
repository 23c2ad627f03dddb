"""Command line front end: fixtures, reports, and verification pipelines.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 numerical-domain error (pole, convergence abscissa or float overflow).

Each handler imports the library modules it uses, so a command loads only
those, and takes its defaults (prime bound, series order, tolerance) from
them rather than at parser build time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

SCHEMA_VERSION = 1
FIXTURES_ENV = "SPINLIFT_FIXTURES"
DEFAULT_FIXTURES = "fixtures.json"


class CliInputError(Exception):
    pass


def _config(args) -> argparse.Namespace:
    """Validated run options shared by the subcommands.

    prime_bound and tol stay None when not given: the handlers that use
    them take the defaults from the library modules that own them.
    """
    config = argparse.Namespace(
        fixtures=(
            getattr(args, "fixtures", None)
            or os.environ.get(FIXTURES_ENV)
            or DEFAULT_FIXTURES
        ),
        prime_bound=getattr(args, "prime_bound", None),
        tol=getattr(args, "tol", None),
        exact=not getattr(args, "numeric", False),
        fmt=getattr(args, "format", None) or "json",
    )
    if config.tol is not None and not 0 < config.tol < math.inf:
        raise CliInputError("tolerance must be positive and finite")
    if config.prime_bound is not None and config.prime_bound < 2:
        raise CliInputError("prime bound must be at least 2")
    if config.fmt not in ("json", "table"):
        raise CliInputError("format must be json or table")
    return config


def _load_records(path: str) -> dict:
    from . import modforms

    try:
        return modforms.load_fixtures(path)
    except FileNotFoundError:
        raise CliInputError(
            f"fixtures file {path!r} not found; run `spinlift fixtures gen` first"
        )
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        raise CliInputError(f"fixtures file {path!r} is unusable: {exc}")


def _record(records: dict, label: str):
    if label not in records:
        raise CliInputError(
            f"label {label!r} not in fixtures (have: {', '.join(sorted(records))})"
        )
    return records[label]


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _satake_payload(sp) -> dict:
    from .satake import check_normalization, hecke_eigenvalue, ramanujan_check

    return {
        "degree": sp.degree,
        "weight": sp.weight,
        "p": sp.p,
        "mu0": _pair(sp.mu0),
        "mu": [_pair(x) for x in sp.mu],
        "normalized": check_normalization(sp),
        "ramanujan": ramanujan_check(sp),
        "hecke_eigenvalue": _pair(hecke_eigenvalue(sp)),
    }


def _satake_for(record, p: int):
    from . import modforms, satake

    if record.degree == 1:
        return satake.satake_from_gl2(record.weight, p, record.lambda_p(p))
    if record.degree == 2:
        a_g = modforms.sk_component_eigenvalue(
            record.weight, p, record.lambda_p(p), record.lambda_p2(p)
        )
        if a_g is None:
            raise CliInputError(
                f"record {record.label!r} is not of lift type at p={p}; "
                "numeric parameters are unavailable"
            )
        return modforms.saito_kurokawa_satake(record.weight, p, a_g)
    raise CliInputError(f"record {record.label!r} has unsupported degree")


def _exact_spin_for(record, p: int):
    from . import localfactors

    if record.degree == 1:
        return localfactors.gl2_factor_exact(record.weight, p, record.lambda_p(p))
    if record.degree == 2:
        return localfactors.gsp4_spin_factor_exact(
            record.weight, p, record.lambda_p(p), record.lambda_p2(p)
        )
    raise CliInputError(f"record {record.label!r} has unsupported degree")


def _flatten(prefix: str, obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append(f"{prefix} = []")
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out.append(f"{prefix} = {obj}")


def _emit(config: argparse.Namespace, payload: dict) -> None:
    if config.fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        lines: list[str] = []
        _flatten("", payload, lines)
        print("\n".join(lines))


def cmd_fixtures_gen(args) -> int:
    from . import modforms

    config = _config(args)
    bound = modforms.DEFAULT_PRIME_BOUND if config.prime_bound is None else config.prime_bound
    order = modforms.DEFAULT_ORDER if args.order is None else args.order
    if order < 2:
        raise CliInputError("order must be at least 2")
    modforms.write_fixtures(config.fixtures, bound, order)
    payload = {
        "path": config.fixtures,
        "labels": sorted(modforms.FIXTURE_LABELS),
        "prime_bound": bound,
        "order": max(order, bound + 1),
    }
    _emit(config, payload)
    return EXIT_OK


def cmd_satake(args) -> int:
    config = _config(args)
    record = _record(_load_records(config.fixtures), args.label)
    sp = _satake_for(record, args.p)
    payload = {"label": record.label, **_satake_payload(sp)}
    _emit(config, payload)
    return EXIT_OK


def cmd_local_factor(args) -> int:
    from . import localfactors

    config = _config(args)
    record = _record(_load_records(config.fixtures), args.label)
    if args.rep == "spin" and config.exact:
        factor = _exact_spin_for(record, args.p)
        payload = factor.to_json_dict()
    else:
        if config.exact:
            raise CliInputError("standard factors are numeric only; pass --numeric")
        sp = _satake_for(record, args.p)
        factor = (
            localfactors.spin_local_factor(sp)
            if args.rep == "spin"
            else localfactors.standard_local_factor(sp)
        )
        payload = {
            "p": factor.p,
            "degree": factor.degree,
            "rep": factor.rep,
            "coeffs": [_pair(c) for c in factor.coeffs],
        }
    _emit(config, {"label": record.label, "factor": payload})
    return EXIT_OK


def cmd_lift(args) -> int:
    from . import lifting
    from .satake import hecke_eigenvalue

    config = _config(args)
    records = _load_records(config.fixtures)
    h = _record(records, args.h)
    g = _record(records, args.g)
    inp = lifting.lift_input_from_records(h, g, args.p)
    lifted = lifting.theta_lift(inp)
    payload: dict = {
        "h": h.label,
        "g": g.label,
        "p": args.p,
        "lift": _satake_payload(lifted),
        "spin_factor": lifting.lift_route_spin_factor(inp, exact=True).to_json_dict(),
    }
    failed = False
    if args.verify:
        report = lifting.verify_tensor_identity(inp, exact=config.exact)
        product = lifting.verify_eigenvalue_product(h, g, args.p)
        eigen_ok = (
            abs(hecke_eigenvalue(lifted) - product) <= 1e-9 * max(1.0, abs(product))
        )
        payload["tensor_identity"] = report.to_dict()
        payload["eigenvalue_product"] = {"value": str(product), "matches_lift": eigen_ok}
        failed = not (report.ok and eigen_ok)
    _emit(config, payload)
    return EXIT_VERIFICATION if failed else EXIT_OK


def _cuspidality_verdict(inp, config: argparse.Namespace):
    from . import cuspidality

    tol = cuspidality.LOG_TOL if config.tol is None else config.tol
    return cuspidality.cuspidality_decision(inp, tol=tol)


def _cuspidality_payload(args, config: argparse.Namespace) -> dict:
    from . import lifting

    if args.h or args.g:
        if not (args.h and args.g):
            raise CliInputError("pass both --h and --g or neither")
        records = _load_records(config.fixtures)
        inp = lifting.lift_input_from_records(
            _record(records, args.h), _record(records, args.g), args.p
        )
        if args.k is not None and args.k != inp.gsp4.weight:
            raise CliInputError("--k disagrees with the weight of --g")
    else:
        if args.k is None:
            raise CliInputError("pass --k or a pair of labels")
        inp = lifting.synthetic_lift_input(args.k, args.p)
    verdict = _cuspidality_verdict(inp, config)
    return {"k": inp.gsp4.weight, "p": args.p, **verdict.to_dict()}


def cmd_cuspidality(args) -> int:
    config = _config(args)
    _emit(config, _cuspidality_payload(args, config))
    return EXIT_OK


def cmd_hodge_show(args) -> int:
    from . import hodge

    config = _config(args)
    builder = {
        "gl2": hodge.hodge_gl2,
        "gsp4": hodge.hodge_gsp4,
        "gsp6": hodge.hodge_gsp6,
    }[args.type]
    ht = builder(args.weight)
    payload = {
        "type": args.type,
        "weight_in": args.weight,
        "pairs": [list(pq) for pq in ht.pairs],
        "motivic_weight": ht.weight,
    }
    _emit(config, payload)
    return EXIT_OK


def _hodge_solve_payload(lo: int, hi: int) -> dict:
    from . import hodge

    if hi < lo:
        raise CliInputError(f"--max {hi} is below --min {lo}")
    solutions = hodge.weight_solver(lo, hi)
    return {
        "min": lo,
        "max": hi,
        "solutions": [list(t) for t in solutions],
        "family": "k = K - 2, l = K",
    }


def cmd_hodge_solve(args) -> int:
    config = _config(args)
    _emit(config, _hodge_solve_payload(args.min, args.max))
    return EXIT_OK


def _critical_payload(k: int) -> dict:
    from . import analytic

    vals = analytic.critical_values(k)
    return {
        "weight": k,
        "center": 3 * k - 5,
        "critical_values": vals,
        "count": len(vals),
    }


def cmd_critical(args) -> int:
    config = _config(args)
    _emit(config, _critical_payload(args.k))
    return EXIT_OK


def _gamma_payload(k: int, compare_rs: bool) -> dict:
    from . import analytic

    spin = analytic.linf_spin3(k)
    payload = {"weight": k, "spin3": spin.to_dict()}
    if compare_rs:
        rs = analytic.linf_rankin_selberg(k - 2, k)
        payload["rankin_selberg"] = rs.to_dict()
        payload["shifts_match"] = spin.shifts == rs.shifts
        payload["centers_match"] = spin.center == rs.center
    return payload


def cmd_gamma(args) -> int:
    config = _config(args)
    _emit(config, _gamma_payload(args.k, args.compare_rs))
    return EXIT_OK


def cmd_lvalue(args) -> int:
    from . import analytic, lifting, localfactors, modforms

    config = _config(args)
    records = _load_records(config.fixtures)
    h = _record(records, args.h)
    g = _record(records, args.g)
    check = lifting.lift_weights(h.weight, g.weight)
    if not check.accepted:
        raise CliInputError(
            f"weights ({h.weight}, {g.weight}) do not fit the lift pattern"
        )
    def provider(p: int) -> localfactors.LocalFactor:
        try:
            a_p = h.lambda_p(p)
            lam, lam2 = g.lambda_p(p), g.lambda_p2(p)
        except ValueError:
            raise CliInputError(
                f"fixtures lack prime {p}; regenerate with a larger --prime-bound"
            )
        return lifting.lifted_spin_factor_exact(
            h.weight,
            a_p,
            localfactors.gsp4_spin_factor_exact(g.weight, p, lam, lam2),
        )

    weight = 3 * check.k - 6
    bound = modforms.DEFAULT_PRIME_BOUND if config.prime_bound is None else config.prime_bound
    result = analytic.truncated_euler_product(provider, args.s, bound, weight)
    payload = {
        "h": h.label,
        "g": g.label,
        "s": args.s,
        "motivic_weight": weight,
        **result.to_dict(),
    }
    _emit(config, payload)
    return EXIT_OK


def cmd_report(args) -> int:
    config = _config(args)
    subject = args.subject
    if subject == "hodge-solve":
        payload = _hodge_solve_payload(args.min, args.max)
    elif subject == "critical":
        if args.k is None:
            raise CliInputError("subject critical needs --k")
        payload = _critical_payload(args.k)
    elif subject == "gamma":
        if args.k is None:
            raise CliInputError("subject gamma needs --k")
        payload = _gamma_payload(args.k, compare_rs=True)
    elif subject == "cuspidality":
        if args.k is None and not (args.h or args.g):
            raise CliInputError("subject cuspidality needs --k")
        payload = _cuspidality_payload(args, config)
    elif subject == "local-factor":
        if not args.label:
            raise CliInputError("subject local-factor needs --label")
        record = _record(_load_records(config.fixtures), args.label)
        payload = {"label": record.label, "factor": _exact_spin_for(record, args.p).to_json_dict()}
    else:
        raise CliInputError(f"unknown report subject {subject!r}")
    _emit(config, {"schema_version": SCHEMA_VERSION, "subject": subject, "payload": payload})
    return EXIT_OK


def cmd_verify_miyawaki(args) -> int:
    from . import lifting, modforms

    config = _config(args)
    records = _load_records(config.fixtures)
    checks: list[dict] = []

    def check(name: str, expected, actual) -> None:
        checks.append(
            {
                "name": name,
                "expected": str(expected),
                "actual": str(actual),
                "pass": expected == actual,
            }
        )

    dl = modforms.delta(modforms.DEFAULT_ORDER)
    g26 = modforms.newform_weight26(modforms.DEFAULT_ORDER)
    tau2 = dl.integer_coefficient(2)
    a2 = g26.integer_coefficient(2)
    lam2_g = modforms.sk_eigenvalue(14, 2, a2)
    check("tau(2) from the eta product", -24, tau2)
    check("degree-2 weight-14 eigenvalue at 2", 12240, lam2_g)
    check("eigenvalue product", -(2**7) * 2295, tau2 * lam2_g)

    h = _record(records, "Delta.12.1")
    g = _record(records, "SK.14.2")
    check("fixture tau(2)", tau2, h.lambda_p(2))
    check("fixture degree-2 eigenvalue at 2", lam2_g, g.lambda_p(2))
    check(
        "fixture eigenvalue product",
        True,
        lifting.verify_eigenvalue_product(h, g, 2, expected=-(2**7) * 2295),
    )

    inp = lifting.lift_input_from_records(h, g, 2)
    report = lifting.verify_tensor_identity(inp, exact=True)
    check("tensor identity at p=2 (exact)", True, report.ok)

    verdict = _cuspidality_verdict(inp, config)
    check("cuspidality verdict", True, verdict.cuspidal)

    ok = all(c["pass"] for c in checks)
    payload = {
        "verdict": "pass" if ok else "fail",
        "checks": checks,
        "cuspidality_cases": [c.to_dict() for c in verdict.cases],
    }
    _emit(config, payload)
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlift",
        description="Exact spinor L-factor algebra for degree-3 liftings",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--fixtures", help=f"fixtures path (or ${FIXTURES_ENV})")
    parser.add_argument("--tol", type=float, help="tolerance override")
    sub = parser.add_subparsers(dest="command", required=True)

    fixtures = sub.add_parser("fixtures", help="fixture management")
    fixtures_sub = fixtures.add_subparsers(dest="subcommand", required=True)
    gen = fixtures_sub.add_parser("gen", help="write fixtures.json deterministically")
    gen.add_argument("--prime-bound", type=int)
    gen.add_argument("--order", type=int)
    gen.set_defaults(handler=cmd_fixtures_gen)

    satake_p = sub.add_parser("satake", help="Satake parameters of a fixture form")
    satake_p.add_argument("--label", required=True)
    satake_p.add_argument("--p", type=int, required=True)
    satake_p.set_defaults(handler=cmd_satake)

    lf = sub.add_parser("local-factor", help="local L-factor of a fixture form")
    lf.add_argument("--label", required=True)
    lf.add_argument("--p", type=int, required=True)
    lf.add_argument("--rep", choices=("spin", "standard"), default="spin")
    lf.add_argument("--numeric", action="store_true")
    lf.set_defaults(handler=cmd_local_factor)

    lift_p = sub.add_parser("lift", help="lift a fixture pair and verify")
    lift_p.add_argument("--h", required=True, help="degree-1 label")
    lift_p.add_argument("--g", required=True, help="degree-2 label")
    lift_p.add_argument("--p", type=int, required=True)
    lift_p.add_argument("--verify", action="store_true")
    lift_p.add_argument("--numeric", action="store_true")
    lift_p.set_defaults(handler=cmd_lift)

    cusp = sub.add_parser("cuspidality", help="template refutation report")
    cusp.add_argument("--k", type=int)
    cusp.add_argument("--p", type=int, required=True)
    cusp.add_argument("--h")
    cusp.add_argument("--g")
    cusp.set_defaults(handler=cmd_cuspidality)

    hodge_p = sub.add_parser("hodge", help="Hodge types and the weight solver")
    hodge_sub = hodge_p.add_subparsers(dest="subcommand", required=True)
    show = hodge_sub.add_parser("show")
    show.add_argument("--type", choices=("gl2", "gsp4", "gsp6"), required=True)
    show.add_argument("--weight", type=int, required=True)
    show.set_defaults(handler=cmd_hodge_show)
    solve = hodge_sub.add_parser("solve")
    solve.add_argument("--min", type=int, default=8)
    solve.add_argument("--max", type=int, default=40)
    solve.set_defaults(handler=cmd_hodge_solve)

    crit = sub.add_parser("critical", help="critical integers for a weight")
    crit.add_argument("--k", type=int, required=True)
    crit.set_defaults(handler=cmd_critical)

    gamma_p = sub.add_parser("gamma", help="completion profile bookkeeping")
    gamma_p.add_argument("--k", type=int, required=True)
    gamma_p.add_argument("--compare-rs", action="store_true")
    gamma_p.set_defaults(handler=cmd_gamma)

    lvalue = sub.add_parser("lvalue", help="truncated Euler product of a lift")
    lvalue.add_argument("--h", required=True)
    lvalue.add_argument("--g", required=True)
    lvalue.add_argument("--s", type=float, required=True)
    lvalue.add_argument("--prime-bound", type=int)
    lvalue.set_defaults(handler=cmd_lvalue)

    verify = sub.add_parser("verify", help="end-to-end verification pipelines")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    miyawaki = verify_sub.add_parser("miyawaki")
    miyawaki.set_defaults(handler=cmd_verify_miyawaki)

    report = sub.add_parser("report", help="stable-schema report of any subject")
    report.add_argument("--subject", required=True)
    report.add_argument("--k", type=int)
    report.add_argument("--p", type=int, default=2)
    report.add_argument("--h")
    report.add_argument("--g")
    report.add_argument("--label")
    report.add_argument("--min", type=int, default=8)
    report.add_argument("--max", type=int, default=40)
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliInputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        # AbscissaError is a ValueError; importing it here keeps analytic
        # off the path of every command that succeeds.
        from .analytic import AbscissaError

        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, AbscissaError) else EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
