"""Command line front end: fixtures, reports, and verification pipelines.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 numerical-domain error (pole, convergence abscissa, a factor without a
certified root exponent, a lift with no certified exponents, or float
overflow).

Each subcommand names one command function, which maps the parsed
arguments and the validated run options to a payload and a pass flag (false
only when a verification pipeline finds a failing check).  ``main`` emits
the payload and turns the outcome into an exit code; ``report`` looks its
subject up in ``REPORTS``.  Each command imports the library modules it
uses, so it loads only those, and takes its defaults (prime bound, series
order) from them rather than at parser build time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._value import MAX_SIZE

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

    prime_bound stays None when not given: the handlers that use it take
    the default from the library module that owns it.
    """
    config = argparse.Namespace(
        fixtures=(
            getattr(args, "fixtures", None)
            or os.environ.get(FIXTURES_ENV)
            or DEFAULT_FIXTURES
        ),
        prime_bound=getattr(args, "prime_bound", None),
        fmt=getattr(args, "format", None) or "json",
    )
    if config.prime_bound is not None and config.prime_bound < 2:
        raise CliInputError("prime bound must be at least 2")
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


def _check_size(option: str, value: int) -> None:
    if value > MAX_SIZE:
        raise CliInputError(f"{option} {value} is above the limit {MAX_SIZE}")


def _printable_factor(record, p: int, factor) -> dict:
    """``factor.to_json_dict()``, or CliInputError naming the record, p and
    the digits of the longest coefficient when that has more than the
    interpreter converts to a string (``sys.get_int_max_str_digits()``;
    PYTHONINTMAXSTRDIGITS=0 lifts the limit)."""
    limit = sys.get_int_max_str_digits()
    top = max(map(abs, factor.coeffs))
    # 10^limit has more than 3 * limit bits: the comparison is rarely made.
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:
        import math

        # floor(log10(top)), or one off in either direction; then the count.
        digits = int((top.bit_length() - 1) * math.log10(2))
        tens = 10**digits
        digits += 1 + (top >= 10 * tens) - (top < tens)
        raise CliInputError(
            f"record {record.label!r} at p = {p}: its spin factor has a coefficient "
            f"of {digits} digits, more than the {limit} this interpreter converts to "
            "a string (sys.get_int_max_str_digits(); set PYTHONINTMAXSTRDIGITS=0 to "
            "lift the limit)"
        )
    return factor.to_json_dict()


def _record(records: dict, label: str):
    if label not in records:
        raise CliInputError(
            f"label {label!r} not in fixtures (have: {', '.join(sorted(records))})"
        )
    return records[label]


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


def _fixtures_gen(args, config):
    from . import modforms

    bound = modforms.DEFAULT_PRIME_BOUND if config.prime_bound is None else config.prime_bound
    order = modforms.DEFAULT_ORDER if args.order is None else args.order
    if order < 2:
        raise CliInputError("order must be at least 2")
    _check_size("--prime-bound", bound)
    _check_size("--order", order)
    modforms.write_fixtures(config.fixtures, bound, order)
    return {
        "path": config.fixtures,
        "labels": sorted(modforms.FIXTURE_LABELS),
        "prime_bound": bound,
        "order": max(order, bound + 1),
    }, True


def _satake(args, config):
    """The record's spin factor over Z, whose inverse roots are its spin
    characters, and the facts the Satake point carries, read off it exactly:
    the eigenvalue -c1, the top coefficient p^(nk - n(n+1)/2) raised to
    2^(n-1), and temperedness (Deligne's bound in degree 1)."""
    from .localfactors import gsp4_tempered, spin_factor_from_record

    record = _record(_load_records(config.fixtures), args.label)
    factor = spin_factor_from_record(record, args.p)
    n, c = record.degree, factor.coeffs
    # p^(2k-3) in degree 2 is also the q_f of the tempered shape.
    target = args.p ** (n * record.weight - n * (n + 1) // 2)
    if n == 1:
        ramanujan = factor.root_exponent is not None
    else:
        ramanujan = gsp4_tempered(c[1], c[2], target)
    return {
        "label": record.label,
        "degree": n,
        "weight": record.weight,
        "p": args.p,
        "normalized": c[-1] == target ** 2 ** (n - 1),
        "ramanujan": ramanujan,
        "hecke_eigenvalue": [-c[1], 0],
        "spin_factor": _printable_factor(record, args.p, factor),
    }, True


def _local_factor(args, config):
    from .localfactors import spin_factor_from_record

    record = _record(_load_records(config.fixtures), args.label)
    factor = spin_factor_from_record(record, args.p)
    return {"label": record.label, "factor": _printable_factor(record, args.p, factor)}, True


def _lift(args, config):
    """The lift's spin factor, and the torus map with the facts of the
    lifted Satake point read off the factor exactly: the eigenvalue -c1, the
    top coefficient p^(4(3k-6)) and a certified root exponent of (3k-6)/2."""
    from . import lifting
    from .localfactors import half_integer

    records = _load_records(config.fixtures)
    h = _record(records, args.h)
    g = _record(records, args.g)
    inp = lifting.lift_input_from_records(h, g, args.p)
    spin_factor = lifting.lift_route_spin_factor(inp)
    k, lam = g.weight, -spin_factor.coeffs[1]
    payload: dict = {
        "h": h.label,
        "g": g.label,
        "p": args.p,
        "lift": {
            "degree": 3,
            "weight": k,
            "p": args.p,
            "torus_map": [list(row) for row in lifting.TORUS_MAP],
            "normalized": spin_factor.coeffs[8] == args.p ** (4 * (3 * k - 6)),
            "ramanujan": spin_factor.root_exponent == half_integer(3 * k - 6),
            "hecke_eigenvalue": [lam, 0],
        },
        "spin_factor": spin_factor.to_json_dict(),
    }
    if not args.verify:
        return payload, True
    report = lifting.verify_tensor_identity(inp)
    product = lifting.verify_eigenvalue_product(h, g, args.p)
    eigen_ok = lam == product
    payload["tensor_identity"] = report.to_dict()
    payload["eigenvalue_product"] = {"value": str(product), "matches_lift": eigen_ok}
    return payload, report.ok and eigen_ok


def _cuspidality(args, config):
    from . import cuspidality, lifting

    if args.k is not None:
        _check_size("--k", args.k)
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
    verdict = cuspidality.cuspidality_decision(inp)
    return {"k": inp.gsp4.weight, "p": args.p, **verdict.to_dict()}, True


def _hodge_show(args, config):
    from . import hodge

    builder = {
        "gl2": hodge.hodge_gl2,
        "gsp4": hodge.hodge_gsp4,
        "gsp6": hodge.hodge_gsp6,
    }[args.type]
    ht = builder(args.weight)
    return {
        "type": args.type,
        "weight_in": args.weight,
        "pairs": [list(pq) for pq in ht.pairs],
        "motivic_weight": ht.weight,
    }, True


def _hodge_solve(args, config):
    from . import hodge

    if args.max < args.min:
        raise CliInputError(f"--max {args.max} is below --min {args.min}")
    _check_size("--max", args.max)
    solutions = hodge.weight_solver(args.min, args.max)
    return {
        "min": args.min,
        "max": args.max,
        "solutions": [list(t) for t in solutions],
        "family": "k = K - 2, l = K",
    }, True


def _critical(args, config):
    from . import analytic

    _check_size("--k", args.k)
    vals = analytic.critical_values(args.k)
    return {
        "weight": args.k,
        "center": analytic.linf_spin3(args.k).center,
        "critical_values": vals,
        "count": len(vals),
    }, True


def _gamma(args, config):
    """The degree-3 spinor profile at weight K and, with --compare-rs, the
    Rankin-Selberg profile at (K - 2, K).  Both are built from Hodge types by
    Serre's recipe, so the comparison restates ``hodge.weight_solver``'s proof
    that the Kunneth product of the types at (K - 2, K) is the degree-3 type.
    The payload keeps its fields and values (``tests/golden/gamma_k14.json``)."""
    from . import analytic

    spin = analytic.linf_spin3(args.k)
    payload = {"weight": args.k, "spin3": spin.to_dict()}
    if args.compare_rs:
        rs = analytic.linf_rankin_selberg(args.k - 2, args.k)
        payload["rankin_selberg"] = rs.to_dict()
        payload["shifts_match"] = spin.shifts == rs.shifts
        payload["centers_match"] = spin.center == rs.center
    return payload, True


def _first_missing_prime(held: set, bound: int) -> int | None:
    """The smallest prime p <= bound not in held, or None.

    The sieve doubles its reach from 2 up to bound and stops at the first
    reach that holds a missing prime, so in all it sieves less than four
    times that prime, which by Bertrand's postulate is at most twice the
    largest prime held.  A huge bound costs nothing past the records.
    """
    from .primes import primes_up_to

    reach = 2
    while True:
        reach = min(reach, bound)
        for p in primes_up_to(reach):
            if p not in held:
                return p
        if reach == bound:
            return None
        reach *= 2


def _lvalue(args, config):
    from . import analytic, lifting, localfactors, modforms

    records = _load_records(config.fixtures)
    h = _record(records, args.h)
    g = _record(records, args.g)
    check = lifting.lift_weights(h.weight, g.weight)
    if not check.accepted:
        raise CliInputError(
            f"weights ({h.weight}, {g.weight}) do not fit the lift pattern"
        )
    lifting.check_lift_degrees(h, g)
    bound = modforms.DEFAULT_PRIME_BOUND if config.prime_bound is None else config.prime_bound
    missing = _first_missing_prime(h.eigenvalues.keys() & g.eigenvalues.keys(), bound)

    def provider(p: int) -> localfactors.LocalFactor:
        if p == missing:
            raise CliInputError(
                f"fixtures lack prime {p}; regenerate with a larger --prime-bound"
            )
        factor = localfactors.spin_factor_from_record(g, p)
        return lifting.lifted_spin_factor_exact(h.weight, h.lambda_p(p), factor)

    weight = 3 * check.k - 6
    # Past a missing prime the provider only refuses, so the sieve stops there.
    reach = bound if missing is None else missing
    result = analytic.truncated_euler_product(provider, args.s, reach, weight)
    return {
        "h": h.label,
        "g": g.label,
        "s": args.s,
        "motivic_weight": weight,
        **result.to_dict(),
    }, True


def _verify_miyawaki(args, config):
    from . import cuspidality, lifting, modforms

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
    tau2 = dl.coeffs[2]
    a2 = g26.coeffs[2]
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
        lifting.verify_eigenvalue_product(h, g, 2) == -(2**7) * 2295,
    )

    inp = lifting.lift_input_from_records(h, g, 2)
    report = lifting.verify_tensor_identity(inp)
    check("tensor identity at p=2 (exact)", True, report.ok)

    verdict = cuspidality.cuspidality_decision(inp)
    check("cuspidality verdict", True, verdict.cuspidal)

    ok = all(c["pass"] for c in checks)
    return {
        "verdict": "pass" if ok else "fail",
        "checks": checks,
        "cuspidality_cases": [c.to_dict() for c in verdict.cases],
    }, ok


def _report(args, config):
    if args.subject not in REPORTS:
        raise CliInputError(f"unknown report subject {args.subject!r}")
    command, needs = REPORTS[args.subject]
    if needs and all(getattr(args, name) in (None, "") for name in needs):
        raise CliInputError(f"subject {args.subject} needs --{needs[0]}")
    payload, _ = command(args, config)
    return {"schema_version": SCHEMA_VERSION, "subject": args.subject, "payload": payload}, True


#: Report subject -> (command, the options of which it needs at least one;
#: the error names the first).  The report parser supplies the defaults
#: these commands read but ``report`` does not accept.
REPORTS = {
    "hodge-solve": (_hodge_solve, ()),
    "critical": (_critical, ("k",)),
    "gamma": (_gamma, ("k",)),
    "cuspidality": (_cuspidality, ("k", "h", "g")),
    "local-factor": (_local_factor, ("label",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlift",
        description="Exact spinor L-factor algebra for degree-3 liftings",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--fixtures", help=f"fixtures path (or ${FIXTURES_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    fixtures = sub.add_parser("fixtures", help="fixture management")
    fixtures_sub = fixtures.add_subparsers(dest="subcommand", required=True)
    gen = fixtures_sub.add_parser("gen", help="write fixtures.json deterministically")
    gen.add_argument("--prime-bound", type=int)
    gen.add_argument("--order", type=int)
    gen.set_defaults(handler=_fixtures_gen)

    satake_p = sub.add_parser("satake", help="exact Satake data of a fixture form")
    satake_p.add_argument("--label", required=True)
    satake_p.add_argument("--p", type=int, required=True)
    satake_p.set_defaults(handler=_satake)

    lf = sub.add_parser("local-factor", help="local L-factor of a fixture form")
    lf.add_argument("--label", required=True)
    lf.add_argument("--p", type=int, required=True)
    lf.set_defaults(handler=_local_factor)

    lift_p = sub.add_parser("lift", help="lift a fixture pair and verify")
    lift_p.add_argument("--h", required=True, help="degree-1 label")
    lift_p.add_argument("--g", required=True, help="degree-2 label")
    lift_p.add_argument("--p", type=int, required=True)
    lift_p.add_argument("--verify", action="store_true")
    lift_p.set_defaults(handler=_lift)

    cusp = sub.add_parser("cuspidality", help="template refutation report")
    cusp.add_argument("--k", type=int)
    cusp.add_argument("--p", type=int, required=True)
    cusp.add_argument("--h")
    cusp.add_argument("--g")
    cusp.set_defaults(handler=_cuspidality)

    hodge_p = sub.add_parser("hodge", help="Hodge types and the weight solver")
    hodge_sub = hodge_p.add_subparsers(dest="subcommand", required=True)
    show = hodge_sub.add_parser("show")
    show.add_argument("--type", choices=("gl2", "gsp4", "gsp6"), required=True)
    show.add_argument("--weight", type=int, required=True)
    show.set_defaults(handler=_hodge_show)
    solve = hodge_sub.add_parser("solve")
    solve.add_argument("--min", type=int, default=8)
    solve.add_argument("--max", type=int, default=40)
    solve.set_defaults(handler=_hodge_solve)

    crit = sub.add_parser("critical", help="critical integers for a weight")
    crit.add_argument("--k", type=int, required=True)
    crit.set_defaults(handler=_critical)

    gamma_p = sub.add_parser("gamma", help="completion profile bookkeeping")
    gamma_p.add_argument("--k", type=int, required=True)
    gamma_p.add_argument("--compare-rs", action="store_true")
    gamma_p.set_defaults(handler=_gamma)

    lvalue = sub.add_parser("lvalue", help="truncated Euler product of a lift")
    lvalue.add_argument("--h", required=True)
    lvalue.add_argument("--g", required=True)
    lvalue.add_argument("--s", type=float, required=True)
    lvalue.add_argument("--prime-bound", type=int)
    lvalue.set_defaults(handler=_lvalue)

    verify = sub.add_parser("verify", help="end-to-end verification pipelines")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    miyawaki = verify_sub.add_parser("miyawaki")
    miyawaki.set_defaults(handler=_verify_miyawaki)

    report = sub.add_parser("report", help="stable-schema report of any subject")
    report.add_argument("--subject", required=True)
    report.add_argument("--k", type=int)
    report.add_argument("--p", type=int, default=2)
    report.add_argument("--h")
    report.add_argument("--g")
    report.add_argument("--label")
    report.add_argument("--min", type=int, default=8)
    report.add_argument("--max", type=int, default=40)
    report.set_defaults(handler=_report, compare_rs=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config(args)
        payload, passed = args.handler(args, config)
        _emit(config, payload)
    except CliInputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        # AbscissaError is a ValueError that only a loaded analytic raises;
        # looking it up in sys.modules keeps analytic off every other path.
        analytic = sys.modules.get(f"{__package__}.analytic")
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        domain = analytic is not None and isinstance(exc, analytic.AbscissaError)
        return EXIT_DOMAIN if domain else EXIT_INPUT
    return EXIT_OK if passed else EXIT_VERIFICATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
