"""Non-cuspidal degeneration templates and the contradiction engine.

A degree-3 eigenform that fails to be cuspidal is of Siegel type or of one
of two Klingen types, and each type pins its Satake parameters to a rigid
template.  The lifted parameters, on the other hand, always carry a
unit-modulus entry (the second degree-1 parameter) and always reach product
modulus one somewhere in the Weyl orbit (degree-2 cusp forms do, by the
Chai-Faltings bound, and the degree-1 factor contributes modulus one).  The
decision procedure refutes each template against these two facts, working
in base-p logarithms of moduli where the templates are exact half-integer
arithmetic.
"""

from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction
from itertools import product as iter_product

from ._value import Value
from .lifting import LiftInput, theta_lift
from .satake import SatakeParams

#: Absolute tolerance for base-p logarithmic modulus comparisons.
LOG_TOL = 1e-9

#: Snap window when reading half-integer exponents off double-precision data.
_SNAP_TOL = 1e-6


class EisensteinKind(enum.Enum):
    SIEGEL = "siegel-eisenstein"
    KLINGEN_FROM_DEGREE2 = "klingen-from-degree2"
    KLINGEN_FROM_ELLIPTIC = "klingen-from-elliptic"


class EisensteinModel(Value):
    """One non-cuspidal template at (k, p), with embedded cusp-form data for
    the Klingen kinds (degree 2 or degree 1 Satake parameters)."""

    __slots__ = ("kind", "weight", "p", "gamma")

    def __init__(
        self, kind: EisensteinKind, weight: int, p: int, gamma: SatakeParams | None = None
    ) -> None:
        if weight % 2 or weight < 4:
            raise ValueError("template weight must be even and at least 4")
        if kind is EisensteinKind.SIEGEL:
            if gamma is not None:
                raise ValueError("Siegel template carries no embedded form")
        else:
            needed = 2 if kind is EisensteinKind.KLINGEN_FROM_DEGREE2 else 1
            if gamma is None:
                raise ValueError(f"{kind.value} template needs embedded parameters")
            if gamma.degree != needed:
                raise ValueError(f"{kind.value} template needs degree-{needed} parameters")
            if gamma.p != p:
                raise ValueError("embedded parameters live at a different prime")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gamma", gamma)


def modulus_exponent(value: complex, p: int):
    """log_p |value|, snapped to an exact half-integer when within the snap
    window (modulus exponents of integral-weight eigendata are half-integers)."""
    e = math.log(abs(value)) / math.log(p)
    snapped = Fraction(round(2 * e), 2)
    if abs(e - snapped) <= _SNAP_TOL:
        return snapped
    return e


def _near_zero(e) -> bool:
    return abs(e) <= LOG_TOL


def template_exponents(model: EisensteinModel):
    """Exponents (log_p moduli) of mu1, mu2, mu3 for the template."""
    k, p = model.weight, model.p
    if model.kind is EisensteinKind.SIEGEL:
        return (Fraction(k - 3), Fraction(k - 2), Fraction(k - 1))
    if model.kind is EisensteinKind.KLINGEN_FROM_DEGREE2:
        g1, g2 = model.gamma.mu
        return (modulus_exponent(g1, p), modulus_exponent(g2, p), Fraction(k - 3))
    g1 = model.gamma.mu[0]
    return (modulus_exponent(g1, p), Fraction(k - 2), Fraction(k - 3))


def eisenstein_params(model: EisensteinModel) -> SatakeParams:
    """Degree-3 parameters per template, mu0 fixed by the normalization."""
    k, p = model.weight, model.p
    if model.kind is EisensteinKind.SIEGEL:
        mu: tuple[complex, ...] = (p ** (k - 3), p ** (k - 2), p ** (k - 1))
    elif model.kind is EisensteinKind.KLINGEN_FROM_DEGREE2:
        mu = (model.gamma.mu[0], model.gamma.mu[1], p ** (k - 3))
    else:
        mu = (model.gamma.mu[0], p ** (k - 2), p ** (k - 3))
    target = complex(p ** (3 * k - 6))
    prod = mu[0] * mu[1] * mu[2]
    mu0 = cmath.sqrt(target / prod)
    return SatakeParams(degree=3, weight=k, p=p, mu0=mu0, mu=mu)


def standard_models(inp: LiftInput) -> list[EisensteinModel]:
    """The three templates at the input's weight and prime, with the input's
    own components embedded where the Klingen kinds need cusp-form data."""
    k, p = inp.gsp4.weight, inp.p
    return [
        EisensteinModel(EisensteinKind.SIEGEL, k, p),
        EisensteinModel(EisensteinKind.KLINGEN_FROM_DEGREE2, k, p, inp.gsp4),
        EisensteinModel(EisensteinKind.KLINGEN_FROM_ELLIPTIC, k, p, inp.gl2),
    ]


class CaseReport(Value):
    __slots__ = ("kind", "refuted", "reason", "detail")

    def __init__(self, kind: EisensteinKind, refuted: bool, reason: str, detail: dict) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "refuted", refuted)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "detail", detail)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "refuted": self.refuted,
            "reason": self.reason,
            "detail": self.detail,
        }


class CuspidalityVerdict(Value):
    __slots__ = ("cuspidal", "cases", "warnings", "lift_detail")

    def __init__(
        self,
        cuspidal: bool,
        cases: tuple[CaseReport, ...],
        warnings: tuple[str, ...],
        lift_detail: dict,
    ) -> None:
        object.__setattr__(self, "cuspidal", cuspidal)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "warnings", warnings)
        object.__setattr__(self, "lift_detail", lift_detail)

    def to_dict(self) -> dict:
        return {
            "cuspidal": self.cuspidal,
            "cases": [c.to_dict() for c in self.cases],
            "warnings": list(self.warnings),
            "lift": self.lift_detail,
        }


def _sign_sums(exponents) -> list:
    """log_p |mu_1 * ... * mu_n| over the Weyl orbit (the Chai-Faltings
    criterion): a signed permutation permutes the mu_i and inverts some, so
    the orbit's product exponents are the signed sums of the exponents."""
    return [
        sum(s * e for s, e in zip(signs, exponents))
        for signs in iter_product((1, -1), repeat=len(exponents))
    ]


def _multiset_close(xs, ys) -> bool:
    if len(xs) != len(ys):
        return False
    pairs = zip(sorted(map(float, xs)), sorted(map(float, ys)))
    return all(abs(x - y) <= LOG_TOL for x, y in pairs)


def cuspidality_decision(
    inp: LiftInput,
    candidate_models: list[EisensteinModel] | None = None,
) -> CuspidalityVerdict:
    """Refute every supplied non-cuspidal template against the lifted data.

    Case analysis: the Siegel template has no unit-modulus parameter while
    the lift does; the degree-2 Klingen template never attains product
    modulus one on its Weyl orbit (the dichotomy p^(k-3) vs p^(3-k)) while
    the lift does; the elliptic Klingen template's modulus pattern cannot
    equal the lifted pattern.  Verdict is cuspidal iff every model is
    refuted; an empty model list is vacuously cuspidal with a warning.
    """
    lifted = theta_lift(inp)
    p = lifted.p
    lift_exps = [modulus_exponent(x, p) for x in lifted.mu]
    has_unit = any(_near_zero(e) for e in lift_exps)
    orbit_products = _sign_sums(lift_exps)
    attains_product_one = any(_near_zero(s) for s in orbit_products)
    lift_detail = {
        "weight": lifted.weight,
        "p": p,
        "mu_exponents": [str(e) for e in lift_exps],
        "has_unit_modulus_parameter": has_unit,
        "orbit_attains_product_modulus_one": attains_product_one,
    }

    if candidate_models is None:
        candidate_models = standard_models(inp)

    warnings: list[str] = []
    if not candidate_models:
        warnings.append(
            "no candidate models supplied; cuspidality holds vacuously"
        )

    cases: list[CaseReport] = []
    for model in candidate_models:
        if model.p != p:
            raise ValueError("model prime differs from the input prime")
        if model.weight != lifted.weight:
            raise ValueError("model weight differs from the lifted weight")
        exps = template_exponents(model)
        if model.kind is EisensteinKind.SIEGEL:
            template_has_unit = any(_near_zero(e) for e in exps)
            refuted = has_unit and not template_has_unit
            reason = (
                "template has no unit-modulus parameter, the lift does"
                if refuted
                else "unit-modulus comparison is inconclusive"
            )
            detail = {"template_exponents": [str(e) for e in exps]}
        elif model.kind is EisensteinKind.KLINGEN_FROM_DEGREE2:
            sums = _sign_sums(exps)
            template_attains = any(_near_zero(s) for s in sums)
            refuted = attains_product_one and not template_attains
            reason = (
                "template orbit never attains product modulus one, the lift does"
                if refuted
                else "product-modulus comparison is inconclusive"
            )
            detail = {
                "template_exponents": [str(e) for e in exps],
                "orbit_product_exponents": sorted({str(s) for s in sums}),
            }
        else:
            if not _near_zero(exps[0]):
                raise ValueError(
                    "elliptic Klingen template needs a unit-modulus embedded parameter"
                )
            matches = _multiset_close([abs(e) for e in exps], [abs(e) for e in lift_exps])
            refuted = not matches
            reason = (
                "template modulus pattern is incompatible with the lifted pattern"
                if refuted
                else "modulus patterns coincide"
            )
            detail = {
                "template_exponents": [str(e) for e in exps],
                "lift_exponents": [str(e) for e in lift_exps],
            }
        cases.append(CaseReport(model.kind, refuted, reason, detail))

    cuspidal = all(c.refuted for c in cases)
    return CuspidalityVerdict(cuspidal, tuple(cases), tuple(warnings), lift_detail)
