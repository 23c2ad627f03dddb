"""Non-cuspidal degeneration templates and the contradiction engine.

A degree-3 eigenform that fails to be cuspidal is of Siegel type or of one
of two Klingen types, and each type pins its Satake parameters to a rigid
template.  The lifted parameters, on the other hand, always carry a
unit-modulus entry (the second degree-1 parameter) and always reach product
modulus one somewhere in the Weyl orbit (degree-2 cusp forms do, by the
Chai-Faltings bound, and the degree-1 factor contributes modulus one).  The
decision procedure refutes each template against these two facts on modulus
exponents, the base-p logarithms of the moduli, in exact arithmetic: the
templates' own exponents are integers, and the lift's, which the Klingen
templates embed, are the half-integers certified by
``lifting.lifted_mu_exponents``.  Data without that certificate are refused.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ._value import Value
from .lifting import LiftInput, lifted_mu_exponents
from .localfactors import half_integer


class EisensteinKind(enum.Enum):
    SIEGEL = "siegel-eisenstein"
    KLINGEN_FROM_DEGREE2 = "klingen-from-degree2"
    KLINGEN_FROM_ELLIPTIC = "klingen-from-elliptic"


class EisensteinModel(Value):
    """One non-cuspidal template at (k, p), with the embedded cusp form's
    modulus exponents for the Klingen kinds (two for a degree-2 form, one
    for a degree-1 form)."""

    __slots__ = ("kind", "weight", "p", "gamma")

    def __init__(
        self, kind: EisensteinKind, weight: int, p: int, gamma: tuple[Fraction, ...] | None = None
    ) -> None:
        if weight % 2 or weight < 4:
            raise ValueError("template weight must be even and at least 4")
        if kind is EisensteinKind.SIEGEL:
            if gamma is not None:
                raise ValueError("Siegel template carries no embedded form")
        else:
            needed = 2 if kind is EisensteinKind.KLINGEN_FROM_DEGREE2 else 1
            if gamma is None:
                raise ValueError(f"{kind.value} template needs embedded exponents")
            gamma = tuple(map(Fraction, gamma))
            if len(gamma) != needed:
                raise ValueError(f"{kind.value} template needs {needed} embedded exponents")
            if any(e.denominator > 2 for e in gamma):
                raise ValueError("embedded exponents must be half-integers")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gamma", gamma)


def template_exponents(model: EisensteinModel) -> tuple:
    """Exponents (log_p moduli) of mu1, mu2, mu3 for the template."""
    k = model.weight
    if model.kind is EisensteinKind.SIEGEL:
        return (Fraction(k - 3), Fraction(k - 2), Fraction(k - 1))
    if model.kind is EisensteinKind.KLINGEN_FROM_DEGREE2:
        return (*model.gamma, Fraction(k - 3))
    return (*model.gamma, Fraction(k - 2), Fraction(k - 3))


def _standard_models(k: int, p: int, lift_exps: tuple) -> list[EisensteinModel]:
    return [
        EisensteinModel(EisensteinKind.SIEGEL, k, p),
        EisensteinModel(EisensteinKind.KLINGEN_FROM_DEGREE2, k, p, lift_exps[:2]),
        EisensteinModel(EisensteinKind.KLINGEN_FROM_ELLIPTIC, k, p, lift_exps[2:]),
    ]


def standard_models(inp: LiftInput) -> list[EisensteinModel]:
    """The three templates at the input's weight and prime, with the certified
    exponents of the input's own components embedded where the Klingen kinds
    need cusp-form data."""
    return _standard_models(inp.gsp4.weight, inp.p, lifted_mu_exponents(inp))


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


def _sign_sums(exponents) -> list[Fraction]:
    """log_p |mu_1 * ... * mu_n| over the Weyl orbit (the Chai-Faltings
    criterion): a signed permutation permutes the mu_i and inverts some, so
    the orbit's product exponents are the signed sums of the exponents,
    listed with the first sign varying slowest.  The exponents are
    half-integers, so the sums run on their doubles in integer arithmetic."""
    sums = [0]
    for e in exponents:
        twice = 2 * e.numerator // e.denominator
        sums = [s + x for s in sums for x in (twice, -twice)]
    return [half_integer(s) for s in sums]


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
    Every comparison is exact, on the lift's certified exponents
    (``lifted_mu_exponents``), so input without exact data is a ValueError
    and input without a certificate an ArithmeticError.
    """
    lift_exps = lifted_mu_exponents(inp)
    k, p = inp.gsp4.weight, inp.p
    has_unit = 0 in lift_exps
    attains_product_one = 0 in _sign_sums(lift_exps)
    lift_detail = {
        "weight": k,
        "p": p,
        "mu_exponents": [str(e) for e in lift_exps],
        "has_unit_modulus_parameter": has_unit,
        "orbit_attains_product_modulus_one": attains_product_one,
    }

    if candidate_models is None:
        candidate_models = _standard_models(k, p, lift_exps)

    warnings: list[str] = []
    if not candidate_models:
        warnings.append(
            "no candidate models supplied; cuspidality holds vacuously"
        )

    cases: list[CaseReport] = []
    for model in candidate_models:
        if model.p != p:
            raise ValueError("model prime differs from the input prime")
        if model.weight != k:
            raise ValueError("model weight differs from the lifted weight")
        exps = template_exponents(model)
        if model.kind is EisensteinKind.SIEGEL:
            refuted = has_unit and 0 not in exps
            reason = (
                "template has no unit-modulus parameter, the lift does"
                if refuted
                else "unit-modulus comparison is inconclusive"
            )
            detail = {"template_exponents": [str(e) for e in exps]}
        elif model.kind is EisensteinKind.KLINGEN_FROM_DEGREE2:
            sums = _sign_sums(exps)
            refuted = attains_product_one and 0 not in sums
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
            if exps[0] != 0:
                raise ValueError(
                    "elliptic Klingen template needs a unit-modulus embedded parameter"
                )
            refuted = sorted(map(abs, exps)) != sorted(map(abs, lift_exps))
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
