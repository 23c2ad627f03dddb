"""The paper's cuspidality proof: refute the three non-cuspidal templates.

A degree-3 eigenform that fails to be cuspidal is of Siegel type or of one
of two Klingen types, and each type pins the modulus exponents (base-p
logarithms of the moduli) of its Satake parameters mu1, mu2, mu3 to a rigid
template.  The lift's exponents are the certified (beta, beta, 0) of
``lifting.lifted_mu_exponents``: they include a unit-modulus entry (the
second degree-1 parameter), and their Weyl orbit reaches product modulus
one (degree-2 cusp forms do, by the Chai-Faltings bound, and the degree-1
factor contributes modulus one).  At weight k the decision refutes, in this
order and in exact arithmetic:

* Siegel, (k-3, k-2, k-1): no unit-modulus entry;
* Klingen from degree 2, (beta, beta, k-3), the degree-2 form embedded:
  its orbit never reaches product modulus one (p^(k-3) vs p^(3-k));
* Klingen from an elliptic form, (0, k-2, k-3), the elliptic form
  embedded: its modulus pattern differs from the lift's.
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
    __slots__ = ("cuspidal", "cases", "lift_detail")

    def __init__(self, cuspidal: bool, cases: tuple[CaseReport, ...], lift_detail: dict) -> None:
        object.__setattr__(self, "cuspidal", cuspidal)
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "lift_detail", lift_detail)

    def to_dict(self) -> dict:
        return {
            "cuspidal": self.cuspidal,
            "cases": [c.to_dict() for c in self.cases],
            # The fixed templates leave nothing to warn about; the key stays
            # so the payload keeps its schema.
            "warnings": [],
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


def _strs(exponents) -> list[str]:
    return [str(e) for e in exponents]


def cuspidality_decision(inp: LiftInput) -> CuspidalityVerdict:
    """Refute the three templates against the lift's certified exponents;
    the verdict is cuspidal iff all three are refuted.  Input without exact
    data is a ValueError, and input without a certificate an ArithmeticError."""
    lift_exps = lifted_mu_exponents(inp)
    beta1, beta2, alpha = lift_exps
    k, p = inp.gsp4.weight, inp.p
    has_unit = 0 in lift_exps
    attains_product_one = 0 in _sign_sums(lift_exps)
    lift_detail = {
        "weight": k,
        "p": p,
        "mu_exponents": _strs(lift_exps),
        "has_unit_modulus_parameter": has_unit,
        "orbit_attains_product_modulus_one": attains_product_one,
    }

    siegel = (Fraction(k - 3), Fraction(k - 2), Fraction(k - 1))
    refuted = has_unit and 0 not in siegel
    reason = (
        "template has no unit-modulus parameter, the lift does"
        if refuted
        else "unit-modulus comparison is inconclusive"
    )
    detail = {"template_exponents": _strs(siegel)}
    cases = [CaseReport(EisensteinKind.SIEGEL, refuted, reason, detail)]

    degree2 = (beta1, beta2, Fraction(k - 3))
    sums = _sign_sums(degree2)
    refuted = attains_product_one and 0 not in sums
    reason = (
        "template orbit never attains product modulus one, the lift does"
        if refuted
        else "product-modulus comparison is inconclusive"
    )
    detail = {
        "template_exponents": _strs(degree2),
        "orbit_product_exponents": sorted({str(s) for s in sums}),
    }
    cases.append(CaseReport(EisensteinKind.KLINGEN_FROM_DEGREE2, refuted, reason, detail))

    elliptic = (alpha, Fraction(k - 2), Fraction(k - 3))
    refuted = sorted(map(abs, elliptic)) != sorted(map(abs, lift_exps))
    reason = (
        "template modulus pattern is incompatible with the lifted pattern"
        if refuted
        else "modulus patterns coincide"
    )
    detail = {"template_exponents": _strs(elliptic), "lift_exponents": _strs(lift_exps)}
    cases.append(CaseReport(EisensteinKind.KLINGEN_FROM_ELLIPTIC, refuted, reason, detail))

    return CuspidalityVerdict(all(c.refuted for c in cases), tuple(cases), lift_detail)
