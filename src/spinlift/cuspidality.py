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

from ._value import Value
from .lifting import LiftInput, _twice_beta


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


def _sign_sums(twice) -> list[int]:
    """2 log_p |mu_1 * ... * mu_n| over the Weyl orbit (the Chai-Faltings
    criterion), from the doubled exponents 2 log_p |mu_i|, all ints: a signed
    permutation permutes the mu_i and inverts some, so the orbit's product
    exponents are the signed sums of the exponents, listed with the first
    sign varying slowest."""
    sums = [0]
    for e in twice:
        sums = [s + x for s in sums for x in (e, -e)]
    return sums


def _half(twice: int) -> str:
    """str(Fraction(twice, 2)): "n" for an even twice = 2n, else "twice/2"."""
    return f"{twice}/2" if twice & 1 else str(twice >> 1)


def cuspidality_decision(inp: LiftInput) -> CuspidalityVerdict:
    """Refute the three templates against the lift's certified exponents;
    the verdict is cuspidal iff all three are refuted.  Input without exact
    data is a ValueError, and input without a certificate an ArithmeticError.

    Every exponent is a half-integer, held doubled as an int, and each is
    formatted once, as ``str`` of its ``Fraction``."""
    beta = _twice_beta(inp)
    lift = (beta, beta, 0)
    k, p = inp.gsp4.weight, inp.p
    # The strings of beta, k - 1, k - 2 and k - 3.
    b, k1, k2, k3 = _half(beta), str(k - 1), str(k - 2), str(k - 3)
    has_unit = 0 in lift
    attains_product_one = 0 in _sign_sums(lift)
    lift_detail = {
        "weight": k,
        "p": p,
        "mu_exponents": [b, b, "0"],
        "has_unit_modulus_parameter": has_unit,
        "orbit_attains_product_modulus_one": attains_product_one,
    }

    siegel = (2 * k - 6, 2 * k - 4, 2 * k - 2)
    refuted = has_unit and 0 not in siegel
    reason = (
        "template has no unit-modulus parameter, the lift does"
        if refuted
        else "unit-modulus comparison is inconclusive"
    )
    detail = {"template_exponents": [k3, k2, k1]}
    cases = [CaseReport(EisensteinKind.SIEGEL, refuted, reason, detail)]

    sums = _sign_sums((beta, beta, 2 * k - 6))
    refuted = attains_product_one and 0 not in sums
    reason = (
        "template orbit never attains product modulus one, the lift does"
        if refuted
        else "product-modulus comparison is inconclusive"
    )
    detail = {
        "template_exponents": [b, b, k3],
        "orbit_product_exponents": sorted({_half(s) for s in sums}),
    }
    cases.append(CaseReport(EisensteinKind.KLINGEN_FROM_DEGREE2, refuted, reason, detail))

    elliptic = (0, 2 * k - 4, 2 * k - 6)
    refuted = sorted(map(abs, elliptic)) != sorted(map(abs, lift))
    reason = (
        "template modulus pattern is incompatible with the lifted pattern"
        if refuted
        else "modulus patterns coincide"
    )
    detail = {"template_exponents": ["0", k2, k3], "lift_exponents": [b, b, "0"]}
    cases.append(CaseReport(EisensteinKind.KLINGEN_FROM_ELLIPTIC, refuted, reason, detail))

    return CuspidalityVerdict(all(c.refuted for c in cases), tuple(cases), lift_detail)
