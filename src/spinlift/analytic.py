"""Archimedean factors, critical strips, and truncated Euler products.

The completion of an L-function is bookkept as a multiset of shifts d with
one doubled Gamma factor Gamma_C(s + d), Gamma_C(s) = 2 (2 pi)^(-s) Gamma(s),
per shift, plus a symbolic scalar prefactor and the center of the functional
equation s -> center - s.  Shifts and center come from the Hodge type of
the motive by Serre's recipe, and the critical integers by Deligne's
criterion, so the weights are written down once, in ``hodge``.  No analytic continuation is
performed anywhere; the truncated Euler product comes with a rigorous tail
bound instead, valid in the half-plane where the product converges
absolutely.
"""

from __future__ import annotations

import cmath
from typing import TYPE_CHECKING, Callable

from ._value import Value

if TYPE_CHECKING:
    from fractions import Fraction

    from .hodge import HodgeType
    from .localfactors import LocalFactor

#: Margin above the convergence abscissa.
DEFAULT_DELTA = 1e-6


class AbscissaError(ValueError):
    """The requested point lies outside the region of guaranteed convergence."""


class GammaProfile(Value):
    """Multiset of Gamma shifts, a symbolic prefactor r * (2 pi)^e, and the
    center of the functional equation s -> center - s.

    r is any positive exact rational with ``as_integer_ratio`` (an int, a
    ``Fraction``, or a float taken at its exact value).  It is kept as a
    reduced (numerator, denominator) pair, so building and serializing a
    profile never loads ``fractions``; reading ``prefactor_rational`` gives
    the ``Fraction``.
    """

    __slots__ = ("shifts", "center", "_prefactor", "prefactor_two_pi_exponent")
    __match_args__ = ("shifts", "center", "prefactor_rational", "prefactor_two_pi_exponent")

    def __init__(
        self,
        shifts: tuple[int, ...],
        center: int,
        prefactor_rational: int | float | Fraction = 1,
        prefactor_two_pi_exponent: int = 0,
    ) -> None:
        if not shifts:
            raise ValueError("a profile needs at least one shift")
        shifts = tuple(sorted(int(d) for d in shifts))
        num, den = prefactor_rational.as_integer_ratio()
        if num <= 0:
            raise ValueError("prefactor must be positive")
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "_prefactor", (num, den))
        object.__setattr__(self, "prefactor_two_pi_exponent", prefactor_two_pi_exponent)

    @property
    def prefactor_rational(self) -> Fraction:
        from fractions import Fraction

        return Fraction(*self._prefactor)

    def to_dict(self) -> dict:
        num, den = self._prefactor
        return {
            "shifts": list(self.shifts),
            "center": self.center,
            "prefactor_rational": str(num) if den == 1 else f"{num}/{den}",
            "prefactor_two_pi_exponent": self.prefactor_two_pi_exponent,
        }


def _upper_pairs(ht: HodgeType) -> list[tuple[int, int]]:
    """The pairs (p, q) with p < q, one for each pair (p, q), (q, p).

    A middle pair (p, p) needs a real Gamma factor and the sign of the
    involution on it, which a Hodge type does not record: ValueError.
    """
    for p, q in ht.pairs:
        if p == q:
            raise ValueError(
                f"middle Hodge pair ({p},{q}) needs Gamma_R and the sign of the involution"
            )
    return [(p, q) for p, q in ht.pairs if p < q]


def _serre_profile(ht: HodgeType, **prefactor) -> GammaProfile:
    """Serre's recipe: one Gamma_C(s - p) per pair (p, q) with p < q, and
    the center w + 1 for a type of weight w."""
    return GammaProfile(
        shifts=tuple(-p for p, _ in _upper_pairs(ht)), center=ht.weight + 1, **prefactor
    )


def _gsp6_type(k: int) -> HodgeType:
    """``hodge_gsp6(k)`` for a degree-3 weight k: even and at least 12."""
    from .hodge import hodge_gsp6

    if k % 2 or k < 12:
        raise ValueError("weight must be even and at least 12")
    return hodge_gsp6(k)


def linf_spin3(k: int) -> GammaProfile:
    """Completion profile of the degree-3 spinor L-function at weight k:
    Serre's recipe on ``hodge_gsp6(k)``, so shifts {0, 1-k, 2-k, 3-k} and
    center 3k - 5."""
    return _serre_profile(_gsp6_type(k))


def linf_rankin_selberg(k1: int, k2: int) -> GammaProfile:
    """Completion profile of the convolution of weight-k1 and weight-k2
    (degree 1 and 2) data: Serre's recipe on the Kunneth product of their
    Hodge types, so shifts {0, 1-k2, 2-k2, 1-k1} and center k1 + 2k2 - 3,
    with prefactor 2^-3 (2 pi)^(4-2k2-k1).  At k1 = 2 the product has the
    middle pair (k2-1, k2-1): ValueError."""
    from .hodge import hodge_gl2, hodge_gsp4, kunneth_tensor

    if k1 % 2 or k2 % 2 or k1 <= 0 or k1 > k2:
        raise ValueError("need even weights with 0 < k1 <= k2")
    return _serre_profile(
        kunneth_tensor(hodge_gl2(k1), hodge_gsp4(k2)),
        prefactor_rational=0.125,  # 2^-3, exact in binary
        prefactor_two_pi_exponent=4 - 2 * k2 - k1,
    )


def critical_values(k: int) -> list[int]:
    """Critical integers of the degree-3 spinor L-function at weight k:
    exactly k..2k-5.

    Deligne's criterion on ``hodge_gsp6(k)``: m is critical iff
    max p < m <= min q over its pairs (p, q) with p < q.
    """
    pairs = _upper_pairs(_gsp6_type(k))
    return list(range(max(p for p, _ in pairs) + 1, min(q for _, q in pairs) + 1))


class EulerProductResult(Value):
    """Truncated product value with a rigorous bound on the dropped tail.

    ``tail_bound`` dominates |log of the remaining product| under the
    assumption that inverse-root moduli stay below p^root_exponent for all
    primes beyond the bound, where root_exponent is the larger of weight/2
    and the certified exponents of the supplied factors.  For the lift
    factors of a pair of level-one cusp forms the certificate is the same at
    every prime, by Deligne's theorem for elliptic forms and Weissauer's for
    degree-2 Siegel forms, so for such input the assumption is those
    theorems.  Primes whose exponent exceeds weight/2 are listed in
    ``violations``.
    """

    __slots__ = (
        "value", "prime_bound", "tail_bound", "abscissa", "root_exponent", "violations"
    )

    def __init__(
        self,
        value: complex,
        prime_bound: int,
        tail_bound: float,
        abscissa: float,
        root_exponent: float,
        violations: tuple[tuple[int, float], ...],
    ) -> None:
        if tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "prime_bound", prime_bound)
        object.__setattr__(self, "tail_bound", tail_bound)
        object.__setattr__(self, "abscissa", abscissa)
        object.__setattr__(self, "root_exponent", root_exponent)
        object.__setattr__(self, "violations", violations)

    def to_dict(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "prime_bound": self.prime_bound,
            "tail_bound": self.tail_bound,
            "abscissa": self.abscissa,
            "root_exponent": self.root_exponent,
            "violations": [[p, e] for p, e in self.violations],
        }


def truncated_euler_product(
    factor_for_prime: Callable[[int], LocalFactor],
    s: complex,
    prime_bound: int,
    weight: int,
) -> EulerProductResult:
    """Product of 1/f_p(p^(-s)) over p <= prime_bound with a tail bound.

    Requires a finite s with Re(s) > weight/2 + 1 + DEFAULT_DELTA up front
    and, after inspecting the supplied factors, Re(s) > e + 1 + DEFAULT_DELTA
    for the largest inverse-root exponent e of the supplied factors: each
    factor's certified ``root_exponent``.  All factors are fetched before
    any check; then the smallest prime whose factor has inverse roots (a
    nonzero coefficient past the constant term) but no certificate raises
    AbscissaError, since no exponent, and so no abscissa, is known for it.
    A factor without inverse roots (a constant) adds no exponent.  Checks
    and ``localfactors.evaluate_product`` run in ascending prime order, so
    results are deterministic; no coefficient is checked again here, since
    each factor's builder checked it.  The tail bound sums |z|/(1-|z|) over
    the dropped primes with |z| <= p^(e - Re(s)) per inverse root, comparing
    the prime sum against an integral.
    """
    # Imported here, so that the Gamma-profile commands load neither module.
    from .localfactors import evaluate_product
    from .primes import primes_up_to

    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    s = complex(s)
    if not cmath.isfinite(s):
        raise AbscissaError(f"s={s} is not a finite point")
    sigma = s.real
    base = weight / 2 + 1 + DEFAULT_DELTA
    if sigma <= base:
        raise AbscissaError(
            f"Re(s)={sigma} is not above the convergence abscissa {base}"
        )
    factors: list[LocalFactor] = []
    for p in primes_up_to(prime_bound):
        f = factor_for_prime(p)
        if f.p != p:
            raise ValueError(f"factor provider returned prime {f.p} for {p}")
        factors.append(f)
    exponent = weight / 2
    violations: list[tuple[int, float]] = []
    # Adjacent factors usually share one certificate object, read once.
    last = None
    for f in factors:
        e = f.root_exponent
        if e is None:
            if any(f.coeffs[1:]):
                raise AbscissaError(
                    f"the factor at p={f.p} has no certified root exponent; "
                    "no convergence abscissa can be given"
                )
            continue
        if e is not last:
            last = e
            observed = float(e)  # exact for half-integers
            violates = 2 * e.numerator > weight * e.denominator
            exponent = max(exponent, observed)
        if violates:
            violations.append((f.p, observed))
    max_degree = max(f.degree for f in factors)
    effective = exponent + 1 + DEFAULT_DELTA
    if sigma <= effective:
        raise AbscissaError(
            f"Re(s)={sigma} is not above the observed abscissa {effective} "
            f"(root exponent {exponent}); violations: {violations}"
        )
    value = evaluate_product(factors, s)
    t = sigma - exponent
    z_bound = prime_bound ** (-t)
    tail = max_degree * prime_bound ** (1 - t) / ((t - 1) * (1 - z_bound))
    return EulerProductResult(
        value=value,
        prime_bound=prime_bound,
        tail_bound=tail,
        abscissa=effective,
        root_exponent=exponent,
        violations=tuple(violations),
    )
