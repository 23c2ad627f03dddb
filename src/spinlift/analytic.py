"""Archimedean factors, critical strips, and truncated Euler products.

The completion of a spinor L-function is bookkept as a multiset of shifts d
with one doubled Gamma factor 2 (2 pi)^(-s) Gamma(s + d) per shift, plus a
symbolic scalar prefactor and the center of the functional equation
s -> center - s.  Critical integers are read off Gamma-pole finiteness at m
and at center - m.  No analytic continuation is performed anywhere; the
truncated Euler product comes with a rigorous tail bound instead, valid in
the half-plane where the product converges absolutely.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Callable

from ._value import Value

if TYPE_CHECKING:
    from fractions import Fraction

    from .localfactors import LocalFactor

TWO_PI = 2 * math.pi

#: Margin above the convergence abscissa.
DEFAULT_DELTA = 1e-6


class AbscissaError(ValueError):
    """The requested point lies outside the region of guaranteed convergence."""


#: Lanczos approximation with g = 607/128 and 15 terms (P. Godfrey's
#: coefficients): Gamma(z + 1) = sqrt(2 pi) t^(z + 1/2) e^(-t) A(z), with
#: t = z + g + 1/2 and A(z) = c0 + sum_k ck / (z + k).
_LANCZOS_G = 607 / 128
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_TWO_PI = 0.5 * math.log(TWO_PI)


def _complex_gamma(s: complex) -> complex:
    """Gamma(s) for non-real s: the Lanczos sum for Re s >= 1/2, and the
    reflection Gamma(s) Gamma(1 - s) = pi / sin(pi s) below."""
    if s.real < 0.5:
        return math.pi / (cmath.sin(math.pi * s) * _complex_gamma(1 - s))
    z = s - 1
    a = _LANCZOS_COEFFS[0]
    for k, c in enumerate(_LANCZOS_COEFFS[1:], 1):
        a += c / (z + k)
    t = z + _LANCZOS_G + 0.5
    return cmath.exp((z + 0.5) * cmath.log(t) - t + _LOG_SQRT_TWO_PI) * a


def gamma_c(s: complex) -> complex:
    """Doubled complex Gamma factor 2 (2 pi)^(-s) Gamma(s).

    Poles exactly at the nonpositive integers.  Real s uses math.gamma and
    raises OverflowError past s = 171.6; other s use a Lanczos
    approximation.  Against 50-digit mpmath the relative error of the
    result is at most about 1.5e-14 on the grid Re s in [-10, 20) by 1/4,
    |Im s| <= 10 by 1/2.
    """
    s = complex(s)
    if s.imag == 0:
        if s.real <= 0 and float(s.real).is_integer():
            # Imported at the pole only, so that the Gamma-profile commands
            # (critical, gamma) never load localfactors.
            from .localfactors import PoleError

            raise PoleError(f"Gamma factor has a pole at s={int(s.real)}")
        g = math.gamma(s.real)
    else:
        g = _complex_gamma(s)
    return 2.0 * cmath.exp(-s * math.log(TWO_PI)) * g


class GammaProfile(Value):
    """Multiset of Gamma shifts, a symbolic prefactor r * (2 pi)^e, and the
    center of the functional equation s -> center - s.

    r is any positive exact rational with ``as_integer_ratio`` (an int, a
    ``Fraction``, or a float taken at its exact value).  It is kept as a
    reduced (numerator, denominator) pair, so building, evaluating and
    serializing a profile never loads ``fractions``; reading
    ``prefactor_rational`` gives the ``Fraction``.
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

    def value_at(self, s: complex) -> complex:
        num, den = self._prefactor
        # int / int is correctly rounded, as float(Fraction) is.
        val = complex(num / den * TWO_PI**self.prefactor_two_pi_exponent)
        for d in self.shifts:
            val *= gamma_c(s + d)
        return val

    def to_dict(self) -> dict:
        num, den = self._prefactor
        return {
            "shifts": list(self.shifts),
            "center": self.center,
            "prefactor_rational": str(num) if den == 1 else f"{num}/{den}",
            "prefactor_two_pi_exponent": self.prefactor_two_pi_exponent,
        }


def linf_spin3(k: int) -> GammaProfile:
    """Completion profile of the degree-3 spinor L-function at weight k:
    shifts {0, 1-k, 2-k, 3-k}, functional equation center 3k - 5."""
    if k % 2 or k < 12:
        raise ValueError("weight must be even and at least 12")
    return GammaProfile(shifts=(0, 1 - k, 2 - k, 3 - k), center=3 * k - 5)


def linf_rankin_selberg(k1: int, k2: int) -> GammaProfile:
    """Completion profile of the convolution of weight-k1 and weight-k2
    (degree 1 and 2) data: shifts {0, 1-k2, 2-k2, 1-k1}, prefactor
    2^-3 (2 pi)^(4-2k2-k1), center k1 + 2k2 - 3."""
    if k1 % 2 or k2 % 2 or k1 <= 0 or k1 > k2:
        raise ValueError("need even weights with 0 < k1 <= k2")
    return GammaProfile(
        shifts=(0, 1 - k2, 2 - k2, 1 - k1),
        center=k1 + 2 * k2 - 3,
        prefactor_rational=0.125,  # 2^-3, exact in binary
        prefactor_two_pi_exponent=4 - 2 * k2 - k1,
    )


def critical_values(k: int) -> list[int]:
    """Integers m with no Gamma pole at m nor at center - m: exactly k..2k-5.

    Every shifted argument m + d is >= 1 iff m >= 1 - d for the least shift
    d, so m is critical iff 1 - d <= m and 1 - d <= center - m.
    """
    prof = linf_spin3(k)
    d = prof.shifts[0]
    return list(range(1 - d, prof.center + d))


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
    and evaluation run in ascending prime order, so results are
    deterministic.  The tail bound sums |z|/(1-|z|) over the
    dropped primes with |z| <= p^(e - Re(s)) per inverse root, comparing
    the prime sum against an integral.
    """
    # Imported here, so that the Gamma-profile commands load neither module.
    from .localfactors import evaluate
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
    for f in factors:
        e = f.root_exponent
        if e is None:
            if any(f.coeffs[1:]):
                raise AbscissaError(
                    f"the factor at p={f.p} has no certified root exponent; "
                    "no convergence abscissa can be given"
                )
            continue
        observed = float(e)  # exact for half-integers
        if 2 * e.numerator > weight * e.denominator:
            violations.append((f.p, observed))
        exponent = max(exponent, observed)
    max_degree = max(f.degree for f in factors)
    effective = exponent + 1 + DEFAULT_DELTA
    if sigma <= effective:
        raise AbscissaError(
            f"Re(s)={sigma} is not above the observed abscissa {effective} "
            f"(root exponent {exponent}); violations: {violations}"
        )
    value = complex(1)
    for f in factors:
        value *= evaluate(f, s)
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
