"""Satake parameter algebra for symplectic similitude groups.

A spherical local representation of GSp(2n, Q_p) is classified, up to the
Weyl group, by a point (mu0; mu1, ..., mun) on the dual maximal torus with
all entries nonzero.  For a holomorphic Hecke eigenform of weight k and
degree n the similitude character pins down the normalization

    mu0^2 * mu1 * ... * mun = p^(n*k - n*(n+1)/2),

and the eigenvalue of the classical Hecke operator at p is the trace of the
spin representation,

    lambda_p = mu0 * prod_{i=1..n} (1 + mu_i),

where the product expands over the 2^n spin characters indexed by strictly
increasing index tuples.  Degrees 1, 2 and 3 are supported.  This module
builds all float Satake data, down to the spin and standard factors that
`local-factor --numeric` prints.  All values are immutable and every function
is pure, so everything is safe to use from concurrent code.
"""

from __future__ import annotations

import cmath
from typing import TYPE_CHECKING, Sequence

from ._value import Value

if TYPE_CHECKING:
    from .modforms import EigenvalueRecord

#: Global relative tolerance for modulus comparisons of double-precision data.
REL_TOL = 1e-9

SUPPORTED_DEGREES = (1, 2, 3)


class SatakeParams(Value):
    """Satake parameters (mu0; mu1..mun) of a degree-n eigenform at a prime.

    The entries are complex double precision; identities that must be exact
    are routed through integer local-factor polynomials instead (see
    :mod:`spinlift.localfactors`).
    """

    __slots__ = ("degree", "weight", "p", "mu0", "mu")

    def __init__(
        self, degree: int, weight: int, p: int, mu0: complex, mu: tuple[complex, ...]
    ) -> None:
        if degree not in SUPPORTED_DEGREES:
            raise ValueError(f"degree must be one of {SUPPORTED_DEGREES}, got {degree}")
        if weight < 1:
            raise ValueError("weight must be positive")
        if p < 2:
            raise ValueError("p must be at least 2")
        mu0 = complex(mu0)
        mu = tuple(map(complex, mu))
        if len(mu) != degree:
            raise ValueError(f"expected {degree} torus entries, got {len(mu)}")
        if mu0 == 0 or 0 in mu:
            raise ValueError("Satake parameters must be nonzero")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu", mu)

    def normalization_target(self) -> int:
        """Exact value p^(n*k - n*(n+1)/2) that mu0^2 * prod(mu) must equal."""
        n = self.degree
        return self.p ** (n * self.weight - n * (n + 1) // 2)

    def similitude_product(self) -> complex:
        prod = self.mu0 * self.mu0
        for x in self.mu:
            prod *= x
        return prod


def check_normalization(sp: SatakeParams) -> bool:
    """Whether mu0^2 * prod(mu) matches the weight normalization within REL_TOL.

    The comparison is |product - target| <= REL_TOL * target with target the
    exact integer power of p.
    """
    target = sp.normalization_target()
    return abs(sp.similitude_product() - target) <= REL_TOL * target


def hecke_eigenvalue(sp: SatakeParams) -> complex:
    """Spin-representation trace mu0 * prod(1 + mu_i).

    Invariant under the Weyl group action, and equal to the classical Hecke
    eigenvalue at p under the standard normalization.
    """
    val = sp.mu0
    for x in sp.mu:
        val *= 1 + x
    return val


def ramanujan_check(sp: SatakeParams) -> bool:
    """True iff every |mu_i| (i >= 1) lies within REL_TOL of 1."""
    return all(abs(abs(x) - 1.0) <= REL_TOL for x in sp.mu)


def _quadratic_roots(a, c: int) -> tuple[complex, complex]:
    """The two complex roots (a + sqrt(d)) / 2 and (a - sqrt(d)) / 2 of
    X^2 - a X + c, d = a^2 - 4c.  OverflowError once d leaves float range."""
    sq = cmath.sqrt(complex(a * a - 4 * c))
    return (a + sq) / 2, (a - sq) / 2


def satake_from_gl2(k: int, p: int, a_p: int | float) -> SatakeParams:
    """Degree-1 parameters of an elliptic eigenform from its eigenvalue a_p.

    alpha0 and alpha0*alpha1 are the two roots of X^2 - a_p X + p^(k-1), so
    the normalization alpha0^2 * alpha1 = p^(k-1) and the eigenvalue identity
    hecke_eigenvalue = a_p hold by construction.  Complex roots are allowed.
    """
    r1, r2 = _quadratic_roots(a_p, p ** (k - 1))
    return SatakeParams(degree=1, weight=k, p=p, mu0=r1, mu=(r2 / r1,))


def saito_kurokawa_satake(k: int, p: int, a_p: int) -> SatakeParams:
    """Degree-2 Satake parameters of the lift of a weight-(2k-2) eigenform.

    The orbit representative fixes beta0 = p^(k-1); beta0*beta1 and
    beta0*beta2 are the roots of X^2 - a_p X + p^(2k-3), so the four spin
    characters are p^(k-1), p^(k-2) and those two roots, reproducing the
    classical eigenvalue a_p + p^(k-1) + p^(k-2).
    """
    if k % 2:
        raise ValueError("weight must be even")
    b0 = complex(p ** (k - 1))
    r1, r2 = _quadratic_roots(a_p, p ** (2 * k - 3))
    return SatakeParams(degree=2, weight=k, p=p, mu0=b0, mu=(r1 / b0, r2 / b0))


def satake_from_record(record: EigenvalueRecord, p: int) -> SatakeParams:
    """Satake parameters at p of a degree-1 record, or of a degree-2 record
    whose eigendata at p is of lift type."""
    if record.degree == 1:
        return satake_from_gl2(record.weight, p, record.lambda_p(p))
    if record.degree == 2:
        # Imported here, so that importing satake does not load the series engine.
        from .modforms import sk_component_eigenvalue

        a_p = sk_component_eigenvalue(
            record.weight, p, record.lambda_p(p), record.lambda_p2(p)
        )
        if a_p is None:
            raise ValueError(
                f"record {record.label!r} at p={p} is not of lift type; "
                "numeric degree-2 parameters are unavailable"
            )
        return saito_kurokawa_satake(record.weight, p, a_p)
    raise ValueError(f"record {record.label!r} has unsupported degree")


def poly_from_inverse_roots(roots: Sequence[complex]) -> tuple[complex, ...]:
    """Coefficients of prod_r (1 - r X) expanded from its inverse roots."""
    # Imported here, so that the satake command does not load localfactors.
    from .localfactors import poly_mul

    coeffs = [1 + 0j]
    for r in roots:
        coeffs = poly_mul(coeffs, [1, -complex(r)])
    return tuple(coeffs)


def spin_character_values(sp: SatakeParams) -> list[complex]:
    """The 2^n spin characters mu0 * prod_{i in S} mu_i over subsets S,
    in bitmask order (bit i of the mask selects mu_i)."""
    values = []
    for mask in range(2**sp.degree):
        t = sp.mu0
        for i in range(sp.degree):
            if mask >> i & 1:
                t *= sp.mu[i]
        values.append(t)
    return values


def spin_local_factor(sp: SatakeParams) -> tuple[complex, ...]:
    """Coefficients of the spin factor prod_{S} (1 - mu0 prod_{i in S} mu_i X),
    degree 2^n.

    The linear coefficient is minus the Hecke eigenvalue, and the whole
    coefficient vector is invariant under the Weyl action.
    """
    return poly_from_inverse_roots(spin_character_values(sp))


def standard_local_factor(sp: SatakeParams) -> tuple[complex, ...]:
    """Coefficients of the standard factor (1 - X) prod_j (1 - mu_j X)(1 - 1/mu_j X),
    degree 2n + 1, Weyl invariant."""
    roots: list[complex] = [1.0 + 0j]
    for x in sp.mu:
        roots.append(x)
        roots.append(1 / x)
    return poly_from_inverse_roots(roots)
