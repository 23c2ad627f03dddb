"""Float Satake parameters of the lift's components.

A spherical local representation of GSp(2n, Q_p) is classified, up to the
Weyl group, by a point (mu0; mu1, ..., mun) on the dual maximal torus with
all entries nonzero.  For a holomorphic Hecke eigenform of weight k and
degree n the similitude character pins down the normalization

    mu0^2 * mu1 * ... * mun = p^(n*k - n*(n+1)/2),

and the Hecke eigenvalue at p is the trace mu0 * prod_{i=1..n} (1 + mu_i) of
the spin representation.  This module builds the complex-double points that
``lifting.LiftInput`` carries beside its integer data; the CLI states the
same facts exactly from the integer spin factors of
:mod:`spinlift.localfactors`.  All values are immutable and every function
is pure, so everything is safe to use from concurrent code.
"""

from __future__ import annotations

import cmath
from typing import TYPE_CHECKING

from ._value import Value

if TYPE_CHECKING:
    from .modforms import EigenvalueRecord

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


def _quadratic_roots(a, c: int) -> tuple[complex, complex]:
    """The two complex roots (a + sqrt(d)) / 2 and (a - sqrt(d)) / 2 of
    X^2 - a X + c, d = a^2 - 4c.  OverflowError once d leaves float range."""
    sq = cmath.sqrt(complex(a * a - 4 * c))
    return (a + sq) / 2, (a - sq) / 2


def satake_from_gl2(k: int, p: int, a_p: int | float) -> SatakeParams:
    """Degree-1 parameters of an elliptic eigenform from its eigenvalue a_p.

    alpha0 and alpha0*alpha1 are the two roots of X^2 - a_p X + p^(k-1), so
    the normalization alpha0^2 * alpha1 = p^(k-1) and the spin trace
    alpha0 (1 + alpha1) = a_p hold by construction.  Complex roots are allowed.
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
    # Imported here, so that importing satake does not load the series engine.
    from .modforms import sk_component_eigenvalue

    a_p = sk_component_eigenvalue(record.weight, p, record.lambda_p(p), record.lambda_p2(p))
    if a_p is None:
        raise ValueError(
            f"record {record.label!r} at p={p} is not of lift type; "
            "numeric degree-2 parameters are unavailable"
        )
    return saito_kurokawa_satake(record.weight, p, a_p)
