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
increasing index tuples.  Degrees 1, 2 and 3 are supported.  All values are
immutable and every function is pure, so everything is safe to use from
concurrent code.
"""

from __future__ import annotations

import cmath

from ._value import Value

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


def satake_from_gl2(k: int, p: int, a_p: int | float) -> SatakeParams:
    """Degree-1 parameters of an elliptic eigenform from its eigenvalue a_p.

    alpha0 and alpha0*alpha1 are the two roots of X^2 - a_p X + p^(k-1), so
    the normalization alpha0^2 * alpha1 = p^(k-1) and the eigenvalue identity
    hecke_eigenvalue = a_p hold by construction.  Complex roots are allowed.
    """
    disc = complex(a_p * a_p - 4 * p ** (k - 1))
    sq = cmath.sqrt(disc)
    r1 = (a_p + sq) / 2
    r2 = (a_p - sq) / 2
    return SatakeParams(degree=1, weight=k, p=p, mu0=r1, mu=(r2 / r1,))


class EigenvalueEntry(Value):
    """Hecke data of one eigenform at one prime; integers are exact."""

    __slots__ = ("p", "lam", "lam2")

    def __init__(self, p: int, lam: int, lam2: int | None = None) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam2", lam2)


class EigenvalueRecord(Value):
    """Exact Hecke eigenvalues of a labelled eigenform at several primes."""

    __slots__ = ("label", "degree", "weight", "entries", "_by_prime")

    def __init__(
        self, label: str, degree: int, weight: int, entries: tuple[EigenvalueEntry, ...]
    ) -> None:
        ps = [e.p for e in entries]
        if any(q <= p for p, q in zip(ps, ps[1:])):
            raise ValueError("primes must be strictly increasing")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_prime", {e.p: e for e in entries})

    def primes(self) -> tuple[int, ...]:
        return tuple(e.p for e in self.entries)

    def _entry(self, p: int) -> EigenvalueEntry:
        if p not in self._by_prime:
            raise ValueError(f"record {self.label!r} has no entry for prime {p}")
        return self._by_prime[p]

    def lambda_p(self, p: int) -> int:
        return self._entry(p).lam

    def lambda_p2(self, p: int) -> int:
        lam2 = self._entry(p).lam2
        if lam2 is None:
            raise ValueError(f"record {self.label!r} has no p^2 eigenvalue at {p}")
        return lam2

    def to_json_dict(self) -> dict:
        eigenvalues = []
        for e in self.entries:
            item = {"p": e.p, "lambda_p": str(e.lam)}
            if e.lam2 is not None:
                item["lambda_p2"] = str(e.lam2)
            eigenvalues.append(item)
        return {
            "label": self.label,
            "degree": self.degree,
            "weight": self.weight,
            "eigenvalues": eigenvalues,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EigenvalueRecord":
        """Record from its JSON form; a field of another type (a float too) is a ValueError."""
        entries = tuple(
            EigenvalueEntry(
                p=_json_int(item["p"]),
                lam=_json_int(item["lambda_p"], True),
                lam2=_json_int(item["lambda_p2"], True) if "lambda_p2" in item else None,
            )
            for item in data["eigenvalues"]
        )
        return cls(
            label=data["label"],
            degree=_json_int(data["degree"]),
            weight=_json_int(data["weight"]),
            entries=entries,
        )


def _json_int(value, decimal_string: bool = False) -> int:
    """A JSON integer (not a bool) or, where allowed, an ASCII decimal string."""
    if type(value) is int:
        return value
    if decimal_string and isinstance(value, str) and value.isascii():
        if value.lstrip("-").isdigit():
            return int(value)  # still a ValueError for "--5"
    raise ValueError(f"expected an integer, got {value!r}")
