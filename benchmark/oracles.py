"""Independent oracles for the benchmark's outputs.

Nothing here imports ``spinlift``: every expected value is derived from
closed forms written out again below, or from data the benchmark parsed
itself.  Each check returns a list of problem strings, empty when the output
agrees with the oracle.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from pathlib import Path

FIXTURE_LABELS = ("Delta.12.1", "SK.14.2", "g26.26.1")
MIN_ORDER = 64

#: Ramanujan's congruence tau(p) = 1 + p^11 (mod 691), and its weight-26
#: analogue modulo the large prime factor 657931 of the numerator of B_26.
CONGRUENCES = {"Delta.12.1": (12, 691), "g26.26.1": (26, 657931)}
TAU_SMALL = {2: -24, 3: 252, 5: 4830, 7: -16744}

#: Relative tolerance for floating-point L-values (168 factors near 1).
VALUE_REL_TOL = 1e-9

_PINS = json.loads((Path(__file__).with_name("fixtures_sha256.json")).read_text())


def primes_upto(n: int) -> list[int]:
    return [m for m in range(2, n + 1) if all(m % d for d in range(2, math.isqrt(m) + 1))]


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def gl2_poly(k: int, p: int, a: int, shift: int = 0) -> list[int]:
    """1 - a (p^shift X) + p^(k-1) (p^shift X)^2."""
    t = p**shift
    return [1, -a * t, p ** (k - 1) * t * t]


def rankin_selberg(a: int, big_a: int, b: int, big_b: int) -> list[int]:
    """Closed-form degree-4 factor prod (1 - alpha_i beta_j X) for
    1 - aX + A X^2 and 1 - bX + B X^2."""
    return [1, -a * b, a * a * big_b + b * b * big_a - 2 * big_a * big_b, -a * b * big_a * big_b, (big_a * big_b) ** 2]


def lift_l8(k: int, p: int, a_h: int, a_f: int) -> list[int]:
    """Degree-8 spinor factor of the lift of (h, SK(f)) with h of weight k-2
    and f of weight 2k-2, from the Saito-Kurokawa split
    L8 = P_h(p^(k-1) X) P_h(p^(k-2) X) (P_h x P_f)(X)."""
    rs = rankin_selberg(a_h, p ** (k - 3), a_f, p ** (2 * k - 3))
    return poly_mul(poly_mul(gl2_poly(k - 2, p, a_h, k - 1), gl2_poly(k - 2, p, a_h, k - 2)), rs)


def sk_spin4(k: int, p: int, a_f: int) -> list[int]:
    """Degree-4 spin polynomial of SK(f): (1 - p^(k-1)X)(1 - p^(k-2)X)(1 - a_f X + p^(2k-3) X^2)."""
    return poly_mul(poly_mul([1, -(p ** (k - 1))], [1, -(p ** (k - 2))]), [1, -a_f, p ** (2 * k - 3)])


def classical_spin4(k: int, p: int, lam: int, lam2: int) -> list[int]:
    """Degree-4 spin polynomial of a degree-2 eigenform from T_p, T_{p^2}."""
    return [1, -lam, lam * lam - lam2 - p ** (2 * k - 4), -lam * p ** (2 * k - 3), p ** (4 * k - 6)]


def poly_value(coeffs: list[int], p: int, s: complex) -> complex:
    """sum c_j p^(-j s), each term formed in log space so no integer is
    converted to a float."""
    acc = 0j
    lnp = math.log(p)
    for j, c in enumerate(coeffs):
        if c:
            acc += (1.0 if c > 0 else -1.0) * cmath.exp(math.log(abs(c)) - j * s * lnp)
    return acc


def euler_product(polys: dict[int, list[int]], s: complex) -> complex:
    value = 1 + 0j
    for p in sorted(polys):
        value /= poly_value(polys[p], p, s)
    return value


def close(x: complex, y: complex, rel: float = VALUE_REL_TOL) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def fits_float(n: int) -> bool:
    try:
        float(n)
    except OverflowError:
        return False
    return True


# ----------------------------------------------------------------- fixtures


def parse_fixtures(data: dict) -> dict[str, dict[int, tuple[int, int | None]]]:
    """label -> {p: (lambda_p, lambda_p2)} from a fixtures JSON document."""
    out = {}
    for rec in data["records"]:
        out[rec["label"]] = {
            int(e["p"]): (int(e["lambda_p"]), int(e["lambda_p2"]) if "lambda_p2" in e else None)
            for e in rec["eigenvalues"]
        }
    return out


def check_fixtures(raw: bytes, bound: int, order: int = MIN_ORDER) -> list[str]:
    """Oracle for one fixtures file written at prime bound ``bound`` and
    requested series order ``order``."""
    problems = []
    pin = _PINS.get(str(bound))
    if pin is not None and sha256_bytes(raw) != pin:
        problems.append(f"fixtures at B={bound} are not byte-identical to the pinned file")
    data = json.loads(raw)
    if data.get("prime_bound") != bound or data.get("order") != max(order, bound + 1):
        problems.append("prime bound or order field is wrong")
    recs = parse_fixtures(data)
    if sorted(recs) != sorted(FIXTURE_LABELS):
        return problems + [f"labels {sorted(recs)}"]
    primes = primes_upto(bound)
    for label, rec in recs.items():
        if sorted(rec) != primes:
            problems.append(f"{label}: primes are not exactly those <= {bound}")
            return problems
    for label, (k, modulus) in CONGRUENCES.items():
        for p, (a, a2) in recs[label].items():
            if (a - 1 - p ** (k - 1)) % modulus:
                problems.append(f"{label}: congruence mod {modulus} fails at p={p}")
            if a * a > 4 * p ** (k - 1):
                problems.append(f"{label}: Deligne bound fails at p={p}")
            if a2 != a * a - p ** (k - 1):
                problems.append(f"{label}: T_(p^2) eigenvalue wrong at p={p}")
    for p, tau in TAU_SMALL.items():
        if p <= bound and recs["Delta.12.1"][p][0] != tau:
            problems.append(f"tau({p}) != {tau}")
    for p, (lam, lam2) in recs["SK.14.2"].items():
        if classical_spin4(14, p, lam, lam2) != sk_spin4(14, p, recs["g26.26.1"][p][0]):
            problems.append(f"SK.14.2 spin polynomial does not split at p={p}")
    return problems


def lift_l8_from_fixtures(recs, p: int) -> list[int]:
    return lift_l8(14, p, recs["Delta.12.1"][p][0], recs["g26.26.1"][p][0])


# ----------------------------------------------------------------- hodge / analytic


def weight_family(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Closed form of the weight solver: exactly the triples (K-2, K, K)."""
    lo = max(lo + lo % 2, 4)
    return [(big_k - 2, big_k, big_k) for big_k in range(lo + 2, hi + 1, 2)]


def critical_values(k: int) -> list[int]:
    return list(range(k, 2 * k - 4))


def gamma_shifts(k: int) -> list[int]:
    return sorted([0, 1 - k, 2 - k, 3 - k])
