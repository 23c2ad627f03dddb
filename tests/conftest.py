import cmath
import itertools
import math
import random
from math import isqrt
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from spinlift import modforms
from spinlift.cuspidality import EisensteinKind
from spinlift.lifting import LiftInput
from spinlift.localfactors import LocalFactor

#: The lift kernel's refusal of a degree-2 factor off the shape
#: (c3, c4) = (c1 q_f, q_f^2) of weight k, a regex to format with p and k.
SHAPE_REFUSAL = (
    r"the degree-2 spin factor at p={p} lacks the shape \(c3, c4\) = "
    r"\(c1\*q_f, q_f\^2\), q_f = p\^\(2k-3\), of weight k={k}"
)

# ---------------------------------------------------------------- float oracles
# The library states these facts exactly, from integer spin factors and the
# integer matrix lifting.TORUS_MAP; the tests keep their float forms.

#: Relative tolerance of the float oracles' modulus comparisons.
REL_TOL = 1e-9


class SatakeParams(NamedTuple):
    """Satake parameters (mu0; mu1..mun) of a degree-n eigenform of weight k
    at p, normalized by mu0^2 * mu1 * ... * mun = p^(nk - n(n+1)/2), with
    the Hecke eigenvalue the spin trace mu0 * prod (1 + mu_i)."""

    degree: int
    weight: int
    p: int
    mu0: complex
    mu: tuple


def _quadratic_roots(a, c: int) -> tuple[complex, complex]:
    """The two complex roots of X^2 - a X + c; OverflowError once a^2 - 4c
    leaves float range."""
    sq = cmath.sqrt(complex(a * a - 4 * c))
    return (a + sq) / 2, (a - sq) / 2


def satake_from_gl2(k: int, p: int, a_p) -> SatakeParams:
    """Degree-1 parameters from a_p: alpha0 and alpha0*alpha1 are the roots of
    X^2 - a_p X + p^(k-1)."""
    r1, r2 = _quadratic_roots(a_p, p ** (k - 1))
    return SatakeParams(1, k, p, r1, (r2 / r1,))


def saito_kurokawa_satake(k: int, p: int, a_p: int) -> SatakeParams:
    """Degree-2 parameters of the Saito-Kurokawa lift of a weight-(2k-2)
    eigenvalue a_p: beta0 = p^(k-1), and beta0*beta1, beta0*beta2 the roots
    of X^2 - a_p X + p^(2k-3)."""
    b0 = complex(p ** (k - 1))
    r1, r2 = _quadratic_roots(a_p, p ** (2 * k - 3))
    return SatakeParams(2, k, p, b0, (r1 / b0, r2 / b0))


def float_satake(inp: LiftInput) -> tuple[SatakeParams, SatakeParams]:
    """The float (degree-1, degree-2) parameters of an input whose degree-2
    data are a Saito-Kurokawa split."""
    (k1, a_p), (k, lam, lam2) = inp.gl2_data, inp.gsp4_data
    a_g = divided_component_eigenvalue(k, inp.p, lam, lam2)
    assert a_g is not None, inp
    return satake_from_gl2(k1, inp.p, a_p), saito_kurokawa_satake(k, inp.p, a_g)


def random_gl2(rng: random.Random, k: int = 12, p: int = 2, ramanujan: bool = True) -> SatakeParams:
    """Normalized degree-1 parameters; unit-circle second parameter unless
    ramanujan is disabled."""
    phi = rng.uniform(0.0, 2 * math.pi)
    r = 1.0 if ramanujan else math.exp(rng.uniform(-0.4, 0.4))
    a0 = r * p ** ((k - 1) / 2) * cmath.exp(1j * phi)
    return SatakeParams(degree=1, weight=k, p=p, mu0=a0, mu=(p ** (k - 1) / (a0 * a0),))


def random_gsp4(rng: random.Random, k: int = 14, p: int = 2) -> SatakeParams:
    """Normalized degree-2 parameters with generic moduli."""
    b1 = cmath.exp(complex(rng.uniform(-0.4, 0.4), rng.uniform(0.0, 2 * math.pi)))
    b2 = cmath.exp(complex(rng.uniform(-0.4, 0.4), rng.uniform(0.0, 2 * math.pi)))
    b0 = cmath.sqrt(p ** (2 * k - 3) / (b1 * b2))
    return SatakeParams(degree=2, weight=k, p=p, mu0=b0, mu=(b1, b2))


def random_pair(rng: random.Random, k: int = 14, p: int = 2) -> tuple[SatakeParams, SatakeParams]:
    """Float weight-(k-2, k) parameters: a unit-circle degree-1 part and a
    degree-2 part of generic moduli."""
    return random_gl2(rng, k - 2, p), random_gsp4(rng, k, p)


def random_lift_input(rng: random.Random, k: int = 14, p: int = 2) -> LiftInput:
    """Weight-(k-2, k) input from integer data: a_p within the Deligne bound
    and the Saito-Kurokawa lift of a weight-(2k-2) eigenvalue within it."""
    a_p = rng.randint(-isqrt(4 * p ** (k - 3)), isqrt(4 * p ** (k - 3)))
    a_g = rng.randint(-isqrt(4 * p ** (2 * k - 3)), isqrt(4 * p ** (2 * k - 3)))
    lam, lam2 = modforms.sk_eigenvalue(k, p, a_g), modforms.sk_eigenvalue_psquared(k, p, a_g)
    return LiftInput(p, (k - 2, a_p), (k, lam, lam2))


def theta_lift(gl2: SatakeParams, gsp4: SatakeParams) -> SatakeParams:
    """Degree-3 parameters (alpha0*beta0; beta1, beta2, alpha1) in complex
    doubles; weights off the lift pattern raise ValueError."""
    if gl2.weight != gsp4.weight - 2:
        raise ValueError(f"weights ({gl2.weight}, {gsp4.weight}) do not fit the lift pattern")
    return SatakeParams(
        degree=3,
        weight=gsp4.weight,
        p=gsp4.p,
        mu0=gl2.mu0 * gsp4.mu0,
        mu=(gsp4.mu[0], gsp4.mu[1], gl2.mu[0]),
    )


def check_normalization(sp: SatakeParams) -> bool:
    """Whether mu0^2 * prod(mu) is p^(nk - n(n+1)/2) within REL_TOL."""
    n = sp.degree
    target = sp.p ** (n * sp.weight - n * (n + 1) // 2)
    return abs(sp.mu0 * sp.mu0 * math.prod(sp.mu) - target) <= REL_TOL * target


def hecke_eigenvalue(sp: SatakeParams) -> complex:
    """The spin trace mu0 * prod(1 + mu_i)."""
    return sp.mu0 * math.prod(1 + x for x in sp.mu)


def ramanujan_check(sp: SatakeParams) -> bool:
    """Whether every |mu_i| (i >= 1) lies within REL_TOL of 1."""
    return all(abs(abs(x) - 1.0) <= REL_TOL for x in sp.mu)


def poly_mul(a, b) -> list:
    """Full product of coefficient lists, over ints or complexes."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def spin_local_factor(sp: SatakeParams) -> list[complex]:
    """Float spin factor prod_S (1 - mu0 prod_{i in S} mu_i X), degree 2^n."""
    return _expand(_spin_characters(sp))


def standard_local_factor(sp: SatakeParams) -> list[complex]:
    """Float standard factor (1 - X) prod_j (1 - mu_j X)(1 - X / mu_j)."""
    return _expand([1 + 0j, *(y for x in sp.mu for y in (x, 1 / x))])


def _spin_characters(sp: SatakeParams) -> list[complex]:
    """mu0 * prod_{i in S} mu_i over the 2^n subsets S of the parameters."""
    values = [complex(sp.mu0)]
    for x in sp.mu:
        values += [v * x for v in values]
    return values


def _expand(roots: list[complex]) -> list[complex]:
    """Coefficients of prod_r (1 - r X) in complex doubles."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [c - r * d for c, d in zip([*coeffs, 0j], [0j, *coeffs])]
    return coeffs


def numeric_lift_route(gl2: SatakeParams, gsp4: SatakeParams) -> list[complex]:
    """Float degree-8 spin factor of theta_lift(gl2, gsp4), expanded from its
    spin characters: one side of the test suite's float tensor-identity oracle."""
    return _expand(_spin_characters(theta_lift(gl2, gsp4)))


def numeric_tensor_route(gl2: SatakeParams, gsp4: SatakeParams) -> list[complex]:
    """Float tensor of the component spin factors, expanded from the
    products of their spin characters: the oracle's other side."""
    return _expand([a * b for a in _spin_characters(gl2) for b in _spin_characters(gsp4)])


def max_rel_diff(xs, ys) -> float:
    """Largest coefficientwise relative difference, with an absolute floor of 1."""
    assert len(xs) == len(ys)
    return max(abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in zip(xs, ys))


def signed_permutation_orbit(sp: SatakeParams) -> list[SatakeParams]:
    """Images of (mu0; mu1..mun) under all 2^n * n! signed permutations, in a
    fixed order that starts with sp itself; duplicates are kept.

    The test suite's Weyl-group oracle, sharing no code with the library:
    inverting mu_i multiplies mu0 by mu_i (which keeps mu0^2 * prod(mu)),
    then the entries are permuted.
    """
    n = sp.degree
    images = []
    for perm in itertools.permutations(range(n)):
        for flips in itertools.product((False, True), repeat=n):
            mu0, mu = sp.mu0, list(sp.mu)
            for i in range(n):
                if flips[i]:
                    mu0 *= mu[i]
                    mu[i] = 1 / mu[i]
            images.append(
                SatakeParams(
                    degree=n, weight=sp.weight, p=sp.p, mu0=mu0, mu=tuple(mu[j] for j in perm)
                )
            )
    return images


class NoHugePowers(int):
    """A prime that refuses its powers past 2^13 bits.  Such a power is
    built only if an evaluation takes the exact route at a point where
    p^|s| would not fit in memory."""

    def __pow__(self, n, mod=None):
        if n * self.bit_length() > 1 << 13:
            raise AssertionError("exact route taken at a huge integer point")
        return pow(int(self), n, mod)


def with_guarded_prime(f: LocalFactor) -> LocalFactor:
    """f with its prime a ``NoHugePowers``."""
    return LocalFactor(NoHugePowers(f.p), f.coeffs, f.rep, f.root_exponent)


def log_modulus(z: complex, p: int) -> float:
    return math.log(abs(z)) / math.log(p)


def eisenstein_params(
    kind: EisensteinKind, k: int, p: int, embedded: SatakeParams | None = None
) -> SatakeParams:
    """Degree-3 Satake parameters of a non-cuspidal template at weight k and
    prime p, mu0 fixed by the normalization: the test suite's template
    oracle.  The Klingen kinds take the Satake parameters of the embedded
    cusp form, of degree 2 or 1."""
    if kind is EisensteinKind.SIEGEL:
        mu: tuple[complex, ...] = (p ** (k - 3), p ** (k - 2), p ** (k - 1))
    elif kind is EisensteinKind.KLINGEN_FROM_DEGREE2:
        mu = (embedded.mu[0], embedded.mu[1], p ** (k - 3))
    else:
        mu = (embedded.mu[0], p ** (k - 2), p ** (k - 3))
    mu0 = cmath.sqrt(complex(p ** (3 * k - 6)) / (mu[0] * mu[1] * mu[2]))
    return SatakeParams(degree=3, weight=k, p=p, mu0=mu0, mu=mu)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20110)


#: (k, p, x, y) of a tempered degree-2 factor (1 - xX + rX^2)(1 - yX + rX^2),
#: r = p^(2k-3) and |x|, |y| <= 2 r^(1/2), not of Saito-Kurokawa shape.
TEMPERED = (14, 2, 5000, -3000)

SK_GRID_PRIMES = [p for p in range(2, 10_001) if all(p % d for d in range(2, int(p**0.5) + 1))]
SK_BIG = st.integers(-(2**4000), 2**4000)


@st.composite
def component_data(draw):
    """(k, p, lam_p, lam_p2) at even k <= 400 and primes <= 10^4: of
    Saito-Kurokawa shape, with lambda_{p^2} moved off the split by a
    nonzero amount, or arbitrary."""
    k = draw(st.integers(2, 200)) * 2
    p = draw(st.sampled_from(SK_GRID_PRIMES))
    kind = draw(st.sampled_from(["sk", "moved", "arbitrary"]))
    if kind == "arbitrary":
        return k, p, draw(SK_BIG), draw(SK_BIG)
    a_p = draw(SK_BIG)
    lam2 = modforms.sk_eigenvalue_psquared(k, p, a_p)
    if kind == "moved":
        lam2 += draw(st.one_of(SK_BIG, st.integers(-2, 2)).filter(bool))
    return k, p, modforms.sk_eigenvalue(k, p, a_p), lam2


def divided_component_eigenvalue(k, p, lam_p, lam_p2):
    """The a_p of the weight-(2k-2) form behind degree-2 data (k, p, lam_p,
    lam_p2) of Saito-Kurokawa shape, by dividing the degree-4 spin
    polynomial by (1 - p^(k-1) X)(1 - p^(k-2) X): the quotient must be exact
    and of lift shape 1 - a_p X + p^(2k-3) X^2, else None.  The test-side
    oracle for ``localfactors.sk_split``, which shares no code with it."""
    f = [
        1,
        -lam_p,
        lam_p * lam_p - lam_p2 - p ** (2 * k - 4),
        -lam_p * p ** (2 * k - 3),
        p ** (4 * k - 6),
    ]
    g = [1, -(p ** (k - 1) + p ** (k - 2)), p ** (2 * k - 3)]
    q = [0, 0, 0]
    q[0] = f[0]
    q[1] = f[1] - g[1] * q[0]
    q[2] = f[2] - g[1] * q[1] - g[2] * q[0]
    product = [0] * 5
    for i, a in enumerate(g):
        for j, b in enumerate(q):
            product[i + j] += a * b
    if product != f or q[2] != p ** (2 * k - 3):
        return None
    return -q[1]


def _with_record(data: dict, **fields) -> dict:
    """data with fields of its first record replaced."""
    return {**data, "records": [{**data["records"][0], **fields}, *data["records"][1:]]}


def _with_entry(data: dict, entry) -> dict:
    """data with the first eigenvalue entry of its first record replaced."""
    return _with_record(data, eigenvalues=[entry, *data["records"][0]["eigenvalues"][1:]])


def _with_entry_fields(data: dict, **fields) -> dict:
    """data with fields of the first eigenvalue entry of its first record replaced."""
    return _with_entry(data, {**data["records"][0]["eigenvalues"][0], **fields})


def with_duplicated_first_record(data: dict) -> dict:
    """data with a second copy of its first record, whose first eigenvalue
    is -25: in a written file, a second Delta.12.1 with tau(2) = -25."""
    copy = _with_entry_fields(data, lambda_p="-25")["records"][0]
    return {**data, "records": [*data["records"], copy]}


#: Valid JSON of another shape than a fixtures file, each made from the
#: parsed text of a written one.  The first eleven are the shapes the label
#: commands are checked against end to end; the five with a float, a bool
#: or a string where an integer belongs would load truncated or coerced by
#: int(), so Delta.12.1 at p = 2 would still be found.
WRONG_FIXTURE_SHAPES = {
    "top-level list": lambda data: [],
    "top-level number": lambda data: 1,
    "top-level null": lambda data: None,
    "records object": lambda data: {**data, "records": {r["label"]: r for r in data["records"]}},
    "record list": lambda data: {**data, "records": [[], *data["records"][1:]]},
    "entry null": lambda data: _with_entry(data, None),
    "p float": lambda data: _with_entry_fields(data, p=2.9),
    "p string": lambda data: _with_entry_fields(data, p="2"),
    "lambda_p float": lambda data: _with_entry_fields(data, lambda_p=-24.6),
    "weight float": lambda data: _with_record(data, weight=12.7),
    "degree bool": lambda data: _with_record(data, degree=True),
    "empty records object": lambda data: {**data, "records": {}},
    "eigenvalues number": lambda data: _with_record(data, eigenvalues=5),
    "label number": lambda data: _with_record(data, label=5),
    "label list": lambda data: _with_record(data, label=[]),
    "p null": lambda data: _with_entry_fields(data, p=None),
    "lambda_p infinite": lambda data: _with_entry_fields(data, lambda_p=1e999),
}
