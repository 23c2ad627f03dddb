import cmath
import itertools
import math
import random

import pytest
from hypothesis import strategies as st

from spinlift import modforms
from spinlift.cuspidality import EisensteinKind
from spinlift.lifting import LiftInput, lift_weights
from spinlift.localfactors import LocalFactor
from spinlift.satake import SatakeParams


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


def random_lift_input(rng: random.Random, k: int = 14, p: int = 2) -> LiftInput:
    return LiftInput(gl2=random_gl2(rng, k - 2, p), gsp4=random_gsp4(rng, k, p))


# ---------------------------------------------------------------- float oracles
# The library states these facts exactly, from integer spin factors and the
# integer matrix lifting.TORUS_MAP; the tests keep their float forms.

#: Relative tolerance of the float oracles' modulus comparisons.
REL_TOL = 1e-9


def theta_lift(inp: LiftInput) -> SatakeParams:
    """Degree-3 parameters (alpha0*beta0; beta1, beta2, alpha1) in complex
    doubles; weights off the lift pattern raise ValueError."""
    if not lift_weights(inp.gl2.weight, inp.gsp4.weight).accepted:
        raise ValueError(
            f"weights ({inp.gl2.weight}, {inp.gsp4.weight}) do not fit the lift pattern"
        )
    return SatakeParams(
        degree=3,
        weight=inp.gsp4.weight,
        p=inp.p,
        mu0=inp.gl2.mu0 * inp.gsp4.mu0,
        mu=(inp.gsp4.mu[0], inp.gsp4.mu[1], inp.gl2.mu[0]),
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


def numeric_lift_route(inp: LiftInput) -> list[complex]:
    """Float degree-8 spin factor of theta_lift(inp), expanded from its spin
    characters: one side of the test suite's float tensor-identity oracle."""
    return _expand(_spin_characters(theta_lift(inp)))


def numeric_tensor_route(inp: LiftInput) -> list[complex]:
    """Float tensor of the component spin factors, expanded from the
    products of their spin characters: the oracle's other side."""
    return _expand(
        [a * b for a in _spin_characters(inp.gl2) for b in _spin_characters(inp.gsp4)]
    )


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
