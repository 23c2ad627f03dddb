import copy
from fractions import Fraction
from itertools import permutations, zip_longest
import math
import pickle
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from spinlift import modforms
from spinlift.lifting import (
    TORUS_MAP,
    LiftInput,
    check_lift_degrees,
    lift_input_from_records,
    lift_weights,
    lifted_spin_factor_exact,
    lift_route_spin_factor,
    synthetic_lift_input,
    verify_eigenvalue_product,
    verify_tensor_identity,
)
from spinlift.localfactors import (
    LocalFactor,
    gl2_factor_exact,
    gsp4_spin_factor_exact,
    tensor_local_factor,
)
from spinlift.primes import primes_up_to
from spinlift.satake import SatakeParams, saito_kurokawa_satake, satake_from_gl2

from conftest import (
    check_normalization,
    hecke_eigenvalue,
    max_rel_diff,
    numeric_lift_route,
    numeric_tensor_route,
    poly_mul,
    random_lift_input,
    theta_lift,
)

RECORDS = {r.label: r for r in modforms.fixture_records(7)}


def stock_input(p=2):
    return lift_input_from_records(RECORDS["Delta.12.1"], RECORDS["SK.14.2"], p)


# ---------------------------------------------------------------- weights

def test_lift_weights_accepts_the_shifted_pattern():
    assert lift_weights(12, 14) == lift_weights(12, 14)
    check = lift_weights(12, 14)
    assert check.accepted and check.k == 14
    assert lift_weights(14, 16).accepted
    assert lift_weights(14, 16).k == 16


def test_lift_weights_rejects_with_witness():
    check = lift_weights(14, 14)
    assert not check.accepted and check.k is None
    assert check.witness["candidate_K"] is None
    # k1 = k2 + 4 admits an integral candidate weight, still mismatched
    check = lift_weights(18, 14)
    assert not check.accepted
    assert check.witness["candidate_K"] == 16
    assert check.witness["matches"] is False


def test_lift_weights_rejects_odd_weights():
    with pytest.raises(ValueError):
        lift_weights(11, 13)


# ---------------------------------------------------------------- the lift map

def test_theta_lift_structure_and_normalization():
    inp = stock_input()
    lifted = theta_lift(inp)
    assert lifted.degree == 3 and lifted.weight == 14
    assert lifted.mu == (inp.gsp4.mu[0], inp.gsp4.mu[1], inp.gl2.mu[0])
    assert abs(lifted.mu0 - inp.gl2.mu0 * inp.gsp4.mu0) == 0
    assert abs(lifted.mu0**2 * math.prod(lifted.mu) - 2**36) <= 1e-9 * 2**36
    assert check_normalization(lifted)


def test_theta_lift_eigenvalue_multiplicativity():
    inp = stock_input()
    lam = hecke_eigenvalue(theta_lift(inp))
    assert abs(lam - (-24) * 12240) <= 1e-9 * abs(lam)
    assert abs(lam - (-293760)) <= 1e-9 * abs(lam)


def test_theta_lift_all_ones_inputs():
    inp = LiftInput(
        gl2=SatakeParams(degree=1, weight=12, p=2, mu0=1, mu=(1,)),
        gsp4=SatakeParams(degree=2, weight=14, p=2, mu0=1, mu=(1, 1)),
    )
    assert abs(hecke_eigenvalue(theta_lift(inp)) - 8) <= 1e-12


def test_theta_lift_rejects_weight_mismatch():
    inp = LiftInput(
        gl2=SatakeParams(degree=1, weight=14, p=2, mu0=1, mu=(1,)),
        gsp4=SatakeParams(degree=2, weight=14, p=2, mu0=1, mu=(1, 1)),
    )
    with pytest.raises(ValueError, match="lift pattern"):
        theta_lift(inp)
    # The exact lift route keeps the same check.
    with pytest.raises(ValueError, match="lift pattern"):
        lift_route_spin_factor(inp)


def test_theta_lift_eigenvalue_multiplicativity_random(rng):
    for _ in range(50):
        inp = random_lift_input(rng)
        lam = hecke_eigenvalue(theta_lift(inp))
        expect = hecke_eigenvalue(inp.gl2) * hecke_eigenvalue(inp.gsp4)
        assert abs(lam - expect) <= 1e-9 * max(1.0, abs(expect))
        assert check_normalization(theta_lift(inp))


def _torus_image(point):
    """(mu0, mu1, mu2, mu3) = prod_j x_j^M_ij for M = TORUS_MAP."""
    return [math.prod(x**e for x, e in zip(point, row, strict=True)) for row in TORUS_MAP]


def test_torus_map_is_the_float_lift(rng):
    # The integer matrix is the monomial map that theta_lift evaluates in
    # doubles: on exponent vectors of p, and on the oracle's random inputs.
    assert [len(row) for row in TORUS_MAP] == [5] * 4
    for _ in range(50):
        e = [rng.randint(-40, 40) for _ in range(5)]
        image = _torus_image([Fraction(2) ** x for x in e])
        expect = [sum(m * x for m, x in zip(row, e)) for row in TORUS_MAP]
        assert image == [Fraction(2) ** x for x in expect]
        inp = random_lift_input(rng)
        lifted = theta_lift(inp)
        point = (inp.gl2.mu0, inp.gl2.mu[0], inp.gsp4.mu0, *inp.gsp4.mu)
        assert _torus_image(point) == [lifted.mu0, *lifted.mu]


# ---------------------------------------------------------------- lift input plumbing

def test_lift_input_validation():
    gl2 = satake_from_gl2(12, 2, -24)
    gsp4 = saito_kurokawa_satake(14, 2, -48)
    with pytest.raises(ValueError):
        LiftInput(gl2=gsp4, gsp4=gsp4)
    with pytest.raises(ValueError):
        LiftInput(gl2=gl2, gsp4=saito_kurokawa_satake(14, 3, -48))
    with pytest.raises(ValueError):
        LiftInput(gl2=gl2, gsp4=gsp4, gl2_data=(10, -24))
    with pytest.raises(ValueError):
        LiftInput(
            gl2=SatakeParams(degree=1, weight=11, p=2, mu0=1, mu=(1,)),
            gsp4=gsp4,
        )


def test_lift_input_from_records_rejects_non_lift_data():
    h = RECORDS["Delta.12.1"]
    with pytest.raises(ValueError):
        lift_input_from_records(h, h, 2)
    g = RECORDS["SK.14.2"]
    with pytest.raises(ValueError):
        lift_input_from_records(g, g, 2)


@pytest.mark.parametrize(
    "h, g, message",
    [
        ("SK.14.2", "SK.14.2", "record 'SK.14.2' is not a degree-1 form"),
        ("Delta.12.1", "g26.26.1", "record 'g26.26.1' is not a degree-2 form"),
    ],
)
def test_check_lift_degrees_names_the_wrong_record(h, g, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_lift_degrees(RECORDS[h], RECORDS[g])
    with pytest.raises(ValueError, match=f"^{message}$"):
        lift_input_from_records(RECORDS[h], RECORDS[g], 2)
    check_lift_degrees(RECORDS["Delta.12.1"], RECORDS["SK.14.2"])


def test_synthetic_lift_input_shape():
    inp = synthetic_lift_input(20, 3)
    assert inp.gl2.weight == 18 and inp.gsp4.weight == 20
    assert check_normalization(theta_lift(inp))
    with pytest.raises(ValueError):
        synthetic_lift_input(13, 2)


@pytest.mark.parametrize("p", [-7, 0, 1, 4, 6, 9, 1001])
def test_synthetic_lift_input_rejects_non_prime(p):
    # Satake parameters exist only at primes.
    with pytest.raises(ValueError, match="prime"):
        synthetic_lift_input(14, p)


def test_synthetic_lift_input_overflow_names_the_input():
    with pytest.raises(OverflowError) as info:
        synthetic_lift_input(60, 997)
    message = str(info.value)
    assert "k=60" in message and "p=997" in message and "2^1024" in message


# ---------------------------------------------------------------- tensor identity

@pytest.mark.parametrize("p", [2, 3, 5])
def test_tensor_identity_exact_on_stock_pair(p):
    report = verify_tensor_identity(stock_input(p))
    assert report.ok
    assert report.lift_coeffs == report.tensor_coeffs
    if p == 2:
        assert report.lift_coeffs[1] == 293760


def test_tensor_identity_exact_on_all_fixture_primes():
    records = {r.label: r for r in modforms.fixture_records(19)}
    for p in records["Delta.12.1"].primes():
        inp = lift_input_from_records(records["Delta.12.1"], records["SK.14.2"], p)
        assert verify_tensor_identity(inp).ok
        assert_functional_equation(lift_route_spin_factor(inp), 12)


def test_tensor_identity_numeric_on_stock_pair():
    # The float oracle agrees with itself and with the exact coefficients.
    inp = stock_input()
    lift = numeric_lift_route(inp)
    assert max_rel_diff(lift, numeric_tensor_route(inp)) <= 1e-6
    assert max_rel_diff(lift, verify_tensor_identity(inp).lift_coeffs) <= 1e-6


def test_tensor_identity_numeric_random(rng):
    for _ in range(100):
        inp = random_lift_input(rng)
        diff = max_rel_diff(numeric_lift_route(inp), numeric_tensor_route(inp))
        assert diff <= 1e-6, diff


def test_tensor_identity_detects_perturbation(rng):
    inp = random_lift_input(rng)
    perturbed = LiftInput(
        gl2=inp.gl2,
        gsp4=SatakeParams(
            degree=2,
            weight=inp.gsp4.weight,
            p=inp.gsp4.p,
            mu0=inp.gsp4.mu0,
            mu=(inp.gsp4.mu[0] * (1 + 1e-3), inp.gsp4.mu[1]),
        ),
    )
    assert max_rel_diff(numeric_lift_route(perturbed), numeric_tensor_route(inp)) > 1e-6


def test_lift_input_keeps_its_exact_factors_out_of_eq_hash_and_repr():
    # The factors an input builds live in internal slots: an input whose
    # lift-route factor is built equals, hashes and prints as its twin.
    inp, twin = stock_input(3), stock_input(3)
    lift = lift_route_spin_factor(inp)
    assert inp == twin and hash(inp) == hash(twin) and repr(inp) == repr(twin)
    assert "factor" not in repr(inp)
    assert type(inp).__match_args__ == ("gl2", "gsp4", "gl2_data", "gsp4_data")
    for clone in (copy.copy(inp), copy.deepcopy(inp), pickle.loads(pickle.dumps(inp))):
        assert clone == inp and lift_route_spin_factor(clone) == lift
    assert lift_route_spin_factor(inp) is lift


def test_numeric_tensor_identity_is_retired():
    with pytest.raises(ValueError, match="retired"):
        verify_tensor_identity(stock_input(), False)


def test_exact_route_requires_eigen_data(rng):
    inp = random_lift_input(rng)
    with pytest.raises(ValueError):
        verify_tensor_identity(inp)


def test_lifted_spin_factor_degree_and_constant():
    b = gsp4_spin_factor_exact(14, 2, 12240, 66521344)
    f = lifted_spin_factor_exact(12, -24, b)
    assert f.degree == 8
    assert f.coeffs[0] == 1
    assert f.coeffs[8] == 2 ** (4 * 11 + 2 * 50)


def test_root_certificate_is_not_part_of_the_factor():
    f = lifted_spin_factor_exact(12, -24, gsp4_spin_factor_exact(14, 2, 12240, 66521344))
    assert f.root_exponent == Fraction(37, 2)
    plain = LocalFactor(p=f.p, coeffs=f.coeffs, rep=f.rep)
    assert plain.root_exponent is None
    assert f == plain and hash(f) == hash(plain)
    assert f.to_json_dict() == plain.to_json_dict()
    assert "root_exponent" not in f.to_json_dict()


# ---------------------------------------------------------------- Leibniz oracle

def _poly_det(entries: list[list[list[int]]]) -> list[int]:
    """Leibniz determinant of a small matrix with integer-polynomial entries."""
    d = len(entries)
    acc = [0]
    for perm in permutations(range(d)):
        inversions = sum(
            1 for i in range(d) for j in range(i + 1, d) if perm[i] > perm[j]
        )
        term = [1]
        for i in range(d):
            term = poly_mul(term, entries[i][perm[i]])
        if inversions % 2:
            term = [-c for c in term]
        acc = [x + y for x, y in zip_longest(acc, term, fillvalue=0)]
    return acc


def leibniz_lifted_factor(k1: int, a_p: int, gsp4_coeffs, p: int) -> tuple:
    """det(I - a_p X C + p^(k1-1) X^2 C^2) for the companion matrix C of the
    degree-2 factor, expanded permutation by permutation."""
    d = len(gsp4_coeffs) - 1
    c1 = [[1 if i == j + 1 else 0 for j in range(d)] for i in range(d)]
    for i in range(d):
        c1[i][d - 1] = -gsp4_coeffs[d - i]
    c2 = [[sum(c1[i][m] * c1[m][j] for m in range(d)) for j in range(d)] for i in range(d)]
    q = p ** (k1 - 1)
    det = _poly_det(
        [[[int(i == j), -a_p * c1[i][j], q * c2[i][j]] for j in range(d)] for i in range(d)]
    )
    return tuple(det) + (0,) * (2 * d + 1 - len(det))


PRIMES = primes_up_to(10_000)


@st.composite
def lift_data(draw):
    """(k, p, a_p, lam, lam2): a_p and the degree-2 data either within the
    Deligne bound (degree-2 data of Saito-Kurokawa type) or arbitrary."""
    k = draw(st.integers(2, 200)) * 2
    p = draw(st.sampled_from(PRIMES))
    big = st.integers(-(2**4000), 2**4000)
    if draw(st.booleans()):
        bound = isqrt(4 * p ** (k - 3))
        a_p = draw(st.integers(-bound, bound))
    else:
        a_p = draw(big)
    if draw(st.booleans()):
        bound = isqrt(4 * p ** (2 * k - 3))
        a_g = draw(st.integers(-bound, bound))
        lam = modforms.sk_eigenvalue(k, p, a_g)
        lam2 = modforms.sk_eigenvalue_psquared(k, p, a_g)
    else:
        lam, lam2 = draw(big), draw(big)
    return k, p, a_p, lam, lam2


@settings(max_examples=60, deadline=None)
@given(lift_data())
@example((400, 9973, 2 * 9973**198, 0, 0))
@example((4, 2, 0, 0, 0))
def test_lift_route_matches_leibniz_and_tensor_routes(data):
    k, p, a_p, lam, lam2 = data
    gsp4 = gsp4_spin_factor_exact(k, p, lam, lam2)
    lifted = lifted_spin_factor_exact(k - 2, a_p, gsp4)
    assert lifted.coeffs == leibniz_lifted_factor(k - 2, a_p, gsp4.coeffs, p)
    assert lifted.coeffs == tensor_local_factor(gl2_factor_exact(k - 2, p, a_p), gsp4).coeffs
    assert_functional_equation(lifted, k - 2)


# ---------------------------------------------------------------- power-sum oracle

def power_sum_lifted_factor(k1: int, a_p: int, gsp4_coeffs, p: int) -> tuple:
    """The resultant P(r1 X) P(r2 X) expanded by a double loop over the
    power sums s_n = r1^n + r2^n, for a factor P of any degree d."""
    c = gsp4_coeffs
    d = len(c) - 1
    q = p ** (k1 - 1)
    s = [2, a_p]
    for _ in range(d - 1):
        s.append(a_p * s[-1] - q * s[-2])
    coeffs = [0] * (2 * d + 1)
    q_i = 1
    for i in range(d + 1):
        coeffs[2 * i] += c[i] * c[i] * q_i
        for j in range(i + 1, d + 1):
            coeffs[i + j] += c[i] * c[j] * q_i * s[j - i]
        q_i *= q
    return tuple(coeffs)


_ANY_COEFF = st.one_of(
    st.just(0),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**4000), 2**4000),
)


@settings(max_examples=60, deadline=None)
@given(
    k1=st.integers(1, 200).map(lambda n: 2 * n),
    p=st.sampled_from(PRIMES),
    a_p=_ANY_COEFF,
    rest=st.tuples(_ANY_COEFF, _ANY_COEFF, _ANY_COEFF, _ANY_COEFF),
)
@example(k1=2, p=2, a_p=0, rest=(0, 0, 0, 0))
@example(k1=12, p=2, a_p=-24, rest=(0, 0, 0, -1))
@example(k1=398, p=9973, a_p=-(2**4000), rest=(2**4000, -(2**4000), 1, 0))
def test_lift_kernel_matches_power_sum_oracle_on_any_degree4_factor(k1, p, a_p, rest):
    # Arbitrary exact degree-4 factors: zeros, negatives, 4000-bit entries,
    # shapes with no symmetry that gsp4_spin_factor_exact never builds.
    gsp4 = LocalFactor(p=p, coeffs=(1, *rest), rep="spin-2")
    lifted = lifted_spin_factor_exact(k1, a_p, gsp4)
    assert lifted.coeffs == power_sum_lifted_factor(k1, a_p, gsp4.coeffs, p)
    assert lifted.coeffs == tensor_local_factor(gl2_factor_exact(k1, p, a_p), gsp4).coeffs


# ---------------------------------------------------------------- functional equation

def assert_functional_equation(lifted, k1):
    """c_(8-j) = N^(4-j) c_j for N = q q_f = p^(k1-1) p^(2k1+1) = p^(3k1)."""
    n = lifted.p ** (3 * k1)
    c = lifted.coeffs
    assert [c[8 - j] for j in range(5)] == [n ** (4 - j) * c[j] for j in range(5)]


#: Ways to miss the shape (c3, c4) = (c1 q_f, q_f^2), q_f = p^(2k1+1), by
#: one step: (c3 offset, c4 offset, weight offset of q_f).
_NEAR_MISSES = {
    "c3 + 1": (1, 0, 0),
    "c3 - 1": (-1, 0, 0),
    "c4 + 1": (0, 1, 0),
    "c4 - 1": (0, -1, 0),
    "q_f of weight k1 + 4": (0, 0, 2),
    "q_f of weight k1": (0, 0, -2),
}


@settings(max_examples=60, deadline=None)
@given(
    k1=st.integers(1, 200).map(lambda n: 2 * n),
    p=st.sampled_from(PRIMES),
    a_p=_ANY_COEFF,
    c1=_ANY_COEFF,
    c2=_ANY_COEFF,
    miss=st.sampled_from([None, *_NEAR_MISSES]),
)
@example(k1=2, p=2, a_p=0, c1=0, c2=0, miss=None)  # tempered, certified
@example(k1=12, p=2, a_p=-24, c1=-(2**4000), c2=2**4000, miss=None)
@example(k1=12, p=3, a_p=252, c1=5, c2=-7, miss="c3 - 1")
@example(k1=398, p=9973, a_p=2**64, c1=-1, c2=-(2**4000), miss="c4 + 1")
@example(k1=2, p=2, a_p=1, c1=1, c2=1, miss="q_f of weight k1")
def test_functional_equation_branch_and_its_near_misses(k1, p, a_p, c1, c2, miss):
    # Degree-2 factors of the shape (c1 q_f, q_f^2) with arbitrary c1 and c2,
    # mostly neither Saito-Kurokawa nor tempered, take the functional
    # equation for X^5..X^8; a factor one step off the shape takes the
    # expansion, and no certificate.
    dc3, dc4, dk = _NEAR_MISSES.get(miss, (0, 0, 0))
    q_f = p ** (2 * (k1 + dk) + 1)
    gsp4 = LocalFactor(p=p, coeffs=(1, c1, c2, c1 * q_f + dc3, q_f * q_f + dc4), rep="spin-2")
    lifted = lifted_spin_factor_exact(k1, a_p, gsp4)
    assert lifted.coeffs == power_sum_lifted_factor(k1, a_p, gsp4.coeffs, p)
    assert lifted.coeffs == tensor_local_factor(gl2_factor_exact(k1, p, a_p), gsp4).coeffs
    if miss is None:
        assert_functional_equation(lifted, k1)
    else:
        assert lifted.root_exponent is None


def test_root_certificate_is_one_fraction_per_weight():
    f, g = (lift_route_spin_factor(stock_input(p)) for p in (2, 3))
    assert f.root_exponent == g.root_exponent == Fraction(37, 2)
    assert f.root_exponent is g.root_exponent


# ---------------------------------------------------------------- eigenvalue products

def test_verify_eigenvalue_product_modes():
    h, g = RECORDS["Delta.12.1"], RECORDS["SK.14.2"]
    assert verify_eigenvalue_product(h, g, 2) == -293760
    with pytest.raises(TypeError):
        verify_eigenvalue_product(h, g, 2, expected=-293760)
    with pytest.raises(ValueError):
        verify_eigenvalue_product(h, g, 11)
