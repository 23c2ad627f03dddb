import math
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinlift import localfactors, modforms
from spinlift.analytic import (
    DEFAULT_DELTA,
    AbscissaError,
    GammaProfile,
    critical_values,
    linf_rankin_selberg,
    linf_spin3,
    truncated_euler_product,
)
from spinlift.lifting import lifted_spin_factor_exact
from spinlift.localfactors import (
    LocalFactor,
    evaluate,
    gl2_factor_exact,
    gsp4_spin_factor_exact,
)
from spinlift.primes import primes_up_to

from conftest import with_guarded_prime

DL = modforms.delta(512)
G26 = modforms.newform_weight26(512)


def delta_provider(p):
    return gl2_factor_exact(12, p, DL.coeffs[p])


def lifted_provider(p):
    a_g = G26.coeffs[p]
    gsp4 = gsp4_spin_factor_exact(
        14, p, modforms.sk_eigenvalue(14, p, a_g), modforms.sk_eigenvalue_psquared(14, p, a_g)
    )
    return lifted_spin_factor_exact(12, DL.coeffs[p], gsp4)


# ---------------------------------------------------------------- profiles

def test_spin3_profile():
    prof = linf_spin3(14)
    assert prof.shifts == (-13, -12, -11, 0)
    assert prof.center == 37
    assert prof.center % 2 == 1
    assert len(prof.shifts) == 4


def test_spin3_rejects_bad_weights():
    for k in (11, 10, 0):
        with pytest.raises(ValueError):
            linf_spin3(k)


def test_rankin_selberg_profile():
    prof = linf_rankin_selberg(12, 14)
    assert prof.shifts == (-13, -12, -11, 0)
    assert prof.center == 37
    assert prof.prefactor_rational == Fraction(1, 8)
    assert prof.prefactor_two_pi_exponent == 4 - 2 * 14 - 12


def test_rankin_selberg_validation():
    with pytest.raises(ValueError):
        linf_rankin_selberg(16, 14)
    with pytest.raises(ValueError):
        linf_rankin_selberg(11, 13)


def test_profile_multiset_identity_sweep():
    for k in range(12, 62, 2):
        spin = linf_spin3(k)
        rs = linf_rankin_selberg(k - 2, k)
        assert spin.shifts == rs.shifts
        assert spin.center == rs.center
        assert 3 * k - 5 == (k - 2) + 2 * k - 3


def test_profiles_match_the_hand_coded_tables():
    # Serre's recipe on the Hodge types against the hand-coded tables as oracle.
    for k in range(12, 401, 2):
        prof = linf_spin3(k)
        assert prof.shifts == tuple(sorted((3 - k, 2 - k, 1 - k, 0))), k
        assert prof.center == 3 * k - 5
        assert (prof.prefactor_rational, prof.prefactor_two_pi_exponent) == (1, 0)
    for k1 in range(4, 80, 2):
        for k2 in range(k1, 80, 2):
            prof = linf_rankin_selberg(k1, k2)
            assert prof.shifts == tuple(sorted((0, 1 - k2, 2 - k2, 1 - k1))), (k1, k2)
            assert prof.center == k1 + 2 * k2 - 3
            assert prof.prefactor_rational == Fraction(1, 8)
            assert prof.prefactor_two_pi_exponent == 4 - 2 * k2 - k1


@pytest.mark.parametrize("k2", [2, 14, 40])
def test_rankin_selberg_at_weight_two_has_a_middle_pair(k2):
    # (0, 1) x (k2-1, k2-2) gives the pair (k2-1, k2-1), which needs Gamma_R.
    with pytest.raises(ValueError, match=rf"^middle Hodge pair \({k2 - 1},{k2 - 1}\)"):
        linf_rankin_selberg(2, k2)


def test_profile_validation():
    with pytest.raises(ValueError):
        GammaProfile(shifts=(), center=0)
    with pytest.raises(ValueError):
        GammaProfile(shifts=(0,), center=0, prefactor_rational=Fraction(-1))


# ---------------------------------------------------------------- critical values

def test_critical_values_weight14():
    vals = critical_values(14)
    assert vals == list(range(14, 24))
    assert len(vals) == 10


def test_critical_values_weight12():
    assert critical_values(12) == list(range(12, 20))


def test_critical_values_reflection():
    k = 16
    vals = critical_values(k)
    center = 3 * k - 5
    assert center - min(vals) == max(vals)
    assert {center - m for m in vals} == set(vals)


def test_critical_values_sweep_matches_closed_form():
    # Deligne's criterion on hodge_gsp6(k) against the closed form.
    for k in range(12, 401, 2):
        assert critical_values(k) == list(range(k, 2 * k - 4))


def scanned_critical_values(k):
    """Integers m in a window wide enough to hold them all at which
    Gamma(m + d) and Gamma(3k - 5 - m + d) are finite for every shift d of
    {0, 1-k, 2-k, 3-k}, found by trying each m."""
    shifts = (0, 1 - k, 2 - k, 3 - k)
    return [
        m for m in range(-4 * k, 4 * k + 1)
        if all(m + d >= 1 and 3 * k - 5 - m + d >= 1 for d in shifts)
    ]


def test_critical_values_match_the_pole_scan():
    for k in range(12, 201, 2):
        assert critical_values(k) == scanned_critical_values(k), k


def test_critical_values_at_a_large_weight():
    k = 10**6
    assert critical_values(k) == list(range(k, 2 * k - 4))


# ---------------------------------------------------------------- abscissa

def test_convergence_abscissa_values():
    # The abscissa a truncated product demands is weight/2 + 1: (k + 1)/2 for
    # an elliptic form of weight k, 3k/2 - 2 for the lift at weight 3k - 6.
    for provider, weight, sharp in (
        (delta_provider, 11, (12 + 1) / 2),
        (lifted_provider, 3 * 14 - 6, 3 * 14 / 2 - 2),
    ):
        assert weight / 2 + 1 == sharp
        with pytest.raises(AbscissaError, match=f"convergence abscissa {sharp + DEFAULT_DELTA}"):
            truncated_euler_product(provider, sharp, 10, weight)


# ---------------------------------------------------------------- Euler products

def test_delta_euler_product_small_tail():
    result = truncated_euler_product(delta_provider, 12, 100, 11)
    assert result.tail_bound < 1e-3
    assert result.violations == ()
    assert abs(result.value.imag) <= 1e-12
    assert 0 < result.value.real < 2


def test_delta_euler_product_doubling_soundness():
    for bound in (50, 100):
        small = truncated_euler_product(delta_provider, 12, bound, 11)
        large = truncated_euler_product(delta_provider, 12, 2 * bound, 11)
        assert abs(large.value - small.value) < small.tail_bound


def test_lifted_euler_product_reports_root_excess():
    result = truncated_euler_product(lifted_provider, 23, 50, 36)
    # Certified, not observed: 37/2 exactly, at every prime.
    assert result.root_exponent == 18.5
    assert result.abscissa == 18.5 + 1 + DEFAULT_DELTA
    assert result.violations == tuple((p, 18.5) for p in primes_up_to(50))
    assert result.tail_bound > 0
    assert abs(result.value) > 0


def test_lifted_euler_product_abscissa_guard():
    with pytest.raises(AbscissaError):
        truncated_euler_product(lifted_provider, 18, 50, 36)
    # above the nominal abscissa but below the observed root exponent + 1
    with pytest.raises(AbscissaError):
        truncated_euler_product(lifted_provider, 19.2, 50, 36)


@pytest.mark.parametrize(
    "s", [math.nan, math.inf, -math.inf, complex(23, math.inf), complex(23, math.nan)]
)
def test_euler_product_rejects_nonfinite_s(s):
    with pytest.raises(AbscissaError, match="finite"):
        truncated_euler_product(lifted_provider, s, 50, 36)


def test_euler_product_far_right_is_one():
    # p^(-s) underflows at every prime: the product is exactly 1, and p^s
    # is never built exactly.
    def guarded(p):
        return with_guarded_prime(lifted_provider(p))

    result = truncated_euler_product(guarded, 1e308, 50, 36)
    assert result.value == 1 and result.tail_bound == 0


@pytest.mark.parametrize(
    "s,value,tail",
    [
        (23 + 7j, "(0.9956149171840173-0.03939139466353594j)", "7.228063223242238e-11"),
        (27 - 40j, "(1.0019319159957885-0.0011437973718297033j)", "3.373096170846271e-23"),
    ],
)
def test_lift_euler_product_at_complex_s_is_pinned(s, value, tail):
    # The lvalue command takes a real s only, so its goldens cannot reach
    # these points: all 168 primes up to 1000, bit for bit.
    records = {r.label: r for r in modforms.fixture_records(1000)}
    h, g = records["Delta.12.1"], records["SK.14.2"]

    def provider(p):
        gsp4 = localfactors.spin_factor_from_record(g, p)
        return lifted_spin_factor_exact(h.weight, h.lambda_p(p), gsp4)

    result = truncated_euler_product(provider, s, 1000, 36)
    assert (repr(result.value), repr(result.tail_bound)) == (value, tail)
    assert len(result.violations) == 168


def test_euler_product_input_validation():
    with pytest.raises(ValueError):
        truncated_euler_product(delta_provider, 12, 1, 11)

    def bad_provider(p):
        return gl2_factor_exact(12, 2, -24)

    with pytest.raises(ValueError):
        truncated_euler_product(bad_provider, 12, 10, 11)


# --------------------------------------------------- certified root exponents only

WEIGHT = 36
HALF = Fraction(WEIGHT, 2)
# Above weight/2 by less than a double resolves: its float is exactly 18.0.
JUST_ABOVE = HALF + Fraction(1, 2**60)
JUST_BELOW = HALF - Fraction(1, 2**60)


def uncertified(f):
    """The same factor without its root certificate."""
    return LocalFactor(f.p, f.coeffs, f.rep)


def certified(f, root_exponent):
    """The same factor with the given root certificate."""
    return LocalFactor(f.p, f.coeffs, f.rep, root_exponent)


def copy_of(e):
    """A certificate equal to e but a distinct Fraction object."""
    return Fraction(e.numerator, e.denominator)


def oracle_euler_product(factors, weight):
    """The smallest prime whose factor has inverse roots but no certificate,
    or else (root_exponent, violations, abscissa) from the certificates,
    with violations decided by Fraction comparison."""
    for f in factors:
        if f.root_exponent is None and any(f.coeffs[1:]):
            return f.p
    exponents = [(f.p, f.root_exponent) for f in factors if f.root_exponent is not None]
    exponent = max([weight / 2, *(float(e) for _, e in exponents)])
    violations = tuple((p, float(e)) for p, e in exponents if e > Fraction(weight, 2))
    return exponent, violations, exponent + 1 + DEFAULT_DELTA


@st.composite
def factor_plans(draw, p):
    """One factor at p: an exact lift factor with its shared certificate,
    an equal copy of it or none; integer coefficients of degree 0..8, with
    zero top coefficients, and a certificate near weight/2 (shared or a
    copy) or none; or a constant, with or without a certificate."""
    kind = draw(st.sampled_from(["lift", "exact", "constant"]))
    if kind == "lift":
        f = lifted_provider(p)
        return draw(st.sampled_from([f, certified(f, copy_of(f.root_exponent)), uncertified(f)]))
    shared = st.sampled_from([HALF, JUST_ABOVE, JUST_BELOW, HALF + Fraction(1, 2)])
    certificate = draw(st.one_of(
        st.none(),
        shared,
        shared.map(copy_of),
        st.fractions(HALF - 2, HALF + 2, max_denominator=12),
    ))
    zeros = draw(st.integers(0, 3))
    if kind == "exact":
        d = draw(st.integers(0, 8))
        coeffs = draw(st.lists(
            st.one_of(st.just(0), st.integers(-(2**64), 2**64)), min_size=d, max_size=d
        ))
        return LocalFactor(p, (1, *coeffs, *[0] * zeros), "exact", certificate)
    return LocalFactor(p, (1, *[0] * zeros), "constant", certificate)


def constants_except(factors):
    """The given factors, and the constant factor at every other prime up to
    the largest given one."""
    return {
        p: factors.get(p) or LocalFactor(p=p, coeffs=(1,), rep="constant")
        for p in primes_up_to(max(factors))
    }


@st.composite
def mixed_providers(draw):
    bound = draw(st.integers(2, 100))
    return {p: draw(factor_plans(p)) for p in primes_up_to(bound)}


def _check_against_oracle(factors, imag):
    expected = oracle_euler_product(factors.values(), WEIGHT)
    if isinstance(expected, int):
        with pytest.raises(AbscissaError, match=f"at p={expected} has no certified root exponent"):
            truncated_euler_product(factors.__getitem__, complex(1e3, imag), max(factors), WEIGHT)
        return None
    exponent, violations, abscissa = expected
    s = complex(abscissa + 0.5, imag)
    result = truncated_euler_product(factors.__getitem__, s, max(factors), WEIGHT)
    assert result.root_exponent == exponent
    assert result.violations == violations
    assert result.abscissa == abscissa
    value = complex(1)
    for f in factors.values():
        value *= evaluate(f, s)
    assert result.value == value
    return result


@settings(max_examples=60, deadline=None)
@given(factors=mixed_providers(), imag=st.floats(-50, 50))
@example(
    factors={
        2: lifted_provider(2),
        3: certified(delta_provider(3), JUST_ABOVE),
        5: LocalFactor(p=5, coeffs=(1, 5, 0, 0), rep="exact", root_exponent=HALF),
        7: LocalFactor(p=7, coeffs=(1, 2, 0), rep="exact"),
        11: LocalFactor(p=11, coeffs=(1,), rep="constant"),
    },
    imag=0.0,
)
@example(
    factors=constants_except({
        79: LocalFactor(p=79, coeffs=(1, 0, 0), rep="exact"),
        83: uncertified(lifted_provider(83)),
        89: LocalFactor(p=89, coeffs=(1, 1), rep="exact"),
    }),
    imag=0.0,
)
@example(
    # Equal certificates as distinct objects, alternating with shared ones
    # and with constants: a certificate is read again whenever its object
    # differs from the previous factor's.
    factors={
        2: lifted_provider(2),
        3: certified(lifted_provider(3), copy_of(lifted_provider(3).root_exponent)),
        5: LocalFactor(p=5, coeffs=(1,), rep="constant"),
        7: lifted_provider(7),
        11: certified(delta_provider(11), copy_of(HALF)),
        13: certified(delta_provider(13), HALF),
        17: LocalFactor(p=17, coeffs=(1, 0), rep="constant", root_exponent=copy_of(JUST_ABOVE)),
        19: certified(delta_provider(19), copy_of(JUST_ABOVE)),
        23: certified(delta_provider(23), JUST_ABOVE),
        29: LocalFactor(p=29, coeffs=(1, 0), rep="constant"),
        31: certified(delta_provider(31), JUST_ABOVE),
        37: certified(delta_provider(37), copy_of(HALF)),
        41: lifted_provider(41),
    },
    imag=0.0,
)
@example(
    # The largest exponent arrives last, after copies below and above
    # weight/2, each followed by the shared object of the same value.
    factors={
        2: certified(delta_provider(2), copy_of(JUST_BELOW)),
        3: certified(delta_provider(3), JUST_BELOW),
        5: certified(delta_provider(5), copy_of(JUST_ABOVE)),
        7: certified(delta_provider(7), JUST_ABOVE),
        11: LocalFactor(p=11, coeffs=(1,), rep="constant"),
        13: certified(lifted_provider(13), copy_of(HALF + Fraction(1, 2))),
    },
    imag=-7.5,
)
def test_euler_product_over_mixed_certificates(factors, imag):
    _check_against_oracle(factors, imag)


def test_stacked_root_check_matches_per_factor_np_roots():
    # The product's root exponent and violations over the lift's certified
    # factors agree with one np.roots call per factor.  Every factor is SK
    # within the Deligne bounds, where np.roots drifts by up to about 1e-4.
    factors = {p: lifted_provider(p) for p in primes_up_to(50)}
    result = _check_against_oracle(factors, 0.0)
    observed = {p: max(np_roots_exponents(f, WEIGHT)) for p, f in factors.items()}
    assert all(abs(observed[p] - f.root_exponent) <= 1e-3 for p, f in factors.items())
    assert abs(result.root_exponent - max(observed.values())) <= 1e-3
    assert [p for p, _ in result.violations] == [p for p, e in observed.items() if e > HALF]


def test_root_lost_to_float_range_is_abscissa_error():
    # True exponent about 50 at p = 2, weight 36: the rescaled polynomial's
    # root for it underflows and LAPACK returns exactly 0, where np.roots'
    # log raises a bare "math domain error".  Without a certificate the
    # factor is refused all the same.
    f = LocalFactor(p=2, coeffs=(1, 0, 0, 0, 0, 2**50 - 3, 1), rep="exact")
    with pytest.raises(ValueError, match="math domain error"):
        np_roots_exponents(f, WEIGHT)
    with pytest.raises(AbscissaError, match="p=2 has no certified root exponent"):
        truncated_euler_product(lambda p: f, 1e3, 2, WEIGHT)


def test_uncertified_lift_factors_are_refused_at_the_smallest_prime():
    factors = {
        p: uncertified(lifted_provider(p)) if p % 3 == 1 else lifted_provider(p)
        for p in primes_up_to(50)
    }
    assert oracle_euler_product(factors.values(), WEIGHT) == 7
    _check_against_oracle(factors, 0.0)
    # A mismatched prime is still a ValueError, raised while fetching.
    with pytest.raises(ValueError, match="returned prime 7 for 11"):
        truncated_euler_product(lambda p: factors[min(p, 7)], 23, 50, WEIGHT)


def test_root_exponent_above_half_weight_is_a_violation_exactly():
    factors = {
        2: certified(delta_provider(2), JUST_ABOVE),
        3: certified(delta_provider(3), HALF),
        5: certified(delta_provider(5), JUST_BELOW),
    }
    result = _check_against_oracle(factors, 0.0)
    assert result.violations == ((2, 18.0),)
    assert result.root_exponent == 18.0


@pytest.mark.parametrize(
    "constant",
    [
        LocalFactor(p=2, coeffs=(1,), rep="constant"),
        LocalFactor(p=2, coeffs=(1, 0, 0), rep="constant"),
    ],
)
def test_constant_factors_add_no_root_exponent(constant):
    def provider(p):
        if p % 4 == 3:
            return delta_provider(p)
        return LocalFactor(p=p, coeffs=constant.coeffs, rep="constant")

    result = truncated_euler_product(provider, 12, 50, 11)
    deltas = [delta_provider(p) for p in primes_up_to(50) if p % 4 == 3]
    assert all(f.root_exponent == Fraction(11, 2) for f in deltas)
    assert result.root_exponent == 5.5
    assert result.violations == ()
    assert result.abscissa == 5.5 + 1 + DEFAULT_DELTA
    value = complex(1)
    for f in deltas:
        value *= evaluate(f, 12)
    assert result.value == value

    only_constants = truncated_euler_product(
        lambda p: LocalFactor(p=p, coeffs=constant.coeffs, rep="constant"),
        12, 50, 11,
    )
    assert only_constants.value == 1 and only_constants.root_exponent == 5.5


def test_elliptic_factor_past_the_deligne_bound_is_refused():
    bound = isqrt(4 * 2**11)
    assert gl2_factor_exact(12, 2, bound).root_exponent == Fraction(11, 2)
    assert gl2_factor_exact(12, 2, -bound - 1).root_exponent is None
    with pytest.raises(AbscissaError, match="at p=2 has no"):
        truncated_euler_product(lambda p: gl2_factor_exact(12, p, bound + 1), 12, 50, 11)


# ------------------------------------------------ certified root exponents

def np_roots_exponents(factor, weight):
    """Base-p log moduli of the factor's inverse roots by one np.roots call
    on the p^(weight/2)-rescaled polynomial: the float oracle the root
    certificates are checked against."""
    half = weight / 2
    lnp = math.log(factor.p)
    scaled = []
    for j, c in enumerate(factor.coeffs):
        if c == 0:
            scaled.append(0.0)
        else:
            sign = 1.0 if c > 0 else -1.0
            scaled.append(sign * math.exp(math.log(abs(c)) - j * half * lnp))
    return [half - math.log(abs(y)) / lnp for y in np.roots(scaled[::-1])]


GRID_PRIMES = primes_up_to(10_000)
BIG = st.integers(-(2**4000), 2**4000)


@st.composite
def sk_lift_data(draw):
    """(k1, k, p, a_p, lam, lam2) on the lift-route grid (even k <= 400,
    primes <= 10^4): a_p within the Deligne bound or arbitrary; degree-2
    data of Saito-Kurokawa type with b within the Deligne bound or
    arbitrary, with lambda_{p^2} moved off the split, tempered (the spin
    factor (1 - xX + rX^2)(1 - yX + rX^2) with r = p^(2k-3) and integers
    x^2, y^2 <= 4r, its X^2 coefficient then moved by at most 2), or
    arbitrary; and mostly k1 = k - 2."""
    k = draw(st.integers(2, 200)) * 2
    p = draw(st.sampled_from(GRID_PRIMES))
    k1 = draw(st.sampled_from([k - 2] * 4 + [k, k + 2]))
    if draw(st.booleans()):
        bound = isqrt(4 * p ** (k - 3))
        a_p = draw(st.integers(-bound, bound))
    else:
        a_p = draw(BIG)
    kind = draw(st.sampled_from(["sk", "sk_any", "moved", "tempered", "arbitrary"]))
    if kind == "arbitrary":
        return k1, k, p, a_p, draw(BIG), draw(BIG)
    if kind == "tempered":
        r = p ** (2 * k - 3)
        x, y = draw(st.lists(st.integers(-isqrt(4 * r), isqrt(4 * r)), min_size=2, max_size=2))
        c2 = 2 * r + x * y + draw(st.integers(-2, 2))
        return k1, k, p, a_p, x + y, (x + y) ** 2 - c2 - p ** (2 * k - 4)
    if kind == "sk_any":
        b = draw(BIG)
    else:
        bound = isqrt(4 * p ** (2 * k - 3))
        b = draw(st.integers(-bound, bound))
    lam2 = modforms.sk_eigenvalue_psquared(k, p, b)
    if kind == "moved":
        lam2 += draw(st.integers(-(2**64), 2**64).filter(bool))
    return k1, k, p, a_p, modforms.sk_eigenvalue(k, p, b), lam2


def tempered_oracle(lam, c2, r):
    """Whether t^2 - lam t + (c2 - 2r), whose roots x, y give the spin factor
    (1 - xX + rX^2)(1 - yX + rX^2), has real roots of modulus at most
    2 r^(1/2): with D its discriminant, D >= 0 and (|lam| + D^(1/2))^2 <= 16r,
    squared out over the integers."""
    d = lam * lam - 4 * (c2 - 2 * r)
    e = 16 * r - lam * lam - d
    return d >= 0 and e >= 0 and 4 * lam * lam * d <= e * e


K400_BOUNDARY = (
    398, 400, 3, isqrt(4 * 3**397),
    modforms.sk_eigenvalue(400, 3, isqrt(4 * 3**797)),
    modforms.sk_eigenvalue_psquared(400, 3, isqrt(4 * 3**797)),
)


def _tempered_data(k, p, a_p, lam, c2):
    return k - 2, k, p, a_p, lam, lam * lam - c2 - p ** (2 * k - 4)


@settings(max_examples=80, deadline=None)
@given(sk_lift_data())
@example((12, 14, 2, -24, modforms.sk_eigenvalue(14, 2, -48),
          modforms.sk_eigenvalue_psquared(14, 2, -48)))
@example(K400_BOUNDARY)
@example(K400_BOUNDARY[:5] + (K400_BOUNDARY[5] + 1,))
@example((12, 14, 2, isqrt(4 * 2**11) + 1, modforms.sk_eigenvalue(14, 2, 0),
          modforms.sk_eigenvalue_psquared(14, 2, 0)))
@example((12, 14, 2, 0, modforms.sk_eigenvalue(14, 2, isqrt(4 * 2**25) + 1),
          modforms.sk_eigenvalue_psquared(14, 2, isqrt(4 * 2**25) + 1)))
# Tempered, r = 2^25: (1 - rX^2)^2 on the boundary x = -y = 2 r^(1/2), and
# just past it; x = y = 0, where with a_p = 0 the eight lifted roots
# coincide in fours; x + y = isqrt(4r), xy = 1 with a_p on its bound.
@example(_tempered_data(14, 2, 0, 0, -2 * 2**25))
@example(_tempered_data(14, 2, 0, 0, -2 * 2**25 - 1))
@example(_tempered_data(14, 2, 0, 0, 2 * 2**25))
@example(_tempered_data(14, 2, isqrt(4 * 2**11), isqrt(4 * 2**25), 2 * 2**25 + 1))
def test_lift_root_certificate_matches_np_roots(data):
    k1, k, p, a_p, lam, lam2 = data
    gsp4 = gsp4_spin_factor_exact(k, p, lam, lam2)
    f = lifted_spin_factor_exact(k1, a_p, gsp4)
    # modforms' own division by the two linear factors decides the split.
    b = modforms.sk_component_eigenvalue(k, p, lam, lam2)
    q, q_f = p ** (k1 - 1), p ** (2 * k - 3)
    sk = b is not None and b * b <= 4 * q_f
    if k1 != k - 2 or a_p * a_p > 4 * q or not (sk or tempered_oracle(lam, gsp4.coeffs[2], q_f)):
        assert f.root_exponent is None
        return
    assert f.root_exponent == (Fraction(3 * k1 + 1, 2) if sk else Fraction(3 * k1, 2))
    observed = max(np_roots_exponents(f, 3 * k - 6))
    # The certificate is a half-integer, so any tolerance below 1/4 singles
    # it out.  SK: at the Deligne boundary the largest inverse roots nearly
    # coincide and np.roots drifts by up to about 1e-4 (8.6e-5 seen at
    # k = 368, p = 2); with a_p^2 <= 3q and b^2 <= 3q_f (about 30 degrees
    # off the real axis) the drift stayed below 4e-11.  Tempered: all eight
    # lifted roots lie on one circle and can nearly coincide up to eightfold,
    # which np.roots resolves only to about the eighth root of its rounding
    # error (0.07 seen at p = 2 with a_p and x = y on their bounds).
    if not sk:
        tol = 0.2
    else:
        tol = 1e-9 if a_p * a_p <= 3 * q and b * b <= 3 * q_f else 1e-3
    assert abs(observed - f.root_exponent) <= tol


@pytest.mark.parametrize("j", [2, 3, 4])
def test_lift_root_certificate_needs_the_whole_split(j):
    # Degree-2 data of SK.14.2 at p = 2 with one coefficient moved: c1
    # still gives b = -48, but the factor no longer splits.
    gsp4 = gsp4_spin_factor_exact(14, 2, modforms.sk_eigenvalue(14, 2, -48),
                                  modforms.sk_eigenvalue_psquared(14, 2, -48))
    assert lifted_spin_factor_exact(12, -24, gsp4).root_exponent == Fraction(37, 2)
    coeffs = list(gsp4.coeffs)
    coeffs[j] += 1
    moved = LocalFactor(p=2, coeffs=tuple(coeffs), rep="spin-2")
    assert lifted_spin_factor_exact(12, -24, moved).root_exponent is None
