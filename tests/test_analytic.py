import math
from fractions import Fraction

import mpmath
import pytest

from spinlift import localfactors, modforms
from spinlift.analytic import (
    AbscissaError,
    GammaProfile,
    convergence_abscissa,
    critical_values,
    deligne_normalize,
    gamma_c,
    linf_rankin_selberg,
    linf_spin3,
    truncated_euler_product,
)
from spinlift.lifting import lifted_spin_factor_exact
from spinlift.localfactors import PoleError, gl2_factor_exact, gsp4_spin_factor_exact
from spinlift.primes import primes_up_to

DL = modforms.delta(512)
G26 = modforms.newform_weight26(512)


def delta_provider(p):
    return gl2_factor_exact(12, p, DL.integer_coefficient(p))


def lifted_provider(p):
    a_g = G26.integer_coefficient(p)
    gsp4 = gsp4_spin_factor_exact(
        14, p, modforms.sk_eigenvalue(14, p, a_g), modforms.sk_eigenvalue_psquared(14, p, a_g)
    )
    return lifted_spin_factor_exact(12, DL.integer_coefficient(p), gsp4)


# ---------------------------------------------------------------- gamma factor

def test_gamma_c_values():
    assert abs(gamma_c(1) - 1 / math.pi) <= 1e-14
    assert abs(gamma_c(2) - 2 * (2 * math.pi) ** -2) <= 1e-14
    assert abs(gamma_c(0.5) - 2 * (2 * math.pi) ** -0.5 * math.sqrt(math.pi)) <= 1e-14


def test_gamma_c_poles():
    for s in (0, -1, -2, -7):
        with pytest.raises(PoleError):
            gamma_c(s)


def test_gamma_c_recurrence_grid():
    points = [0.3, 1.0, 2.5, 7.25, 0.5 + 3j, 4.0 - 2.5j, 11.5]
    for s in points:
        lhs = gamma_c(s + 1)
        rhs = s / (2 * math.pi) * gamma_c(s)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_gamma_c_matches_mpmath_grid():
    # Re s in [-10, 20) by 1/4 and |Im s| <= 10 by 1/2, poles excluded:
    # both the real (math.gamma) and the complex (Lanczos and reflection)
    # branches against 50-digit arithmetic.
    with mpmath.workdps(50):
        worst = 0.0
        for i in range(-40, 80):
            for j in range(-20, 21):
                s = complex(i / 4, j / 2)
                if j == 0 and i <= 0 and i % 4 == 0:
                    continue
                z = mpmath.mpc(s.real, s.imag)
                ref = 2 * (2 * mpmath.pi) ** (-z) * mpmath.gamma(z)
                err = abs(mpmath.mpc(gamma_c(s)) - ref) / abs(ref)
                worst = max(worst, float(err))
    assert worst <= 3e-14


def test_gamma_c_overflow_raises():
    with pytest.raises(OverflowError):
        gamma_c(200)


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


def test_profile_value_at_uses_prefactor():
    prof = GammaProfile(shifts=(0,), center=1, prefactor_rational=Fraction(1, 2))
    assert abs(prof.value_at(1) - 0.5 * gamma_c(1)) <= 1e-15


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
    for k in range(12, 62, 2):
        assert critical_values(k) == list(range(k, 2 * k - 4))


# ---------------------------------------------------------------- normalization

def test_deligne_normalize_exponents():
    k = 14
    assert deligne_normalize(k, k, math.pi ** (k + 6), 1.0) == pytest.approx(1.0)
    m = 2 * k - 5
    assert 4 * m - 3 * k + 6 == 56
    assert deligne_normalize(m, k, math.pi**56, 1.0) == pytest.approx(1.0)


def test_deligne_normalize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        deligne_normalize(13, 14, 1.0, 1.0)
    with pytest.raises(ValueError):
        deligne_normalize(14, 14, 1.0, 0.0)


def test_convergence_abscissa_values():
    assert convergence_abscissa(3, 14) == 19
    assert convergence_abscissa(1, 12) == 6.5
    assert convergence_abscissa(2, 14) == 13
    assert convergence_abscissa(2, 14, ramanujan=False) == 3
    assert convergence_abscissa(3, 14, ramanujan=False) == 4
    with pytest.raises(ValueError):
        convergence_abscissa(4, 14)


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
    assert result.root_exponent == pytest.approx(18.5, abs=1e-6)
    assert len(result.violations) == len(primes_up_to(50))
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


def test_euler_product_far_right_is_one(monkeypatch):
    # p^(-s) underflows at every prime: the product is exactly 1, and p^s
    # is never built exactly.
    def no_exact_route(*args):
        raise AssertionError("exact route taken at a huge integer point")

    monkeypatch.setattr(localfactors, "_exact_value_at_integer", no_exact_route)
    result = truncated_euler_product(lifted_provider, 1e308, 50, 36)
    assert result.value == 1 and result.tail_bound == 0


def test_euler_product_input_validation():
    with pytest.raises(ValueError):
        truncated_euler_product(delta_provider, 12, 1, 11)
    with pytest.raises(ValueError):
        truncated_euler_product(delta_provider, 12, 10, 11, delta=0)

    def bad_provider(p):
        return gl2_factor_exact(12, 2, -24)

    with pytest.raises(ValueError):
        truncated_euler_product(bad_provider, 12, 10, 11)
