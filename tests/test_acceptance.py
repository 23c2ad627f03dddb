"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import functools
import time

from spinlift import modforms
from spinlift.analytic import critical_values, linf_rankin_selberg, linf_spin3, truncated_euler_product
from spinlift.cuspidality import EisensteinKind, cuspidality_decision
from spinlift.hodge import weight_solver
from spinlift.lifting import (
    lift_input_from_records,
    lifted_spin_factor_exact,
    synthetic_lift_input,
    verify_tensor_identity,
)
from spinlift.localfactors import gsp4_spin_factor_exact

from conftest import (
    float_satake,
    hecke_eigenvalue,
    log_modulus,
    max_rel_diff,
    numeric_lift_route,
    numeric_tensor_route,
    random_lift_input,
    random_pair,
    ramanujan_check,
    saito_kurokawa_satake,
    satake_from_gl2,
    signed_permutation_orbit,
    spin_local_factor,
    theta_lift,
)


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{name}: FAIL")
                raise
            print(f"{name}: PASS")

        return wrapper

    return deco


@criterion("criterion 1 (eigenvalue identity, end to end)")
def test_criterion_1_miyawaki_identity():
    start = time.perf_counter()
    dl = modforms.delta(64)
    g26 = modforms.newform_weight26(64)
    tau2 = dl.coeffs[2]
    lam2_g = modforms.sk_eigenvalue(14, 2, g26.coeffs[2])
    product = tau2 * lam2_g
    elapsed = time.perf_counter() - start
    assert tau2 == -24
    assert lam2_g == 12240
    assert product == -293760
    assert product == -(2**7) * 2295
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion("criterion 2 (tensor identity, exact and the float oracle)")
def test_criterion_2_tensor_identity(rng):
    start = time.perf_counter()
    records = {r.label: r for r in modforms.fixture_records(7)}
    for p in (2, 3, 5):
        inp = lift_input_from_records(records["Delta.12.1"], records["SK.14.2"], p)
        report = verify_tensor_identity(inp, exact=True)
        assert report.ok, f"exact mismatch at p={p}"
        assert report.lift_coeffs == report.tensor_coeffs
    for _ in range(100):
        inp = random_lift_input(rng)
        assert verify_tensor_identity(inp, exact=True).ok, f"exact mismatch at {inp}"
        gl2, gsp4 = random_pair(rng)
        diff = max_rel_diff(numeric_lift_route(gl2, gsp4), numeric_tensor_route(gl2, gsp4))
        assert diff <= 1e-6, f"numeric mismatch {diff}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s"


@criterion("criterion 3 (weight rigidity)")
def test_criterion_3_weight_rigidity():
    solutions = weight_solver(8, 40)
    expected = tuple((K - 2, K, K) for K in range(10, 41, 2))
    assert solutions == expected


@criterion("criterion 4 (cuspidality sweep)")
def test_criterion_4_cuspidality():
    for k in range(6, 42, 2):
        for p in (2, 3, 5, 7):
            verdict = cuspidality_decision(synthetic_lift_input(k, p))
            assert verdict.cuspidal, f"not refuted at k={k}, p={p}"
            kinds = {c.kind for c in verdict.cases if c.refuted}
            assert kinds == {
                EisensteinKind.SIEGEL,
                EisensteinKind.KLINGEN_FROM_DEGREE2,
                EisensteinKind.KLINGEN_FROM_ELLIPTIC,
            }
    # weight-4 boundary: Siegel is refuted, but the degree-2 Klingen template
    # attains product modulus one (1/2 + 1/2 - 1 = 0), so k = 4 is not cuspidal
    verdict = cuspidality_decision(synthetic_lift_input(4, 2))
    assert [c.refuted for c in verdict.cases] == [True, False, True]
    assert not verdict.cuspidal


@criterion("criterion 5 (completion profile coherence)")
def test_criterion_5_gamma_profiles():
    for k in range(12, 62, 2):
        spin = linf_spin3(k)
        rs = linf_rankin_selberg(k - 2, k)
        assert spin.shifts == rs.shifts
        assert spin.center == rs.center == 3 * k - 5 == (k - 2) + 2 * k - 3


@criterion("criterion 6 (critical values)")
def test_criterion_6_critical_values():
    for k in range(12, 62, 2):
        assert critical_values(k) == list(range(k, 2 * k - 4))
    vals = critical_values(14)
    assert vals == list(range(14, 24)) and len(vals) == 10


@criterion("criterion 7 (unit-modulus and orbit invariance suite)")
def test_criterion_7_ramanujan_suite():
    delta_params = satake_from_gl2(12, 2, -24)
    sk_params = saito_kurokawa_satake(14, 2, -48)
    assert ramanujan_check(delta_params)
    assert not ramanujan_check(sk_params)
    # Chai-Faltings: some orbit image has |mu1 * mu2| = 1, by the test-side walk.
    assert any(
        abs(log_modulus(image.mu[0] * image.mu[1], 2)) <= 1e-9
        for image in signed_permutation_orbit(sk_params)
    )
    records = {r.label: r for r in modforms.fixture_records(7)}
    inp = lift_input_from_records(records["Delta.12.1"], records["SK.14.2"], 2)
    assert cuspidality_decision(inp).lift_detail["orbit_attains_product_modulus_one"]
    for sp in (delta_params, sk_params, theta_lift(*float_satake(inp))):
        lam = hecke_eigenvalue(sp)
        base = spin_local_factor(sp)
        orbit = signed_permutation_orbit(sp)
        assert len(orbit) <= 48
        for image in orbit:
            lam_image = hecke_eigenvalue(image)
            assert abs(lam_image - lam) <= 1e-9 * max(1.0, abs(lam))
            for x, y in zip(spin_local_factor(image), base):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


@criterion("criterion 8 (Euler product tail soundness)")
def test_criterion_8_euler_tail():
    start = time.perf_counter()
    dl = modforms.delta(512)
    g26 = modforms.newform_weight26(512)

    def provider(p):
        a_g = g26.coeffs[p]
        gsp4 = gsp4_spin_factor_exact(
            14,
            p,
            modforms.sk_eigenvalue(14, p, a_g),
            modforms.sk_eigenvalue_psquared(14, p, a_g),
        )
        return lifted_spin_factor_exact(12, dl.coeffs[p], gsp4)

    results = {
        bound: truncated_euler_product(provider, 23, bound, 36)
        for bound in (50, 100, 200, 400)
    }
    for bound in (50, 100, 200):
        moved = abs(results[2 * bound].value - results[bound].value)
        assert moved < results[bound].tail_bound, (
            f"P={bound}: moved {moved} vs bound {results[bound].tail_bound}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
