import cmath
import math
import random
from fractions import Fraction

import pytest

from spinlift import modforms
from spinlift.cuspidality import (
    LOG_TOL,
    EisensteinKind,
    EisensteinModel,
    _sign_sums,
    cuspidality_decision,
    eisenstein_params,
    modulus_exponent,
    standard_models,
    template_exponents,
)
from spinlift.lifting import LiftInput, lift_input_from_records, synthetic_lift_input, theta_lift
from spinlift.primes import primes_up_to
from spinlift.satake import SatakeParams, check_normalization, satake_from_gl2

from conftest import log_modulus, signed_permutation_orbit

RECORDS = {r.label: r for r in modforms.fixture_records(19)}
DELTA = satake_from_gl2(12, 2, -24)
SK14 = modforms.saito_kurokawa_satake(14, 2, -48)


def stock_input(p=2):
    return lift_input_from_records(RECORDS["Delta.12.1"], RECORDS["SK.14.2"], p)


def siegel_model(k, p):
    return EisensteinModel(EisensteinKind.SIEGEL, k, p)


def criterion(sp):
    """The decision's Chai-Faltings test, ``_sign_sums``, on any parameters."""
    exps = [modulus_exponent(x, sp.p) for x in sp.mu]
    return any(abs(s) <= LOG_TOL for s in _sign_sums(exps))


def orbit_product_exponents(sp):
    """log_p |mu1 * ... * mun| at every image of the test-side Weyl walk."""
    return [log_modulus(math.prod(image.mu), sp.p) for image in signed_permutation_orbit(sp)]


def oracle_attains(sp):
    return any(abs(e) <= LOG_TOL for e in orbit_product_exponents(sp))


def oracle_has_unit(sp):
    return any(abs(log_modulus(x, sp.p)) <= LOG_TOL for x in sp.mu)


# ---------------------------------------------------------------- Chai-Faltings

def test_chai_faltings_on_cusp_forms():
    for sp in (DELTA, SK14):
        assert criterion(sp) and oracle_attains(sp)


def test_chai_faltings_fails_on_siegel_template():
    sp = eisenstein_params(siegel_model(14, 2))
    assert not criterion(sp) and not oracle_attains(sp)


def test_chai_faltings_boundary_weight_four():
    # exponents 1, 2, 3 admit the signed sum 1 + 2 - 3 = 0
    sp = eisenstein_params(siegel_model(4, 2))
    assert criterion(sp) and oracle_attains(sp)


def test_chai_faltings_requires_weight_above_degree():
    # The criterion needs k > n = 3; neither a template nor a lift input
    # below weight 4 can be built.
    with pytest.raises(ValueError):
        siegel_model(2, 2)
    with pytest.raises(ValueError):
        synthetic_lift_input(2, 2)


def test_chai_faltings_is_orbit_invariant():
    assert {criterion(image) for image in signed_permutation_orbit(SK14)} == {True}


def test_chai_faltings_siegel_sweep():
    for k in range(6, 18, 2):
        for p in primes_up_to(100):
            sp = eisenstein_params(siegel_model(k, p))
            assert not criterion(sp) and not oracle_attains(sp)


def _assert_sign_sums_walk_the_orbit(model):
    """_sign_sums of the template exponents are the orbit's product exponents,
    each repeated n! times by the permutations."""
    sp = eisenstein_params(model)
    sums = _sign_sums(template_exponents(model))
    repeated = sorted(float(s) for s in sums for _ in range(math.factorial(sp.degree)))
    walked = sorted(orbit_product_exponents(sp))
    assert all(abs(x - y) <= 1e-6 for x, y in zip(repeated, walked, strict=True)), model
    assert any(abs(s) <= LOG_TOL for s in sums) == oracle_attains(sp), model


def _assert_lift_matches_oracle(inp, models=None):
    verdict = cuspidality_decision(inp, models)
    lifted = theta_lift(inp)
    detail = verdict.lift_detail
    assert detail["orbit_attains_product_modulus_one"] == oracle_attains(lifted), inp
    assert detail["has_unit_modulus_parameter"] == oracle_has_unit(lifted), inp
    return detail


def _off_deligne_inputs(rng, count):
    """Lift inputs whose moduli are off the Deligne bound: half-integer
    exponents (so products of modulus one occur) and generic real ones."""
    for i in range(count):
        k = rng.randrange(6, 40, 2)
        p = rng.choice([2, 3, 5, 7, 11])
        if i % 2:
            e1, e2, e3 = (rng.uniform(-3, 3) for _ in range(3))
        else:
            e1, e2, e3 = (rng.randint(-6, 6) / 2 for _ in range(3))

        def mu(e):
            return cmath.rect(p**e, rng.uniform(0, 2 * math.pi))

        yield LiftInput(
            gl2=SatakeParams(degree=1, weight=k - 2, p=p, mu0=p ** ((k - 3) / 2), mu=(mu(e3),)),
            gsp4=SatakeParams(degree=2, weight=k, p=p, mu0=p ** (k - 1.5), mu=(mu(e1), mu(e2))),
        )


def test_orbit_oracle_matches_the_decision():
    # The stock input at every default prime.
    for p in RECORDS["Delta.12.1"].primes():
        inp = stock_input(p)
        assert _assert_lift_matches_oracle(inp)["orbit_attains_product_modulus_one"]
        for model in standard_models(inp):
            _assert_sign_sums_walk_the_orbit(model)
    # Synthetic input across weights and primes, where doubles hold it.
    checked = 0
    for k in range(6, 62, 2):
        for p in (2, 3, 5, 7, 11, 13, 97):
            try:
                inp = synthetic_lift_input(k, p)
                models = standard_models(inp)
                for model in models:
                    eisenstein_params(model)
            except OverflowError:
                continue
            for model in models:
                _assert_sign_sums_walk_the_orbit(model)
            assert _assert_lift_matches_oracle(inp, models)["orbit_attains_product_modulus_one"]
            checked += 1
    assert checked > 180
    # Siegel templates: the weight-4 boundary attains, higher weights never do.
    _assert_sign_sums_walk_the_orbit(siegel_model(4, 2))
    assert oracle_attains(eisenstein_params(siegel_model(4, 2)))
    for k in range(6, 18, 2):
        for p in primes_up_to(100):
            _assert_sign_sums_walk_the_orbit(siegel_model(k, p))
    # Parameters off the Deligne bound, both outcomes of each fact.
    seen = set()
    for inp in _off_deligne_inputs(random.Random(20110), 200):
        detail = _assert_lift_matches_oracle(inp, [])
        seen.add(
            (detail["has_unit_modulus_parameter"], detail["orbit_attains_product_modulus_one"])
        )
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# ---------------------------------------------------------------- lifted constraint

def test_lifted_mu_constraint_examples():
    # The decision's unit-modulus fact about the lift.
    def has_unit(inp):
        return _assert_lift_matches_oracle(inp, [])["has_unit_modulus_parameter"]

    assert has_unit(stock_input())
    ones = LiftInput(
        gl2=SatakeParams(degree=1, weight=12, p=2, mu0=1, mu=(1,)),
        gsp4=SatakeParams(degree=2, weight=14, p=2, mu0=1, mu=(1, 1)),
    )
    assert has_unit(ones)
    # non-unit second parameter: huge real eigenvalue splits the roots
    skew = LiftInput(
        gl2=satake_from_gl2(12, 2, 5000),
        gsp4=modforms.saito_kurokawa_satake(14, 2, -48),
    )
    assert not has_unit(skew)


# ---------------------------------------------------------------- templates

def test_eisenstein_params_siegel():
    sp = eisenstein_params(siegel_model(14, 2))
    assert sp.mu == (2**11, 2**12, 2**13)
    assert check_normalization(sp)


def test_eisenstein_params_klingen_elliptic():
    gl2 = satake_from_gl2(12, 2, -24)
    model = EisensteinModel(EisensteinKind.KLINGEN_FROM_ELLIPTIC, 14, 2, gl2)
    sp = eisenstein_params(model)
    assert sp.mu[0] == gl2.mu[0]
    assert sp.mu[1] == 2**12 and sp.mu[2] == 2**11
    assert check_normalization(sp)


def test_eisenstein_params_klingen_degree2():
    gsp4 = modforms.saito_kurokawa_satake(14, 2, -48)
    model = EisensteinModel(EisensteinKind.KLINGEN_FROM_DEGREE2, 14, 2, gsp4)
    sp = eisenstein_params(model)
    assert sp.mu[:2] == gsp4.mu
    assert sp.mu[2] == 2**11
    assert check_normalization(sp)


def test_model_validation():
    gl2 = satake_from_gl2(12, 2, -24)
    with pytest.raises(ValueError):
        EisensteinModel(EisensteinKind.SIEGEL, 14, 2, gl2)
    with pytest.raises(ValueError):
        EisensteinModel(EisensteinKind.KLINGEN_FROM_DEGREE2, 14, 2, gl2)
    with pytest.raises(ValueError):
        EisensteinModel(EisensteinKind.KLINGEN_FROM_ELLIPTIC, 14, 2, None)
    with pytest.raises(ValueError):
        EisensteinModel(EisensteinKind.KLINGEN_FROM_ELLIPTIC, 14, 3, gl2)
    with pytest.raises(ValueError):
        EisensteinModel(EisensteinKind.SIEGEL, 13, 2)


def test_template_exponents_are_exact():
    gsp4 = modforms.saito_kurokawa_satake(14, 2, -48)
    model = EisensteinModel(EisensteinKind.KLINGEN_FROM_DEGREE2, 14, 2, gsp4)
    exps = template_exponents(model)
    assert exps == (Fraction(-1, 2), Fraction(-1, 2), Fraction(11))


def test_modulus_exponent_snapping():
    assert modulus_exponent(2**13, 2) == Fraction(13)
    assert modulus_exponent(2**-0.5 * (0.6 + 0.8j), 2) == Fraction(-1, 2)
    loose = modulus_exponent(1.37, 2)
    assert isinstance(loose, float)


# ---------------------------------------------------------------- decision engine

def test_decision_refutes_all_three_templates():
    verdict = cuspidality_decision(stock_input())
    assert verdict.cuspidal
    kinds = [c.kind for c in verdict.cases]
    assert kinds == [
        EisensteinKind.SIEGEL,
        EisensteinKind.KLINGEN_FROM_DEGREE2,
        EisensteinKind.KLINGEN_FROM_ELLIPTIC,
    ]
    assert all(c.refuted for c in verdict.cases)
    assert verdict.lift_detail["has_unit_modulus_parameter"]
    assert verdict.lift_detail["orbit_attains_product_modulus_one"]


def test_decision_on_every_fixture_prime():
    for p in RECORDS["Delta.12.1"].primes():
        assert cuspidality_decision(stock_input(p)).cuspidal


def test_decision_weight_four_siegel_boundary():
    inp = synthetic_lift_input(4, 2)
    verdict = cuspidality_decision(inp, [siegel_model(4, 2)])
    assert verdict.cuspidal
    assert verdict.cases[0].refuted


def test_decision_vacuous_with_empty_model_list():
    verdict = cuspidality_decision(stock_input(), [])
    assert verdict.cuspidal
    assert verdict.warnings


def test_decision_rejects_mismatched_models():
    with pytest.raises(ValueError):
        cuspidality_decision(stock_input(), [siegel_model(14, 3)])
    with pytest.raises(ValueError):
        cuspidality_decision(stock_input(), [siegel_model(16, 2)])


def test_standard_models_shapes():
    models = standard_models(stock_input())
    assert [m.kind for m in models] == [
        EisensteinKind.SIEGEL,
        EisensteinKind.KLINGEN_FROM_DEGREE2,
        EisensteinKind.KLINGEN_FROM_ELLIPTIC,
    ]
    assert models[1].gamma.degree == 2
    assert models[2].gamma.degree == 1


def test_decision_reports_exact_exponents():
    verdict = cuspidality_decision(stock_input())
    case_b = verdict.cases[1]
    assert "11" in case_b.detail["template_exponents"][2]
    assert "-1/2" in case_b.detail["template_exponents"][0]
