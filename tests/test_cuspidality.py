import cmath
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from spinlift import lifting, modforms
from spinlift.cuspidality import EisensteinKind, _sign_sums, cuspidality_decision
from spinlift.lifting import (
    LiftInput,
    lift_input_from_records,
    lift_route_spin_factor,
    lifted_mu_exponents,
    synthetic_lift_input,
)
from spinlift.primes import primes_up_to
from spinlift.satake import SatakeParams, saito_kurokawa_satake, satake_from_gl2

from conftest import (
    check_normalization,
    eisenstein_params,
    log_modulus,
    signed_permutation_orbit,
    theta_lift,
)

RECORDS = {r.label: r for r in modforms.fixture_records(19)}
DELTA = satake_from_gl2(12, 2, -24)
SK14 = saito_kurokawa_satake(14, 2, -48)
HALF = Fraction(1, 2)

#: Test-side tolerance on base-p logarithms of double-precision moduli.
LOG_TOL = 1e-9


def stock_input(p=2):
    return lift_input_from_records(RECORDS["Delta.12.1"], RECORDS["SK.14.2"], p)


def siegel(k, p):
    return eisenstein_params(EisensteinKind.SIEGEL, k, p)


def embedded_forms(inp):
    """The Satake parameters each of the decision's three templates embeds."""
    return [None, inp.gsp4, inp.gl2]


def half_integer_exponents(sp):
    """log_p |mu_i|, read test-side off the doubles and checked to lie within
    LOG_TOL of a half-integer."""
    exps = []
    for x in sp.mu:
        e = log_modulus(x, sp.p)
        exps.append(Fraction(round(2 * e), 2))
        assert abs(e - exps[-1]) <= LOG_TOL, (sp, e)
    return exps


def doubled(exps):
    """The half-integer exponents as the decision holds them: doubled ints."""
    return [int(2 * e) for e in exps]


def criterion(sp):
    """The decision's Chai-Faltings test, ``_sign_sums``, on any parameters."""
    return 0 in _sign_sums(doubled(half_integer_exponents(sp)))


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
    sp = siegel(14, 2)
    assert not criterion(sp) and not oracle_attains(sp)


def test_chai_faltings_boundary_weight_four():
    # exponents 1, 2, 3 admit the signed sum 1 + 2 - 3 = 0
    sp = siegel(4, 2)
    assert criterion(sp) and oracle_attains(sp)


def test_chai_faltings_requires_weight_above_degree():
    # The criterion needs k > n = 3; no lift input below weight 4 can be built.
    with pytest.raises(ValueError):
        synthetic_lift_input(2, 2)


def test_chai_faltings_is_orbit_invariant():
    assert {criterion(image) for image in signed_permutation_orbit(SK14)} == {True}


def test_chai_faltings_siegel_sweep():
    for k in range(6, 18, 2):
        for p in primes_up_to(100):
            sp = siegel(k, p)
            assert not criterion(sp) and not oracle_attains(sp)


def _assert_sign_sums_walk(exps, sp):
    """_sign_sums of exps doubled, exps the exponents of sp, are the orbit's
    product exponents doubled, each repeated n! times by the permutations."""
    sums = _sign_sums(doubled(exps))
    assert all(type(s) is int for s in sums)
    repeated = sorted(s / 2 for s in sums for _ in range(math.factorial(sp.degree)))
    walked = sorted(orbit_product_exponents(sp))
    assert all(abs(x - y) <= 1e-6 for x, y in zip(repeated, walked, strict=True)), sp
    assert (0 in sums) == oracle_attains(sp), sp
    return sums


def _template_params(verdict, inp):
    """The oracle's parameters of each template the verdict decided, built
    from inp's own Satake data where a Klingen kind embeds them."""
    k, p = verdict.lift_detail["weight"], verdict.lift_detail["p"]
    return [
        eisenstein_params(case.kind, k, p, embedded)
        for case, embedded in zip(verdict.cases, embedded_forms(inp), strict=True)
    ]


def _assert_templates_walk_the_orbit(verdict, params):
    """The template exponents the verdict reports, walked on the oracle's
    parameters of the same templates."""
    for case, sp in zip(verdict.cases, params, strict=True):
        _assert_sign_sums_walk([Fraction(e) for e in case.detail["template_exponents"]], sp)


def _siegel_walks_the_orbit(k, p):
    _assert_sign_sums_walk([Fraction(k - 3), Fraction(k - 2), Fraction(k - 1)], siegel(k, p))


def _assert_lift_matches_oracle(inp):
    verdict = cuspidality_decision(inp)
    lifted = theta_lift(inp)
    detail = verdict.lift_detail
    assert detail["orbit_attains_product_modulus_one"] == oracle_attains(lifted), inp
    assert detail["has_unit_modulus_parameter"] == oracle_has_unit(lifted), inp
    return detail


def _generic_real_inputs(rng, count):
    """Lift inputs of double-precision parameters only, with generic real
    modulus exponents off the Deligne bound."""
    for _ in range(count):
        k = rng.randrange(6, 40, 2)
        p = rng.choice([2, 3, 5, 7, 11])
        e1, e2, e3 = (rng.uniform(-3, 3) for _ in range(3))

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
        verdict = cuspidality_decision(inp)
        _assert_templates_walk_the_orbit(verdict, _template_params(verdict, inp))
    # Synthetic input across weights and primes, where doubles hold it.
    checked = 0
    for k in range(6, 62, 2):
        for p in (2, 3, 5, 7, 11, 13, 97):
            try:
                inp = synthetic_lift_input(k, p)
                verdict = cuspidality_decision(inp)
                params = _template_params(verdict, inp)
            except OverflowError:
                continue
            _assert_templates_walk_the_orbit(verdict, params)
            assert _assert_lift_matches_oracle(inp)["orbit_attains_product_modulus_one"]
            checked += 1
    assert checked > 180
    # Siegel templates: the weight-4 boundary attains, higher weights never do.
    _siegel_walks_the_orbit(4, 2)
    assert oracle_attains(siegel(4, 2))
    for k in range(6, 18, 2):
        for p in primes_up_to(100):
            _siegel_walks_the_orbit(k, p)
    # Half-integer exponents off the Deligne bound go straight to the exact
    # facts, both outcomes of each.
    rng = random.Random(20110)
    seen = set()
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        exps = [Fraction(rng.randint(-4, 4), 2) for _ in range(3)]
        mu = [cmath.rect(p ** float(e), rng.uniform(0, 2 * math.pi)) for e in exps]
        sp = SatakeParams(degree=3, weight=rng.randrange(6, 40, 2), p=p, mu0=1, mu=mu)
        attains = 0 in _assert_sign_sums_walk(exps, sp)
        assert (0 in exps) == oracle_has_unit(sp), sp
        seen.add((0 in exps, attains))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_exact_exponents_match_the_float_lift():
    # The certified exponents against the doubles they replaced: at all 168
    # primes of a B = 1000 fixtures file, and on the synthetic grid (even k
    # in 4..60, p < 1000) wherever the Satake data fit a double.
    records = {r.label: r for r in modforms.fixture_records(1000)}
    primes = primes_up_to(1000)
    inputs = [lift_input_from_records(records["Delta.12.1"], records["SK.14.2"], p) for p in primes]
    for k in range(4, 62, 2):
        for p in primes:
            try:
                inputs.append(synthetic_lift_input(k, p))
            except OverflowError:
                continue
    assert len(inputs) == 168 + 4648
    for inp in inputs:
        exps = cuspidality_decision(inp).lift_detail["mu_exponents"]
        floats = [log_modulus(x, inp.p) for x in theta_lift(inp).mu]
        assert all(
            abs(Fraction(e) - f) <= LOG_TOL for e, f in zip(exps, floats, strict=True)
        ), (inp, exps, floats)


# ---------------------------------------------------------------- lifted constraint

def test_lifted_mu_constraint_examples():
    # The unit-modulus fact about the lift, read test-side off the doubles.
    def has_unit(inp):
        return oracle_has_unit(theta_lift(inp))

    assert has_unit(stock_input())
    assert cuspidality_decision(stock_input()).lift_detail["has_unit_modulus_parameter"]
    ones = LiftInput(
        gl2=SatakeParams(degree=1, weight=12, p=2, mu0=1, mu=(1,)),
        gsp4=SatakeParams(degree=2, weight=14, p=2, mu0=1, mu=(1, 1)),
    )
    assert has_unit(ones)
    # non-unit second parameter: huge real eigenvalue splits the roots
    skew = LiftInput(
        gl2=satake_from_gl2(12, 2, 5000),
        gsp4=saito_kurokawa_satake(14, 2, -48),
    )
    assert not has_unit(skew)


def test_lifted_mu_exponents_are_certified():
    # Saito-Kurokawa degree-2 data give (-1/2, -1/2), the degree-1 part 0.
    for p in RECORDS["Delta.12.1"].primes():
        assert lifted_mu_exponents(stock_input(p)) == (-HALF, -HALF, 0)
    assert lifted_mu_exponents(synthetic_lift_input(4, 2)) == (-HALF, -HALF, 0)


def tempered_input():
    """Lift input at p = 2 whose degree-2 factor (1 - xX + rX^2)(1 - yX + rX^2),
    r = p^(2k-3) and |x|, |y| <= 2 r^(1/2), is tempered and not of
    Saito-Kurokawa shape."""
    k, p, x, y = 14, 2, 5000, -3000
    r = p ** (2 * k - 3)
    lam = x + y
    lam2 = lam * lam - p ** (2 * k - 4) - (x * y + 2 * r)
    assert modforms.sk_component_eigenvalue(k, p, lam, lam2) is None
    rho_x, rho_y = ((z + cmath.sqrt(z * z - 4 * r)) / 2 for z in (x, y))
    gsp4 = SatakeParams(degree=2, weight=k, p=p, mu0=rho_x, mu=(rho_y / rho_x, r / (rho_x * rho_y)))
    assert check_normalization(gsp4)
    return LiftInput(gl2=DELTA, gsp4=gsp4, gl2_data=(12, -24), gsp4_data=(k, lam, lam2))


def test_tempered_degree2_input_is_certified_and_cuspidal():
    inp = tempered_input()
    assert lifted_mu_exponents(inp) == (0, 0, 0)
    verdict = cuspidality_decision(inp)
    assert verdict.cuspidal
    assert verdict.lift_detail["mu_exponents"] == ["0", "0", "0"]
    floats = [log_modulus(z, inp.p) for z in theta_lift(inp).mu]
    assert all(abs(f) <= LOG_TOL for f in floats), floats


def _input_at_3(a_p, b):
    """Lift input at p = 3 from the degree-1 eigenvalue a_p and the
    Saito-Kurokawa lift of the weight-26 eigenvalue b."""
    return LiftInput(
        gl2=satake_from_gl2(12, 3, a_p),
        gsp4=saito_kurokawa_satake(14, 3, b),
        gl2_data=(12, a_p),
        gsp4_data=(14, modforms.sk_eigenvalue(14, 3, b), modforms.sk_eigenvalue_psquared(14, 3, b)),
    )


def test_uncertified_data_are_refused_naming_p():
    # Deligne's bounds at p = 3: a_p^2 <= 4 * 3^11 and b^2 <= 4 * 3^25.
    g = RECORDS["SK.14.2"]
    b = modforms.sk_component_eigenvalue(14, 3, g.lambda_p(3), g.lambda_p2(3))
    assert cuspidality_decision(_input_at_3(252, b)).cuspidal
    for a_p, b in ((1000, b), (252, 10**9)):
        inp = _input_at_3(a_p, b)
        for refused in (lifted_mu_exponents, cuspidality_decision):
            with pytest.raises(ArithmeticError, match="p=3"):
                refused(inp)


def test_decision_refuses_input_without_exact_data(rng):
    # Doubles alone are never decided on, generic real moduli included.
    inputs = [*_generic_real_inputs(rng, 20), LiftInput(DELTA, SK14, gl2_data=(12, -24))]
    for inp in inputs:
        with pytest.raises(ValueError, match="exact eigenvalue data"):
            cuspidality_decision(inp)


def test_decision_keeps_the_lift_weight_check():
    sk16 = (16, modforms.sk_eigenvalue(16, 2, 0), modforms.sk_eigenvalue_psquared(16, 2, 0))
    inp = LiftInput(
        DELTA, saito_kurokawa_satake(16, 2, 0), gl2_data=(12, -24), gsp4_data=sk16
    )
    with pytest.raises(ValueError, match="lift pattern") as decided:
        cuspidality_decision(inp)
    with pytest.raises(ValueError) as lifted:
        lift_route_spin_factor(inp)
    assert str(decided.value) == str(lifted.value)


def fraction_decision(inp):
    """The decision's payload computed in ``Fraction`` arithmetic and
    ``str(Fraction)``, as the library did before it moved to doubled ints:
    the oracle the library's payload must equal."""
    lift_exps = lifted_mu_exponents(inp)
    beta1, beta2, alpha = lift_exps
    k, p = inp.gsp4.weight, inp.p

    def sign_sums(exps):
        return [sum(s * e for s, e in zip(signs, exps)) for signs in product((1, -1), repeat=3)]

    def strs(exps):
        return [str(e) for e in exps]

    has_unit = 0 in lift_exps
    attains = 0 in sign_sums(lift_exps)
    siegel = (Fraction(k - 3), Fraction(k - 2), Fraction(k - 1))
    degree2 = (beta1, beta2, Fraction(k - 3))
    elliptic = (alpha, Fraction(k - 2), Fraction(k - 3))
    sums = sign_sums(degree2)
    refuted = [
        has_unit and 0 not in siegel,
        attains and 0 not in sums,
        sorted(map(abs, elliptic)) != sorted(map(abs, lift_exps)),
    ]
    reasons = [
        ("template has no unit-modulus parameter, the lift does",
         "unit-modulus comparison is inconclusive"),
        ("template orbit never attains product modulus one, the lift does",
         "product-modulus comparison is inconclusive"),
        ("template modulus pattern is incompatible with the lifted pattern",
         "modulus patterns coincide"),
    ]
    details = [
        {"template_exponents": strs(siegel)},
        {"template_exponents": strs(degree2),
         "orbit_product_exponents": sorted({str(s) for s in sums})},
        {"template_exponents": strs(elliptic), "lift_exponents": strs(lift_exps)},
    ]
    return {
        "cuspidal": all(refuted),
        "cases": [
            {"kind": kind.value, "refuted": r, "reason": reason[not r], "detail": detail}
            for kind, r, reason, detail in zip(EisensteinKind, refuted, reasons, details, strict=True)
        ],
        "warnings": [],
        "lift": {
            "weight": k,
            "p": p,
            "mu_exponents": strs(lift_exps),
            "has_unit_modulus_parameter": has_unit,
            "orbit_attains_product_modulus_one": attains,
        },
    }


def test_decision_payload_matches_the_fraction_oracle():
    # Synthetic inputs (even k in 4..60 at p = 2, 3, 97, 997, within float
    # range), every prime of the stock B = 19 file, and a tempered input.
    synthetic = []
    for k in range(4, 62, 2):
        for p in (2, 3, 97, 997):
            try:
                synthetic.append(synthetic_lift_input(k, p))
            except OverflowError:
                continue
    stock = [stock_input(p) for p in RECORDS["SK.14.2"].primes()]
    assert len(synthetic) > 80 and len(stock) == 8
    for inp in [*synthetic, *stock, tempered_input()]:
        payload = cuspidality_decision(inp).to_dict()
        assert payload == fraction_decision(inp), inp
        assert json.dumps(payload) == json.dumps(fraction_decision(inp))
        assert payload["cuspidal"] == (inp.gsp4.weight > 4)
    assert fraction_decision(tempered_input())["lift"]["mu_exponents"] == ["0", "0", "0"]


def test_a_pair_builds_each_exact_factor_once(monkeypatch):
    # The tensor identity and the decision on one input build the degree-2
    # and degree-1 factors and the lift-route factor once each, and a
    # further read of the exponents builds none.
    calls = Counter()
    for name in ("gsp4_spin_factor_exact", "gl2_factor_exact", "lifted_spin_factor_exact"):

        def spy(*args, _name=name, _built=getattr(lifting, name)):
            calls[_name] += 1
            return _built(*args)

        monkeypatch.setattr(lifting, name, spy)
    once = {"gsp4_spin_factor_exact": 1, "gl2_factor_exact": 1, "lifted_spin_factor_exact": 1}
    for make in (stock_input, lambda: synthetic_lift_input(20, 97), tempered_input):
        calls.clear()
        inp = make()
        assert lifting.verify_tensor_identity(inp).ok
        assert cuspidality_decision(inp).cuspidal
        assert calls == once
        assert lifted_mu_exponents(inp) in ((-HALF, -HALF, 0), (0, 0, 0))
        assert calls == once


# ---------------------------------------------------------------- templates

def test_eisenstein_params_siegel():
    sp = siegel(14, 2)
    assert sp.mu == (2**11, 2**12, 2**13)
    assert check_normalization(sp)


def test_eisenstein_params_klingen_elliptic():
    gl2 = satake_from_gl2(12, 2, -24)
    sp = eisenstein_params(EisensteinKind.KLINGEN_FROM_ELLIPTIC, 14, 2, gl2)
    assert sp.mu[0] == gl2.mu[0]
    assert sp.mu[1] == 2**12 and sp.mu[2] == 2**11
    assert check_normalization(sp)


def test_eisenstein_params_klingen_degree2():
    gsp4 = saito_kurokawa_satake(14, 2, -48)
    sp = eisenstein_params(EisensteinKind.KLINGEN_FROM_DEGREE2, 14, 2, gsp4)
    assert sp.mu[:2] == gsp4.mu
    assert sp.mu[2] == 2**11
    assert check_normalization(sp)


def test_template_exponents_are_exact():
    # Siegel (k-3, k-2, k-1), degree-2 Klingen (beta, beta, k-3) and
    # elliptic Klingen (0, k-2, k-3), the lift's (beta, beta, 0) embedded.
    verdict = cuspidality_decision(stock_input())
    assert [c.detail["template_exponents"] for c in verdict.cases] == [
        ["11", "12", "13"],
        ["-1/2", "-1/2", "11"],
        ["0", "12", "11"],
    ]


# ---------------------------------------------------------------- decision

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
    # At k = 4 the Siegel template is still refuted, but the degree-2
    # Klingen template (-1/2, -1/2, 1) attains product modulus one at
    # -1/2 - 1/2 + 1 = 0, so it stands and the verdict is not cuspidal.
    verdict = cuspidality_decision(synthetic_lift_input(4, 2))
    assert [c.refuted for c in verdict.cases] == [True, False, True]
    assert verdict.cases[1].reason == "product-modulus comparison is inconclusive"
    assert "0" in verdict.cases[1].detail["orbit_product_exponents"]
    assert not verdict.cuspidal


def test_decision_reports_exact_exponents():
    verdict = cuspidality_decision(stock_input())
    case_b = verdict.cases[1]
    assert "11" in case_b.detail["template_exponents"][2]
    assert "-1/2" in case_b.detail["template_exponents"][0]
