import cmath
import json

import pytest

from spinlift.modforms import EigenvalueRecord, load_fixtures
from spinlift.satake import SatakeParams, saito_kurokawa_satake, satake_from_gl2

from conftest import (
    check_normalization,
    hecke_eigenvalue,
    ramanujan_check,
    signed_permutation_orbit,
)

DELTA = satake_from_gl2(12, 2, -24)
SK14 = saito_kurokawa_satake(14, 2, -48)


def approx(x, y, rel=1e-9):
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------- construction

def test_params_reject_bad_degree_and_zero_entries():
    with pytest.raises(ValueError):
        SatakeParams(degree=4, weight=10, p=2, mu0=1, mu=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        SatakeParams(degree=1, weight=10, p=2, mu0=0, mu=(1,))
    with pytest.raises(ValueError):
        SatakeParams(degree=2, weight=10, p=2, mu0=1, mu=(1, 0))
    with pytest.raises(ValueError):
        SatakeParams(degree=2, weight=10, p=2, mu0=1, mu=(1,))


def test_normalization_examples():
    assert check_normalization(DELTA)
    # degree-3 identity configuration: mu0 = p^((3k-6)/2), prod(mu) = 1
    sp = SatakeParams(degree=3, weight=14, p=2, mu0=2**18, mu=(2**-7, 1, 2**7))
    assert check_normalization(sp)
    doubled = SatakeParams(degree=3, weight=14, p=2, mu0=2**18, mu=(2**-6, 1, 2**7))
    assert not check_normalization(doubled)


# ---------------------------------------------------------------- gl2 dictionary

def test_satake_from_gl2_delta():
    r1 = DELTA.mu0
    r2 = DELTA.mu0 * DELTA.mu[0]
    for r in (r1, r2):
        assert abs(r * r + 24 * r + 2048) <= 1e-9 * 2048
    assert approx(hecke_eigenvalue(DELTA), -24)
    assert check_normalization(DELTA)


def test_satake_from_gl2_zero_eigenvalue():
    sp = satake_from_gl2(12, 2, 0)
    assert approx(sp.mu0, 1j * 2**5.5)
    assert approx(hecke_eigenvalue(sp), 0)


def test_satake_from_gl2_weight26():
    sp = satake_from_gl2(26, 2, -48)
    r1, r2 = sp.mu0, sp.mu0 * sp.mu[0]
    for r in (r1, r2):
        assert abs(r * r + 48 * r + 2**25) <= 1e-9 * 2**25


def test_gl2_eigenvalue_roundtrip(rng):
    for _ in range(200):
        k = rng.choice((12, 16, 26))
        p = rng.choice((2, 3, 5))
        bound = int(2 * p ** ((k - 1) / 2))
        a_p = rng.randint(-3 * bound, 3 * bound)
        sp = satake_from_gl2(k, p, a_p)
        assert approx(hecke_eigenvalue(sp), a_p)
        assert check_normalization(sp)


# ---------------------------------------------------------------- eigenvalues

def test_hecke_eigenvalue_examples():
    assert approx(hecke_eigenvalue(DELTA), -24)
    assert approx(hecke_eigenvalue(SK14), 12240)
    for n, k in ((1, 12), (2, 14), (3, 14)):
        ones = SatakeParams(degree=n, weight=k, p=2, mu0=1, mu=(1,) * n)
        assert approx(hecke_eigenvalue(ones), 2**n)


# ---------------------------------------------------------------- Ramanujan

def test_ramanujan_examples():
    assert ramanujan_check(DELTA)
    k = 14
    eis = SatakeParams(
        degree=3, weight=k, p=2, mu0=1, mu=(2 ** (k - 3), 2 ** (k - 2), 2 ** (k - 1))
    )
    assert not ramanujan_check(eis)
    ones = SatakeParams(degree=3, weight=14, p=2, mu0=1, mu=(1, 1, 1))
    assert ramanujan_check(ones)
    assert not ramanujan_check(SK14)


# ---------------------------------------------------------------- Weyl group
# The group acts through the test-side walk ``signed_permutation_orbit``.

GENERIC3 = SatakeParams(
    degree=3,
    weight=14,
    p=2,
    mu0=2**18 * cmath.exp(0.3j),
    mu=(0.5 + 0.1j, 1.5 - 0.2j, cmath.exp(-0.1j) / ((0.5 + 0.1j) * (1.5 - 0.2j))),
)


def _same_point(a, b):
    return approx(a.mu0, b.mu0) and all(approx(x, y) for x, y in zip(a.mu, b.mu))


def _contains(orbit, sp):
    return any(_same_point(image, sp) for image in orbit)


@pytest.mark.parametrize("n,size", [(1, 2), (2, 8), (3, 48)])
def test_weyl_group_order(n, size):
    # The group acts freely on a generic point, so the walk covers all of it.
    sp = SatakeParams(degree=n, weight=14, p=2, mu0=3 + 1j, mu=GENERIC3.mu[:n])
    orbit = signed_permutation_orbit(sp)
    assert len(orbit) == size
    assert len({(image.mu0, image.mu) for image in orbit}) == size


def test_weyl_identity_is_neutral():
    first = signed_permutation_orbit(SK14)[0]
    assert first.mu0 == SK14.mu0 and first.mu == SK14.mu


def test_weyl_flip_is_involution():
    identity, once = signed_permutation_orbit(DELTA)
    assert identity == DELTA
    assert approx(once.mu0, DELTA.mu0 * DELTA.mu[0])
    assert approx(once.mu[0], 1 / DELTA.mu[0])
    _, twice = signed_permutation_orbit(once)
    assert _same_point(twice, DELTA)


def test_weyl_orbit_sizes():
    assert len(signed_permutation_orbit(DELTA)) == 2
    assert len(signed_permutation_orbit(SK14)) == 8
    lifted = SatakeParams(degree=3, weight=14, p=2, mu0=2**18, mu=(2**-7, 1, 2**7))
    assert len(signed_permutation_orbit(lifted)) == 48


def test_weyl_orbit_preserves_normalization_and_eigenvalue():
    lam = hecke_eigenvalue(SK14)
    for image in signed_permutation_orbit(SK14):
        assert check_normalization(image)
        assert approx(hecke_eigenvalue(image), lam)


def test_weyl_composition_matches_sequential_action(rng):
    # Acting again on any image stays in the orbit and reaches all of it.
    orbit = signed_permutation_orbit(GENERIC3)
    for image in rng.sample(orbit, 8):
        again = signed_permutation_orbit(image)
        assert all(_contains(orbit, x) for x in again)
        assert all(_contains(again, x) for x in orbit)


def test_weyl_group_closed_under_composition():
    orbit = signed_permutation_orbit(SK14)
    for image in orbit:
        assert all(_contains(orbit, x) for x in signed_permutation_orbit(image))


# ---------------------------------------------------------------- records

def test_record_roundtrip_and_lookup(tmp_path):
    rec = EigenvalueRecord(
        label="Delta.12.1", degree=1, weight=12, eigenvalues={2: (-24, -1472), 3: (252, None)}
    )
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"schema_version": 1, "records": [rec.to_json_dict()]}))
    assert load_fixtures(path) == {"Delta.12.1": rec}
    assert rec.lambda_p(2) == -24
    assert rec.lambda_p2(2) == -1472
    with pytest.raises(ValueError):
        rec.lambda_p(5)
    with pytest.raises(ValueError):
        rec.lambda_p2(3)


def test_record_eigenvalues_field_is_the_prime_index():
    eigenvalues = {2: (-24, None), 3: (252, None)}
    rec = EigenvalueRecord(label="x", degree=1, weight=12, eigenvalues=eigenvalues)
    same = EigenvalueRecord(label="x", degree=1, weight=12, eigenvalues=dict(eigenvalues))
    assert rec == same
    assert repr(rec) == (
        "EigenvalueRecord(label='x', degree=1, weight=12, eigenvalues=" + repr(eigenvalues) + ")"
    )
    assert rec.primes() == (2, 3)
    assert [rec.lambda_p(p) for p in (2, 3)] == [-24, 252]
    with pytest.raises(ValueError, match="record 'x' has no entry for prime 5"):
        rec.lambda_p(5)


def test_record_requires_increasing_primes():
    with pytest.raises(ValueError):
        EigenvalueRecord(label="x", degree=1, weight=12, eigenvalues={3: (1, None), 2: (1, None)})


def test_record_json_uses_decimal_strings():
    rec = EigenvalueRecord(label="big", degree=1, weight=12, eigenvalues={2: (2**200, None)})
    data = json.loads(json.dumps(rec.to_json_dict()))
    assert data["eigenvalues"][0]["lambda_p"] == str(2**200)
    assert "lambda_p2" not in data["eigenvalues"][0]
