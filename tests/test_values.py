"""The value types: repr, equality, hashing and immutability, one instance of
each.  The expected reprs are those the classes printed as frozen dataclasses."""

import copy
import pickle
from fractions import Fraction

import pytest

from spinlift.analytic import EulerProductResult, GammaProfile
from spinlift.cuspidality import CaseReport, CuspidalityVerdict, EisensteinKind
from spinlift.hodge import HodgeType
from spinlift.lifting import LiftInput, TensorIdentityReport, WeightCheck
from spinlift.localfactors import LocalFactor
from spinlift.modforms import EigenvalueRecord, QSeries
from spinlift.satake import SatakeParams


def _gl2():
    return SatakeParams(degree=1, weight=12, p=2, mu0=2, mu=(1j,))


def _gsp4():
    return SatakeParams(degree=2, weight=14, p=2, mu0=-4 + 1j, mu=(1j, 0.5))


def _case():
    return CaseReport(EisensteinKind.SIEGEL, True, "no unit-modulus entry", {"p": 2})


SIEGEL = "<EisensteinKind.SIEGEL: 'siegel-eisenstein'>"
GL2_REPR = "SatakeParams(degree=1, weight=12, p=2, mu0=(2+0j), mu=(1j,))"
CASE_REPR = f"CaseReport(kind={SIEGEL}, refuted=True, reason='no unit-modulus entry', detail={{'p': 2}})"

# name -> (build one instance, its repr, the fields that == and hash compare)
VALUES = {
    "SatakeParams": (_gl2, GL2_REPR, ("degree", "weight", "p", "mu0", "mu")),
    "EigenvalueRecord": (
        lambda: EigenvalueRecord("Delta.12.1", 1, 12, {2: (-24, 1216), 3: (252, None)}),
        "EigenvalueRecord(label='Delta.12.1', degree=1, weight=12, "
        "eigenvalues={2: (-24, 1216), 3: (252, None)})",
        ("label", "degree", "weight", "eigenvalues"),
    ),
    "HodgeType": (
        lambda: HodgeType(((11, 0), (0, 11)), 11),
        "HodgeType(pairs=((0, 11), (11, 0)), weight=11)",
        ("pairs", "weight"),
    ),
    "LocalFactor": (
        lambda: LocalFactor(2, (1, 24, 2048), "spin-1", Fraction(11, 2)),
        "LocalFactor(p=2, coeffs=(1, 24, 2048), rep='spin-1', "
        "root_exponent=Fraction(11, 2))",
        ("p", "coeffs", "rep"),
    ),
    "QSeries": (
        lambda: QSeries((0, 1, -24, 252)),
        "QSeries(coeffs=(0, 1, -24, 252))",
        ("coeffs",),
    ),
    "GammaProfile": (
        lambda: GammaProfile((0, -13, -12, -11), 37),
        "GammaProfile(shifts=(-13, -12, -11, 0), center=37, "
        "prefactor_rational=Fraction(1, 1), prefactor_two_pi_exponent=0)",
        ("shifts", "center", "prefactor_rational", "prefactor_two_pi_exponent"),
    ),
    "EulerProductResult": (
        lambda: EulerProductResult(1.5 - 0.25j, 7, 0.125, 20.5, 18.5, ((3, 19.0),)),
        "EulerProductResult(value=(1.5-0.25j), prime_bound=7, tail_bound=0.125, "
        "abscissa=20.5, root_exponent=18.5, violations=((3, 19.0),))",
        ("value", "prime_bound", "tail_bound", "abscissa", "root_exponent", "violations"),
    ),
    "LiftInput": (
        lambda: LiftInput(_gl2(), _gsp4(), (12, -24)),
        f"LiftInput(gl2={GL2_REPR}, gsp4=SatakeParams(degree=2, weight=14, p=2, "
        "mu0=(-4+1j), mu=(1j, (0.5+0j))), gl2_data=(12, -24), gsp4_data=None)",
        ("gl2", "gsp4", "gl2_data", "gsp4_data"),
    ),
    "WeightCheck": (
        lambda: WeightCheck(False, None, {"candidate_K": None}),
        "WeightCheck(accepted=False, k=None, witness={'candidate_K': None})",
        ("accepted", "k", "witness"),
    ),
    "TensorIdentityReport": (
        lambda: TensorIdentityReport(True, 2, (1, -24), (1, -24)),
        "TensorIdentityReport(ok=True, p=2, lift_coeffs=(1, -24), tensor_coeffs=(1, -24))",
        ("ok", "p", "lift_coeffs", "tensor_coeffs"),
    ),
    "CaseReport": (_case, CASE_REPR, ("kind", "refuted", "reason", "detail")),
    "CuspidalityVerdict": (
        lambda: CuspidalityVerdict(True, (_case(),), {"weight": 14}),
        f"CuspidalityVerdict(cuspidal=True, cases=({CASE_REPR},), lift_detail={{'weight': 14}})",
        ("cuspidal", "cases", "lift_detail"),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_repr_eq_hash_and_immutability(name):
    make, expected_repr, compared = VALUES[name]
    value, twin = make(), make()
    assert type(value).__name__ == name
    assert repr(value) == expected_repr
    assert value == twin and not value != twin and value is not twin
    # Equality is per class: another type is never equal, even with equal fields.
    assert value.__eq__(object()) is NotImplemented
    other = min(set(VALUES) - {name})
    assert value != VALUES[other][0]()
    key = tuple(getattr(value, f) for f in compared)
    if len(key) == 1:  # a one-field value's key is the field itself, as in _value
        key = key[0]
    try:
        hash(key)
    except TypeError:  # a dict field: unhashable, as the value is
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(key)
    for field in compared:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.undeclared = 1
    assert repr(value) == expected_repr
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and repr(clone) == expected_repr


def test_fields_differ_means_values_differ():
    record = EigenvalueRecord("Delta.12.1", 1, 12, {2: (-24, None)})
    assert record != EigenvalueRecord("Delta.12.1", 1, 12, {2: (-23, None)})
    assert HodgeType(((0, 1), (1, 0)), 1) != HodgeType(((0, 3), (3, 0)), 3)
    assert QSeries((1, 2)) != QSeries((1, 2, 0))


def test_root_exponent_is_shown_but_not_compared():
    certified = LocalFactor(2, (1, 24, 2048), "spin-1", Fraction(11, 2))
    plain = LocalFactor(2, (1, 24, 2048), "spin-1")
    assert certified == plain and hash(certified) == hash(plain)
    assert "root_exponent=None" in repr(plain)
    assert repr(certified) != repr(plain)


def test_weight_check_witness_is_fresh_per_instance():
    a, b = WeightCheck(True, 14), WeightCheck(True, 14)
    assert a.witness == {} and a.witness is not b.witness
    a.witness["seen"] = True
    assert b.witness == {}


def test_record_index_is_internal():
    record = VALUES["EigenvalueRecord"][0]()
    assert record.lambda_p(3) == 252
    # The eigenvalues field is the prime index: no internal slot repeats it.
    assert type(record).__slots__ == type(record).__match_args__
    assert type(record).__match_args__ == ("label", "degree", "weight", "eigenvalues")
