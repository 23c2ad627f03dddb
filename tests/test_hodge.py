import pytest

from spinlift import hodge
from spinlift.hodge import (
    HodgeType,
    hodge_gl2,
    hodge_gsp4,
    hodge_gsp6,
    kunneth_tensor,
    weight_solver,
)


def test_gl2_type():
    ht = hodge_gl2(12)
    assert ht.pairs == ((0, 11), (11, 0))
    assert ht.weight == 11
    assert hodge_gl2(26).weight == 25


def test_gsp4_type():
    ht = hodge_gsp4(14)
    assert set(ht.pairs) == {(0, 25), (12, 13), (13, 12), (25, 0)}
    assert ht.rank == 4 and ht.weight == 25


def test_gsp6_type():
    ht = hodge_gsp6(14)
    assert (13, 23) in ht.pairs
    assert ht.rank == 8 and ht.weight == 36
    assert set(ht.pairs) == {
        (0, 36), (11, 25), (12, 24), (13, 23),
        (23, 13), (24, 12), (25, 11), (36, 0),
    }


def test_constructors_reject_bad_weights():
    for fn, bad in ((hodge_gl2, 13), (hodge_gsp4, 0), (hodge_gsp6, 2)):
        with pytest.raises(ValueError):
            fn(bad)


def test_hodge_type_validation():
    with pytest.raises(ValueError):
        HodgeType(((0, 1), (1, 1)), 1)  # impure
    with pytest.raises(ValueError):
        HodgeType(((0, 2),), 2)  # asymmetric
    with pytest.raises(ValueError):
        HodgeType(((-1, 2), (2, -1)), 1)  # negative index
    dup = HodgeType(((1, 1), (1, 1)), 2)
    assert dup.rank == 2


def test_kunneth_eight_term_list():
    k, l = 12, 14
    product = kunneth_tensor(hodge_gl2(k), hodge_gsp4(l))
    expected = HodgeType(
        (
            (0, 2 * l + k - 4),
            (l - 2, l + k - 2),
            (l - 1, l + k - 3),
            (k - 1, 2 * l - 3),
            (k + l - 3, l - 1),
            (2 * l - 3, k - 1),
            (l + k - 2, l - 2),
            (k + 2 * l - 4, 0),
        ),
        k + 2 * l - 4,
    )
    assert product == expected
    assert product == hodge_gsp6(14)


def test_kunneth_identity_and_cardinality():
    point = HodgeType(((0, 0),), 0)
    assert kunneth_tensor(hodge_gl2(12), point) == hodge_gl2(12)
    assert kunneth_tensor(hodge_gl2(12), hodge_gsp4(14)).rank == 8


def test_kunneth_preserves_purity_and_symmetry():
    for k in (8, 12, 20):
        for l in (10, 14, 22):
            product = kunneth_tensor(hodge_gl2(k), hodge_gsp4(l))
            assert product.weight == (k - 1) + (2 * l - 3)
            # construction validates purity and mirror symmetry already;
            # check the multiset is mirror-closed explicitly
            assert sorted(product.pairs) == sorted((q, p) for p, q in product.pairs)


def test_motivic_weight_identity():
    for K in range(8, 42, 2):
        assert hodge_gl2(K - 2).weight + hodge_gsp4(K).weight == hodge_gsp6(K).weight


def test_weight_solver_family():
    solutions = weight_solver(8, 40)
    assert solutions == tuple((K - 2, K, K) for K in range(10, 41, 2))
    assert (14, 14, 14) not in solutions
    assert (12, 14, 14) in solutions


def test_weight_solver_empty_range():
    assert weight_solver(10, 8) == ()


def cubic_weight_solver(lo, hi):
    """The exhaustive search over every even (k, l, K), kept as an oracle."""
    if lo % 2:
        lo += 1
    evens = range(max(lo, 4), hi + 1, 2)
    out = []
    for k in evens:
        left_k = hodge_gl2(k)
        for l in evens:
            product = kunneth_tensor(left_k, hodge_gsp4(l))
            for K in evens:
                if product == hodge_gsp6(K):
                    out.append((k, l, K))
    return tuple(out)


@pytest.mark.parametrize("lo", [-3, 0, 1, 4, 5, 8, 9, 12, 17, 30])
@pytest.mark.parametrize("hi", [-1, 3, 4, 9, 10, 14, 21, 30, 40])
def test_weight_solver_matches_exhaustive_search(lo, hi):
    assert weight_solver(lo, hi) == cubic_weight_solver(lo, hi)


def test_weight_solver_checks_one_candidate_per_pair(monkeypatch):
    # K is fixed by the Kunneth weight, so hodge_gsp6 is built at most once
    # per (k, l) pair, and it is looked up through the module.
    calls = []

    def counted(K):
        calls.append(K)
        return hodge_gsp6(K)

    monkeypatch.setattr(hodge, "hodge_gsp6", counted)
    solutions = weight_solver(8, 52)
    assert solutions == tuple((K - 2, K, K) for K in range(10, 53, 2))
    assert len(solutions) <= len(calls) <= len(range(8, 53, 2)) ** 2 // 3 + 1
