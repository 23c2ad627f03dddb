import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinlift import lifting, localfactors, modforms, satake
from spinlift.localfactors import (
    LocalFactor,
    PoleError,
    charpoly,
    companion_matrix,
    evaluate,
    gl2_factor_exact,
    gsp4_spin_factor_exact,
    kronecker_product,
    tensor_local_factor,
)
from spinlift.satake import SatakeParams, satake_from_gl2

from conftest import (
    SK_BIG,
    component_data,
    hecke_eigenvalue,
    poly_mul,
    random_gsp4,
    signed_permutation_orbit,
    spin_local_factor,
    standard_local_factor,
    with_guarded_prime,
)

DELTA = satake_from_gl2(12, 2, -24)
SK14 = satake.saito_kurokawa_satake(14, 2, -48)


def coeffs_close(a, b, rel=1e-9):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def factor_from_int_roots(roots, p):
    coeffs = [1]
    for r in roots:
        coeffs = poly_mul(coeffs, [1, -r])
    return LocalFactor(p=p, coeffs=tuple(coeffs), rep="test")


# ---------------------------------------------------------------- LocalFactor type

def test_local_factor_validation():
    with pytest.raises(ValueError):
        LocalFactor(p=2, coeffs=(2, 1), rep="spin-1")
    with pytest.raises(ValueError):
        LocalFactor(p=2, coeffs=(1, 0.5), rep="spin-1")
    with pytest.raises(ValueError):
        LocalFactor(p=1, coeffs=(1,), rep="spin-1")
    # bool is an int subclass: True would otherwise pass as the constant 1.
    for coeffs in [(True, False, -1), (1, True), (True,), (1, False, 3)]:
        with pytest.raises(ValueError, match="^local factor coefficients must be integers$"):
            LocalFactor(p=2, coeffs=coeffs, rep="x")


@pytest.mark.parametrize("p", [2.0, Fraction(2), True, "2"])
def test_local_factor_refuses_a_non_int_p(p):
    # Refused where it is made: evaluate would fail far from here on a float
    # p, with an AttributeError.  A bool is not an int here either.
    with pytest.raises(ValueError, match="^p must be an integer$"):
        LocalFactor(p, (1, 3), "x")


def test_local_factor_json_roundtrip():
    f = gsp4_spin_factor_exact(14, 2, 12240, 66521344)
    data = f.to_json_dict()
    assert all(isinstance(c, str) for c in data["coeffs"])
    assert tuple(map(int, data["coeffs"])) == f.coeffs and data["degree"] == f.degree
    assert (data["p"], data["rep"]) == (f.p, f.rep)


# ---------------------------------------------------------------- exact constructors

def test_gl2_factor_exact_examples():
    assert gl2_factor_exact(12, 2, -24).coeffs == (1, 24, 2048)
    assert gl2_factor_exact(12, 3, 0).coeffs == (1, 0, 3**11)
    assert gl2_factor_exact(26, 2, -48).coeffs == (1, 48, 2**25)


def _lift_at(k1, p, a_p):
    # The lift reads p off the degree-4 factor, so a non-int p is refused
    # when that factor is built.
    return lifting.lifted_spin_factor_exact(k1, a_p, gsp4_spin_factor_exact(14, p, 12240, 66521344))


@pytest.mark.parametrize(
    "build,args",
    [
        (gl2_factor_exact, (12, 2, -24)),
        (gsp4_spin_factor_exact, (14, 2, 12240, 66521344)),
        (_lift_at, (12, 2, -24)),
    ],
)
def test_exact_builders_refuse_non_int_inputs(build, args):
    # The builders check their inputs, not the coefficients they build, so
    # each input is refused on its own, even where the arithmetic would
    # turn it into an int (2 ** Fraction(11) is the int 2048, -True is -1).
    assert set(map(type, build(*args).coeffs)) == {int}
    for i, x in enumerate(args):
        for bad in (float(x), Fraction(x)):
            with pytest.raises(ValueError, match="^local factor coefficients must be integers$"):
                build(*args[:i], bad, *args[i + 1:])
        # A bool is not an int here either (as p, True is also below 2).
        with pytest.raises(ValueError):
            build(*args[:i], True, *args[i + 1:])


@pytest.mark.parametrize(
    "build,args",
    [(gl2_factor_exact, (0, 2, 1)), (gsp4_spin_factor_exact, (1, 2, 3, 4)), (_lift_at, (0, 2, 1))],
)
def test_exact_builders_refuse_weights_with_a_negative_power_of_p(build, args):
    with pytest.raises(ValueError, match="^local factor coefficients must be integers$"):
        build(*args)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_exact_builders_refuse_p_below_2(p):
    for build, args in ((gl2_factor_exact, (12, p, -24)), (gsp4_spin_factor_exact, (14, p, 1, 2))):
        with pytest.raises(ValueError, match="^p must be at least 2$"):
            build(*args)


def test_spin_factor_from_record_matches_the_constructors():
    records = {r.label: r for r in modforms.fixture_records(7)}
    h, g = records["Delta.12.1"], records["SK.14.2"]
    for p in (2, 3, 5, 7):
        assert localfactors.spin_factor_from_record(h, p) == gl2_factor_exact(12, p, h.lambda_p(p))
        assert localfactors.spin_factor_from_record(g, p) == gsp4_spin_factor_exact(
            14, p, g.lambda_p(p), g.lambda_p2(p)
        )
    with pytest.raises(ValueError, match="^record 'y' has degree 3, not 1 or 2$"):
        modforms.EigenvalueRecord("y", 3, 14, h.eigenvalues)


def test_gsp4_factor_matches_lift_expansion():
    k, p, a_p = 14, 2, -48
    lam = modforms.sk_eigenvalue(k, p, a_p)
    lam2 = modforms.sk_eigenvalue_psquared(k, p, a_p)
    exact = gsp4_spin_factor_exact(k, p, lam, lam2)
    expanded = [1]
    for fac in ([1, -(2**13)], [1, -(2**12)], [1, 48, 2**25]):
        expanded = poly_mul(expanded, fac)
    assert list(exact.coeffs) == expanded


def test_gsp4_factor_generic_structure(rng):
    k, p = 16, 3
    for _ in range(25):
        lam = rng.randint(-10**6, 10**6)
        lam2 = rng.randint(-10**9, 10**9)
        f = gsp4_spin_factor_exact(k, p, lam, lam2)
        assert f.coeffs[1] == -lam
        assert f.coeffs[4] == p ** (4 * k - 6)
    zero = gsp4_spin_factor_exact(k, p, 0, 0)
    assert zero.coeffs[4] == p ** (4 * k - 6)


# ---------------------------------------------------------------- float expansions of Satake data
# The test-side expansions of conftest, on the library's float Satake data.

def test_spin_factor_delta():
    coeffs_close(spin_local_factor(DELTA), [1, 24, 2048])


def test_spin_factor_sk_matches_exact():
    lam2 = modforms.sk_eigenvalue_psquared(14, 2, -48)
    exact = gsp4_spin_factor_exact(14, 2, 12240, lam2)
    coeffs_close(spin_local_factor(SK14), exact.coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spin_factor_all_ones(n):
    sp = SatakeParams(degree=n, weight=14, p=2, mu0=1, mu=(1,) * n)
    expect = [math.comb(2**n, j) * (-1) ** j for j in range(2**n + 1)]
    coeffs_close(spin_local_factor(sp), expect)


def test_spin_linear_coefficient_is_minus_eigenvalue(rng):
    for _ in range(50):
        sp = random_gsp4(rng)
        coeffs = spin_local_factor(sp)
        lam = hecke_eigenvalue(sp)
        assert abs(coeffs[1] + lam) <= 1e-9 * max(1.0, abs(lam))


def test_spin_factor_weyl_invariance():
    for sp in (DELTA, SK14):
        base = spin_local_factor(sp)
        for image in signed_permutation_orbit(sp):
            coeffs_close(spin_local_factor(image), base)


def test_standard_factor_examples():
    one = SatakeParams(degree=1, weight=12, p=2, mu0=1, mu=(1,))
    coeffs_close(standard_local_factor(one), [1, -3, 3, -1])
    f = standard_local_factor(DELTA)
    assert len(f) == 4
    assert all(abs(c.imag) <= 1e-9 * max(1.0, abs(c)) for c in f)
    g = standard_local_factor(SK14)
    assert g[0] == 1
    assert len(g) == 6


def test_standard_factor_weyl_invariance():
    base = standard_local_factor(SK14)
    for image in signed_permutation_orbit(SK14):
        coeffs_close(standard_local_factor(image), base, rel=1e-8)


# ---------------------------------------------------------------- companion / charpoly

def test_charpoly_of_companion_recovers_factor():
    f = gsp4_spin_factor_exact(14, 2, 12240, 66521344)
    assert tuple(charpoly(companion_matrix(f.coeffs))) == f.coeffs


def test_charpoly_two_by_two():
    assert charpoly([[1, 2], [3, 4]]) == [1, -5, -2]


@pytest.mark.parametrize("matrix", [[[1, 2]], [[1], [2]], [[1, 2], [3]], [[1, 2, 3], [4, 5, 6]]])
def test_charpoly_refuses_a_non_square_matrix(matrix):
    with pytest.raises(ValueError, match="non-square"):
        charpoly(matrix)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def dense_charpoly(matrix):
    """Characteristic polynomial by the dense trace recurrence: every entry
    of every B_k, zeros included, the last one formed in full.  Kept as the
    oracle for the sparse recurrence in localfactors."""
    n = len(matrix)
    a = matrix
    b = [row[:] for row in a]
    out = [1, -sum(b[i][i] for i in range(n))]
    for k in range(2, n + 1):
        for i in range(n):
            b[i][i] += out[-1]
        b = [
            [sum(a[i][m] * b[m][j] for m in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(b[i][i] for i in range(n))
        assert tr % k == 0
        out.append(-(tr // k))
    return out


@st.composite
def integer_matrices(draw):
    """Square integer matrices up to 8 x 8, dense or sparse.  A sparse one is
    mostly zero entries with some whole rows and columns zero, like a
    Kronecker product of companion matrices."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200))
    sparse = draw(st.booleans())
    if sparse:
        # A quarter of the entries drawn, the rest zero.
        entry = st.tuples(st.integers(0, 3), entry).map(lambda t: 0 if t[0] else t[1])
    matrix = draw(st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ))
    if sparse:
        rows = draw(st.sets(st.integers(0, n - 1)))
        cols = draw(st.sets(st.integers(0, n - 1)))
        matrix = [
            [0 if i in rows or j in cols else x for j, x in enumerate(row)]
            for i, row in enumerate(matrix)
        ]
    return matrix


@settings(max_examples=60, deadline=None)
@given(matrix=integer_matrices())
@example(matrix=[[2**200] * 8 for _ in range(8)])
@example(matrix=[[(-1) ** (i + j) * 2**200 for j in range(8)] for i in range(8)])
@example(matrix=[[0] * 8 for _ in range(8)])
@example(matrix=[[0, 5, 0], [0, 0, 0], [7, 0, 0]])
@example(matrix=[])
@example(matrix=[[int(i == j) for j in range(8)] for i in range(8)])
@example(matrix=[[int(j == (i + 1) % 8) for j in range(8)] for i in range(8)])
# Rows 2i - 1 and 2i are both e_i: a row of B_k built as the source row of a
# unit entry, not a copy of it, would take two diagonal updates.
@example(matrix=[[int(j == (i + 1) // 2) for j in range(8)] for i in range(8)])
# Companions with q = 1 and every other coefficient +-1: the rows of their
# Kronecker product are single unit entries or mostly units.
@example(matrix=kronecker_product(companion_matrix((1, -1, 1)), companion_matrix((1, 1, -1, -1, 1))))
def test_charpoly_matches_sympy(sympy, matrix):
    expect = [int(c) for c in sympy.Matrix(matrix).charpoly().all_coeffs()]
    before = [row[:] for row in matrix]
    assert charpoly(matrix) == expect
    assert matrix == before


@settings(max_examples=40, deadline=None)
@given(data=component_data(), a_p=SK_BIG)
@example(data=(14, 2, 12240, 66521344), a_p=-24)
@example(data=(400, 9973, 2**4000, -(2**4000)), a_p=-(2**4000))
def test_charpoly_of_the_tensor_matrix_matches_the_dense_recurrence(data, a_p):
    # The matrix the tensor route builds: a GL(2) factor of weight k - 2 and
    # a GSp(4) spin factor of weight k, at even k <= 400 and primes <= 10^4.
    k, p, lam_p, lam_p2 = data
    gl2 = gl2_factor_exact(k - 2, p, a_p)
    gsp4 = gsp4_spin_factor_exact(k, p, lam_p, lam_p2)
    matrix = kronecker_product(companion_matrix(gl2.coeffs), companion_matrix(gsp4.coeffs))
    assert charpoly(matrix) == dense_charpoly(matrix)


# ---------------------------------------------------------------- tensor

def test_tensor_identity_dimension_one():
    b = gsp4_spin_factor_exact(14, 2, 12240, 66521344)
    one = LocalFactor(p=2, coeffs=(1, -1), rep="test")
    assert tensor_local_factor(one, b).coeffs == b.coeffs
    a = LocalFactor(p=2, coeffs=(1, -3), rep="test")
    c = LocalFactor(p=2, coeffs=(1, -7), rep="test")
    assert tensor_local_factor(a, c).coeffs == (1, -21)


def test_tensor_against_split_root_oracle(rng):
    for _ in range(25):
        p = rng.choice((2, 3, 5))
        da = rng.randint(1, 4)
        db = rng.randint(1, 4)
        ra = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(da)]
        rb = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(db)]
        a = factor_from_int_roots(ra, p)
        b = factor_from_int_roots(rb, p)
        expect = factor_from_int_roots([x * y for x in ra for y in rb], p)
        assert tensor_local_factor(a, b).coeffs == expect.coeffs


def test_tensor_against_numeric_root_oracle(rng):
    kept = 0
    while kept < 25:
        p = 2
        da = rng.randint(1, 4)
        db = rng.randint(1, 4)
        a = LocalFactor(
            p=p,
            coeffs=(1,) + tuple(rng.randint(-5, 5) for _ in range(da - 1)) + (rng.choice((-3, -2, -1, 1, 2, 3)),),
            rep="test",
        )
        b = LocalFactor(
            p=p,
            coeffs=(1,) + tuple(rng.randint(-5, 5) for _ in range(db - 1)) + (rng.choice((-3, -2, -1, 1, 2, 3)),),
            rep="test",
        )
        roots_a = np.roots(a.coeffs)
        roots_b = np.roots(b.coeffs)
        sep = min(
            [2.0]
            + [abs(x - y) for i, x in enumerate(roots_a) for y in roots_a[i + 1 :]]
            + [abs(x - y) for i, x in enumerate(roots_b) for y in roots_b[i + 1 :]]
        )
        if sep < 1e-2:
            continue
        kept += 1
        numeric = [1]
        for x in roots_a:
            for y in roots_b:
                numeric = poly_mul(numeric, [1, -(x * y)])
        exact = tensor_local_factor(a, b)
        coeffs_close(exact.coeffs, numeric, rel=1e-6)


def test_tensor_linear_coefficient_rule(rng):
    for _ in range(20):
        a = factor_from_int_roots([rng.randint(1, 9), -rng.randint(1, 9)], 2)
        b = factor_from_int_roots([rng.randint(1, 9)], 2)
        t = tensor_local_factor(a, b)
        assert t.coeffs[1] == -a.coeffs[1] * b.coeffs[1]


def test_tensor_rejects_bad_inputs():
    a = gl2_factor_exact(12, 2, -24)
    b = gl2_factor_exact(12, 3, 0)
    with pytest.raises(ValueError):
        tensor_local_factor(a, b)


def test_tensor_degree8_linear_coefficient():
    a = gl2_factor_exact(12, 2, -24)
    b = gsp4_spin_factor_exact(14, 2, 12240, 66521344)
    t = tensor_local_factor(a, b)
    assert t.degree == 8
    assert t.coeffs[1] == 293760


# ---------------------------------------------------------------- evaluation

def test_evaluate_trivial_factor():
    f = LocalFactor(p=2, coeffs=(1,), rep="test")
    assert evaluate(f, 3.7 + 2j) == 1


def test_evaluate_delta_at_12():
    f = gl2_factor_exact(12, 2, -24)
    expect = 1 / (1 + 24 * 2**-12 + 2048 * 2**-24)
    assert abs(evaluate(f, 12) - expect) <= 1e-12


def test_evaluate_pole():
    f = LocalFactor(p=2, coeffs=(1, -1), rep="test")
    with pytest.raises(PoleError):
        evaluate(f, 0)


@pytest.mark.parametrize("p", [2, 3, 997])
@pytest.mark.parametrize("m", [1, 2, 13, 25])
def test_evaluate_pole_at_positive_integer_point(p, m):
    # 1 - p^m X, alone and times a factor without that zero, vanishes at s = m.
    root = (1, -(p**m))
    for coeffs in (root, tuple(poly_mul(root, (1, 3, -(p**40))))):
        f = LocalFactor(p=p, coeffs=coeffs, rep="test")
        with pytest.raises(PoleError):
            evaluate(f, m)
        with pytest.raises(PoleError):
            evaluate(f, float(m))
        assert evaluate(f, m + 1) != 0


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 97, 997, 9973]),
    rest=st.lists(st.integers(-(2**400), 2**400), max_size=9),
    m=st.integers(-60, 60),
)
@example(p=2, rest=[-(2**60), 2**100], m=-1)
@example(p=997, rest=[0] * 7 + [997**50], m=0)
@example(p=3, rest=[-(3**40) + 1], m=-40)
@example(p=9973, rest=[2**400] * 9, m=-60)
def test_evaluate_integer_point_matches_fraction_reference(p, rest, m):
    # The exact route must round f(p^-m) once, to the float nearest the
    # rational value, and then invert it, as 1/float(Fraction) does.
    coeffs = (1, *rest)
    ref = sum(Fraction(c) * Fraction(p) ** (-m * j) for j, c in enumerate(coeffs))
    assume(ref != 0)
    f = LocalFactor(p=p, coeffs=coeffs, rep="test")
    try:
        expected = complex(1 / float(ref))
    except ArithmeticError as exc:
        with pytest.raises(type(exc)):
            evaluate(f, m)
    else:
        assert evaluate(f, m) == expected


def test_evaluate_big_coefficients_both_paths_agree():
    b = gsp4_spin_factor_exact(14, 197, 12240, 66521344)
    lifted = tensor_local_factor(gl2_factor_exact(12, 197, -24), b)
    exact_path = evaluate(lifted, 23)
    float_path = evaluate(lifted, 23 + 1e-13j)
    assert abs(exact_path - float_path) <= 1e-9 * abs(exact_path)


def _lifted_factor(p):
    g26 = modforms.newform_weight26(p + 1)
    a_g = g26.coeffs[p]
    gsp4 = gsp4_spin_factor_exact(
        14, p, modforms.sk_eigenvalue(14, p, a_g), modforms.sk_eigenvalue_psquared(14, p, a_g)
    )
    return tensor_local_factor(gl2_factor_exact(12, p, modforms.delta(p + 1).coeffs[p]), gsp4)


@pytest.mark.parametrize("p", [2, 3, 97, 499, 997])
def test_evaluate_integer_points_are_correctly_rounded(p):
    # Integer s of the Euler-product runs (21..30) and the critical
    # integers 14..23 of weight 14 take the exact route: the float nearest
    # the exact rational f(p^-m), inverted.
    f = _lifted_factor(p)
    for m in range(14, 31):
        exact = sum(Fraction(c, p ** (j * m)) for j, c in enumerate(f.coeffs))
        assert evaluate(f, m) == complex(1 / float(exact))


def test_evaluate_huge_integer_points_are_bounded():
    # p^|m| far past float range: 1/c0 to the right, OverflowError to the
    # left, without building p^m (which would not fit in memory at 1e308).
    f = with_guarded_prime(_lifted_factor(997))
    assert evaluate(f, 10**6) == 1
    assert evaluate(f, 1e308) == 1
    with pytest.raises(OverflowError):
        evaluate(f, -(10**6))


# ---------------------------------------------------------------- evaluate oracle

def _is_real_integer(s: complex) -> bool:
    s = complex(s)
    return s.imag == 0 and float(s.real).is_integer()


def _big_term(c: int, j: int, p: int, s: complex) -> complex:
    # c * p^(-j*s) without capping |c| at float range: split off a power of 2.
    shift = max(0, c.bit_length() - 53)
    mant = c >> shift if c >= 0 else -((-c) >> shift)
    return mant * cmath.exp(shift * math.log(2) - j * s * math.log(p))


def reference_evaluate(f: LocalFactor, s: complex) -> complex:
    """1 / f(p^(-s)) for an exact factor, term by term through _big_term
    off the integers and by an exact Horner pass on them."""
    s = complex(s)
    if _is_real_integer(s):
        m = int(s.real)
        if abs(m) * f.p.bit_length() <= localfactors._EXACT_MAX_BITS:
            z = f.p ** abs(m)
            num = 0
            for c in f.coeffs if m >= 0 else reversed(f.coeffs):
                num = num * z + c
            den = z ** f.degree if m >= 0 else 1
            if num == 0:
                raise PoleError(f"local factor at p={f.p} vanishes at s={m}")
            return complex(1 / (num / den))
    acc = 0j
    for j, c in enumerate(f.coeffs):
        if c:
            acc += _big_term(c, j, f.p, s)
    if acc == 0:
        raise PoleError(f"local factor at p={f.p} vanishes at s={s}")
    return 1 / acc


def _outcome(fn, f, s):
    try:
        return fn(f, s)
    except ArithmeticError as exc:
        return type(exc)


_ORACLE_RECORDS = {r.label: r for r in modforms.fixture_records(1000)}


# At s = -1000 -+ 1e-20j the imaginary part of 1 / f underflows to a signed
# zero, which a product starting from complex(1) turns into +0.0.
_SIGNED_ZERO_FACTOR = LocalFactor(2, (1, 10**6), "exact")


def _oracle_lift_factors():
    h, g = _ORACLE_RECORDS["Delta.12.1"], _ORACLE_RECORDS["SK.14.2"]
    for p in (2, 3, 5, 97, 499, 997):
        inp = lifting.lift_input_from_records(h, g, p)
        yield lifting.lift_route_spin_factor(inp)
    # a_p = 0 lifts: every odd coefficient is 0, and at k = 100 the
    # coefficients run to about 11,700 bits.
    for k, p in ((14, 2), (40, 31), (100, 997)):
        gsp4 = gsp4_spin_factor_exact(
            k, p, modforms.sk_eigenvalue(k, p, 0), modforms.sk_eigenvalue_psquared(k, p, 0)
        )
        yield lifting.lifted_spin_factor_exact(k - 2, 0, gsp4)
    # Coefficients of 52, 53 and 54 bits, of both signs, odd so that a shift
    # drops a set bit: evaluate splits off a power of 2 only past 53 bits.
    edges = [sign * (1 << (bits - 1) | 0x55) for bits in (52, 53, 54) for sign in (1, -1)]
    for p in (2, 97):
        yield LocalFactor(p, (1, *edges), "exact")
        yield LocalFactor(p, (1, *reversed(edges)), "exact")
    yield _SIGNED_ZERO_FACTOR


def _oracle_mixed_factors():
    # Degree 2, 4 and 8 factors in one product, by ascending p.
    h, g = _ORACLE_RECORDS["Delta.12.1"], _ORACLE_RECORDS["SK.14.2"]
    for p in (2, 3, 97, 499, 997):
        gsp4 = localfactors.spin_factor_from_record(g, p)
        yield localfactors.spin_factor_from_record(h, p)
        yield gsp4
        yield lifting.lifted_spin_factor_exact(h.weight, h.lambda_p(p), gsp4)


def reference_product(factors, s: complex) -> complex:
    """complex(1) times reference_evaluate(f, s) for each factor in turn."""
    value = complex(1)
    for f in factors:
        term = reference_evaluate(f, s)
        if cmath.isnan(term):
            raise OverflowError  # where evaluate raises, as checked below
        value *= term
    return value


@pytest.mark.parametrize(
    "s",
    [
        23, 25, 30.0, 0, -0.0, -3, -40, 10**6,  # integers: the exact route
        14, 20,  # integers where the split would round differently at some p
        1000,  # exact at p <= 97, split at 499 and 997 (10 * 1000 bits)
        1e308, -1e308,  # integers past _EXACT_MAX_BITS: the mantissa split
        27.3, 19.5, -2.75,  # real non-integers
        23 + 7j, 21.5 - 3.25j, 25 + 1e-13j, -1.5 + 40j,  # complex
        -1000 - 1e-20j, -1000 + 1e-20j,  # complex, near the top of float range
    ],
)
def test_evaluate_is_bit_identical_to_the_term_by_term_oracle(s, monkeypatch):
    for f in _oracle_lift_factors():
        got, want = _outcome(evaluate, f, s), _outcome(reference_evaluate, f, s)
        if isinstance(want, complex) and cmath.isnan(want):
            # Far left of the abscissa a term passes float range; the oracle's
            # 1 / acc then gives nan, where evaluate raises.
            assert got is OverflowError, (f.p, s, got)
            continue
        # repr round-trips every float, so it also tells -0.0 from 0.0.
        assert repr(got) == repr(want), (f.p, s)
        assert got == want, (f.p, s)
    # Products, over the primes 2 and 3 (finite at s = -3), over all five
    # and over the signed-zero factor alone.  Below a 100-bit bound the
    # exact route covers p <= 97 at s = 14 and p <= 3 at s = 20 and the
    # split the larger p of the same product.
    mixed = list(_oracle_mixed_factors())
    for max_bits in (localfactors._EXACT_MAX_BITS, 100):
        monkeypatch.setattr(localfactors, "_EXACT_MAX_BITS", max_bits)
        for factors in (mixed[:6], mixed, [_SIGNED_ZERO_FACTOR]):
            got = _outcome(localfactors.evaluate_product, factors, s)
            want = _outcome(reference_product, factors, s)
            assert repr(got) == repr(want), (max_bits, len(factors), s)
