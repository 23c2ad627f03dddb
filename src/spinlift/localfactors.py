"""Exact construction, evaluation and tensoring of local L-factor polynomials.

A local factor is a polynomial in X = p^(-s) with constant term 1 and
arbitrary-precision integer coefficients, so every identity holds on the
nose.

The tensor construction is root-free: the inverse roots of a factor are the
eigenvalues of the companion matrix of its reversed polynomial, so the
tensor factor is the reversed characteristic polynomial of a Kronecker
product of integer companion matrices.  Coefficients of the degree-8 lifted
factor reach p^(3k-6) scale squared, far past 64 bits, hence everything runs
on Python big integers with exact trace-recurrence divisions.  The Kronecker
product of a 2 x 2 and a 4 x 4 companion matrix has 21 nonzero entries of
64, so the recurrence multiplies only a matrix's nonzero entries, and at its
last step it forms only the trace it needs.  Each step builds a row of the
next matrix as a whole list, one list comprehension per nonzero entry of
that row, not one generator per matrix entry: interpreter overhead, not the
big-integer arithmetic, is most of the route's cost.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache
from typing import Sequence

from ._value import Value

_LN2 = math.log(2)

#: Largest bit length of p^|m| for which an integer point m takes the exact
#: rational route, whose cost grows with |m|.  Past it p^(-|m|) is far
#: outside float range and the mantissa split gives the value: 1/c0 once the
#: terms underflow, an OverflowError once they overflow.
_EXACT_MAX_BITS = 1 << 13

#: The coefficient types a LocalFactor accepts: int exactly, so not bool.
_INT_ONLY = frozenset((int,))


class PoleError(ArithmeticError):
    """Evaluation hit a zero of the local polynomial (a pole of 1/f)."""


class LocalFactor(Value):
    """Polynomial c0 + c1 X + ... + cd X^d with c0 = 1, tagged by prime and
    representation.

    ``root_exponent``, when set, is a certified exact value of the largest
    base-p log modulus of the inverse roots, proved by its constructor from
    integer identities and inequalities (see ``gl2_factor_exact`` and
    ``lifting.lifted_spin_factor_exact``).  It is a certificate about the
    coefficients, not part of the factor: equality and JSON ignore it.

    ``LocalFactor(...)`` checks p (an int, not a bool, at least 2) and every
    coefficient; the exact builders check their inputs (``_check_inputs``)
    and build through ``_built_factor``, as ``tensor_local_factor`` does from
    two factors already checked.
    """

    __slots__ = ("p", "coeffs", "rep", "root_exponent")
    _uncompared = ("root_exponent",)

    def __init__(
        self,
        p: int,
        coeffs: tuple,
        rep: str,
        root_exponent: Fraction | None = None,
    ) -> None:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError("p must be an integer")
        if p < 2:
            raise ValueError("p must be at least 2")
        if not coeffs:
            raise ValueError("coefficient list is empty")
        if set(map(type, coeffs)) != _INT_ONLY:
            raise ValueError("local factor coefficients must be integers")
        if coeffs[0] != 1:
            raise ValueError("constant coefficient must be 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "root_exponent", root_exponent)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "degree": self.degree,
            "rep": self.rep,
            "coeffs": [str(c) for c in self.coeffs],
        }


# The slot setters, looked up by field name: cheaper than object.__setattr__.
_set_p, _set_coeffs, _set_rep, _set_root_exponent = (
    LocalFactor.p.__set__, LocalFactor.coeffs.__set__,
    LocalFactor.rep.__set__, LocalFactor.root_exponent.__set__,
)


def _check_inputs(p: int, *inputs: int) -> None:
    """The exact builders' input check, in place of ``LocalFactor``'s scan:
    p >= 2, and each input (a power of p among them) an int, not a bool."""
    if p < 2:
        raise ValueError("p must be at least 2")
    for x in inputs:
        if type(x) is not int:
            raise ValueError("local factor coefficients must be integers")


def _built_factor(p: int, coeffs: tuple, rep: str, root_exponent=None) -> LocalFactor:
    """A LocalFactor whose int coefficients, constant term 1, were computed
    from inputs that passed ``_check_inputs`` or from checked factors: they
    are not scanned again."""
    f = object.__new__(LocalFactor)
    _set_p(f, p)
    _set_coeffs(f, coeffs)
    _set_rep(f, rep)
    _set_root_exponent(f, root_exponent)
    return f


#: n/2, one shared Fraction per n: the form every root certificate takes.
half_integer = cache(lambda n: Fraction(n, 2))


def gl2_factor_exact(k: int, p: int, a_p: int) -> LocalFactor:
    """Exact degree-2 factor 1 - a_p X + p^(k-1) X^2 of an elliptic eigenform,
    certified root exponent (k-1)/2 within the Deligne bound a_p^2 <= 4p^(k-1).
    k, p and a_p must be ints (not bools), p >= 2, k >= 1: else ValueError."""
    q = p ** (k - 1)
    _check_inputs(p, k, a_p, q)
    certificate = half_integer(k - 1) if a_p * a_p <= 4 * q else None
    return _built_factor(p, (1, -a_p, q), "spin-1", certificate)


def gsp4_spin_factor_exact(k: int, p: int, lam_p: int, lam_p2: int) -> LocalFactor:
    """Exact degree-4 spin factor of a degree-2 eigenform from T_p and T_{p^2}
    eigenvalues, in the classical integer-coefficient form.  The inputs must
    be ints (not bools), p >= 2 and k >= 2: else ValueError."""
    m = p ** (2 * k - 4)
    _check_inputs(p, k, lam_p, lam_p2, m)
    r = m * p
    return _built_factor(p, (1, -lam_p, lam_p * lam_p - lam_p2 - m, -lam_p * r, r * r), "spin-2")


def gsp4_tempered(c1: int, c2: int, q_f: int) -> bool:
    """Whether 1 + c1 X + c2 X^2 + c1 q_f X^3 + q_f^2 X^4 has every inverse
    root on |r| = q_f^(1/2), decided in integers.

    The factor is (1 - xX + q_f X^2)(1 - yX + q_f X^2) with x + y = -c1 and
    xy = c2 - 2q_f, and its roots lie on that circle iff x, y are real with
    |x|, |y| <= 2 q_f^(1/2), that is c1^2 - 4c2 + 8q_f >= 0, 2q_f + c2 >= 0,
    (2q_f + c2)^2 >= 4 c1^2 q_f and c1^2 <= 16q_f.  A Saito-Kurokawa factor
    fails it: its x = p^(k-1) + p^(k-2) exceeds 2 q_f^(1/2).
    """
    sq, w = c1 * c1, 2 * q_f + c2
    return sq - 4 * c2 + 8 * q_f >= 0 and w >= 0 and w * w >= 4 * sq * q_f and sq <= 16 * q_f


def spin_factor_from_record(record, p: int) -> LocalFactor:
    """Exact spin factor at p of a degree-1 or degree-2 eigenvalue record."""
    if record.degree == 1:
        return gl2_factor_exact(record.weight, p, record.lambda_p(p))
    return gsp4_spin_factor_exact(record.weight, p, record.lambda_p(p), record.lambda_p2(p))


def companion_matrix(coeffs: Sequence[int]) -> list[list[int]]:
    """Integer companion matrix whose eigenvalues are the factor's inverse
    roots (the matrix of the reversed, monic polynomial)."""
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("factor must have positive degree")
    m = [[0] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = 1
    for i in range(d):
        m[i][d - 1] = -coeffs[d - i]
    return m


def kronecker_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    na, nb = len(a), len(b)
    out = [[0] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            if a[i][j] == 0:
                continue
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def charpoly(matrix: list[list[int]]) -> list[int]:
    """Monic characteristic polynomial [1, c1, ..., cn] of a square integer
    matrix; [1] for the 0 x 0 matrix.  The matrix is left unchanged.

    Uses the Faddeev–LeVerrier trace recurrence B_k = A (B_(k-1) + c_(k-1) I),
    c_k = -tr(B_k) / k.  Row i of A B is the sum of x times row m of B over
    the nonzero entries x = A[i][m], so each row of B_k is built as a whole
    list, one list comprehension per nonzero entry of A.  The last step needs
    only tr(A B), so B_n is never formed.  Every division is exact over the
    integers and is asserted to be so, keeping the computation fraction-free
    in effect.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("characteristic polynomial of a non-square matrix")
    if not n:
        return [1]
    rows = [[(m, x) for m, x in enumerate(row) if x] for row in matrix]
    b = [row[:] for row in matrix]
    out = [1, -sum(b[i][i] for i in range(n))]
    for k in range(2, n + 1):
        for i in range(n):
            b[i][i] += out[-1]
        if k < n:
            new = []
            for row in rows:
                acc = [0] * n
                for m, x in row:
                    acc = [u + x * v for u, v in zip(acc, b[m])]
                new.append(acc)
            b = new
            tr = sum(b[i][i] for i in range(n))
        else:
            tr = sum(x * b[m][i] for i, row in enumerate(rows) for m, x in row)
        if tr % k:
            raise ArithmeticError("characteristic polynomial step left a remainder")
        out.append(-(tr // k))
    return out


def tensor_local_factor(a: LocalFactor, b: LocalFactor) -> LocalFactor:
    """Exact tensor factor det(1 - (C_a (x) C_b) X) of degree deg(a)*deg(b).

    C_a and C_b are the companion matrices of the reversed polynomials, so
    the inverse roots of the result are all pairwise products of inverse
    roots of the inputs, computed without any root extraction.  The inputs'
    coefficients are ints, so those of the result are too: it is built
    without a second scan.
    """
    if a.p != b.p:
        raise ValueError("tensor factors must share a prime")
    m = kronecker_product(companion_matrix(a.coeffs), companion_matrix(b.coeffs))
    return _built_factor(a.p, tuple(charpoly(m)), "tensor")


def evaluate(f: LocalFactor, s: complex) -> complex:
    """Reciprocal local L-value 1 / f(p^(-s)).

    At real integer s the value is computed in exact rational arithmetic
    before the final rounding, as long as p^|s| stays below
    2^_EXACT_MAX_BITS; otherwise terms are summed with a mantissa/exponent
    split so huge integer coefficients never overflow.  Raises PoleError
    when f(p^(-s)) vanishes and OverflowError when it leaves float range.
    No coefficient is checked here: the factor's builder did.
    """
    s = complex(s)
    return _reciprocal(f, s, int(s.real) if s.imag == 0 and s.real.is_integer() else None)


def evaluate_product(factors: Sequence[LocalFactor], s: complex) -> complex:
    """complex(1) times ``evaluate(f, s)`` for each factor in turn, bit for bit,
    with the integer-point test run once; the exact-route bound depends on p."""
    s = complex(s)
    m = int(s.real) if s.imag == 0 and s.real.is_integer() else None
    value = complex(1)
    for f in factors:
        value *= _reciprocal(f, s, m)
    return value


def _reciprocal(f: LocalFactor, s: complex, m: int | None) -> complex:
    """``evaluate``'s value at a complex s; m is int(s) when s is a real
    integer, else None."""
    p, coeffs = f.p, f.coeffs
    if m is not None and abs(m) * p.bit_length() <= _EXACT_MAX_BITS:
        # Horner's rule in z = p^|m|: sum c_j z^(d-j) / z^d, or sum c_j z^j.
        z = p ** abs(m)
        num = 0
        for c in coeffs if m >= 0 else reversed(coeffs):
            num = num * z + c
        if num == 0:
            raise PoleError(f"local factor at p={p} vanishes at s={m}")
        # int / int is correctly rounded: the float nearest f(p^(-m)).
        return complex(1 / (num / (z ** (len(coeffs) - 1) if m >= 0 else 1)))
    # c * p^(-j*s) without capping |c| at float range: split off a power of 2.
    log_p = math.log(p)
    acc = 0j
    for j, c in enumerate(coeffs):
        if c:
            shift = c.bit_length() - 53
            if shift > 0:
                c = c >> shift if c >= 0 else -((-c) >> shift)
            else:
                shift = 0
            acc += c * cmath.exp(shift * _LN2 - j * s * log_p)
    if acc == 0:
        raise PoleError(f"local factor at p={p} vanishes at s={s}")
    if not cmath.isfinite(acc):
        # A term passed float range, where 1 / acc would give nan or a lost sign.
        raise OverflowError(f"local factor at p={p} leaves float range at s={s}")
    return 1 / acc
