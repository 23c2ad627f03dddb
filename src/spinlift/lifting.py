"""The torus lifting from GL(2) x GSp(4) Satake data to degree 3.

The lift sends ((alpha0, alpha1), (beta0, beta1, beta2)) to
(alpha0*beta0; beta1, beta2, alpha1), a monomial map that ``TORUS_MAP``
states as an integer matrix.  Two identities make it checkable at desk
scale: the degree-3 normalization is the product of the component
normalizations, and the spin trace factors, so Hecke eigenvalues multiply.
On the level of local factors, the degree-8 spin polynomial of the lift
equals the tensor of the two component spin polynomials; this module
computes both sides by genuinely different exact routes and compares them
coefficientwise: a Kronecker-companion characteristic polynomial against
the resultant P(r1 X) P(r2 X), expanded through power sums r1^n + r2^n.

The lift is a construction on Satake data only; whether it comes from an
automorphic form is a standing assumption, never a claim checked here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._value import Value
from .localfactors import (
    LocalFactor,
    _built_factor,
    _check_inputs,
    gl2_factor_exact,
    gsp4_spin_factor_exact,
    gsp4_tempered,
    half_integer,
    sk_split,
    tensor_local_factor,
)
from .primes import is_prime

if TYPE_CHECKING:
    from .modforms import EigenvalueRecord


#: The least positive int that float() refuses with OverflowError: half an
#: ulp above the largest double rounds up, to 2^1024.
_FLOAT_OVERFLOW = 2**1024 - 2**970

#: The lift on dual tori, (alpha0, alpha1; beta0, beta1, beta2) ->
#: (alpha0*beta0; beta1, beta2, alpha1), as an integer matrix on exponent
#: vectors: row i holds the exponents of (alpha0, alpha1, beta0, beta1,
#: beta2) in the i-th coordinate (mu0; mu1, mu2, mu3) of the image.
TORUS_MAP = (
    (1, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0),
)


class LiftInput(Value):
    """One prime's worth of exact input data for the lift: the degree-1
    (weight, a_p) and the degree-2 (weight, lambda_p, lambda_{p^2}) at p.
    Weights off the lift pattern (k-2, k) raise ValueError with the Hodge
    witness of ``lift_weights``.

    The exact spin factors of both components and of the lift are built
    once, here: both routes and the cuspidality decision read them from
    these internal slots, which take no part in equality, hashing or repr.
    """

    __slots__ = ("p", "gl2_data", "gsp4_data", "_gl2_factor", "_gsp4_factor", "_lift_factor")

    def __init__(
        self,
        p: int,
        gl2_data: tuple[int, int],  # (weight, a_p)
        gsp4_data: tuple[int, int, int],  # (weight, lam_p, lam_p2)
    ) -> None:
        (k1, a_p), k2 = gl2_data, gsp4_data[0]
        lift_weights(k1, k2)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gl2_data", gl2_data)
        object.__setattr__(self, "gsp4_data", gsp4_data)
        object.__setattr__(self, "_gl2_factor", gl2_factor_exact(k1, p, a_p))
        gsp4_factor = gsp4_spin_factor_exact(k2, p, gsp4_data[1], gsp4_data[2])
        object.__setattr__(self, "_gsp4_factor", gsp4_factor)
        object.__setattr__(self, "_lift_factor", lifted_spin_factor_exact(k1, a_p, gsp4_factor))


def lift_weights(k1: int, k2: int) -> int:
    """The lifted weight k2 of a pair on the lift pattern, k1 = k2 - 2.

    Off the pattern, ValueError; its message carries a witness reporting
    the unique weight K whose degree-3 Hodge type could carry the Kunneth
    product (if any) and the mismatch found there.
    """
    for k in (k1, k2):
        if k % 2 or k <= 0:
            raise ValueError("weights must be positive even integers")
    if k1 == k2 - 2:
        return k2
    # Imported here, so that an accepted pair never loads hodge.
    from . import hodge

    product = hodge.kunneth_tensor(hodge.hodge_gl2(k1), hodge.hodge_gsp4(k2))
    witness: dict = {"kunneth_weight": product.weight}
    total = product.weight + 6
    if total % 3 == 0 and total // 3 % 2 == 0 and total // 3 >= 4:
        K = total // 3
        target = hodge.hodge_gsp6(K)
        witness["candidate_K"] = K
        witness["matches"] = product == target
        witness["kunneth_pairs"] = list(product.pairs)
        witness["target_pairs"] = list(target.pairs)
    else:
        witness["candidate_K"] = None
        witness["matches"] = False
    raise ValueError(
        f"weights ({k1}, {k2}) do not fit the lift pattern (k-2, k); witness: {witness}"
    )


def lifted_spin_factor_exact(
    gl2_weight: int, a_p: int, gsp4_factor: LocalFactor
) -> LocalFactor:
    """Exact degree-8 spin factor of the lift, expanded along the lift itself.

    With r1 + r2 = a_p and r1 r2 = q = p^(k1-1) the degree-1 inverse roots,
    each spin character b of the degree-2 factor P = sum c_i X^i contributes
    1 - a_p b X + q b^2 X^2 = (1 - r1 b X)(1 - r2 b X).  The product,
    det(I - a_p X C + q X^2 C^2) for C the companion matrix of P, is the
    resultant P(r1 X) P(r2 X).  With s_n = r1^n + r2^n (s_0 = 2, s_1 = a_p,
    s_n = a_p s_(n-1) - q s_(n-2)) and t_i = c_i q^i, X^(2i) collects c_i t_i
    and X^(i+j), i < j, collects t_i c_j s_(j-i), written out for degree 4.
    No matrix is built: the route shares no code with the tensor route.

    P must have the shape (c3, c4) = (c1 q_f, q_f^2), q_f = p^(2k1+1), as
    every factor ``gsp4_spin_factor_exact`` builds at weight k1 + 2 has: else
    ValueError naming p and that weight.  Then q_f^2 X^4 P(1/(q_f X)) = P(X),
    and with N = q q_f, r1/N = 1/(q_f r2) gives
    N^4 X^8 P(r1/(NX)) P(r2/(NX)) = P(r2 X) P(r1 X): the upper half comes
    from the functional equation c_(8-j) = N^(4-j) c_j.

    The factor carries a certified ``root_exponent``, checked by integer
    identities and inequalities, when a_p^2 <= 4q
    (Deligne: P_h = 1 - a_p X + q X^2 has roots on |r| = q^(1/2)) and, with
    u = pq, v = p^(k1+1) and q_f = uv, P is one of two kinds, which between
    them cover every pair of level-one cusp forms (Deligne, and Weissauer's
    Ramanujan theorem for degree-2 Siegel forms):

    - Saito-Kurokawa: (1 - uX)(1 - vX)(1 - bX + q_f X^2), b read off c1, the
      split checked on c2 and b^2 <= 4q_f.  The lift is then
      P_h(vX) P_h(uX) R(X), R the Rankin-Selberg factor of P_h and
      1 - bX + q_f X^2, and its largest exponent (3k1+1)/2.
    - Tempered: every root of P lies on |r| = q_f^(1/2)
      (``gsp4_tempered``).  The exponent is 3k1/2, half the motivic weight.

    gl2_weight and a_p must be ints (not bools), gl2_weight >= 1: else
    ValueError.  ``gsp4_factor`` was checked when it was built.
    """
    if gsp4_factor.degree != 4:
        raise ValueError("the degree-2 spin factor must have polynomial degree 4")
    p = gsp4_factor.p
    q = p ** (gl2_weight - 1)
    _check_inputs(p, gl2_weight, a_p, q)
    _, c1, c2, c3, c4 = gsp4_factor.coeffs
    a2 = a_p * a_p
    s2 = a2 - 2 * q
    s3 = a_p * s2 - q * a_p
    s4 = a_p * s3 - q * s2
    u = q * p
    v = u * p
    q_f = u * v
    if c3 != c1 * q_f or c4 != q_f * q_f:
        raise ValueError(
            f"the degree-2 spin factor at p={p} lacks the shape (c3, c4) = "
            f"(c1*q_f, q_f^2), q_f = p^(2k-3), of weight k={gl2_weight + 2}"
        )
    t1 = c1 * q
    t2 = c2 * (q * q)
    e1 = c1 * a_p
    e2 = c1 * t1 + c2 * s2
    e3 = c3 * s3 + t1 * c2 * a_p
    n = q * q_f
    n2 = n * n
    root_exponent = None
    if a2 <= 4 * q:
        b = sk_split(c1, c2, u, v)
        if b is not None and b * b <= 4 * q_f:
            root_exponent = half_integer(3 * gl2_weight + 1)
        elif gsp4_tempered(c1, c2, q_f):
            root_exponent = half_integer(3 * gl2_weight)
    e4 = c2 * t2 + c4 * s4 + t1 * c3 * s2
    coeffs = (1, e1, e2, e3, e4, e3 * n, e2 * n2, e1 * n2 * n, n2 * n2)
    return _built_factor(p, coeffs, "spin-3", root_exponent)


def _twice_beta(inp: LiftInput) -> int:
    """2 beta, beta the exact base-p log modulus of the lifted beta1 and
    beta2, read off the certificate of ``lifted_spin_factor_exact``.

    The certificate puts alpha1 on the unit circle (exponent 0) and the
    degree-2 factor in one of two shapes: Saito-Kurokawa, where beta1 and
    beta2 have exponent -1/2 and the lift's root exponent is (3k1+1)/2, or
    tempered, where both are 0 and it is 3k1/2.  Either way the beta
    exponent is 3k1/2 less the root exponent.  Data without a certificate
    raise an ArithmeticError naming p.
    """
    root_exponent = lift_route_spin_factor(inp).root_exponent
    if root_exponent is None:
        raise ArithmeticError(
            f"the lift at p={inp.p} has no certified exponents: a_p is past "
            "the Deligne bound, or the degree-2 factor is neither a "
            "Saito-Kurokawa split within the bound nor tempered"
        )
    # A half-integer n/2 or n/1: 2 // denominator doubles it.
    return 3 * inp.gl2_data[0] - root_exponent.numerator * (2 // root_exponent.denominator)


def lift_route_spin_factor(inp: LiftInput) -> LocalFactor:
    """Exact spin factor of the lift, expanded along it, as the input built it."""
    return inp._lift_factor


def tensor_route_spin_factor(inp: LiftInput) -> LocalFactor:
    """Exact tensor of the two component spin factors."""
    return tensor_local_factor(inp._gl2_factor, inp._gsp4_factor)


class TensorIdentityReport(Value):
    __slots__ = ("ok", "p", "lift_coeffs", "tensor_coeffs")

    def __init__(self, ok: bool, p: int, lift_coeffs: tuple, tensor_coeffs: tuple) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lift_coeffs", lift_coeffs)
        object.__setattr__(self, "tensor_coeffs", tensor_coeffs)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "p": self.p,
            "lift_coeffs": [str(c) for c in self.lift_coeffs],
            "tensor_coeffs": [str(c) for c in self.tensor_coeffs],
        }


def verify_tensor_identity(inp: LiftInput, exact: bool = True) -> TensorIdentityReport:
    """Compare the lifted spin factor against the tensor factor in integers.

    The identity is checked exactly or not at all: the float route is
    retired, so ``exact=False`` raises ValueError.
    """
    if not exact:
        raise ValueError(
            "the numeric tensor-identity route is retired; the identity is "
            "checked in exact integers only"
        )
    lhs = lift_route_spin_factor(inp)
    rhs = tensor_route_spin_factor(inp)
    return TensorIdentityReport(
        ok=lhs.coeffs == rhs.coeffs, p=inp.p, lift_coeffs=lhs.coeffs, tensor_coeffs=rhs.coeffs
    )


def verify_eigenvalue_product(h: EigenvalueRecord, g: EigenvalueRecord, p: int) -> int:
    """Product of the two T_p eigenvalues, the predicted degree-3 eigenvalue."""
    return h.lambda_p(p) * g.lambda_p(p)


def check_lift_degrees(h: EigenvalueRecord, g: EigenvalueRecord) -> None:
    """Raise ValueError unless h is a degree-1 and g a degree-2 record."""
    for record, degree in ((h, 1), (g, 2)):
        if record.degree != degree:
            raise ValueError(f"record {record.label!r} is not a degree-{degree} form")


def lift_input_from_records(
    h: EigenvalueRecord, g: EigenvalueRecord, p: int
) -> LiftInput:
    """Assemble a LiftInput at p from stored eigenvalue records.

    The degree-2 data at p must be a Saito-Kurokawa split or tempered, the
    two shapes the lift's root certificate covers: else ValueError naming
    the record and p.
    """
    check_lift_degrees(h, g)
    inp = LiftInput(p, (h.weight, h.lambda_p(p)), (g.weight, g.lambda_p(p), g.lambda_p2(p)))
    _, c1, c2, _, _ = inp._gsp4_factor.coeffs
    u = p ** (g.weight - 2)
    if sk_split(c1, c2, u, u * p) is None and not gsp4_tempered(c1, c2, u * u * p):
        raise ValueError(
            f"record {g.label!r} at p={p} is neither a Saito-Kurokawa split nor tempered"
        )
    return inp


def synthetic_lift_input(k: int, p: int) -> LiftInput:
    """Weight-(k-2, k) input with a_p = 0 components, for sweeps over k.

    The degree-1 factor is within the Deligne bound and the degree-2 one a
    Saito-Kurokawa split, so every structural property the cuspidality
    decision relies on holds at any even k >= 4.  Where float(4 p^(2k-3))
    overflows, the input is refused with OverflowError.
    """
    if k % 2 or k < 4:
        raise ValueError("k must be even and at least 4")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    e, bits = 2 * k - 3, p.bit_length()
    # 2^(e(bits-1)+2) <= 4 p^e < 2^(e bits+2): the power is formed only
    # where these bounds straddle 2^1023.
    if e * (bits - 1) + 2 >= 1024 or (e * bits + 2 > 1023 and 4 * p**e >= _FLOAT_OVERFLOW):
        raise OverflowError(
            f"synthetic input at k={k}, p={p} refused: 4*p^(2k-3) >= 2^1024 - 2^970, "
            "where float() overflows"
        )
    # The lift of a_p = 0: (lambda_p, lambda_{p^2}) = (u + v, v^2), u = p^(k-2), v = pu.
    u = p ** (k - 2)
    v = u * p
    return LiftInput(p, (k - 2, 0), (k, u + v, v * v))
