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

from fractions import Fraction
from typing import TYPE_CHECKING

from . import modforms
from ._value import Value
from .localfactors import (
    LocalFactor,
    _built_factor,
    _check_inputs,
    gl2_factor_exact,
    gsp4_spin_factor_exact,
    gsp4_tempered,
    half_integer,
    tensor_local_factor,
)
from .primes import is_prime

if TYPE_CHECKING:
    from .modforms import EigenvalueRecord
    from .satake import SatakeParams


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
    """One prime's worth of input data for the lift.

    Exact eigenvalue data, when supplied, must describe the same forms as
    the numeric Satake parameters; it unlocks the exact verification routes.
    """

    __slots__ = ("gl2", "gsp4", "gl2_data", "gsp4_data")

    def __init__(
        self,
        gl2: SatakeParams,
        gsp4: SatakeParams,
        gl2_data: tuple[int, int] | None = None,  # (weight, a_p)
        gsp4_data: tuple[int, int, int] | None = None,  # (weight, lam_p, lam_p2)
    ) -> None:
        if gl2.degree != 1 or gsp4.degree != 2:
            raise ValueError("lift input needs a degree-1 and a degree-2 component")
        if gl2.p != gsp4.p:
            raise ValueError("components must share a prime")
        for k in (gl2.weight, gsp4.weight):
            if k % 2 or k <= 0:
                raise ValueError("component weights must be positive and even")
        if gl2_data is not None and gl2_data[0] != gl2.weight:
            raise ValueError("exact degree-1 data disagrees with parameter weight")
        if gsp4_data is not None and gsp4_data[0] != gsp4.weight:
            raise ValueError("exact degree-2 data disagrees with parameter weight")
        object.__setattr__(self, "gl2", gl2)
        object.__setattr__(self, "gsp4", gsp4)
        object.__setattr__(self, "gl2_data", gl2_data)
        object.__setattr__(self, "gsp4_data", gsp4_data)

    @property
    def p(self) -> int:
        return self.gl2.p


class WeightCheck(Value):
    """Typed outcome of the weight constraint; rejections carry the Hodge
    witness showing the product type matches no degree-3 type."""

    __slots__ = ("accepted", "k", "witness")

    def __init__(self, accepted: bool, k: int | None, witness: dict | None = None) -> None:
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "witness", {} if witness is None else witness)


def lift_weights(k1: int, k2: int) -> WeightCheck:
    """Accept (k1, k2) iff k1 = k2 - 2, returning the lifted weight k2.

    A rejection is a normal outcome, not an error.  Its witness reports the
    unique weight K whose degree-3 Hodge type could carry the Kunneth
    product (if any) and the mismatch found there.
    """
    for k in (k1, k2):
        if k % 2 or k <= 0:
            raise ValueError("weights must be positive even integers")
    if k1 == k2 - 2:
        return WeightCheck(True, k2)
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
    return WeightCheck(False, None, witness)


def _check_lift_weights(inp: LiftInput) -> None:
    check = lift_weights(inp.gl2.weight, inp.gsp4.weight)
    if not check.accepted:
        raise ValueError(
            f"weights ({inp.gl2.weight}, {inp.gsp4.weight}) do not fit the "
            f"lift pattern (k-2, k); witness: {check.witness}"
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

    The upper half comes from the functional equation when P has the shape
    (c3, c4) = (c1 q_f, q_f^2), q_f = p^(2k1+1), as every factor
    ``gsp4_spin_factor_exact`` builds at weight k1 + 2 has.  Then
    q_f^2 X^4 P(1/(q_f X)) = P(X), and with N = q q_f, r1/N = 1/(q_f r2) gives
    N^4 X^8 P(r1/(NX)) P(r2/(NX)) = P(r2 X) P(r1 X): c_(8-j) = N^(4-j) c_j.
    Any other P takes the expansion above for X^5..X^8 too.

    The factor carries a certified ``root_exponent``, checked by integer
    identities and inequalities, when P has that shape, a_p^2 <= 4q
    (Deligne: P_h = 1 - a_p X + q X^2 has roots on |r| = q^(1/2)) and, with
    u = pq, v = p^(k1+1) and q_f = uv, P is one of two shapes, which between
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
    q2 = q * q
    t1 = c1 * q
    t2 = c2 * q2
    e1 = c1 * a_p
    e2 = c1 * t1 + c2 * s2
    e3 = c3 * s3 + t1 * c2 * a_p
    u = q * p
    v = u * p
    q_f = u * v
    root_exponent = None
    if c3 != c1 * q_f or c4 != q_f * q_f:
        t3 = c3 * q2 * q
        e5 = t1 * c4 * s3 + t2 * c3 * a_p
        e6 = c3 * t3 + t2 * c4 * s2
        e7 = t3 * c4 * a_p
        e8 = c4 * c4 * q2 * q2
    else:
        n = q * q_f
        n2 = n * n
        e5 = e3 * n
        e6 = e2 * n2
        e7 = e1 * n2 * n
        e8 = n2 * n2
        if a2 <= 4 * q:
            b = -c1 - u - v
            if c2 == 2 * q_f + b * (u + v) and b * b <= 4 * q_f:
                root_exponent = half_integer(3 * gl2_weight + 1)
            elif gsp4_tempered(c1, c2, q_f):
                root_exponent = half_integer(3 * gl2_weight)
    coeffs = (1, e1, e2, e3, c2 * t2 + c4 * s4 + t1 * c3 * s2, e5, e6, e7, e8)
    return _built_factor(p, coeffs, "spin-3", root_exponent)


def _exact_components(inp: LiftInput) -> tuple[int, int, LocalFactor]:
    """(k1, a_p, exact degree-2 spin factor) of an input with exact data."""
    if inp.gl2_data is None or inp.gsp4_data is None:
        raise ValueError("exact route requires exact eigenvalue data")
    k1, a_p = inp.gl2_data
    k2, lam, lam2 = inp.gsp4_data
    return k1, a_p, gsp4_spin_factor_exact(k2, inp.p, lam, lam2)


def lifted_mu_exponents(inp: LiftInput) -> tuple[Fraction, Fraction, Fraction]:
    """Exact base-p log moduli of the lifted (beta1, beta2, alpha1), read off
    the certificate of ``lifted_spin_factor_exact`` instead of the doubles.

    The certificate puts alpha1 on the unit circle (exponent 0) and the
    degree-2 factor in one of two shapes: Saito-Kurokawa, where beta1 and
    beta2 have exponent -1/2 and the lift's root exponent is (3k1+1)/2, or
    tempered, where both are 0 and it is 3k1/2.  Either way the beta
    exponent is 3k1/2 less the root exponent.  Weights off the lift pattern
    and missing exact data raise ValueError, data without a certificate an
    ArithmeticError naming p.
    """
    root_exponent = lift_route_spin_factor(inp).root_exponent
    if root_exponent is None:
        raise ArithmeticError(
            f"the lift at p={inp.p} has no certified exponents: a_p is past "
            "the Deligne bound, or the degree-2 factor is neither a "
            "Saito-Kurokawa split within the bound nor tempered"
        )
    beta = half_integer(3 * inp.gl2_data[0]) - root_exponent
    return beta, beta, half_integer(0)


def lift_route_spin_factor(inp: LiftInput) -> LocalFactor:
    """Exact spin factor of the lift, expanded along it (needs eigenvalue
    data); weights off the lift pattern raise ValueError."""
    _check_lift_weights(inp)
    k1, a_p, gsp4 = _exact_components(inp)
    return lifted_spin_factor_exact(k1, a_p, gsp4)


def tensor_route_spin_factor(inp: LiftInput) -> LocalFactor:
    """Exact tensor of the two component spin factors (needs eigenvalue data)."""
    k1, a_p, gsp4 = _exact_components(inp)
    return tensor_local_factor(gl2_factor_exact(k1, inp.p, a_p), gsp4)


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

    The degree-2 record must carry T_{p^2} data of lift type so that its
    numeric Satake parameters can be reconstructed.
    """
    from .satake import satake_from_record

    check_lift_degrees(h, g)
    return LiftInput(
        gl2=satake_from_record(h, p),
        gsp4=satake_from_record(g, p),
        gl2_data=(h.weight, h.lambda_p(p)),
        gsp4_data=(g.weight, g.lambda_p(p), g.lambda_p2(p)),
    )


def synthetic_lift_input(k: int, p: int) -> LiftInput:
    """Weight-(k-2, k) input with a_p = 0 components, for sweeps over k.

    The degree-1 parameters sit on the unit circle after normalization and
    the degree-2 component is of lift type, so every structural property the
    cuspidality decision relies on holds at any even k >= 4.
    """
    from .satake import saito_kurokawa_satake, satake_from_gl2

    if k % 2 or k < 4:
        raise ValueError("k must be even and at least 4")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    try:
        gl2 = satake_from_gl2(k - 2, p, 0)
        gsp4 = saito_kurokawa_satake(k, p, 0)
    except OverflowError as exc:
        raise OverflowError(
            f"Satake data at k={k}, p={p} overflow a double: 4*p^(2k-3) >= 2^1024"
        ) from exc
    return LiftInput(
        gl2=gl2,
        gsp4=gsp4,
        gl2_data=(k - 2, 0),
        gsp4_data=(
            k,
            modforms.sk_eigenvalue(k, p, 0),
            modforms.sk_eigenvalue_psquared(k, p, 0),
        ),
    )
