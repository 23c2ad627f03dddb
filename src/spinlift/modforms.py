"""Eigenform fixtures generated from scratch out of integer q-expansions.

The series engine is exact: coefficients are integers and a product
truncates at the series order.  From it the package manufactures its own
test data: the integral level-one Eisenstein series, the discriminant cusp
form, the weight-26 newform spanning S_26, and the degree-2 weight-14
eigendata realized through the lift whose spinor factor splits off two
zeta-type lines.  The eigenvalue records that hold those data, and the
fixtures file that stores them, are defined here too.
"""

from __future__ import annotations

import decimal
import json
import math
import operator
import os
import struct
from decimal import Decimal
from itertools import chain, repeat

from ._value import MAX_SIZE, Value
from .primes import primes_up_to

DEFAULT_ORDER = 64
DEFAULT_PRIME_BOUND = 19

_FORMS = (("Delta.12.1", 1, 12), ("SK.14.2", 2, 14), ("g26.26.1", 1, 26))
FIXTURE_LABELS = tuple(label for label, _, _ in _FORMS)


class QSeries(Value):
    """Truncated q-expansion with integer coefficients.

    Index n is the coefficient of q^n; the order is the truncation degree
    and a product truncates to the smaller order.  Every series the package
    builds is integral: delta, the weight-26 newform, and the Eisenstein
    series of the weights whose normalizing factor -2k/B_k is an integer
    (see ``eisenstein``).

    Products use Kronecker substitution: both coefficient vectors are packed
    into single decimals in slots of w decimal digits, w large enough that
    no product coefficient can overflow its slot, multiplied in the stdlib
    ``decimal`` module, and the first order + 1 slots of the result are
    read back as biased digit fields, which a product hands to the next
    product, so ints are made only of the coefficients a caller reads (see
    ``_pack``).  The cost is one multiply of two integers of about
    (order + 1) * w digits, instead of order^2 / 2 coefficient multiplies.
    libmpdec stores 19 digits per word (9 on 32-bit builds) and multiplies
    a product of more than 1024 words by a number-theoretic transform of
    2^m or 3 * 2^m words.  Where it would take 3 * 2^m, the low slots are
    summed exactly from pieces that each fit a power of two instead (see
    ``_split_slots``).  Inside this module, delta and delta * E_14 size
    their slots by Deligne's bound on the coefficients they read instead of
    by their inputs (see ``_kronecker_mul``).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "QSeries") -> "QSeries":
        order = min(self.order, other.order)
        a = _fields(self.coeffs[: order + 1])
        b = a if other is self else _fields(other.coeffs[: order + 1])
        return QSeries(tuple(_ints(_kronecker_mul(a, b))))


def _max_bits(coeffs) -> int:
    return max(max(coeffs).bit_length(), min(coeffs).bit_length())


#: Exact decimal arithmetic for the packed products: precision and exponent
#: range at their maxima, and every signal that could lose a digit trapped.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)

#: Longest digit string that int() and str() convert under every setting of
#: the interpreter's int/str digit limit: 640 is its smallest nonzero value.
#: Longer slots convert through Decimal, which the limit does not cover.
_SAFE_DIGITS = 640


def _fields(coeffs) -> list[bytes]:
    """Biased digit fields of an integer vector: each c as the v digits of
    c + 5 * 10^(v-1), v the decimal digits of 2^(bits + 1), so that |c| <
    2^bits < 5 * 10^(v-1) and every field lies in [0, 10^v)."""
    v = Decimal(1 << _max_bits(coeffs) + 1).adjusted() + 1
    text = b"%d".__mod__ if v <= _SAFE_DIGITS else lambda c: str(Decimal(c)).encode()
    biased = map(text, map(operator.add, coeffs, repeat(5 * 10 ** (v - 1))))
    return list(map(bytes.zfill, biased, repeat(v)))


def _ints(fields) -> list[int]:
    """The coefficients behind equal-width biased digit fields."""
    v = len(fields[0])
    read = int if v <= _SAFE_DIGITS else lambda f: int(Decimal(f.decode()))
    return list(map(operator.sub, map(read, fields), repeat(5 * 10 ** (v - 1))))


def _pack(fields, w: int, repunit: Decimal) -> Decimal:
    """A = sum_k c_k * 10^(w*k) from the biased fields of the c_k, v <= w
    digits wide, and the repunit sum_k 10^(w*k) over as many slots.  Padded
    to w digits and joined, the fields read A + 5 * 10^(v-1) * repunit;
    subtracting that multiple leaves A exactly.  No int is made."""
    padded = b"".join(map(bytes.zfill, reversed(fields), repeat(w)))
    return _EXACT.fma(repunit, -5 * 10 ** (len(fields[0]) - 1), Decimal(padded.decode()))


def _repeat(digits: int, n: int) -> Decimal:
    """The repunit sum_{k<n} 10^(digits*k), by doubling from the top bit of n."""
    out, m = Decimal(0), 0  # out holds m slots
    for bit in bin(n)[2:]:
        out = _EXACT.fma(out, Decimal((0, (1,), m * digits)), out)
        m *= 2
        if bit == "1":
            out = _EXACT.fma(out, Decimal((0, (1,), digits)), 1)
            m += 1
    return out


#: Decimal digits in one libmpdec word: 19 on 64-bit builds, whose MAX_PREC
#: is 10^18 - 1, and 9 on 32-bit builds, whose MAX_PREC is 425000000.
_WORD_DIGITS = 19 if decimal.MAX_PREC > 425_000_000 else 9


def _tripled(words: int) -> bool:
    """Whether libmpdec multiplies a product of words words by a 3 * 2^m
    transform (``_mpd_get_transform_len`` in mpdecimal.c): past 1024 words
    it takes the least 2^m or 3 * 2^m that holds the product."""
    return words > 1024 and 4 * words <= 3 << (words - 1).bit_length()


def _split_slots(n: int, w: int) -> int | None:
    """Slots h in the low pieces of a split product of n slots of w digits,
    or None when the whole packed product needs no 3 * 2^m transform.

    Two packed operands hold at most r = 2 * ceil(n * w / D) words, D =
    _WORD_DIGITS.  With p the largest power of two below r, the transform
    has 3p/2 words when r <= 3p/2, and that costs about as much as 2p.
    Then h = floor(D * p / (2w)) is the most slots whose square fits p
    words.  From n * w / D <= 3p/4, h >= floor(2n/3) >= n/2 for n >= 2;
    from n * w / D > p/2, h < n.  Where the cross products would take a
    3 * 2^m transform too, h falls just far enough that they pass 3q/4
    words, q the power of two above, if h stays >= n/2 and no piece is
    tripled: at n = 2002, w = 45, h = 1677 gives them 1540 words and a
    2048-word transform, where h = 1729 gave 1294 words and 1536.
    """
    words = -(-n * w // _WORD_DIGITS) * 2
    if n < 2 or not _tripled(words):
        return None
    h = _WORD_DIGITS * (1 << (words - 1).bit_length() - 1) // (2 * w)
    cross = -(-(n - h) * w // _WORD_DIGITS) * 2
    if _tripled(cross):  # the fewest cross slots past 3q/4 words instead
        lower = n - 3 * _WORD_DIGITS * (1 << cross.bit_length()) // (8 * w) - 1
        pieces = (-(-k * w // _WORD_DIGITS) * 2 for k in (lower, n - lower))
        if 2 * lower >= n and not any(map(_tripled, pieces)):
            h = lower
    return h


def _split_product(a, b, h: int, w: int, r0: Decimal, r1: Decimal) -> Decimal:
    """A0 * B0 + X^h * (A0' * B1 + A1 * B0'), or A0^2 + 2 X^h A0' * A1 when
    a is b: the packed product A * B less terms of X^n and above.

    X = 10^w; A0, B0 pack the first h slots of a and b, A1, B1 the rest,
    and A0', B0' the first n - h, with h >= n / 2 (see _kronecker_mul);
    r0 and r1 are the repunits of h and of n - h slots (see _pack).
    """
    n = len(a)
    a0, a1, a0_ = _pack(a[:h], w, r0), _pack(a[h:], w, r1), _pack(a[: n - h], w, r1)
    if a is b:
        low = _EXACT.multiply(a0, a0)
        cross = _EXACT.multiply(a0_, a1)
        shift = Decimal((0, (2,), h * w))
    else:
        b0, b1, b0_ = _pack(b[:h], w, r0), _pack(b[h:], w, r1), _pack(b[: n - h], w, r1)
        low = _EXACT.multiply(a0, b0)
        cross = _EXACT.add(_EXACT.multiply(a0_, b1), _EXACT.multiply(a1, b0_))
        shift = Decimal((0, (1,), h * w))
    return _EXACT.fma(cross, shift, low)


def _kronecker_mul(a, b, result_bits: int | None = None) -> list[bytes]:
    """Biased digit fields of the first len(a) coefficients of the product
    of two equal-length vectors of biased digit fields (see ``_fields``),
    by multiplying packed decimals (a is b squares one packing).

    Every coefficient read must fit its slot.  With result_bits, the
    caller's bound |c| < 2^result_bits on the n = len(a) coefficients read,
    width = max(bits(a), bits(b), result_bits) + 1; the default result_bits
    = bits(a) + bits(b) + bits(n) bounds every product coefficient, and
    then width is bits(a) + bits(b) + bits(n) + 1.  bits() reads the least
    and the greatest field.  A slot of w digits, w the number of decimal
    digits of 2^width, so 10^w > 2^width, holds every read c within
    +-5 * 10^(w-1), and no field of a or b is wider: ``_fields`` makes
    fields as narrow as their bits allow, and the slots of delta's
    squarings and of delta * E_14 widen from each product to the next.

    The product P is one multiply, P = A * B, unless libmpdec would give it
    a 3 * 2^m transform (see _split_slots).  Then P is summed exactly from
    pieces that each fit a power-of-two transform (see _split_product).

    Why the low n slots are exact even when upper ones overflow: with
    X = 10^w, a field of v <= w digits holds a_k + 5 * 10^(v-1) in
    [0, 10^v), so padded to w digits it is one base-X digit, and _pack
    reads A = sum a_k X^k exactly from the fields of a, or of a slice of
    them; likewise B.  The read coefficients are c_k = sum_{i+j=k} a_i b_j,
    k < n; let L = sum_{k<n} c_k X^k.  A * B - L holds only terms with
    i + j >= n, so it is a multiple of X^n.  On the split route, P = A0 B0
    + X^h (A0' B1 + A1 B0') holds each term a_i b_j with i + j < n exactly
    once: i, j < h in A0 B0; j >= h forces i < n - h <= h, in A0' B1;
    i >= h forces j < n - h, in A1 B0'; i, j >= h gives i + j >= 2h >= n.
    Every other term it holds has i + j >= n, so again P - L is a multiple
    of X^n, whatever the pieces' own slots hold: the sum is exact decimal
    arithmetic, so a piece's partial sums may overflow their slots.  For a
    square, A0' A1 + A1 A0' = 2 A0' A1.

    Adding 5 * 10^(w-1) to each of the low n slots makes L + bias a number
    in [0, X^n) whose slots are c_k + 5 * 10^(w-1), nonnegative and below
    X: the biased fields of the c_k, w digits wide, which the next product
    packs as above.  So L + bias is P + bias mod X^n, however the slots
    above overflow and carry into each other.
    """
    n = len(a)
    bits_a = _max_bits(_ints([min(a), max(a)]))  # equal-width fields sort as values
    bits_b = bits_a if a is b else _max_bits(_ints([min(b), max(b)]))
    if result_bits is None:
        result_bits = bits_a + bits_b + n.bit_length()
    width = max(bits_a, bits_b, result_bits) + 1
    w = Decimal(1 << width).adjusted() + 1
    h = _split_slots(n, w)
    if h is None:
        repunit = _repeat(w, n)
        packed = _pack(a, w, repunit)
        prod = _EXACT.multiply(packed, packed if a is b else _pack(b, w, repunit))
    else:
        r0, r1 = _repeat(w, h), _repeat(w, n - h)
        prod = _split_product(a, b, h, w, r0, r1)
        repunit = _EXACT.fma(r1, Decimal((0, (1,), h * w)), r0)
    prod = _EXACT.fma(repunit, 5 * 10 ** (w - 1), prod)
    top = prod.scaleb(-n * w, _EXACT).to_integral_value(decimal.ROUND_FLOOR, _EXACT)
    raw = str(_EXACT.subtract(prod, top.scaleb(n * w, _EXACT))).zfill(n * w).encode()
    del prod  # the product's low digits now live in raw alone
    fields = list(struct.Struct(f"{w}s" * n).unpack(raw))  # highest slot first
    fields.reverse()
    return fields


def _bounded_mul(a, b, bound: int) -> list[bytes]:
    """_kronecker_mul(a, b) for a product whose first len(a) coefficients a
    theorem puts within +-bound: slots sized by the bound, not the inputs.

    A coefficient past the bound, in any of those slots, means the
    theorem's hypotheses failed (wrong inputs), and its slot may have
    overflowed: AssertionError, not a wrong series.
    """
    fields = _kronecker_mul(a, b, bound.bit_length())
    lo, hi = _ints([min(fields), max(fields)])
    if hi > bound or lo < -bound:
        raise AssertionError("packed product exceeds the bound that sized its slots")
    return fields


def _sigma_table(e: int, order: int) -> list[int]:
    """sigma_e(n) for n = 0..order (entry 0 unused), one multiply per
    composite n and one power per prime.

    sigma_e is multiplicative: with p the least prime factor of n and p^a
    the power of p dividing n exactly, sigma_e(n) = sigma_e(p^a) *
    sigma_e(n / p^a), and sigma_e(p^a) = p^e * sigma_e(p^(a-1)) + 1.
    """
    least = [0] * (order + 1)  # least prime factor of composite n, else 0
    for p in reversed(primes_up_to(math.isqrt(order))):
        least[p * p :: p] = [p] * ((order - p * p) // p + 1)
    table = [0, 1] + [0] * (order - 1)
    part = table[:]  # p^a for the least prime p of n
    for n in range(2, order + 1):
        p = least[n]
        if not p:
            part[n] = n
            table[n] = n**e + 1
            continue
        m = n // p
        part[n] = part[m] * p if m % p == 0 else p
        rest = n // part[n]
        if rest > 1:
            table[n] = table[part[n]] * table[rest]
        else:
            table[n] = (table[p] - 1) * table[m] + 1
    return table


#: -2k/B_k by weight k, for the k where it is an integer: 4, 6, 8, 10 and
#: 14, the level-one weights with no cusp form (Serre, A Course in
#: Arithmetic, VII 4).  At every other even k >= 4 (checked to 200), the
#: numerator of B_k does not divide 2k.
_EISENSTEIN_FACTOR = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


def eisenstein(k: int, order: int = DEFAULT_ORDER) -> QSeries:
    """Weight-k level-one Eisenstein series 1 - (2k/B_k) sum sigma_{k-1}(n) q^n,
    for the weights whose series has integer coefficients (see
    ``_EISENSTEIN_FACTOR``); any other k is a ValueError."""
    if k not in _EISENSTEIN_FACTOR:
        raise ValueError(
            f"weight {k}: the integral Eisenstein series have weight 4, 6, 8, 10 or 14"
        )
    if order < 1:
        raise ValueError("order must be positive")
    factor = _EISENSTEIN_FACTOR[k]
    return QSeries((1, *[factor * s for s in _sigma_table(k - 1, order)[1:]]))


def delta(order: int = DEFAULT_ORDER) -> QSeries:
    """The discriminant cusp form q * prod_{n>=1} (1 - q^n)^24, c(1) = 1.

    The cube of the Euler product has Jacobi's sparse expansion
    sum_m (-1)^m (2m+1) q^(m(m+1)/2), with about sqrt(2 * order) terms
    below q^order.  Its square, the 6th power to order - 1, is summed
    directly over pairs of those terms (1,592 small-int products at
    order 2001).  Two packed squarings give the 12th and 24th powers;
    shifting by one power of q gives delta.  The first sizes its slots by
    its inputs; the second by Deligne's bound |tau(n)| <= d(n) n^(11/2) <=
    2 n^6 (d(n) <= 2 sqrt(n)) on the coefficients it reads: 13 and 21
    digits per coefficient at order 2001.  There the squares hold 2 * 1370
    and 2 * 2211 words, so libmpdec would give them transforms of 3072 and
    6144 words; both are summed from split pieces instead (see
    ``_kronecker_mul``), the second from order 1853 up.
    """
    return QSeries(tuple(_ints(_delta_fields(order))))


def _delta_fields(order: int) -> list[bytes]:
    """Biased digit fields of delta's coefficients 0..order (see delta)."""
    if order < 2:
        raise ValueError("order must be at least 2")
    cube = []
    m = 0
    while m * (m + 1) // 2 < order:
        cube.append((m * (m + 1) // 2, (-1) ** m * (2 * m + 1)))
        m += 1
    sixth = [0] * order
    for i, (s, a) in enumerate(cube):
        for t, b in cube[i:]:
            if s + t >= order:
                break
            sixth[s + t] += a * b if s == t else 2 * a * b
    sixth = _fields(sixth)
    twelfth = _kronecker_mul(sixth, sixth)
    fields = _bounded_mul(twelfth, twelfth, 2 * order**6)
    fields.insert(0, b"5".ljust(len(fields[0]), b"0"))  # c(0) = 0
    return fields


def newform_weight26(order: int = DEFAULT_ORDER) -> QSeries:
    """The normalized eigenform spanning the one-dimensional space S_26.

    Obtained as delta * E_14; the product already has c(1) = 1 and the
    one-dimensionality of the space makes it an eigenform automatically.
    """
    return QSeries(tuple(_ints(_weight26_fields(_delta_fields(order)))))


def _weight26_fields(dl: list[bytes]) -> list[bytes]:
    """Biased digit fields of delta * E_14 from those of delta, its slots
    sized by Deligne's bound on the newform, |a(n)| <= d(n) n^(25/2) <=
    2 n^13: 144 bits at order 2001, so E_14's own 148-bit coefficients set
    the slot at 45 digits, where the input-sized product needs 67.  Its
    2 * 4742 words would take a 12288-word transform, so it is summed from
    split pieces instead (see ``_kronecker_mul``)."""
    order = len(dl) - 1
    e14 = _fields(eisenstein(14, order).coeffs)  # E_14's ints are freed
    f = _bounded_mul(dl, e14, 2 * order**13)
    if _ints(f[1:2]) != [1]:
        raise AssertionError("weight-26 eigenform failed its normalization")
    return f


def sk_eigenvalue(k: int, p: int, a_p: int) -> int:
    """Degree-2 Hecke eigenvalue a_p + p^(k-1) + p^(k-2) of the lift of a
    weight-(2k-2) elliptic eigenform with eigenvalue a_p."""
    return _sk_pair(a_p, p, p ** (k - 2))[0]


def sk_eigenvalue_psquared(k: int, p: int, a_p: int) -> int:
    """Degree-2 eigenvalue for T_{p^2}, forced by the split spinor factor.

    The degree-4 spin polynomial of the lift factors as
    (1 - p^(k-1) X)(1 - p^(k-2) X)(1 - a_p X + p^(2k-3) X^2); matching its
    quadratic coefficient against the generic degree-2 spin polynomial
    determines lambda_{p^2} = lambda_p^2 - p^(2k-4) - 2 p^(2k-3) - a_p
    (p^(k-1) + p^(k-2)), which is a_p lambda_p + p^(2k-2).
    """
    return _sk_pair(a_p, p, p ** (k - 2))[1]


def _sk_pair(a_p: int, p: int, low: int) -> tuple[int, int]:
    """(lambda_p, lambda_{p^2}) of the lift, from low = p^(k-2) alone."""
    high = low * p
    lam = a_p + high + low
    return lam, a_p * lam + high * high


class EigenvalueRecord(Value):
    """Exact Hecke eigenvalues of a labelled eigenform: eigenvalues maps each
    prime, in increasing order, to (lambda_p, lambda_{p^2} or None).  The
    constructor refuses what no command can compute with (ValueError): a
    label that is not a string, a degree other than 1 or 2, a weight outside
    2..MAX_SIZE (powers p^(k-1) of a larger one) and primes that do not increase.
    """

    __slots__ = ("label", "degree", "weight", "eigenvalues")

    def __init__(
        self, label: str, degree: int, weight: int, eigenvalues: dict[int, tuple[int, int | None]]
    ) -> None:
        if type(label) is not str:
            raise ValueError(f"record label must be a string, got {label!r}")
        if type(degree) is not int or degree not in (1, 2):
            raise ValueError(f"record {label!r} has degree {degree!r}, not 1 or 2")
        if type(weight) is not int or not 2 <= weight <= MAX_SIZE:
            raise ValueError(f"record {label!r} has weight {weight!r}, not in 2..{MAX_SIZE}")
        ps = list(eigenvalues)
        if any(q <= p for p, q in zip(ps, ps[1:])):
            raise ValueError("primes must be strictly increasing")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    def primes(self) -> tuple[int, ...]:
        return tuple(self.eigenvalues)

    def lambda_p(self, p: int) -> int:
        try:
            return self.eigenvalues[p][0]
        except KeyError:
            raise ValueError(f"record {self.label!r} has no entry for prime {p}") from None

    def lambda_p2(self, p: int) -> int:
        lam2 = self.eigenvalues[p][1] if p in self.eigenvalues else None
        if lam2 is None:
            raise ValueError(f"record {self.label!r} has no p^2 eigenvalue at {p}")
        return lam2

    def to_json_dict(self) -> dict:
        eigenvalues = []
        for p, (lam, lam2) in self.eigenvalues.items():
            item = {"p": p, "lambda_p": str(lam)}
            if lam2 is not None:
                item["lambda_p2"] = str(lam2)
            eigenvalues.append(item)
        return {
            "label": self.label,
            "degree": self.degree,
            "weight": self.weight,
            "eigenvalues": eigenvalues,
        }


def _fixture_rows(prime_bound: int, order: int) -> tuple[list[tuple[int, int, int]], ...]:
    """Per-prime rows (lambda_p, lambda_{p^2}, p), the file's key order, of
    the _FORMS: tau(p) and a(p) read off delta and delta * E_14, a_p^2 -
    p^(k-1) in degree 1 and the lift's pair in degree 2, from one p^12."""
    if prime_bound < 2:
        raise ValueError("prime bound must be at least 2")
    dl = _delta_fields(max(order, prime_bound + 1))
    g26 = _weight26_fields(dl)
    ps = primes_up_to(prime_bound)
    tau, a26, lows = _ints([dl[p] for p in ps]), _ints([g26[p] for p in ps]), [p**12 for p in ps]
    return (
        [(t, t * t - low // p, p) for p, t, low in zip(ps, tau, lows)],
        [(lam, lam2, p) for p, (lam, lam2) in zip(ps, map(_sk_pair, a26, ps, lows))],
        [(a, a * a - low * low * p, p) for p, a, low in zip(ps, a26, lows)],
    )


def fixture_records(
    prime_bound: int = DEFAULT_PRIME_BOUND, order: int = DEFAULT_ORDER
) -> tuple[EigenvalueRecord, ...]:
    """Records of the stock eigenforms: the rows write_fixtures writes, wrapped."""
    return tuple(
        EigenvalueRecord(*form, {p: (lam, lam2) for lam, lam2, p in rows})
        for form, rows in zip(_FORMS, _fixture_rows(prime_bound, order))
    )


def fixtures_payload(
    prime_bound: int = DEFAULT_PRIME_BOUND, order: int = DEFAULT_ORDER
) -> dict:
    records = sorted(fixture_records(prime_bound, order), key=lambda r: r.label)
    return {
        "schema_version": 1,
        "prime_bound": prime_bound,
        "order": max(order, prime_bound + 1),
        "records": [r.to_json_dict() for r in records],
    }


#: json.dumps(fixtures_payload(...), sort_keys=True, indent=2), written out
#: as templates of the file, of a record and of an eigenvalue entry (a record
#: always has at least one entry: the prime bound is at least 2).
_FILE = ('{\n  "order": %d,\n  "prime_bound": %d,\n  "records": [\n%s\n  ],\n'
         '  "schema_version": 1\n}\n')
_RECORD = ('    {\n      "degree": %d,\n      "eigenvalues": [\n%s\n      ],\n'
           '      "label": %s,\n      "weight": %d\n    }')
_ENTRY = ('        {\n          "lambda_p": "%d",\n          "lambda_p2": "%d",\n'
          '          "p": %d\n        }')


def write_fixtures(
    path: str | os.PathLike, prime_bound: int = DEFAULT_PRIME_BOUND, order: int = DEFAULT_ORDER
) -> None:
    """Write fixtures deterministically, straight from the rows that
    fixture_records wraps; regeneration is byte-identical."""
    body = ",\n".join(
        _RECORD % (degree, ",\n".join([_ENTRY] * len(rows)) % tuple(chain.from_iterable(rows)),
                   json.dumps(label), weight)
        for (label, degree, weight), rows in zip(_FORMS, _fixture_rows(prime_bound, order))
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_FILE % (max(order, prime_bound + 1), prime_bound, body))


def load_fixtures(path: str | os.PathLike) -> dict[str, EigenvalueRecord]:
    """Records of a fixtures file by label; ValueError for JSON of another
    shape, for a record the constructor refuses, for a label that appears
    twice or for an entry at a p that is not a prime in 2..MAX_SIZE (one
    sieve up to the file's largest p decides them all)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema_version") != 1:
        raise ValueError("fixtures are not a JSON object of schema version 1")
    if not isinstance(data["records"], list):
        raise ValueError("fixtures records are not a list")
    by_label: dict[str, EigenvalueRecord] = {}
    for item in data["records"]:
        try:  # one column at a time, each checked and converted in one pass
            items = item["eigenvalues"]
            ps, lams = [e["p"] for e in items], _decimal_ints([e["lambda_p"] for e in items])
            lam2s = [e.get("lambda_p2") for e in items]
        except TypeError as exc:
            raise ValueError(f"malformed fixtures record: {exc}") from None
        if not set(map(type, ps)) <= {int}:  # no float, and no bool for an int
            bad = next(p for p in ps if type(p) is not int)
            raise ValueError(f"expected an integer, got {bad!r}")
        if None in lam2s:  # lambda_{p^2} may be left out at a prime, but not null
            given = iter(_decimal_ints([e["lambda_p2"] for e in items if "lambda_p2" in e]))
            lam2s = [next(given) if "lambda_p2" in e else None for e in items]
        else:
            lam2s = _decimal_ints(lam2s)
        eigenvalues = dict(zip(ps, zip(lams, lam2s)))
        if len(eigenvalues) < len(ps):  # a repeated prime, which the dict drops
            raise ValueError("primes must be strictly increasing")
        record = EigenvalueRecord(item["label"], item["degree"], item["weight"], eigenvalues)
        if record.label in by_label:
            raise ValueError(f"fixtures label {record.label!r} appears more than once")
        by_label[record.label] = record
    largest = max((next(reversed(r.eigenvalues), 0) for r in by_label.values()), default=0)
    primes = set(primes_up_to(min(largest, MAX_SIZE)))
    for record in by_label.values():
        if not primes.issuperset(record.eigenvalues):
            bad = next(p for p in record.eigenvalues if p not in primes)
            raise ValueError(
                f"record {record.label!r} has an entry at p = {bad}, not a prime in 2..{MAX_SIZE}"
            )
    return by_label


def _decimal_ints(values: list) -> list[int]:
    """The ints of JSON integers (not bools) and ASCII decimal strings with one
    optional minus sign: a column of strings takes one check in all."""
    try:
        text = "".join(values)
    except TypeError:  # a value that is not a string
        text = ""
    if not (text.isascii() and text.encode().replace(b"-", b"").isdigit()):  # bytes: fast
        for v in values:
            if type(v) is not int and not (
                type(v) is str and v.isascii() and v.replace("-", "").isdigit()
            ):
                raise ValueError(f"expected an integer or a decimal string, got {v!r}")
    return list(map(int, values))  # only digits and minus signs: "--5" still fails
