import decimal
import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from spinlift import localfactors, modforms
from spinlift.lifting import lift_input_from_records
from spinlift.modforms import QSeries
from spinlift.primes import primes_up_to

from conftest import (
    WRONG_FIXTURE_SHAPES,
    check_normalization,
    divided_component_eigenvalue,
    hecke_eigenvalue,
    poly_mul,
    ramanujan_check,
    saito_kurokawa_satake,
    with_duplicated_first_record,
)


# ---------------------------------------------------------------- oracles

@cache
def bernoulli_recurrence(m: int) -> Fraction:
    # B_m (B_1 = -1/2 convention) by the defining recurrence
    if m == 0:
        return Fraction(1)
    return -sum(math.comb(m + 1, j) * bernoulli_recurrence(j) for j in range(m)) / (m + 1)


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    # independent of the defining recurrence (B1 convention differs, so
    # compare only even indices)
    a = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        for m in range(n + 1 - j):
            a[m] = (m + 1) * (a[m] - a[m + 1])
    return a[0]


def naive_sigma(n: int, e: int) -> int:
    return sum(d**e for d in range(1, n + 1) if n % d == 0)


def _mul_trunc(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def naive_delta(order: int) -> list[int]:
    # q * prod (1 - q^n)^24 by repeated naive multiplication
    poly = [1] + [0] * order
    for n in range(1, order + 1):
        one_minus = [0] * (order + 1)
        one_minus[0] = 1
        one_minus[n] = -1
        for _ in range(24):
            poly = _mul_trunc(poly, one_minus, order)
    return [0] + poly[:order]


def sparse_cube_delta(order: int) -> list[int]:
    # q * (sum_m (-1)^m (2m+1) q^(m(m+1)/2))^8 by eight sparse passes
    cube = []
    m = 0
    while m * (m + 1) // 2 <= order - 1:
        cube.append((m * (m + 1) // 2, (-1) ** m * (2 * m + 1)))
        m += 1
    acc = [1] + [0] * (order - 1)
    for _ in range(8):
        nxt = [0] * order
        for i, a in enumerate(acc):
            if a:
                for j, c in cube:
                    if i + j >= order:
                        break
                    nxt[i + j] += a * c
        acc = nxt
    return [0] + acc


# ---------------------------------------------------------------- QSeries

HUGE = 2**1000

coefficient_lists = st.one_of(
    st.lists(st.integers(-HUGE, HUGE), min_size=1, max_size=40),
    st.lists(st.integers(-5, 5), min_size=1, max_size=40),
    st.lists(st.just(0), min_size=1, max_size=40),
    st.lists(st.integers(-HUGE, -1), min_size=1, max_size=40),
    st.lists(st.sampled_from([HUGE, -HUGE, HUGE - 1, 1 - HUGE]), min_size=1, max_size=40),
)
series = st.builds(QSeries, coefficient_lists.map(tuple))


@settings(max_examples=300, deadline=None)
@given(series, series)
@example(QSeries((-3,)), QSeries((5, 1, -HUGE)))
def test_qseries_mul_matches_schoolbook(a, b):
    order = min(a.order, b.order)
    assert a * b == QSeries(tuple(_mul_trunc(a.coeffs, b.coeffs, order)))
    assert a * a == QSeries(tuple(_mul_trunc(a.coeffs, a.coeffs, a.order)))


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 7, 12, 1000])
def test_qseries_mul_saturated_slots(bits):
    # all entries 2^bits - 1 over 2^L - 1 terms: the top product coefficient
    # comes as close to the slot's sign bit as the sizing allows
    m = 2**bits - 1
    for length in (1, 3, 7, 15, 31, 63, 127):
        a = QSeries((m,) * length)
        expected = _mul_trunc(a.coeffs, a.coeffs, a.order)
        assert list((a * a).coeffs) == expected
        assert list((a * QSeries((-m,) * length)).coeffs) == [-c for c in expected]


@pytest.mark.parametrize("d", [1, 2, 9, 19, 300])
def test_qseries_mul_saturated_decimal_slots(d):
    # entries 10^d - 1 and 5 * 10^d bring product coefficients close to the
    # decimal slot's half-range 5 * 10^(w-1); each length takes the next
    # pair of entries.  Closed forms share no code with the packed product:
    # constant series give (k + 1) x y at q^k, and an alternating factor
    # gives (-1)^k (k + 1) x y or x y [k even]
    nines, fives = 10**d - 1, 5 * 10**d
    pairs = [(nines, nines), (fives, fives), (nines, fives), (nines, -fives), (-fives, -nines)]
    for length in range(1, 128):
        x, y = pairs[length % len(pairs)]
        a, b = QSeries((x,) * length), QSeries((y,) * length)
        a_alt = QSeries(tuple(x if i % 2 == 0 else -x for i in range(length)))
        b_alt = QSeries(tuple(y if i % 2 == 0 else -y for i in range(length)))
        ks = range(length)
        assert list((a * b).coeffs) == [(k + 1) * x * y for k in ks]
        assert list((a * a).coeffs) == [(k + 1) * x * x for k in ks]
        assert list((a_alt * b_alt).coeffs) == [(-1) ** k * (k + 1) * x * y for k in ks]
        assert list((a_alt * b).coeffs) == [x * y if k % 2 == 0 else 0 for k in ks]


def test_packed_products_run_in_a_context_that_cannot_round():
    ctx = modforms._EXACT
    assert (ctx.prec, ctx.Emax, ctx.Emin) == (decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN)
    for signal in (decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow):
        assert ctx.traps[signal], signal


@pytest.fixture(params=["default", "smallest"])
def int_str_digit_limit(request):
    # the interpreter's int/str conversion limit at its default and at its
    # smallest nonzero value; products must not depend on it
    limits = sys.int_info
    limit = limits.default_max_str_digits if request.param == "default" else limits.str_digits_check_threshold
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    yield limit
    sys.set_int_max_str_digits(saved)


def test_qseries_mul_past_the_int_str_digit_limit(int_str_digit_limit):
    m = 2**20000 - 1  # product coefficients of about 12000 digits
    a = QSeries((m, -m, m, m, -m))
    b = QSeries((-m, -m, m, -m, m))
    assert list((a * b).coeffs) == _mul_trunc(a.coeffs, b.coeffs, 4)
    assert list((a * a).coeffs) == _mul_trunc(a.coeffs, a.coeffs, 4)
    minus_a = QSeries(tuple(-c for c in a.coeffs))
    assert list((a * minus_a).coeffs) == [-c for c in _mul_trunc(a.coeffs, a.coeffs, 4)]


@pytest.mark.parametrize("bits", [3000, 7500])
def test_qseries_mul_64_terms_of_thousands_of_bits(int_str_digit_limit, bits):
    # 64 terms of up to `bits` bits: slots of 1800 or 4500 digits, packed
    # operands past 10^5 digits; at 7500 bits the product coefficients
    # themselves pass the default limit of 4300 digits
    rng = random.Random(bits)
    a = QSeries(tuple(rng.randrange(-(2**bits), 2**bits) for _ in range(64)))
    b = QSeries(tuple(rng.randrange(-(2**bits), 2**bits) for _ in range(64)))
    assert list((a * b).coeffs) == _mul_trunc(a.coeffs, b.coeffs, 63)
    assert list((a * a).coeffs) == _mul_trunc(a.coeffs, a.coeffs, 63)


# ---------------------------------------------------------------- slots sized by the answer

def _kronecker_product(a, b, result_bits=None):
    # the packed product of two integer vectors: biased digit fields in,
    # fields out, read back as ints (b is a squares one packing)
    fa = modforms._fields(a)
    fb = fa if b is a else modforms._fields(b)
    return modforms._ints(modforms._kronecker_mul(fa, fb, result_bits))


def _random_vector(rng, n, bits):
    return [0 if rng.random() < 0.3 else rng.randrange(-(2**bits), 2**bits) for _ in range(n)]


def test_bounded_product_matches_schoolbook():
    # result_bits is the exact size of the coefficients read, as tight as a
    # caller may pass it; squares go through the a is b branch
    rng = random.Random(23)
    for _ in range(600):
        n = rng.randrange(1, 41)
        a = _random_vector(rng, n, rng.randrange(0, 200))
        b = a if rng.random() < 0.3 else _random_vector(rng, n, rng.randrange(0, 200))
        expected = _mul_trunc(a, b, n - 1)
        assert _kronecker_product(a, b, modforms._max_bits(expected)) == expected


def test_bounded_product_reads_past_overflowing_upper_slots():
    # Large entries only in the upper halves: every product of two of them
    # lands at q^n or above, unread, and overflows the slots sized for the
    # low coefficients; the low coefficients must come out exact.
    rng = random.Random(2301)
    overflowed = 0
    for _ in range(300):
        n = rng.randrange(2, 41)
        bits = rng.randrange(8, 300)
        low = n // 2
        a = [rng.randrange(-1, 2) for _ in range(low)] + _random_vector(rng, n - low, bits)
        b = a if rng.random() < 0.3 else (
            [rng.randrange(-1, 2) for _ in range(low)] + _random_vector(rng, n - low, bits)
        )
        full = _mul_trunc(a + [0] * n, b + [0] * n, 2 * n - 2)
        result_bits = modforms._max_bits(full[:n])
        width = max(modforms._max_bits(a), modforms._max_bits(b), result_bits) + 1
        half = 5 * 10 ** (len(str(2**width)) - 1)
        assert _kronecker_product(a, b, result_bits) == full[:n]
        overflowed += max(map(abs, full[n:])) >= half
    assert overflowed >= 250  # the case is exercised


def test_bounded_product_reads_coefficients_at_the_slot_edge():
    # Slots of w digits, w the digits of 2^(result_bits + 1).  Wherever
    # u = (edge + 1) / 2 fits in result_bits, entries u and v = u - 1 give
    # read coefficients u + v = +-edge, one inside the half-range 5 * 10^(w-1).
    checked = 0
    for result_bits in range(3, 400):
        w = len(str(2 ** (result_bits + 1)))
        edge = 5 * 10 ** (w - 1) - 1
        u, v = edge - edge // 2, edge // 2
        if u.bit_length() > result_bits:
            continue
        a, b = [1, 1, 0, 0, 0], [u, v, -u, -v, 0]
        expected = _mul_trunc(a, b, 4)
        assert expected[1] == edge and expected[3] == -edge
        assert _kronecker_product(a, b, result_bits) == expected, result_bits
        checked += 1
    assert checked > 100


# ---------------------------------------------------------------- products split for libmpdec

def mpd_transform_len(rsize: int) -> int:
    # _mpd_get_transform_len of mpdecimal.c, for results of 1025 to 2^25
    # words: the least 2^m or 3 * 2^(m-1) words that hold the product
    x = 1 << rsize.bit_length() - 1
    if rsize == x:
        return x
    return x + x // 2 if rsize <= x + x // 2 else 2 * x


def _slot_bits(w: int) -> int:
    # the least result_bits for which _kronecker_mul packs slots of w digits
    return next(r for r in itertools.count(1) if len(str(2 ** (r + 1))) == w)


def test_split_slots_follow_libmpdec_transform_lengths():
    # Split exactly when libmpdec would multiply by a 3 * 2^m transform, into
    # a low square that fits the power of two below and cross terms that take
    # no 3 * 2^m transform themselves wherever a split point n/2 <= h allows
    # it: then h falls from the most slots whose square fits just far enough
    # that the cross terms pass 3/4 of the power of two q above them.
    digits = modforms._WORD_DIGITS
    assert digits == (19 if sys.maxsize > 2**32 else 9)

    def product_words(slots, w):
        return 2 * -(-slots * w // digits)

    def tripled(words):
        if words <= 1024:
            return False
        length = mpd_transform_len(words)
        return length & (length - 1) != 0

    split = moved = stuck = 0
    for w in (1, 2, 12, 13, 21, 45, 67, 300, 641, 5000, 24000):
        for n in range(1, 6000):
            words = product_words(n, w)
            h = modforms._split_slots(n, w)
            if not tripled(words) or n == 1:
                assert h is None, (n, w)
                continue
            below = 1 << (words - 1).bit_length() - 1
            most = next(k for k in itertools.count(h) if product_words(k + 1, w) > below)
            assert mpd_transform_len(product_words(h, w)) <= below, (n, w)
            assert n <= 2 * h < 2 * n, (n, w)
            cross = product_words(n - most, w)
            if h < most:
                # moved: the cross terms at most were tripled, at h they are
                # not, nor the low square, and one slot less would be
                assert tripled(cross), (n, w)
                assert not tripled(product_words(n - h, w)), (n, w)
                assert not tripled(product_words(h, w)), (n, w)
                assert tripled(product_words(n - h - 1, w)), (n, w)
                moved += 1
            elif tripled(cross):
                # stuck: no split point n/2 <= k puts the cross terms past 3/4
                # of the next power of two q with an untripled low square
                q = 1 << cross.bit_length()
                assert not any(
                    3 * q < 4 * product_words(n - k, w) <= 4 * q and not tripled(product_words(k, w))
                    for k in range(-(-n // 2), most)
                ), (n, w)
                stuck += 1
            split += 1
    assert split > 30000 and moved > 10000 and stuck < 50
    # the delta * E_14 product at order 2001: cross terms of 2 * 770 words
    # take a 2048-word transform, not the 1536 of 2 * 647 at h = 1729
    assert modforms._split_slots(2002, 45) == 1677
    assert product_words(2002 - 1729, 45) == 1294 and product_words(2002 - 1677, 45) == 1540


def _boundary_cases():
    # (n, w) on both sides of the 4096- and 8192-word boundaries: n0 slots
    # fill the power of two, n0 + 1 need a 3 * 2^m transform
    for w in (21, 45, 97, 300, 700):
        for words in (4096, 8192):
            n0 = modforms._WORD_DIGITS * (words // 2) // w
            yield n0, w, False
            yield n0 + 1, w, True


@pytest.mark.parametrize("n,w,splits", list(_boundary_cases()))
def test_split_product_matches_schoolbook_across_transform_boundaries(n, w, splits):
    # Random signed vectors whose read sums fit, as a general product and a
    # square: the first factor has about 40 nonzero entries, since the
    # schoolbook oracle skips its zeros, and the second is dense.
    assert (modforms._split_slots(n, w) is not None) == splits
    result_bits = _slot_bits(w)
    entry_bits = (result_bits - n.bit_length()) // 2
    rng = random.Random(n * 1000 + w)
    density = min(1.0, 40 / n)
    for _ in range(2):
        a = [rng.randrange(-(2**entry_bits), 2**entry_bits) if rng.random() < density else 0 for _ in range(n)]
        b = [rng.randrange(-(2**entry_bits), 2**entry_bits) for _ in range(n)]
        assert _kronecker_product(a, b, result_bits) == _mul_trunc(a, b, n - 1)
        assert _kronecker_product(a, a, result_bits) == _mul_trunc(a, a, n - 1)


def _cancelling_vector(rng, n, h, w, s, peak):
    # s, -s at q^0 and q^1, then a block that ramps up to peak at q^(h-1)
    # and peak + 1 at q^h, and back down.  Times (s, -s) it gives
    # s * (v_k - v_(k-1)) at q^k: ramp steps of at most half / (4s) keep
    # every read sum inside its slot.  The block starts at q^(n/2) or above,
    # so products of two block entries land at q^n or above, unread; the
    # ramp down is cut off at q^(n-1).
    step = 5 * 10 ** (w - 1) // (4 * s)
    ramp = [peak - k * step - rng.randrange(step // 2) for k in range(1, peak // step + 1)]
    start = h - 1 - len(ramp)
    assert 2 * start >= n
    block = (ramp[::-1] + [peak, peak + 1] + ramp)[: n - start]
    v = [0] * n
    v[0], v[1] = s, -s
    v[start : start + len(block)] = block
    return v


@pytest.mark.parametrize("n,w", [(1853, 21), (1730, 45), (4000, 21), (130, 300), (60, 700)])
def test_split_product_reads_full_sums_past_overflowing_pieces(n, w):
    # The split route's own exactness case.  At q^h the low piece holds
    # -2s * peak = -(3 * half - d), 0 < d <= 2s, past the half-range
    # half = 5 * 10^(w-1), and the cross piece holds 2s * (peak + 1), just
    # past 3 * half: each piece's slot rounds to a different multiple of
    # 10^w, and only their exact sum gives the read sum 2s.
    h = modforms._split_slots(n, w)
    assert h is not None
    half = 5 * 10 ** (w - 1)
    top = 2 ** _slot_bits(w) - 1
    s = 3 * half // (2 * top) + 2
    peak = -(-3 * half // (2 * s)) - 1
    assert peak + 1 <= top  # entries keep slots of w digits
    rng = random.Random(w)
    for square in (False, True):
        a = _cancelling_vector(rng, n, h, w, s, peak)
        b = a if square else _cancelling_vector(rng, n, h, w, s, peak)
        expected = _mul_trunc(a, b, n - 1)
        assert max(map(abs, expected)) < half
        assert expected[h] == 2 * s
        low_piece = _mul_trunc(a[:h], b[:h], n - 1)
        assert -3 * half < low_piece[h] <= -3 * half + 2 * s
        assert _kronecker_product(a, b, _slot_bits(w)) == expected


def test_fixture_products_split_only_where_a_transform_would_triple(monkeypatch):
    # (n, w, square) of every product summed from split pieces: Delta's
    # second squaring from order 1853 up, its first squaring and delta * E14
    # at each of these orders, the same in fixture_records as in
    # newform_weight26, which share one product pipeline; nothing at the
    # CLI's default size, and not the generic delta * E14 at order 2001,
    # which fills 16384 words
    calls = []
    real = modforms._split_product

    def spy(a, b, h, w, *repunits):
        calls.append((len(a), w, a is b))
        return real(a, b, h, w, *repunits)

    monkeypatch.setattr(modforms, "_split_product", spy)
    expected = {
        1852: [(1852, 13, True), (1853, 45, False)],
        1853: [(1853, 13, True), (1853, 21, True), (1854, 45, False)],
        2001: [(2001, 13, True), (2001, 21, True), (2002, 45, False)],
    }
    for order, products in expected.items():
        calls.clear()
        modforms.fixture_records(order - 1, order)
        assert calls == products, order
        calls.clear()
        modforms.newform_weight26(order)
        assert calls == products, order
    dl, e14 = modforms.delta(2001), modforms.eisenstein(14, 2001)
    calls.clear()
    modforms.fixture_records()
    dl * e14
    assert calls == []


def wide_slot_delta(order: int) -> QSeries:
    # delta by the generic product: eta^6 as the schoolbook square of
    # Jacobi's eta^3, then two squarings by QSeries.__mul__, whose slots
    # hold every product coefficient
    cube = [0] * order
    m = 0
    while m * (m + 1) // 2 < order:
        cube[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
        m += 1
    sixth = QSeries(tuple(_mul_trunc(cube, cube, order - 1)))
    twelfth = sixth * sixth
    return QSeries((0,) + (twelfth * twelfth).coeffs)


@pytest.mark.parametrize("order", [2, 3, 64, 200, 1852, 1853, 1944, 1945, 1946, 2001])
def test_deligne_sized_products_match_the_wide_slot_route(order):
    # delta and newform_weight26 against the generic product; the tau(p) and
    # a(p) that fixture_records reads off its fields against reads of both.
    # From order 1945 up, delta * E14's split point moves below the most
    # slots whose square fits, to keep its cross terms off a 3 * 2^m
    # transform (1024 words of them at order 1944, 1028 at 1945).
    wide = wide_slot_delta(order)
    wide26 = wide * modforms.eisenstein(14, order)
    dl, g26 = modforms.delta(order), modforms.newform_weight26(order)
    assert dl == wide
    assert g26 == wide26
    bound = max(2, order - 1)
    records = {r.label: r for r in modforms.fixture_records(bound, order)}
    for p in primes_up_to(bound):
        assert records["Delta.12.1"].lambda_p(p) == dl.coeffs[p] == wide.coeffs[p], p
        assert records["g26.26.1"].lambda_p(p) == g26.coeffs[p] == wide26.coeffs[p], p


@pytest.mark.parametrize("order", [8, 64, 2001])
def test_deligne_tripwire_refuses_an_inflated_eisenstein(monkeypatch, tmp_path, order):
    # E14's coefficient at q^(m-1) moved by 2^K, K past the bit length of
    # Deligne's bound: c(m) = ... + tau(1) e(m-1) of the product moves by
    # 2^K and stays inside its slot; the tripwire must refuse it.  m = order
    # moves only c(order), which fixture_records does not store; m = p, the
    # largest prime below order, moves the stored a(p) and the slots above.
    # At order 2001 the bounded delta * E14 is summed from split pieces.
    # write_fixtures refuses it before it opens the file.
    real = modforms.eisenstein
    true = modforms.newform_weight26(order)
    inflate = 2 ** ((2 * order**13).bit_length() + 3)
    real_split, split = modforms._split_product, []

    def spy(a, b, h, w, *repunits):
        split.append(a is b)
        return real_split(a, b, h, w, *repunits)

    monkeypatch.setattr(modforms, "_split_product", spy)
    for m in (order, primes_up_to(order - 1)[-1]):

        def inflated(k, n):
            e = real(k, n)
            coeffs = list(e.coeffs)
            coeffs[m - 1] += inflate
            return QSeries(tuple(coeffs))

        monkeypatch.setattr(modforms, "eisenstein", inflated)
        wrong = modforms.delta(order) * inflated(14, order)  # the generic product
        assert wrong.coeffs[:m] == true.coeffs[:m]
        assert wrong.coeffs[m] == true.coeffs[m] + inflate
        split.clear()
        with pytest.raises(AssertionError):
            modforms.newform_weight26(order)
        assert (False in split) == (order == 2001)
        with pytest.raises(AssertionError):
            modforms.fixture_records(order - 1, order)
        with pytest.raises(AssertionError):
            modforms.write_fixtures(tmp_path / "f.json", order - 1, order)
        assert not (tmp_path / "f.json").exists()


def test_qseries_truncates_to_smaller_order():
    a = QSeries((1, 1, 1, 1))
    b = QSeries((1, 1))
    assert (a * b).order == (b * a).order == 1


def test_qseries_rejects_empty():
    with pytest.raises(ValueError):
        QSeries(())


# ---------------------------------------------------------------- Bernoulli / Eisenstein

# The table test's oracle, bernoulli_akiyama_tanigawa, checked against the
# defining recurrence and known values.
@pytest.mark.parametrize("n", range(2, 31, 2))
def test_bernoulli_against_independent_algorithm(n):
    assert bernoulli_recurrence(n) == bernoulli_akiyama_tanigawa(n)


def test_bernoulli_small_values():
    assert bernoulli_recurrence(0) == 1
    assert bernoulli_recurrence(1) == Fraction(-1, 2)
    for b in (bernoulli_recurrence, bernoulli_akiyama_tanigawa):
        assert b(12) == Fraction(-691, 2730)
        assert b(14) == Fraction(7, 6)


def test_eisenstein_table_is_every_integral_weight():
    # -2k/B_k for every even k in 4..60: the table holds k exactly when it
    # is an integer, with that value, and eisenstein refuses every other k
    table = modforms._EISENSTEIN_FACTOR
    assert set(table) <= set(range(4, 61, 2))
    for k in range(4, 61, 2):
        factor = Fraction(-2 * k) / bernoulli_akiyama_tanigawa(k)
        if factor.denominator == 1:
            assert table.get(k) == factor, k
            assert modforms.eisenstein(k, 2).coeffs == (1, factor, factor * (1 + 2 ** (k - 1)))
        else:
            assert k not in table, k
            with pytest.raises(ValueError):
                modforms.eisenstein(k, 8)


@pytest.mark.parametrize(
    "k,first",
    [(4, 240), (6, -504), (8, 480), (10, -264), (14, -24)],
)
def test_eisenstein_linear_coefficients(k, first):
    e = modforms.eisenstein(k, 8)
    assert e.coeffs[0] == 1
    assert e.coeffs[1] == first


def test_eisenstein_matches_divisor_sums():
    k = 14
    e = modforms.eisenstein(k, 20)
    for n in range(1, 21):
        assert e.coeffs[n] == -24 * naive_sigma(n, k - 1)


@pytest.mark.parametrize("e", [3, 5, 7, 9, 11, 13, 25])
def test_sigma_table_matches_divisor_sums(e):
    table = modforms._sigma_table(e, 300)
    assert table[1:] == [naive_sigma(n, e) for n in range(1, 301)]
    assert modforms._sigma_table(e, 2001)[2001] == naive_sigma(2001, e)


def test_eisenstein_rejects_bad_weights():
    for k in (2, 3, 7, 0, -4, 12, 16):
        with pytest.raises(ValueError):
            modforms.eisenstein(k, 8)


# ---------------------------------------------------------------- delta and the weight-26 form

def test_delta_against_naive_eta_product():
    # Every order from 2 to 64, so the sparse square of the eta cube meets
    # every way its last kept index can fall among the triangular numbers.
    expected = naive_delta(64)
    for order in range(2, 65):
        dl = modforms.delta(order)
        assert list(dl.coeffs) == expected[: order + 1], order


def test_delta_matches_sparse_cube_recurrence():
    assert list(modforms.delta(600).coeffs) == sparse_cube_delta(600)


def test_delta_ramanujan_congruence_mod_691():
    # tau(n) = sigma_11(n) mod 691, sigma by its own divisor sieve
    order = 2000
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        dd = pow(d, 11, 691)
        for n in range(d, order + 1, d):
            sigma[n] += dd
    dl = modforms.delta(order)
    for n in range(1, order + 1):
        assert (dl.coeffs[n] - sigma[n]) % 691 == 0, n


def test_delta_known_coefficients():
    dl = modforms.delta(8)
    assert dl.coeffs[:4] == (0, 1, -24, 252)


def test_delta_hecke_relations():
    dl = modforms.delta(64)
    tau = dl.coeffs
    assert tau[4] == tau[2] ** 2 - 2**11
    assert tau[9] == tau[3] ** 2 - 3**11
    for m, n in [(2, 3), (2, 5), (3, 5), (4, 9), (3, 16), (5, 7)]:
        assert tau[m * n] == tau[m] * tau[n]


def test_delta_rejects_tiny_order():
    with pytest.raises(ValueError):
        modforms.delta(1)


def test_newform26_normalization_and_values():
    g = modforms.newform_weight26(64)
    a = g.coeffs
    assert a[1] == 1
    assert a[2] == -48
    # eigenform relations certify that delta * E14 is an eigenform
    assert a[4] == a[2] ** 2 - 2**25
    assert a[9] == a[3] ** 2 - 3**25
    for m, n in [(2, 3), (2, 5), (3, 4), (5, 7)]:
        assert a[m * n] == a[m] * a[n]


def test_newform26_is_delta_times_e14():
    g = modforms.newform_weight26(6)
    dl = modforms.delta(6)
    e = modforms.eisenstein(14, 6)
    prod = dl * e
    assert g == prod


# ---------------------------------------------------------------- degree-2 lift data

def test_sk_eigenvalue_weight14():
    assert modforms.sk_eigenvalue(14, 2, -48) == 12240
    assert modforms.sk_eigenvalue(14, 2, -48) == 8192 - 48 + 4096


def test_sk_satake_normalization_and_eigenvalue():
    sp = saito_kurokawa_satake(14, 2, -48)
    assert check_normalization(sp)
    assert abs(hecke_eigenvalue(sp) - 12240) <= 1e-9 * 12240
    assert not ramanujan_check(sp)
    # the representative puts beta0 at p^(k-1)
    assert abs(sp.mu0 - 2**13) == 0


def test_sk_satake_moduli():
    sp = saito_kurokawa_satake(14, 2, -48)
    for x in sp.mu:
        assert abs(abs(x) - 2**-0.5) <= 1e-9


def test_sk_spin_factor_splits():
    # degree-4 spin factor = (1 - p^(k-1)X)(1 - p^(k-2)X)(1 - a_p X + p^(2k-3)X^2)
    k, p, a_p = 14, 2, -48
    lam = modforms.sk_eigenvalue(k, p, a_p)
    lam2 = modforms.sk_eigenvalue_psquared(k, p, a_p)
    exact = localfactors.gsp4_spin_factor_exact(k, p, lam, lam2)
    expanded = [1]
    for fac in ([1, -(p ** (k - 1))], [1, -(p ** (k - 2))], [1, -a_p, p ** (2 * k - 3)]):
        expanded = poly_mul(expanded, fac)
    assert list(exact.coeffs) == expanded


@pytest.mark.parametrize("k,p,a_p", [(14, 2, -48), (14, 3, -195804), (12, 5, 7), (20, 2, 0)])
def test_sk_component_roundtrip(k, p, a_p):
    lam = modforms.sk_eigenvalue(k, p, a_p)
    lam2 = modforms.sk_eigenvalue_psquared(k, p, a_p)
    assert divided_component_eigenvalue(k, p, lam, lam2) == a_p


def closed_form_sk_pair(k, p, a_p):
    # lambda_p and lambda_{p^2} as the split spinor factor states them,
    # with all four powers of p: the oracle for modforms' shared pair
    lam = a_p + p ** (k - 1) + p ** (k - 2)
    quad = 2 * p ** (2 * k - 3) + a_p * (p ** (k - 1) + p ** (k - 2))
    return lam, lam * lam - p ** (2 * k - 4) - quad


def test_sk_pair_matches_the_closed_forms():
    # even k in 4..60, every p <= 997 and a_p = 0, +-the largest |a_p|
    # within Deligne's bound 2 p^((2k-3)/2) for weight 2k - 2, and +-the
    # least past it; then the SK.14.2 rows of the fixtures at B = 997
    for k in range(4, 61, 2):
        for p in primes_up_to(997):
            edge = math.isqrt(4 * p ** (2 * k - 3))
            for a_p in (0, edge, -edge, edge + 1, -edge - 1):
                lam, lam2 = closed_form_sk_pair(k, p, a_p)
                assert modforms.sk_eigenvalue(k, p, a_p) == lam, (k, p, a_p)
                assert modforms.sk_eigenvalue_psquared(k, p, a_p) == lam2, (k, p, a_p)
                assert divided_component_eigenvalue(k, p, lam, lam2) == a_p, (k, p, a_p)
    records = {r.label: r for r in modforms.fixture_records(997)}
    for p in primes_up_to(997):
        lam, lam2 = closed_form_sk_pair(14, p, records["g26.26.1"].lambda_p(p))
        assert (records["SK.14.2"].lambda_p(p), records["SK.14.2"].lambda_p2(p)) == (lam, lam2), p


def test_sk_component_rejects_non_lift_data():
    assert divided_component_eigenvalue(14, 2, 12240, 66521344 + 1) is None


def test_lift_input_from_records_rejects_non_lift_and_unknown_degrees():
    eigenvalues = {2: (12240, 66521344 + 1)}
    off_lift = modforms.EigenvalueRecord("x", 2, 14, eigenvalues)
    h = modforms.EigenvalueRecord("h", 1, 12, {2: (-24, None)})
    message = r"^record 'x' at p=2 is neither a Saito-Kurokawa split nor tempered$"
    with pytest.raises(ValueError, match=message):
        lift_input_from_records(h, off_lift, 2)
    # A record of another degree is never built, so no command meets one.
    with pytest.raises(ValueError, match="^record 'y' has degree 3, not 1 or 2$"):
        modforms.EigenvalueRecord("y", 3, 14, eigenvalues)


# ---------------------------------------------------------------- fixtures

def test_fixture_records_stock_values():
    records = {r.label: r for r in modforms.fixture_records(7)}
    assert set(records) == {"Delta.12.1", "SK.14.2", "g26.26.1"}
    assert records["Delta.12.1"].lambda_p(2) == -24
    assert records["Delta.12.1"].lambda_p2(2) == (-24) ** 2 - 2**11
    assert records["g26.26.1"].lambda_p(2) == -48
    assert records["SK.14.2"].lambda_p(2) == 12240
    assert records["SK.14.2"].weight == 14 and records["SK.14.2"].degree == 2


def test_fixture_psquare_data_matches_expansions():
    records = {r.label: r for r in modforms.fixture_records(7, order=64)}
    dl = modforms.delta(64)
    g26 = modforms.newform_weight26(64)
    for p in (2, 3, 5, 7):
        assert records["Delta.12.1"].lambda_p2(p) == dl.coeffs[p * p]
        assert records["g26.26.1"].lambda_p2(p) == g26.coeffs[p * p]


def test_fixture_write_is_deterministic(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    modforms.write_fixtures(path_a, prime_bound=5)
    modforms.write_fixtures(path_b, prime_bound=5)
    assert path_a.read_bytes() == path_b.read_bytes()
    records = modforms.load_fixtures(path_a)
    assert records["SK.14.2"].lambda_p(5) == modforms.sk_eigenvalue(
        14, 5, modforms.newform_weight26(8).coeffs[5]
    )


# sha256 of write_fixtures(path, B) output, pinned from the schoolbook engine
FIXTURE_SHA256 = {
    19: "e3daef0bbd5407757d2ebc816afcfb67c8121f9b32ee043c092798b321b337db",
    200: "0b959b6093e07877478f274b059971d4492460974c87df4bd198a2362082eaf0",
    2000: "8fd13d5a84bbffe92462072e011ef4f49e071e44f542ad6364a4b1f71c932188",
}


@pytest.mark.parametrize("bound", sorted(FIXTURE_SHA256))
def test_fixture_bytes_are_pinned(tmp_path, bound):
    path = tmp_path / "f.json"
    modforms.write_fixtures(path, bound)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXTURE_SHA256[bound]


def test_fixture_records_builds_delta_once(monkeypatch, tmp_path):
    # delta, newform_weight26, fixture_records and write_fixtures build
    # delta's fields in one place; fixture_records and write_fixtures each
    # build them once and read both series
    calls = []
    real = modforms._delta_fields
    monkeypatch.setattr(modforms, "_delta_fields", lambda order: calls.append(order) or real(order))
    modforms.fixture_records(11)
    assert len(calls) == 1
    calls.clear()
    modforms.write_fixtures(tmp_path / "f.json", 11)
    assert len(calls) == 1


def test_fixture_bound_two_gives_single_prime(tmp_path):
    records = {r.label: r for r in modforms.fixture_records(2)}
    assert records["Delta.12.1"].primes() == (2,)


def test_load_fixtures_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99, "records": []}))
    with pytest.raises(ValueError):
        modforms.load_fixtures(path)


@pytest.mark.parametrize("shape", sorted(WRONG_FIXTURE_SHAPES))
def test_load_fixtures_rejects_wrong_shapes(tmp_path, shape):
    path = tmp_path / "f.json"
    modforms.write_fixtures(path, prime_bound=3)
    path.write_text(json.dumps(WRONG_FIXTURE_SHAPES[shape](json.loads(path.read_text()))))
    with pytest.raises(ValueError):
        modforms.load_fixtures(path)


@pytest.mark.parametrize(
    "field, value",
    [("lambda_p", v) for v in ("--5", "\u0663", "2\u00b2", "+5", " 5", "5_0", "", "-", "1e3", True)]
    + [("lambda_p2", None), ("lambda_p2", "-\uff15")],
)
def test_load_fixtures_rejects_an_eigenvalue_that_is_not_a_decimal(tmp_path, field, value):
    # One optional minus sign and ASCII digits only; a non-ASCII digit is refused.
    path = tmp_path / "f.json"
    modforms.write_fixtures(path, prime_bound=3)
    data = json.loads(path.read_text())
    data["records"][0]["eigenvalues"][1][field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        modforms.load_fixtures(path)


def test_load_fixtures_reads_eigenvalues_as_strings_or_integers(tmp_path):
    # JSON integers load as their decimal strings do, and lambda_{p^2} may be
    # left out at a prime.
    path = tmp_path / "f.json"
    modforms.write_fixtures(path, prime_bound=5)
    stock = modforms.load_fixtures(path)
    data = json.loads(path.read_text())
    first = data["records"][0]
    for entry in first["eigenvalues"]:
        entry["lambda_p"] = int(entry["lambda_p"])
    del first["eigenvalues"][0]["lambda_p2"]
    path.write_text(json.dumps(data))
    records = modforms.load_fixtures(path)
    label = first["label"]
    expected = {**stock[label].eigenvalues, 2: (stock[label].lambda_p(2), None)}
    assert records[label].eigenvalues == expected
    assert {**records, label: stock[label]} == stock


def test_load_fixtures_rejects_a_repeated_prime(tmp_path):
    # The primes become the keys of a dict, where a repeat would vanish.
    path = tmp_path / "f.json"
    modforms.write_fixtures(path, prime_bound=3)
    data = json.loads(path.read_text())
    entries = data["records"][0]["eigenvalues"]
    entries[1] = {**entries[0], "lambda_p": "-25"}
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="^primes must be strictly increasing$"):
        modforms.load_fixtures(path)


@pytest.mark.parametrize(
    "index, p",
    [(2, 4), (7, 21), (0, 1), (0, 0), (0, -7), (7, 100003), (7, 10**30)],
)
def test_load_fixtures_rejects_an_entry_at_a_p_that_is_not_a_prime(tmp_path, index, p):
    # A composite, 1, 0, a negative p, and primes past MAX_SIZE, each in
    # increasing order in SK.14.2's column of a B = 19 file (2, 3, 5, ..., 19).
    path = tmp_path / "f.json"
    modforms.write_fixtures(path, prime_bound=19)
    data = json.loads(path.read_text())
    data["records"][1]["eigenvalues"][index]["p"] = p
    path.write_text(json.dumps(data))
    message = f"^record 'SK.14.2' has an entry at p = {p}, not a prime in 2..{modforms.MAX_SIZE}$"
    with pytest.raises(ValueError, match=message):
        modforms.load_fixtures(path)


def test_load_fixtures_sieves_once_up_to_the_largest_p(tmp_path, monkeypatch):
    path = tmp_path / "f.json"
    modforms.write_fixtures(path, prime_bound=1000)
    calls = []
    monkeypatch.setattr(modforms, "primes_up_to", lambda n: calls.append(n) or primes_up_to(n))
    records = modforms.load_fixtures(path)
    assert calls == [997]
    assert all(r.primes() == tuple(primes_up_to(1000)) for r in records.values())


def test_load_fixtures_rejects_a_duplicated_label(tmp_path):
    # A second Delta.12.1 record with tau(2) = -25 must not silently replace
    # the first: the file is refused, naming the label.
    path = tmp_path / "f.json"
    modforms.write_fixtures(path, prime_bound=3)
    path.write_text(json.dumps(with_duplicated_first_record(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match="^fixtures label 'Delta.12.1' appears more than once$"):
        modforms.load_fixtures(path)


@pytest.mark.parametrize("bound", [2, 3, 19, 200, 1000, 1851, 1944, 2000])
def test_fixture_file_is_sorted_indented_json(tmp_path, bound):
    # The file is written from templates and per-prime rows, not from the
    # records; its bytes must be those of the records' payload dumped with
    # sorted keys and a two-space indent.  From B = 1000 up, products are
    # summed from split pieces: delta's first squaring and delta * E14 at
    # 1000 and 1851, delta's second squaring too at 1944 and 2000, where
    # delta * E14's split point has moved down.
    path = tmp_path / "f.json"
    for order in (bound + 1, modforms.DEFAULT_ORDER, 300):
        modforms.write_fixtures(path, bound, order)
        records = sorted(modforms.fixture_records(bound, order), key=lambda r: r.label)
        payload = {
            "schema_version": 1,
            "prime_bound": bound,
            "order": max(order, bound + 1),
            "records": [r.to_json_dict() for r in records],
        }
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8"), order


def test_fixture_record_json_decimal_strings(tmp_path):
    path = tmp_path / "f.json"
    modforms.write_fixtures(path, prime_bound=3)
    data = json.loads(path.read_text())
    entry = data["records"][0]["eigenvalues"][0]
    assert isinstance(entry["lambda_p"], str)
    assert isinstance(entry["p"], int)
