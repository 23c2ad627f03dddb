import math
import random

import pytest

from spinlift.primes import is_prime, primes_up_to


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_up_to(1000)) == 168
    # against trial division: every bound below 300, and the fixture and
    # Euler-product sizes
    primes = [p for p in range(2, 20001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for n in [*range(-2, 300), 1000, 1999, 2000, 20000]:
        assert primes_up_to(n) == [p for p in primes if p <= n], n


def test_is_prime_matches_sieve():
    sieve = set(primes_up_to(500))
    for n in range(-3, 501):
        assert is_prime(n) == (n in sieve)


#: psi_t, the least strong pseudoprime to the first t prime bases, t = 1..13,
#: copied from the literature rather than from the library.
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def test_is_prime_matches_sympy_below_psi13(sympy):
    rng = random.Random(20110)
    draws = []
    for bits in range(2, PSI[-1].bit_length() + 1):
        half = max(2, bits // 2)
        for _ in range(25):
            # An odd n, a prime, and a product of two primes of half the
            # size: the composites with no small factor.
            draws.append(rng.getrandbits(bits) | 1)
            draws.append(sympy.nextprime(rng.getrandbits(bits)))
            draws.append(sympy.nextprime(rng.getrandbits(half)) * sympy.nextprime(rng.getrandbits(half)))
    # Carmichael numbers pass the Fermat test to every coprime base.
    draws += [561, 1105, 1729, 41041, 825265, 321197185, 5394826801, 232250619601]
    draws = [n for n in draws if n < PSI[-1]]
    assert len(draws) > 5000
    for n in draws:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_at_the_strong_pseudoprimes(sympy):
    from sympy.ntheory.primetest import mr

    bases = list(primes_up_to(41))
    for t, psi in enumerate(PSI[:-1], start=1):
        assert mr(psi, bases[:t]) and not sympy.isprime(psi), t
        assert is_prime(psi) is False, t
    for n in (PSI[-1], PSI[-1] + 2, 2**127 - 1):
        with pytest.raises(ValueError, match=str(PSI[-1])):
            is_prime(n)
    assert is_prime(PSI[-1] - 2) == sympy.isprime(PSI[-1] - 2)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and not is_prime(2**67 - 1)
