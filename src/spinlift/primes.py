"""Prime enumeration by sieve and a deterministic primality test."""

from __future__ import annotations

from itertools import compress

#: psi_t, the least odd composite that is a strong pseudoprime to each of
#: the first t prime bases, t = 1..13 (Jaeschke 1993 for t <= 8, Jiang and
#: Deng 2014 for t = 9..11, Sorenson and Webster 2017 for t = 12, 13).
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def primes_up_to(n: int) -> list[int]:
    """All primes p <= n by Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return list(compress(range(n + 1), sieve))


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below psi_13: an odd n < psi_t that passes
    the strong test to the first t prime bases is prime, so p <= 2046 takes
    one base.  n >= psi_13 is a ValueError."""
    if n < 3 or n % 2 == 0:
        return n == 2
    if n >= _PSI[-1]:
        raise ValueError(f"primality is decided only below {_PSI[-1]}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True
