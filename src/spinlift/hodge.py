"""Hodge types of the motives behind elliptic and Siegel eigenforms.

A Hodge type is a multiset of (p, q) pairs, pure of weight p + q and
symmetric under swapping p and q.  Kunneth products add pairs termwise; the
weight solver recovers the unique weight pattern (K-2, K, K) for which the
product of the degree-1 and degree-2 types is the degree-3 type.
"""

from __future__ import annotations

from collections import Counter

from ._value import Value


class HodgeType(Value):
    """Multiset of (p, q) pairs, stored sorted so equality is multiset
    equality with duplicates significant."""

    __slots__ = ("pairs", "weight")

    def __init__(self, pairs: tuple[tuple[int, int], ...], weight: int) -> None:
        if not pairs:
            raise ValueError("need at least one (p, q) pair")
        pairs = tuple(sorted((int(p), int(q)) for p, q in pairs))
        for p, q in pairs:
            if p < 0 or q < 0:
                raise ValueError(f"negative Hodge index in ({p},{q})")
            if p + q != weight:
                raise ValueError(f"impure pair ({p},{q}) for weight {weight}")
        if Counter(pairs) != Counter((q, p) for p, q in pairs):
            raise ValueError("pairs are not symmetric under (p,q) <-> (q,p)")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weight", weight)

    @property
    def rank(self) -> int:
        return len(self.pairs)


def _even_at_least(value: int, minimum: int, what: str) -> None:
    if value % 2 or value < minimum:
        raise ValueError(f"{what} must be even and at least {minimum}, got {value}")


def hodge_gl2(k: int) -> HodgeType:
    """Type of an elliptic eigenform of weight k: (0, k-1) + (k-1, 0)."""
    _even_at_least(k, 2, "weight")
    return HodgeType(((0, k - 1), (k - 1, 0)), k - 1)


def hodge_gsp4(l: int) -> HodgeType:
    """Type of a degree-2 eigenform of weight l, rank 4, weight 2l - 3."""
    _even_at_least(l, 2, "weight")
    return HodgeType(
        ((0, 2 * l - 3), (l - 2, l - 1), (l - 1, l - 2), (2 * l - 3, 0)),
        2 * l - 3,
    )


def hodge_gsp6(K: int) -> HodgeType:
    """Type of a degree-3 eigenform of weight K, rank 8, weight 3K - 6."""
    _even_at_least(K, 4, "weight")
    half = ((0, 3 * K - 6), (K - 3, 2 * K - 3), (K - 2, 2 * K - 4), (K - 1, 2 * K - 5))
    return HodgeType(half + tuple((q, p) for p, q in half), 3 * K - 6)


def kunneth_tensor(a: HodgeType, b: HodgeType) -> HodgeType:
    """Termwise sum multiset {(p1+p2, q1+q2)}, pure of weight w_a + w_b."""
    pairs = tuple(
        (p1 + p2, q1 + q2) for p1, q1 in a.pairs for p2, q2 in b.pairs
    )
    return HodgeType(pairs, a.weight + b.weight)


def weight_solver(lo: int, hi: int) -> tuple[tuple[int, int, int], ...]:
    """All even triples (k, l, K) in [lo, hi] with
    kunneth_tensor(hodge_gl2(k), hodge_gsp4(l)) == hodge_gsp6(K).

    The product always holds the pair (0, k-1) + (l-2, l-1) = (l-2, k+l-2),
    so l - 2 must be a first index of hodge_gsp6(K): K-3, K-2, K-1, 2K-5,
    2K-4, 2K-3 or 3K-6 (the index 0 would need l = 2).  Each such K fixes
    k = 3K - 2l - 2 through the weights (k - 1) + (2l - 3) = 3K - 6, and the
    multiset comparison runs only when k and K are even weights in range:
    at most seven candidates per l, so the work is linear in the range.
    Triples come in ascending (k, l) order."""
    if lo % 2:
        lo += 1
    evens = range(max(lo, 4), hi + 1, 2)
    out = []
    for l in evens:
        right_l = hodge_gsp4(l)
        # l - 2 = a K + b for each first index a K + b of hodge_gsp6(K).
        for a, b in ((1, -3), (1, -2), (1, -1), (2, -5), (2, -4), (2, -3), (3, -6)):
            K, rest = divmod(l - 2 - b, a)
            k = 3 * K - 2 * l - 2
            if rest or K not in evens or k not in evens:
                continue
            if kunneth_tensor(hodge_gl2(k), right_l) == hodge_gsp6(K):
                out.append((k, l, K))
    return tuple(sorted(out))
