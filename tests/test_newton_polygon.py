"""Newton above Hodge for the degree-8 spin factor of Delta x SK.14.2.

Mazur's inequality: the Newton polygon of the local factor at p, the lower
convex hull of (j, v_p(c_j)), never lies below the Hodge polygon of the
motive, and both end at the same point.  Panchishkin's condition asks the
two to meet at d+ = d/2 = 4.  The lift factor is L(Delta, s-13)
L(Delta, s-12) L(Delta x g26, s), so the polygons meet there exactly when p
divides neither tau(p) nor a_p(g26): a test on the components alone.
"""

from fractions import Fraction
from itertools import accumulate

import pytest

from spinlift import hodge, modforms
from spinlift.lifting import (
    lift_input_from_records,
    lift_route_spin_factor,
    tensor_route_spin_factor,
)

BOUND = 1000


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "fixtures.json"
    modforms.write_fixtures(path, BOUND)
    return modforms.load_fixtures(path)


def valuation(c, p):
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def newton_polygon(coeffs, p):
    """Heights at j = 0..d of the lower convex hull of (j, v_p(c_j)) over
    the nonzero c_j; c_0 and c_d must be nonzero."""
    hull = []
    for x, y in ((j, valuation(c, p)) for j, c in enumerate(coeffs) if c):
        # Drop the last vertex while it lies on or above the chord to (x, y).
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
            <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])
        ):
            hull.pop()
        hull.append((x, y))
    heights = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        heights += [y0 + Fraction((y1 - y0) * (j - x0), x1 - x0) for j in range(x0, x1)]
    return [*heights, hull[-1][1]]


def hodge_polygon(ht):
    """Heights at j = 0..rank of the polygon whose slopes are the p of each
    Hodge pair (p, q), in increasing order."""
    return [0, *accumulate(sorted(p for p, _ in ht.pairs))]


def test_newton_polygon_of_known_shapes():
    # 1 + 24X + 2048X^2 at p = 2: v = 0, 3, 11 is already convex.
    assert newton_polygon((1, 24, 2048), 2) == [0, 3, 11]
    # 1 + 4X + 2X^2 at p = 2: the point (1, 2) lies above the chord.
    assert newton_polygon((1, 4, 2), 2) == [0, Fraction(1, 2), 1]
    # A zero coefficient is no vertex.
    assert newton_polygon((1, 0, 9), 3) == [0, 1, 2]


def test_hodge_polygon_of_the_lift():
    assert hodge_polygon(hodge.hodge_gsp6(14)) == [0, 0, 11, 23, 36, 59, 83, 108, 144]


@pytest.mark.parametrize("route", [lift_route_spin_factor, tensor_route_spin_factor])
def test_newton_polygon_lies_above_hodge_and_meets_it_at_ordinary_primes(records, route):
    h, g = records["Delta.12.1"], records["SK.14.2"]
    g26 = records["g26.26.1"]
    hodge_heights = hodge_polygon(hodge.hodge_gsp6(14))
    primes = h.primes()
    assert len(primes) == 168
    meets = set()
    for p in primes:
        newton = newton_polygon(route(lift_input_from_records(h, g, p)).coeffs, p)
        assert all(n >= hh for n, hh in zip(newton, hodge_heights, strict=True)), p
        assert newton[-1] == hodge_heights[-1], p
        if newton[4] == hodge_heights[4]:
            meets.add(p)
    # The oracle reads only the two elliptic components.
    ordinary = {p for p in primes if h.lambda_p(p) * g26.lambda_p(p) % p}
    assert meets == ordinary
    assert sorted(set(primes) - ordinary) == [2, 3, 5, 7, 11, 13, 17, 19, 23]
