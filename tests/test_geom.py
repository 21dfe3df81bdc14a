import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from compass.errors import DegenerateCircle, NonFiniteInput
from compass.geom import (
    Coincident,
    NoIntersection,
    Point,
    ResolvedCircle,
    Tangent,
    TwoPoints,
    circle_circle_intersect,
    circle_from,
    radius,
)
from compass.fuzz import SplitMix64
from compass.oracle import oracle_circle_circle

SQRT15_4 = math.sqrt(15.0) / 4.0


def circ(cx, cy, tx, ty):
    return circle_from(Point(cx, cy), Point(tx, ty))


def test_alpha_two_points():
    out = circle_circle_intersect(circ(-1, 0, 1, 0), circ(1, 0, 0, 0))
    assert isinstance(out, TwoPoints)
    assert out.left.x == pytest.approx(0.75, abs=1e-12)
    assert out.left.y == pytest.approx(SQRT15_4, abs=1e-12)
    assert out.right.x == pytest.approx(0.75, abs=1e-12)
    assert out.right.y == pytest.approx(-SQRT15_4, abs=1e-12)


def test_left_label_orientation():
    out = circle_circle_intersect(circ(-1, 0, 1, 0), circ(1, 0, 0, 0))
    # left satisfies cross(c2 - c1, L - c1) > 0
    assert (2.0 * (out.left.y - 0.0)) > 0


def test_external_tangency():
    out = circle_circle_intersect(circ(0, 0, 1, 0), circ(2, 0, 1, 0))
    assert isinstance(out, Tangent)
    assert out.point.x == pytest.approx(1.0, abs=1e-12)
    assert out.point.y == pytest.approx(0.0, abs=1e-12)


def test_internal_tangency():
    out = circle_circle_intersect(circ(0, 0, 2, 0), circ(1, 0, 2, 0))
    assert isinstance(out, Tangent)
    assert out.point.x == pytest.approx(2.0, abs=1e-12)


def test_coincident():
    out = circle_circle_intersect(circ(0, 0, 1, 0), circ(0, 0, 0, 1))
    assert isinstance(out, Coincident)


def test_disjoint_and_nested():
    assert isinstance(
        circle_circle_intersect(circ(0, 0, 0.1, 0), circ(5, 0, 5.1, 0)),
        NoIntersection)
    assert isinstance(
        circle_circle_intersect(circ(0, 0, 3, 0), circ(0.5, 0, 0.6, 0)),
        NoIntersection)


def test_concentric_different_radii():
    assert isinstance(
        circle_circle_intersect(circ(0, 0, 1, 0), circ(0, 0, 2, 0)),
        NoIntersection)


def test_degenerate_circle_rejected():
    with pytest.raises(DegenerateCircle):
        circle_from(Point(1, 1), Point(1, 1))
    tiny = ResolvedCircle(Point(0, 0), 1e-15)
    with pytest.raises(DegenerateCircle):
        circle_circle_intersect(tiny, circ(0, 0, 1, 0))


def test_non_finite_rejected():
    with pytest.raises(NonFiniteInput):
        circle_circle_intersect(
            ResolvedCircle(Point(float("inf"), 0), 1.0), circ(0, 0, 1, 0))


@pytest.mark.parametrize("bad, other", [
    # an infinite radius against the unit circle read as "no intersection"
    (ResolvedCircle(Point(0, 0), math.inf), circ(0, 0, 1, 0)),
    # a NaN radius with centers 3 apart was blamed on the arithmetic
    (ResolvedCircle(Point(0, 0), math.nan), circ(3, 0, 4, 0)),
], ids=["inf-radius", "nan-radius"])
def test_non_finite_radius_rejected(bad, other):
    for c1, c2 in [(bad, other), (other, bad)]:
        with pytest.raises(NonFiniteInput, match="non-finite coordinate or radius"):
            circle_circle_intersect(c1, c2)


@pytest.mark.parametrize("k", range(4))
def test_radius_refuses_a_non_finite_coordinate(k):
    coords = [0.0, 0.0, 1.0, 0.0]
    coords[k] = math.nan
    with pytest.raises(NonFiniteInput):
        radius(*coords)


def test_radius_refuses_an_overflowing_result():
    # every coordinate is finite, but the radius is not
    with pytest.raises(NonFiniteInput):
        radius(1e308, 1e308, -1e308, -1e308)


def test_distance_examples():
    assert math.dist(Point(0, 0), Point(3, 4)) == pytest.approx(5.0, abs=0)
    assert math.dist(Point(1, 1), Point(1, 1)) == 0.0
    # the alpha point lies on the radius-2 circle about (-1, 0)
    assert math.dist(Point(-1, 0), Point(0.75, SQRT15_4)) == pytest.approx(
        2.0, abs=1e-12)


finite_coord = st.floats(min_value=-5, max_value=5,
                         allow_nan=False, allow_infinity=False)


@given(x1=finite_coord, y1=finite_coord, x2=finite_coord, y2=finite_coord,
       r1=st.floats(min_value=0.1, max_value=4),
       r2=st.floats(min_value=0.1, max_value=4))
@settings(max_examples=100, deadline=None)
# nearly concentric: d^2 + r1^2 - r2^2 rounds to 0 in either order, so each
# order puts the chord foot on its own first center and the points differ by d
@example(x1=0.0, y1=0.0, x2=0.0, y2=6.66e-9, r1=1.0, r2=1.0)
def test_symmetry_and_membership(x1, y1, x2, y2, r1, r2):
    c1 = ResolvedCircle(Point(x1, y1), r1)
    c2 = ResolvedCircle(Point(x2, y2), r2)
    out_a = circle_circle_intersect(c1, c2)
    out_b = circle_circle_intersect(c2, c1)
    assert type(out_a) is type(out_b)
    if isinstance(out_a, TwoPoints):
        # same point set, labels swapped; the chord foot sits (d^2 + r1^2 -
        # r2^2) / 2d along the axis, whose rounding error grows as
        # ulp(r^2) / d when the centers close in
        d = math.hypot(x2 - x1, y2 - y1)
        bound = max(1e-9, 4 * math.ulp(max(r1, r2) ** 2) / d)
        assert math.hypot(out_a.left.x - out_b.right.x,
                          out_a.left.y - out_b.right.y) <= bound
        assert math.hypot(out_a.right.x - out_b.left.x,
                          out_a.right.y - out_b.left.y) <= bound
        for p in (out_a.left, out_a.right):
            for c in (c1, c2):
                err = abs(math.dist(p, c.center) - c.radius)
                assert err <= 1e-8


@given(x2=finite_coord, y2=finite_coord,
       r1=st.floats(min_value=0.1, max_value=4),
       r2=st.floats(min_value=0.1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_mirror_symmetry(x2, y2, r1, r2):
    c1 = ResolvedCircle(Point(0, 0), r1)
    c2 = ResolvedCircle(Point(x2, y2), r2)
    out = circle_circle_intersect(c1, c2)
    if not isinstance(out, TwoPoints):
        return
    # the two points reflect across the center line
    d = math.hypot(x2, y2)
    ux, uy = x2 / d, y2 / d
    for p, sign in ((out.left, 1.0), (out.right, -1.0)):
        along = p.x * ux + p.y * uy
        across = -p.x * uy + p.y * ux
        assert sign * across >= -1e-9
    la = out.left.x * ux + out.left.y * uy
    ra = out.right.x * ux + out.right.y * uy
    assert abs(la - ra) <= 1e-9


def test_oracle_equivalence_thousand_pairs():
    rng = SplitMix64(20240901)
    checked = 0
    while checked < 1000:
        c1 = ResolvedCircle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                            rng.uniform(0.2, 4.0))
        c2 = ResolvedCircle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                            rng.uniform(0.2, 4.0))
        d = math.dist(c1.center, c2.center)
        # stay away from tangency so both sides classify identically
        if abs(d - (c1.radius + c2.radius)) < 1e-6 or \
           abs(d - abs(c1.radius - c2.radius)) < 1e-6 or d < 1e-6:
            continue
        checked += 1
        ours = circle_circle_intersect(c1, c2)
        ref = oracle_circle_circle(c1, c2)
        if isinstance(ours, TwoPoints):
            got = sorted([(ours.left.x, ours.left.y),
                          (ours.right.x, ours.right.y)])
            want = sorted([(p.x, p.y) for p in ref])
            assert len(want) == 2
            for g, w in zip(got, want):
                assert math.hypot(g[0] - w[0], g[1] - w[1]) <= 1e-9
        else:
            assert ref == []


def correctly_rounded_hypot(x, y, h):
    """Whether ``h`` is sqrt(x^2 + y^2) rounded to the nearest float, ties
    to even: its square brackets x^2 + y^2 between the squares of the
    midpoints to its neighbours, all in exact rationals."""
    exact = Fraction(x) ** 2 + Fraction(y) ** 2
    low = (Fraction(h) + Fraction(math.nextafter(h, 0.0))) / 2
    high = (Fraction(h) + Fraction(math.nextafter(h, math.inf))) / 2
    if low * low < exact < high * high:
        return True
    even = h.hex().split("p")[0][-1] in "02468ace"
    return even and low * low <= exact <= high * high


def test_hypot_is_correctly_rounded():
    """Every golden pin (``GOLDEN``, ``CORPUS_GOLDEN``, ``FUZZ_GOLDEN``,
    ``WORKLOAD_OUTPUTS``) rests on the bits of ``math.hypot``, which
    ``geom.radius`` and ``geom.cut`` call; ``math.sqrt`` and + - * / are
    correctly rounded by IEEE 754. Pythons 3.10.13 to 3.13.0 round
    ``hypot`` correctly on all 4,500 pairs below; 3.9.18 misses 1,183 of
    them. A Python whose ``hypot`` changes fails here by name, not only in
    every pin at once. The pairs are coordinates up to 5 * 2^+-40, each of
    its own scale, their differences, and pairs of one scale."""
    rng = random.Random(20141011)

    def coordinate():
        return rng.uniform(-5.0, 5.0) * 2.0 ** (int(rng.random() * 81) - 40)

    for _ in range(1500):
        x, y = coordinate(), coordinate()
        for a, b in ((x, y), (x - y, y), (x, x * rng.uniform(0.5, 2.0))):
            assert correctly_rounded_hypot(a, b, math.hypot(a, b)), (a, b)
