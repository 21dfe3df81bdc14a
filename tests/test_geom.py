import math

import pytest
from hypothesis import example, given, settings, strategies as st

from compass.errors import DegenerateCircle, NonFiniteInput
from compass.geom import (
    Coincident,
    NoIntersection,
    Point,
    ResolvedCircle,
    Tangent,
    Tolerance,
    TwoPoints,
    circle_circle_intersect,
    circle_from,
    distance,
    orientation_sign,
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
        distance(Point(float("nan"), 0), Point(0, 0))
    with pytest.raises(NonFiniteInput):
        circle_circle_intersect(
            ResolvedCircle(Point(float("inf"), 0), 1.0), circ(0, 0, 1, 0))


def test_distance_examples():
    assert distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0, abs=0)
    assert distance(Point(1, 1), Point(1, 1)) == 0.0
    # the alpha point lies on the radius-2 circle about (-1, 0)
    assert distance(Point(-1, 0), Point(0.75, SQRT15_4)) == pytest.approx(
        2.0, abs=1e-12)


def test_orientation_examples():
    assert orientation_sign(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orientation_sign(Point(0, 0), Point(1, 0), Point(2, 0)) == 0
    assert orientation_sign(Point(0, 0), Point(1, 0), Point(0, -1)) == -1


def test_orientation_scale_banding():
    # far-apart collinear points still classify as collinear
    assert orientation_sign(Point(0, 0), Point(1e6, 0), Point(2e6, 1e-9)) == 0


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
                err = abs(distance(p, c.center) - c.radius)
                assert err <= 10 * Tolerance().eps_abs


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
    tol = Tolerance()
    checked = 0
    while checked < 1000:
        c1 = ResolvedCircle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                            rng.uniform(0.2, 4.0))
        c2 = ResolvedCircle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                            rng.uniform(0.2, 4.0))
        d = distance(c1.center, c2.center)
        # stay away from tangency so both sides classify identically
        if abs(d - (c1.radius + c2.radius)) < 1e-6 or \
           abs(d - abs(c1.radius - c2.radius)) < 1e-6 or d < 1e-6:
            continue
        checked += 1
        ours = circle_circle_intersect(c1, c2, tol)
        ref = oracle_circle_circle(c1, c2, tol)
        if isinstance(ours, TwoPoints):
            got = sorted([(ours.left.x, ours.left.y),
                          (ours.right.x, ours.right.y)])
            want = sorted([(p.x, p.y) for p in ref])
            assert len(want) == 2
            for g, w in zip(got, want):
                assert math.hypot(g[0] - w[0], g[1] - w[1]) <= tol.eps_abs
        else:
            assert ref == []
