import math

import pytest

from compass import constructions as cons
from compass.constructions import (
    CircleByCenterAndPoint,
    antipode,
    apex,
    diameter_circle,
    extend,
    invert_exterior,
    invert_general,
    line_circle_center_on_line,
    line_circle_off_center,
    line_line,
    midpoint,
    nth_point,
    perp_foot,
)
from compass.errors import (
    CenterInversion,
    DegenerateCircle,
    NoSuchIntersection,
    NotExterior,
    NotOnCircle,
    OnMirrorLine,
    ScaleOverflow,
)
from compass.fuzz import SplitMix64, run_op
from compass.geom import Point, ResolvedCircle, distance
from compass.oracle import oracle_foot, oracle_invert, oracle_line_circle
from compass.program import (
    OP_CIRCLE,
    OP_LEFT,
    Builder,
    Selector,
    ancestors,
    similarity_transport_check,
)

SQRT3_2 = math.sqrt(3.0) / 2.0
UNIT = CircleByCenterAndPoint(Point(0, 0), Point(1, 0))


def close(p, x, y, tol=1e-9):
    assert p.x == pytest.approx(x, abs=tol), p
    assert p.y == pytest.approx(y, abs=tol), p


def as_set(points, expect, tol=1e-9):
    assert len(points) == len(expect)
    remaining = list(expect)
    for p in points:
        hit = min(remaining,
                  key=lambda q: math.hypot(p.x - q[0], p.y - q[1]))
        assert math.hypot(p.x - hit[0], p.y - hit[1]) <= tol, (p, expect)
        remaining.remove(hit)


# --- apex / extend / nth / midpoint -------------------------------------------

def test_apex_examples():
    close(apex(Point(0, 0), Point(1, 0), Selector.LEFT), 0.5, SQRT3_2)
    close(apex(Point(0, 0), Point(0, 2), Selector.LEFT), -math.sqrt(3), 1.0)
    with pytest.raises(DegenerateCircle):
        apex(Point(0, 0), Point(0, 0))


def test_apex_sides_are_mirror_images():
    left = apex(Point(0, 0), Point(1, 0), Selector.LEFT)
    right = apex(Point(0, 0), Point(1, 0), Selector.RIGHT)
    close(right, left.x, -left.y)


def test_extend_examples():
    close(extend(Point(1, 0), Point(0, 0)), -1.0, 0.0)
    close(extend(Point(0, 0), Point(1, 0)), 2.0, 0.0)
    close(extend(Point(3, 4), Point(3, 4.5)), 3.0, 5.0)


def test_extend_circle_budget():
    assert cons.extend_program().circle_count() == 4


def test_nth_point_examples():
    close(nth_point(Point(0, 0), Point(1, 0), 1), 1.0, 0.0)
    close(nth_point(Point(0, 0), Point(1, 0), 5), 5.0, 0.0)
    close(nth_point(Point(2, 2), Point(2.5, 2), 4), 4.0, 2.0)
    with pytest.raises(ScaleOverflow):
        nth_point(Point(0, 0), Point(1, 0), 2 ** 20 + 1)
    with pytest.raises(ValueError):
        nth_point(Point(0, 0), Point(1, 0), 0)


def test_midpoint_examples():
    close(midpoint(Point(0, 0), Point(1, 0)), 0.5, 0.0)
    close(midpoint(Point(1, 0), Point(2, 0)), 1.5, 0.0)
    close(midpoint(Point(-3, 1), Point(5, -7)), 1.0, -3.0)


def test_midpoint_symmetry():
    rng = SplitMix64(7)
    for _ in range(50):
        a = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if distance(a, b) < 0.1:
            continue
        m1 = midpoint(a, b)
        m2 = midpoint(b, a)
        assert math.hypot(m1.x - m2.x, m1.y - m2.y) <= 1e-9


def test_midpoint_circle_budget():
    assert cons.midpoint_program().circle_count() == 7
    assert cons.midpoint_program().pick_count() == 6


# --- reflection ------------------------------------------------------------------

def test_reflect_matches_the_oracle_under_similarities():
    rng = SplitMix64(19)
    checked = 0
    for _ in range(40):
        a = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b_ = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        c = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if min(distance(a, b_), distance(c, a), distance(c, b_)) < 0.2:
            continue
        b = Builder([a, b_, c])
        node = cons.build_reflect(b, 0, 1, 2)
        assert len(b) == 3 + 3
        foot = oracle_foot(a, b_, c)
        assert distance(b.point(node), Point(2 * foot.x - c.x, 2 * foot.y - c.y)) <= 1e-12
        program, _ = b.finish([node])
        for p, q in ((Point(0, 0), Point(1, 0)), (Point(1.5, -2), Point(1.5, 1)),
                     (Point(-3, 7), Point(2e3, -1e3)), (Point(0.25, 0.5), Point(0.25, 0.5001))):
            assert similarity_transport_check(program, (a, b_, c), p, q)
        checked += 1
    assert checked >= 30


def test_reflect_refuses_a_point_on_the_line():
    b = Builder([Point(0, 0), Point(3, 0), Point(1, 1e-7)])
    with pytest.raises(OnMirrorLine):
        cons.build_reflect(b, 0, 1, 2)
    assert len(b) == 3


# --- diameter circle / foot ----------------------------------------------------

def test_diameter_circle_examples():
    c = diameter_circle(Point(0, 0), Point(2, 0))
    close(c.center, 1.0, 0.0)
    assert c.radius == pytest.approx(1.0, abs=1e-9)
    c = diameter_circle(Point(0, 0), Point(0, 3))
    close(c.center, 0.0, 1.5)
    assert c.radius == pytest.approx(1.5, abs=1e-9)
    c = diameter_circle(Point(1, 1), Point(4, 5))
    close(c.center, 2.5, 3.0)
    assert c.radius == pytest.approx(2.5, abs=1e-9)


def test_perp_foot_examples():
    close(perp_foot(Point(0, 0), Point(3, 0), Point(1, 2)), 1.0, 0.0)
    # c on the line: the diameter circles are tangent at c
    close(perp_foot(Point(0, 0), Point(1, 0), Point(0.5, 0)), 0.5, 0.0)
    close(perp_foot(Point(0, 0), Point(0, 1), Point(7, 0.3)), 0.0, 0.3)


def test_perp_foot_idempotent():
    rng = SplitMix64(11)
    for _ in range(30):
        a = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        c = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if min(distance(a, b), distance(c, a), distance(c, b)) < 0.2:
            continue
        h = perp_foot(a, b, c)
        if min(distance(h, a), distance(h, b)) < 1e-6:
            continue  # foot falling on an endpoint degenerates the re-drop
        again = perp_foot(a, b, h)
        assert math.hypot(h.x - again.x, h.y - again.y) <= 1e-9


def test_perp_foot_degenerate_inputs():
    with pytest.raises(DegenerateCircle):
        perp_foot(Point(0, 0), Point(0, 0), Point(1, 1))
    with pytest.raises(DegenerateCircle):
        perp_foot(Point(0, 0), Point(1, 0), Point(0, 0))


def test_perp_foot_circle_budget():
    # the mirror image (2 circles) and its midpoint with c (7)
    b = Builder([Point(0, 0), Point(3, 0), Point(1, 2)])
    node = cons.build_perp_foot(b, 0, 1, 2)
    program, _ = b.finish([node])
    assert program.circle_count() == 9


def test_perp_foot_of_a_point_on_the_line_is_the_touch_point():
    # the mirror circles touch at c: two circles and one pick, no midpoint
    a, b_, t = Point(0.3, 0.7), Point(2.1, -1.3), 0.37
    c = Point(a.x + t * (b_.x - a.x), a.y + t * (b_.y - a.y))
    b = Builder([a, b_, c])
    got = b.point(cons.build_perp_foot(b, 0, 1, 2))
    assert len(b) == 3 + 3
    assert distance(got, c) <= 1e-15


# --- inversion -------------------------------------------------------------------

def test_invert_exterior_examples():
    omega = CircleByCenterAndPoint(
        Point(0, 0), Point(1.5 / math.sqrt(2), 1.5 / math.sqrt(2)))
    close(invert_exterior(omega, Point(1.5, 1.5)), 0.75, 0.75, tol=1e-9)
    close(invert_exterior(UNIT, Point(4, 0)), 0.25, 0.0)
    close(invert_exterior(UNIT, Point(2, 0)), 0.5, 0.0)


def test_invert_exterior_rejects_non_exterior():
    with pytest.raises(NotExterior):
        invert_exterior(UNIT, Point(0.5, 0))
    with pytest.raises(NotExterior):
        invert_exterior(UNIT, Point(1, 0))


def test_invert_exterior_circle_budget():
    b = Builder([Point(0, 0), Point(1, 0), Point(4, 0)])
    node = cons.build_invert_exterior(b, 0, 1, 2)
    program, _ = b.finish([node])
    assert program.circle_count() == 4


def test_invert_general_examples():
    close(invert_general(UNIT, Point(0.5, 0)), 2.0, 0.0, tol=1e-8)
    close(invert_general(UNIT, Point(1, 0)), 1.0, 0.0)
    with pytest.raises(CenterInversion):
        invert_general(UNIT, Point(1e-15, 0))
    with pytest.raises(ScaleOverflow):  # ratio 10**7 + 2 is beyond MAX_SCALE
        invert_general(UNIT, Point(1e-7, 0))


def test_invert_interior_ratio_rule():
    # dist 0.5 in the unit circle: ratio floor(1/0.5) + 2 = 4 = 2**2
    b = Builder([Point(0, 0), Point(1, 0), Point(0.5, 0)])
    cons.build_invert_general(b, 0, 1, 2)
    program, _ = b.finish([])
    # 2 doublings out and 2 back, 4 circles each, plus the 4-circle core:
    # 8k + 4 with k = 2
    assert program.circle_count() == 2 * 2 * 4 + 4


@pytest.mark.parametrize("ratio, budget", [(1e-3, 84), (1e-4, 116), (1e-6, 164)])
def test_invert_interior_log_budget(ratio, budget):
    b = Builder([Point(0, 0), Point(1, 0), Point(ratio, 0)])
    node = cons.build_invert_general(b, 0, 1, 2)
    program, _ = b.finish([node])
    assert program.circle_count() == budget


def test_inverting_back_draws_omega_once():
    # p and then its image, in one builder: the second core finds omega in
    # the hash-cons table
    b = Builder([Point(0.2, -0.1), Point(1.2, -0.1), Point(2.3, 1.1)])
    image = cons.build_invert_general(b, 0, 1, 2)
    back = cons.build_invert_general(b, 0, 1, image)
    omegas = [i for i, op in enumerate(b.ops)
              if op == OP_CIRCLE and (b.first[i], b.second[i]) == (0, 1)]
    assert len(omegas) == 1
    close(b.point(back), 2.3, 1.1)


@pytest.mark.parametrize("ratio, bound", [(100, 1.5e-11), (1000, 1.8e-9)])
def test_invert_far_exterior_relative_error(ratio, bound):
    """Worst error over seeded draws at distance ``ratio * r``, relative to
    the image's distance r / ratio from the center. The three-circle core
    reads 8.9e-12 and 1.0e-9; the diameter-circle-and-foot core it replaced
    read 2.4e-11 and 3.0e-9."""
    rng = SplitMix64(7)
    worst = 0.0
    for _ in range(200):
        o = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        r = rng.uniform(0.5, 2.5)
        t = rng.uniform(0, 2 * math.pi)
        omega = CircleByCenterAndPoint(
            o, Point(o.x + r * math.cos(t), o.y + r * math.sin(t)))
        s = rng.uniform(0, 2 * math.pi)
        p = Point(o.x + ratio * r * math.cos(s), o.y + ratio * r * math.sin(s))
        got = invert_general(omega, p)
        want = oracle_invert(ResolvedCircle(o, r), p)
        worst = max(worst, distance(got, want) / distance(want, o))
    assert worst <= bound


def test_invert_far_exterior_refuses_touching_circles():
    # at 1e6 r the circles about m and n only touch, at o; the touch point
    # (3e-7, 4e-7) is half the image (6e-7, 8e-7)
    b = Builder([Point(0, 0), Point(1, 0), Point(6e5, 8e5)])
    with pytest.raises(ScaleOverflow):
        cons.build_invert_exterior(b, 0, 1, 2)
    with pytest.raises(ScaleOverflow):
        invert_general(UNIT, Point(6e5, 8e5))


def test_invert_interior_deep_precision():
    b = Builder([Point(0, 0), Point(1, 0), Point(1e-6, 0)])
    got = b.point(cons.build_invert_general(b, 0, 1, 2))
    want = oracle_invert(ResolvedCircle(Point(0, 0), 1.0), Point(1e-6, 0))
    assert math.hypot(got.x - want.x, got.y - want.y) <= 1e-14 * want.x


def test_inversion_involution():
    rng = SplitMix64(13)
    for _ in range(60):
        o = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        r = rng.uniform(0.5, 2.5)
        t = rng.uniform(0, 2 * math.pi)
        omega = CircleByCenterAndPoint(
            o, Point(o.x + r * math.cos(t), o.y + r * math.sin(t)))
        d = rng.uniform(0.05 * r, 3.0 * r)
        s = rng.uniform(0, 2 * math.pi)
        p = Point(o.x + d * math.cos(s), o.y + d * math.sin(s))
        i = invert_general(omega, p)
        want = oracle_invert(ResolvedCircle(o, r), p)
        assert math.hypot(i.x - want.x, i.y - want.y) <= 1e-6
        back = invert_general(omega, i)
        assert math.hypot(back.x - p.x, back.y - p.y) <= 1e-5


# --- line-line -------------------------------------------------------------------

def test_line_line_paper_figure():
    s = line_line(Point(-0.4, -0.4), Point(2.3, 2.3),
                  Point(0.2, 1.8), Point(2.7, -0.7))
    close(s, 1.0, 1.0, tol=1e-6)


def test_line_line_axis_cross():
    s = line_line(Point(0, 0), Point(1, 0), Point(0.5, -1), Point(0.5, 1))
    close(s, 0.5, 0.0, tol=1e-6)


def test_line_line_worst_error():
    """Worst error over 200 draws sampled as ``compass fuzz`` samples them.
    Inverting the pole's mirror images reads 6.6e-13; inverting the
    perpendicular feet, under the same pole rule, read 1.5e-11."""
    report = run_op("line-line", 200, seed=7)
    assert report.failures == 0
    assert report.max_err <= 2e-12


def test_line_line_refused_pole_leaves_no_step(monkeypatch):
    """A pole whose mirror image the circles cannot pick is rolled back and
    the next pole tried: every step of the result is one of its ancestors."""
    real, refused = cons.build_reflect, []

    def touching_first(b, a, bn, c):
        if not refused:
            refused.append(c)
            raise OnMirrorLine("the mirror circles touch")
        return real(b, a, bn, c)

    monkeypatch.setattr(cons, "build_reflect", touching_first)
    b = Builder([Point(-0.4, -0.4), Point(2.3, 2.3), Point(0.2, 1.8), Point(2.7, -0.7)])
    node = cons.build_line_line(b, 0, 1, 2, 3)
    close(b.point(node), 1.0, 1.0, tol=1e-12)
    program, _ = b.finish([node])
    assert refused
    assert len(ancestors(program, node)) == len(program.steps)


def test_line_line_rejects_parallel():
    from compass.errors import ParallelLines
    with pytest.raises(ParallelLines):
        line_line(Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1))
    with pytest.raises(DegenerateCircle):
        line_line(Point(0, 0), Point(0, 0), Point(0, 1), Point(1, 1))


# --- line-circle -----------------------------------------------------------------

def test_line_circle_off_center_figure():
    pts = line_circle_off_center(Point(-2.5, 0.5), Point(-1.5, 0.5), UNIT)
    as_set(pts, [(math.sqrt(0.75), 0.5), (-math.sqrt(0.75), 0.5)], tol=1e-6)


def test_line_circle_near_tangent():
    pts = line_circle_off_center(Point(-2, 0.999999), Point(2, 0.999999), UNIT)
    assert len(pts) == 2
    half = math.sqrt(1 - 0.999999 ** 2)
    as_set(pts, [(half, 0.999999), (-half, 0.999999)], tol=1e-6)


def test_line_circle_miss_and_center_on_line():
    with pytest.raises(NoSuchIntersection):
        line_circle_off_center(Point(-2, 2), Point(2, 2), UNIT)
    # a center on the line is answered too, d and its antipode, b's side first
    pts = line_circle_off_center(Point(-2, 0), Point(2, 0), UNIT)
    assert pts[0] == Point(1, 0)
    close(pts[1], -1.0, 0.0, tol=1e-12)


def test_line_circle_exact_tangent_single_point():
    pts = line_circle_off_center(Point(-2, 1), Point(2, 1), UNIT)
    assert len(pts) == 1
    close(pts[0], 0.0, 1.0, tol=1e-6)
    # the tangency appends one left pick, right after the mirror circle
    b = Builder([Point(-2, 1), Point(2, 1), UNIT.center, UNIT.through])
    assert cons.build_line_circle_off_center(b, 0, 1, 2, 3) == (12,)
    assert len(b) == 13 and b.ops[-2:] == [OP_CIRCLE, OP_LEFT]


@pytest.mark.parametrize("height", [1e-3, 1e-6, 1e-9, 1e-11])
def test_line_circle_center_near_the_line(height):
    """Near the line the mirror route loses digits as 1/h^2, and within the
    tangency band o has no mirror image at all: a mirror circle centered on
    the touch point cuts the circle about 1.0 away from the answer at
    1e-6. Such a center takes the inversion route, exact to 1e-12."""
    a, b_ = Point(-2, height), Point(3, height)
    pts = line_circle_off_center(a, b_, UNIT)
    want = oracle_line_circle(a, b_, ResolvedCircle(UNIT.center, 1.0))
    as_set(pts, [(w.x, w.y) for w in want], tol=1e-12)


def test_line_circle_small_circle_whose_center_touches():
    # r/h = 50 asks for the mirror route, but the line's points lie so far
    # off that o's mirror circles only touch: the inversion route answers,
    # to 2.1e-11 at the scale of those points (the perpendicular foot's
    # route, before mirror images, was 1.0e-7 off)
    r, h = 1e-5, 2e-7
    a, b_ = Point(-2.5, h), Point(3.5, h)
    omega = CircleByCenterAndPoint(Point(0, 0), Point(0.6 * r, 0.8 * r))
    b = Builder([a, b_, omega.center, omega.through])
    with pytest.raises(OnMirrorLine):
        cons.build_reflect(b, 0, 1, 2)
    pts = line_circle_off_center(a, b_, omega)
    want = oracle_line_circle(a, b_, ResolvedCircle(omega.center, r))
    as_set(pts, [(w.x, w.y) for w in want], tol=1e-10)


def test_line_circle_center_on_the_line():
    # within eps_degenerate of the line the center has no mirror image: a d
    # on the line too gives d and its antipode, any other d the inversion
    # route on line ab itself; either way b's side of the center comes first
    a, b_ = Point(-2, 1e-13), Point(3, 1e-13)
    want = oracle_line_circle(a, b_, ResolvedCircle(UNIT.center, 1.0))
    for d in (UNIT.through, Point(0.6, 0.8)):
        b = Builder([a, b_, UNIT.center, d])
        x, y = (b.point(n) for n in cons.build_line_circle_off_center(b, 0, 1, 2, 3))
        as_set((x, y), [(w.x, w.y) for w in want], tol=1e-12)
        assert x.x > 0 > y.x


@pytest.mark.parametrize("offset", [0.0, 1e-7, 1e-9])
def test_line_circle_datum_point_on_or_near_the_line(offset):
    """With d on the line, or nearly so, the mirror image of d is out of
    reach or poorly conditioned; the apex of (o, d) farther from the line
    stands in for it."""
    o, r, h, angle = Point(0.3, -0.4), 1.7, 0.6, 0.7
    nx, ny = math.cos(angle), math.sin(angle)
    foot = Point(o.x + h * nx, o.y + h * ny)
    a = Point(foot.x - 2.0 * ny, foot.y + 2.0 * nx)
    b_ = Point(foot.x + 3.0 * ny, foot.y - 3.0 * nx)
    half = math.sqrt(r * r - (h + offset) ** 2)
    d = Point(o.x + (h + offset) * nx + half * ny, o.y + (h + offset) * ny - half * nx)
    pts = line_circle_off_center(a, b_, CircleByCenterAndPoint(o, d))
    want = oracle_line_circle(a, b_, ResolvedCircle(o, distance(o, d)))
    as_set(pts, [(w.x, w.y) for w in want], tol=1e-12)


def test_line_circle_center_on_line_examples():
    omega = CircleByCenterAndPoint(Point(0, 0), Point(0, 1))
    pts = line_circle_center_on_line(Point(0, 0), Point(2, 0), omega)
    as_set(pts, [(1.0, 0.0), (-1.0, 0.0)], tol=1e-6)
    # ordering: the point on a's side of the center comes first
    assert pts[0].x > 0


def test_line_circle_center_on_line_paper_intermediates():
    omega = CircleByCenterAndPoint(Point(0, 0), Point(SQRT3_2, 0.5))
    b = Builder([Point(0, 0), Point(2, 0), Point(SQRT3_2, 0.5)])
    n1, n2 = cons.build_line_circle_center_on_line(b, 0, 1, 2)
    as_set((b.point(n1), b.point(n2)), [(1.0, 0.0), (-1.0, 0.0)], tol=1e-6)
    # the doubled circle around Q = 3C shows up in the trace
    _, trace = b.finish([n1, n2])
    q = (3 * SQRT3_2, 1.5)
    assert any(
        isinstance(v, ResolvedCircle)
        and math.hypot(v.center.x - q[0], v.center.y - q[1]) < 1e-6
        and abs(v.radius - 2.0) < 1e-6
        for v in trace.resolved)


@pytest.mark.parametrize("offset", [1e-5, 1e-9])
def test_line_circle_center_on_line_datum_near_the_line(offset):
    # Q = 3d would lie within 3 * offset of the line, its mirror image out
    # of reach or poorly conditioned: the apex of (o, d) stands in for d
    o, a = Point(0.4, -0.3), Point(2.9, 1.2)
    ux, uy = (a.x - o.x) / distance(o, a), (a.y - o.y) / distance(o, a)
    r = 1.3
    along = math.sqrt(r * r - offset * offset)
    d = Point(o.x + along * ux - offset * uy, o.y + along * uy + offset * ux)
    x, y = line_circle_center_on_line(o, a, CircleByCenterAndPoint(o, d))
    want = oracle_line_circle(o, a, ResolvedCircle(o, distance(o, d)))
    as_set((x, y), [(w.x, w.y) for w in want], tol=1e-12)
    assert (x.x - o.x) * ux + (x.y - o.y) * uy > 0  # a's side first


def test_line_circle_center_on_line_datum_on_line():
    # the given radius point already sits on the line: answered directly
    omega = CircleByCenterAndPoint(Point(0, 0), Point(-1, 0))
    pts = line_circle_center_on_line(Point(0, 0), Point(2, 0), omega)
    as_set(pts, [(1.0, 0.0), (-1.0, 0.0)], tol=1e-9)
    with pytest.raises(ValueError):
        line_circle_center_on_line(Point(0, 0), Point(2, 0),
                                   CircleByCenterAndPoint(Point(5, 5), Point(6, 5)))


# --- antipode --------------------------------------------------------------------

def test_antipode_examples():
    close(antipode(UNIT, Point(1, 0)), -1.0, 0.0)
    close(antipode(UNIT, Point(0, 1)), 0.0, -1.0)
    c = CircleByCenterAndPoint(Point(1, 1), Point(2, 1))
    close(antipode(c, Point(2, 1)), 0.0, 1.0)
    with pytest.raises(NotOnCircle):
        antipode(UNIT, Point(3, 0))


# --- the master property: oracle equivalence, spot-checked here -----------------
# (the full 1000-case sweeps live in the acceptance suite)

@pytest.mark.parametrize("op", [
    "apex", "extend", "nth", "midpoint", "foot", "invert",
    "line-line", "line-circle", "line-circle-diameter"])
def test_oracle_equivalence_sample(op):
    report = run_op(op, 60, seed=202)
    assert report.failures == 0, report.details
    assert report.max_err <= 1e-6
