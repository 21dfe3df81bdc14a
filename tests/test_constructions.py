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
    CenterOnLine,
    DegenerateCircle,
    NoSuchIntersection,
    NotExterior,
    NotOnCircle,
    ScaleOverflow,
)
from compass.fuzz import SplitMix64, run_op
from compass.geom import Point, ResolvedCircle, distance
from compass.oracle import oracle_invert
from compass.program import OP_CIRCLE, OP_LEFT, Builder, Selector

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
    b = Builder([Point(0, 0), Point(3, 0), Point(1, 2)])
    node = cons.build_perp_foot(b, 0, 1, 2)
    program, _ = b.finish([node])
    assert program.circle_count() == 16


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
    with pytest.raises(CenterOnLine):
        line_circle_off_center(Point(-2, 0), Point(2, 0), UNIT)


def test_line_circle_exact_tangent_single_point():
    pts = line_circle_off_center(Point(-2, 1), Point(2, 1), UNIT)
    assert len(pts) == 1
    close(pts[0], 0.0, 1.0, tol=1e-6)
    # the tangency appends one left pick, right after the diameter circle
    b = Builder([Point(-2, 1), Point(2, 1), UNIT.center, UNIT.through])
    assert cons.build_line_circle_off_center(b, 0, 1, 2, 3) == (48,)
    assert len(b) == 49 and b.ops[-2:] == [OP_CIRCLE, OP_LEFT]


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
