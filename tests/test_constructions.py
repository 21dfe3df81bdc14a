import math
from itertools import takewhile

import pytest

from compass import constructions as cons
from compass import field_ops
from compass.errors import (
    CenterInversion,
    CompassError,
    DegenerateCircle,
    InvalidNodeId,
    MalformedProgram,
    NoSuchIntersection,
    NonFiniteInput,
    NotExterior,
    NotPositiveInteger,
    OnMirrorLine,
    ScaleOverflow,
)
from compass.fuzz import OPS, SplitMix64, run_op
from compass.geom import EPS, Point, ResolvedCircle
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
ORIGIN = Point(0, 0)
UNIT = (ORIGIN, Point(1, 0))  # the unit circle: its center and a point on it


def close(p, x, y, within=1e-9):
    assert p.x == pytest.approx(x, abs=within), p
    assert p.y == pytest.approx(y, abs=within), p


def as_set(points, expect, within=1e-9):
    assert len(points) == len(expect)
    remaining = list(expect)
    for p in points:
        hit = min(remaining,
                  key=lambda q: math.hypot(p.x - q[0], p.y - q[1]))
        assert math.hypot(p.x - hit[0], p.y - hit[1]) <= within, (p, expect)
        remaining.remove(hit)


def run(build, *args):
    """Run a ``build_*`` routine on a fresh builder. The leading points are
    its seeds, passed as nodes 0, 1, ...; the other arguments follow them.
    Returns the point, or the circle, of each node the routine returns."""
    seeds = tuple(takewhile(lambda a: isinstance(a, Point), args))
    b = Builder(seeds)
    out = build(b, *range(len(seeds)), *args[len(seeds):])

    def value(node):
        return b.circle_value(node) if b.ops[node] == OP_CIRCLE else b.point(node)

    return tuple(map(value, out)) if isinstance(out, tuple) else value(out)


# --- apex / extend / nth / midpoint -------------------------------------------

def test_apex_examples():
    close(run(cons.build_apex, Point(0, 0), Point(1, 0), Selector.LEFT), 0.5, SQRT3_2)
    close(run(cons.build_apex, Point(0, 0), Point(0, 2), Selector.LEFT), -math.sqrt(3), 1.0)
    with pytest.raises(DegenerateCircle):
        run(cons.build_apex, Point(0, 0), Point(0, 0))


def test_apex_sides_are_mirror_images():
    left = run(cons.build_apex, Point(0, 0), Point(1, 0), Selector.LEFT)
    right = run(cons.build_apex, Point(0, 0), Point(1, 0), Selector.RIGHT)
    close(right, left.x, -left.y)


def test_extend_examples():
    close(run(cons.build_extend, Point(1, 0), Point(0, 0)), -1.0, 0.0)
    close(run(cons.build_extend, Point(0, 0), Point(1, 0)), 2.0, 0.0)
    close(run(cons.build_extend, Point(3, 4), Point(3, 4.5)), 3.0, 5.0)


def test_extend_circle_budget():
    assert cons.extend_program().circle_count() == 3
    assert cons.extend_program().pick_count() == 3


def test_nth_point_examples():
    close(run(cons.build_nth_point, Point(0, 0), Point(1, 0), 1), 1.0, 0.0)
    close(run(cons.build_nth_point, Point(0, 0), Point(1, 0), 5), 5.0, 0.0)
    close(run(cons.build_nth_point, Point(2, 2), Point(2.5, 2), 4), 4.0, 2.0)
    with pytest.raises(ScaleOverflow):
        run(cons.build_nth_point, Point(0, 0), Point(1, 0), 2 ** 20 + 1)
    with pytest.raises(ValueError):
        run(cons.build_nth_point, Point(0, 0), Point(1, 0), 0)


@pytest.mark.parametrize("n", [2.5, 0, -3])
def test_nth_point_rejects_a_bad_n(n):
    # a typed error, before any step: a float once reached range() (TypeError)
    b = Builder([Point(0, 0), Point(1, 0)])
    with pytest.raises(NotPositiveInteger):
        cons.build_nth_point(b, 0, 1, n)
    assert len(b) == 2


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("bad", ["o", "p"])
@pytest.mark.parametrize("operand", ["outside", "circle"])
def test_nth_point_checks_both_points(n, bad, operand):
    """o and p must be points of the builder, also where n == 1 hands p
    back: a typed error, with nothing appended."""
    b = Builder(UNIT)
    node = 99 if operand == "outside" else b.circle(0, 1)
    error, message = {"outside": (InvalidNodeId, "^node 99 outside the builder$"),
                      "circle": (MalformedProgram, f"^node {node} is not a point$")}[operand]
    o, p = (node, 1) if bad == "o" else (0, node)
    before = len(b)
    with pytest.raises(error, match=message):
        cons.build_nth_point(b, o, p, n)
    assert len(b) == before


def test_nth_point_large_n_by_doublings():
    """2**20 is twenty doublings about o, 60 circles, where a chain of
    reflections along the ray took 3(n - 1), over 3.1 million."""
    rng = SplitMix64(23)
    n = 2 ** 20
    for _ in range(50):
        o = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if math.dist(o, p) < 0.1:
            continue
        b = Builder([o, p])
        node = cons.build_nth_point(b, 0, 1, n)
        assert b.finish([node])[0].circle_count() <= 60
        want = Point(o.x + n * (p.x - o.x), o.y + n * (p.y - o.y))
        assert math.dist(b.point(node), want) <= 1e-13 * math.dist(want, o)


def test_midpoint_examples():
    close(run(cons.build_midpoint, Point(0, 0), Point(1, 0)), 0.5, 0.0)
    close(run(cons.build_midpoint, Point(1, 0), Point(2, 0)), 1.5, 0.0)
    close(run(cons.build_midpoint, Point(-3, 1), Point(5, -7)), 1.0, -3.0)


def test_midpoint_symmetry():
    rng = SplitMix64(7)
    for _ in range(50):
        a = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if math.dist(a, b) < 0.1:
            continue
        m1 = run(cons.build_midpoint, a, b)
        m2 = run(cons.build_midpoint, b, a)
        assert math.hypot(m1.x - m2.x, m1.y - m2.y) <= 1e-9


def test_midpoint_circle_budget():
    assert cons.midpoint_program().circle_count() == 6
    assert cons.midpoint_program().pick_count() == 6


# --- reflection ------------------------------------------------------------------

def test_reflect_matches_the_oracle_under_similarities():
    rng = SplitMix64(19)
    checked = 0
    for _ in range(40):
        a = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b_ = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        c = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if min(math.dist(a, b_), math.dist(c, a), math.dist(c, b_)) < 0.2:
            continue
        b = Builder([a, b_, c])
        node = cons.build_reflect(b, 0, 1, 2)
        assert len(b) == 3 + 3
        foot = oracle_foot(a, b_, c)
        assert math.dist(b.point(node), Point(2 * foot.x - c.x, 2 * foot.y - c.y)) <= 1e-12
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
    c = run(cons.build_diameter_circle, Point(0, 0), Point(2, 0))
    assert type(c) is ResolvedCircle
    close(c.center, 1.0, 0.0)
    assert c.radius == pytest.approx(1.0, abs=1e-9)
    c = run(cons.build_diameter_circle, Point(0, 0), Point(0, 3))
    close(c.center, 0.0, 1.5)
    assert c.radius == pytest.approx(1.5, abs=1e-9)
    c = run(cons.build_diameter_circle, Point(1, 1), Point(4, 5))
    close(c.center, 2.5, 3.0)
    assert c.radius == pytest.approx(2.5, abs=1e-9)


def test_perp_foot_examples():
    close(run(cons.build_perp_foot, Point(0, 0), Point(3, 0), Point(1, 2)), 1.0, 0.0)
    # c on the line: the diameter circles are tangent at c
    close(run(cons.build_perp_foot, Point(0, 0), Point(1, 0), Point(0.5, 0)), 0.5, 0.0)
    close(run(cons.build_perp_foot, Point(0, 0), Point(0, 1), Point(7, 0.3)), 0.0, 0.3)


def test_perp_foot_idempotent():
    rng = SplitMix64(11)
    for _ in range(30):
        a = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        c = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if min(math.dist(a, b), math.dist(c, a), math.dist(c, b)) < 0.2:
            continue
        h = run(cons.build_perp_foot, a, b, c)
        if min(math.dist(h, a), math.dist(h, b)) < 1e-6:
            continue  # foot falling on an endpoint degenerates the re-drop
        again = run(cons.build_perp_foot, a, b, h)
        assert math.hypot(h.x - again.x, h.y - again.y) <= 1e-9


def test_perp_foot_degenerate_inputs():
    with pytest.raises(DegenerateCircle):
        run(cons.build_perp_foot, Point(0, 0), Point(0, 0), Point(1, 1))
    # c at a, at b, and 1e-13 from a: the kernel's verdict on the mirror
    # circle about that point
    for c in (Point(0, 0), Point(1, 0), Point(1e-13, 0)):
        with pytest.raises(DegenerateCircle, match="^circle through its own center"):
            run(cons.build_perp_foot, Point(0, 0), Point(1, 0), c)


def test_perp_foot_circle_budget():
    # the mirror image (2 circles) and its midpoint with c (6)
    b = Builder([Point(0, 0), Point(3, 0), Point(1, 2)])
    node = cons.build_perp_foot(b, 0, 1, 2)
    program, _ = b.finish([node])
    assert program.circle_count() == 8


def test_perp_foot_of_a_point_on_the_line_is_the_touch_point():
    # the mirror circles touch at c: two circles and one pick, no midpoint
    a, b_, t = Point(0.3, 0.7), Point(2.1, -1.3), 0.37
    c = Point(a.x + t * (b_.x - a.x), a.y + t * (b_.y - a.y))
    b = Builder([a, b_, c])
    got = b.point(cons.build_perp_foot(b, 0, 1, 2))
    assert len(b) == 3 + 3
    assert math.dist(got, c) <= 1e-15


# --- inversion -------------------------------------------------------------------

def test_invert_exterior_examples():
    d = Point(1.5 / math.sqrt(2), 1.5 / math.sqrt(2))
    close(run(cons.build_invert_exterior, ORIGIN, d, Point(1.5, 1.5)), 0.75, 0.75, within=1e-9)
    close(run(cons.build_invert_exterior, *UNIT, Point(4, 0)), 0.25, 0.0)
    close(run(cons.build_invert_exterior, *UNIT, Point(2, 0)), 0.5, 0.0)


def test_invert_exterior_rejects_non_exterior():
    with pytest.raises(NotExterior):
        run(cons.build_invert_exterior, *UNIT, Point(0.5, 0))
    with pytest.raises(NotExterior):
        run(cons.build_invert_exterior, *UNIT, Point(1, 0))


def test_invert_exterior_circle_budget():
    b = Builder([Point(0, 0), Point(1, 0), Point(4, 0)])
    node = cons.build_invert_exterior(b, 0, 1, 2)
    program, _ = b.finish([node])
    assert program.circle_count() == 4


def test_invert_general_examples():
    close(run(cons.build_invert_general, *UNIT, Point(0.5, 0)), 2.0, 0.0, within=1e-8)
    close(run(cons.build_invert_general, *UNIT, Point(1, 0)), 1.0, 0.0)
    with pytest.raises(CenterInversion):
        run(cons.build_invert_general, *UNIT, Point(1e-15, 0))
    with pytest.raises(ScaleOverflow):  # ratio 10**7 + 2 is beyond MAX_SCALE
        run(cons.build_invert_general, *UNIT, Point(1e-7, 0))
    with pytest.raises(ScaleOverflow):  # r/d overflows to infinity
        run(cons.build_invert_general, ORIGIN, Point(1e300, 0), Point(1e-11, 0))


def test_invert_interior_ratio_rule():
    # dist 0.5 in the unit circle: one doubling takes it to 1, beyond the
    # core's limit 1/2 by 1/32 and more
    b = Builder([Point(0, 0), Point(1, 0), Point(0.5, 0)])
    cons.build_invert_general(b, 0, 1, 2)
    program, _ = b.finish([])
    # 1 doubling out and 1 back, 3 circles each, plus the 4-circle core:
    # 6k + 4 with k = 1
    assert program.circle_count() == 2 * 1 * 3 + 4


# dist: doublings each way; keyed by the input alone, so a re-pin keeps the ids
FEWEST_DOUBLINGS = {0.9: 0, 0.55: 0, 0.52: 1, 0.3: 1, 0.2: 2, 1 / 31: 4, 1e-3: 9}


@pytest.mark.parametrize("dist", FEWEST_DOUBLINGS)
def test_invert_interior_fewest_doublings(dist):
    # the fewest doublings that clear the core's limit 1/2 by 1/32, or by
    # dist/2 where that is less; the paper's floor(1/dist) + 2 asks one more
    # at 0.52, 0.2 and 1e-3, and two more elsewhere
    b = Builder([Point(0, 0), Point(1, 0), Point(dist, 0)])
    node = cons.build_invert_general(b, 0, 1, 2)
    close(b.point(node), 1 / dist, 0.0, within=1e-12 / dist)
    assert b.finish([node])[0].circle_count() == 6 * FEWEST_DOUBLINGS[dist] + 4


LOG_BUDGET = {1e-3: 58, 1e-4: 82, 1e-6: 118}  # ratio: circles


@pytest.mark.parametrize("ratio", LOG_BUDGET)
def test_invert_interior_log_budget(ratio):
    b = Builder([Point(0, 0), Point(1, 0), Point(ratio, 0)])
    node = cons.build_invert_general(b, 0, 1, 2)
    program, _ = b.finish([node])
    assert program.circle_count() == LOG_BUDGET[ratio]


@pytest.mark.parametrize("j", range(10))
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["out", "in"])
def test_invert_interior_doubling_boundary(j, side):
    """Just outside and just inside (17/32) 2**-j r, where the pushed-out
    point lands on the core's margin: 6k + 4 circles with k the doublings
    ``_doublings`` predicts, k = j outside and j + 1 inside while the r/16
    clearance rules (j <= 3), and k = j on both sides once the dist/2 one
    does."""
    o, r, t = Point(0.3, -0.2), 1.7, 0.7
    d = Point(o.x + r, o.y)
    dist = 17 / 32 * 2.0 ** -j * r * (1 + side * 1e-9)
    p = Point(o.x + dist * math.cos(t), o.y + dist * math.sin(t))
    k = cons._doublings(dist, r)
    assert k == j + (side < 0 and j <= 3)
    b = Builder([o, d, p])
    node = cons.build_invert_general(b, 0, 1, 2)
    assert b.finish([node])[0].circle_count() == 6 * k + 4
    want = oracle_invert(ResolvedCircle(o, r), p)
    assert math.dist(b.point(node), want) <= 1e-12 * math.dist(want, o)


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
        d = Point(o.x + r * math.cos(t), o.y + r * math.sin(t))
        s = rng.uniform(0, 2 * math.pi)
        p = Point(o.x + ratio * r * math.cos(s), o.y + ratio * r * math.sin(s))
        got = run(cons.build_invert_general, o, d, p)
        want = oracle_invert(ResolvedCircle(o, r), p)
        worst = max(worst, math.dist(got, want) / math.dist(want, o))
    assert worst <= bound


def test_invert_far_exterior_refuses_touching_circles():
    # at 1e6 r the circles about m and n only touch, at o; the touch point
    # (3e-7, 4e-7) is half the image (6e-7, 8e-7)
    # build_reflect rolls its two circles back: 7 steps are left, the three
    # seeds, omega, the circle about p and the two cuts m and n
    message = (r"^Point\(x=600000\.0, y=800000\.0\) is too far outside "
               r"radius 1\.0 to invert$")
    for invert in (cons.build_invert_exterior, cons.build_invert_general):
        b = Builder([Point(0, 0), Point(1, 0), Point(6e5, 8e5)])
        with pytest.raises(ScaleOverflow, match=message):
            invert(b, 0, 1, 2)
        assert len(b) == 7


def test_invert_just_inside_the_circle():
    # 2 - EPS rounds down, so the point lies more than EPS inside: it is
    # interior by build_invert_general's own test, and beyond 17/32 of the
    # radius, so the core inverts it with no doubling
    dist = 2.0 - EPS
    assert 2.0 - dist > EPS
    for p in (dist, math.nextafter(dist, 0.0)):
        close(run(cons.build_invert_general, ORIGIN, Point(2, 0), Point(p, 0)), 4.0 / p, 0.0)


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
        d = Point(o.x + r * math.cos(t), o.y + r * math.sin(t))
        dist = rng.uniform(0.05 * r, 3.0 * r)
        s = rng.uniform(0, 2 * math.pi)
        p = Point(o.x + dist * math.cos(s), o.y + dist * math.sin(s))
        i = run(cons.build_invert_general, o, d, p)
        want = oracle_invert(ResolvedCircle(o, r), p)
        assert math.hypot(i.x - want.x, i.y - want.y) <= 1e-6
        back = run(cons.build_invert_general, o, d, i)
        assert math.hypot(back.x - p.x, back.y - p.y) <= 1e-5


# --- line-line -------------------------------------------------------------------

def test_line_line_paper_figure():
    s = run(cons.build_line_line, Point(-0.4, -0.4), Point(2.3, 2.3),
            Point(0.2, 1.8), Point(2.7, -0.7))
    close(s, 1.0, 1.0, within=1e-6)


def test_line_line_axis_cross():
    s = run(cons.build_line_line, Point(0, 0), Point(1, 0), Point(0.5, -1), Point(0.5, 1))
    close(s, 0.5, 0.0, within=1e-6)


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
    close(b.point(node), 1.0, 1.0, within=1e-12)
    program, _ = b.finish([node])
    assert refused
    assert len(ancestors(program, node)) == len(program.steps)


def test_line_line_retried_pole_leaves_no_step(monkeypatch):
    """Near the tangency band a pole can fail on its own: at scales 1e-12
    to 1e-11 some draws retry a pole and then succeed. Every step is then
    an ancestor of the result (fuzz draws never retry)."""
    real, poles = cons.build_apex, []

    def counted(*args):
        poles.append(args)
        return real(*args)

    monkeypatch.setattr(cons, "build_apex", counted)
    rng, retried = SplitMix64(5), 0
    for scale in (1e-12, 3e-12, 1e-11):
        for _ in range(300):
            seeds = [Point(rng.uniform(-5, 5) * scale, rng.uniform(-5, 5) * scale)
                     for _ in range(4)]
            b = Builder(seeds)
            poles.clear()
            try:
                node = cons.build_line_line(b, 0, 1, 2, 3)
            except CompassError:
                continue
            if len(poles) > 1:
                retried += 1
                program, _ = b.finish([node])
                assert len(ancestors(program, node)) == len(program.steps)
    assert retried >= 100  # 230 of the 900 draws


def test_line_line_rejects_parallel():
    from compass.errors import ParallelLines
    with pytest.raises(ParallelLines):
        run(cons.build_line_line, Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1))
    with pytest.raises(ParallelLines):  # where cross products overflow
        run(cons.build_line_line, Point(0, 0), Point(1e300, 0),
            Point(0, 1e300), Point(1e300, 1e300))
    with pytest.raises(DegenerateCircle):
        run(cons.build_line_line, Point(0, 0), Point(0, 0), Point(0, 1), Point(1, 1))


@pytest.mark.parametrize("s", [1e154, 1e160, 1e300, 1e307])
def test_line_line_overflow_is_a_compass_error(s):
    # at these scales squared distances overflow: the parallel test and the
    # pole ranking must not, so that the construction reports its own error
    with pytest.raises(NonFiniteInput):
        run(cons.build_line_line, Point(-0.4 * s, -0.4 * s), Point(2.3 * s, 2.3 * s),
            Point(0.2 * s, 1.8 * s), Point(2.7 * s, -0.7 * s))


# --- line-circle -----------------------------------------------------------------

def test_line_circle_off_center_figure():
    pts = run(cons.build_line_circle_off_center, Point(-2.5, 0.5), Point(-1.5, 0.5), *UNIT)
    as_set(pts, [(math.sqrt(0.75), 0.5), (-math.sqrt(0.75), 0.5)], within=1e-6)


def test_line_circle_near_tangent():
    pts = run(cons.build_line_circle_off_center, Point(-2, 0.999999), Point(2, 0.999999), *UNIT)
    assert len(pts) == 2
    half = math.sqrt(1 - 0.999999 ** 2)
    as_set(pts, [(half, 0.999999), (-half, 0.999999)], within=1e-6)


def test_line_circle_miss_and_center_on_line():
    with pytest.raises(NoSuchIntersection):
        run(cons.build_line_circle_off_center, Point(-2, 2), Point(2, 2), *UNIT)
    # a center on the line is answered too, d and its antipode, b's side first
    pts = run(cons.build_line_circle_off_center, Point(-2, 0), Point(2, 0), *UNIT)
    assert pts[0] == Point(1, 0)
    close(pts[1], -1.0, 0.0, within=1e-12)


def test_line_circle_exact_tangent_single_point():
    pts = run(cons.build_line_circle_off_center, Point(-2, 1), Point(2, 1), *UNIT)
    assert len(pts) == 1
    close(pts[0], 0.0, 1.0, within=1e-6)
    # the tangency appends one left pick, right after the mirror circle
    b = Builder([Point(-2, 1), Point(2, 1), *UNIT])
    assert cons.build_line_circle_off_center(b, 0, 1, 2, 3) == (12,)
    assert len(b) == 13 and b.ops[-2:] == [OP_CIRCLE, OP_LEFT]


@pytest.mark.parametrize("height", [1e-3, 1e-6, 1e-9, 1e-11])
def test_line_circle_center_near_the_line(height):
    """Near the line the mirror route loses digits as 1/h^2, and within the
    tangency band o has no mirror image at all: a mirror circle centered on
    the touch point cuts the circle about 1.0 away from the answer at
    1e-6. Such a center takes the inversion route, exact to 1e-12."""
    a, b_ = Point(-2, height), Point(3, height)
    pts = run(cons.build_line_circle_off_center, a, b_, *UNIT)
    want = oracle_line_circle(a, b_, ResolvedCircle(ORIGIN, 1.0))
    as_set(pts, [(w.x, w.y) for w in want], within=1e-12)


def test_line_circle_small_circle_whose_center_touches():
    # r/h = 50 asks for the mirror route, but the line's points lie so far
    # off that o's mirror circles only touch: the inversion route answers,
    # to 2.1e-11 at the scale of those points (the perpendicular foot's
    # route, before mirror images, was 1.0e-7 off)
    r, h = 1e-5, 2e-7
    a, b_ = Point(-2.5, h), Point(3.5, h)
    o, d = Point(0, 0), Point(0.6 * r, 0.8 * r)
    b = Builder([a, b_, o, d])
    with pytest.raises(OnMirrorLine):
        cons.build_reflect(b, 0, 1, 2)
    pts = run(cons.build_line_circle_off_center, a, b_, o, d)
    want = oracle_line_circle(a, b_, ResolvedCircle(o, r))
    as_set(pts, [(w.x, w.y) for w in want], within=1e-10)


def test_line_circle_center_on_the_line():
    # within geom.EPS of the line the center has no mirror image: a d
    # on the line too gives d and its antipode, any other d the arc
    # bisection on line ab itself; either way b's side of the center comes first
    a, b_ = Point(-2, 1e-13), Point(3, 1e-13)
    want = oracle_line_circle(a, b_, ResolvedCircle(ORIGIN, 1.0))
    for d in (UNIT[1], Point(0.6, 0.8)):
        b = Builder([a, b_, ORIGIN, d])
        x, y = (b.point(n) for n in cons.build_line_circle_off_center(b, 0, 1, 2, 3))
        as_set((x, y), [(w.x, w.y) for w in want], within=1e-12)
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
    pts = run(cons.build_line_circle_off_center, a, b_, o, d)
    want = oracle_line_circle(a, b_, ResolvedCircle(o, math.dist(o, d)))
    as_set(pts, [(w.x, w.y) for w in want], within=1e-12)


@pytest.mark.parametrize("height", [0.0, 1e-9, 1e-3, 1e-2, 1 / 70])
def test_line_circle_read_off_near_tangency(height):
    """For a center near the line, the inversion route reads a point off
    as a cut of line QS with the circle, where Q = 3d - 2o. That line
    touches the circle when the angle of d to the line has cosine 1/3 or
    -1/3; reading off the cut there, and not its partner, lost half the
    digits (1.7e-7). Scanned around those angles, for heights in units of r,
    and at the angles 0 (d on or near the line) and acos(0.6). Height 0,
    a center on the line, takes the arc bisection."""
    o, r, angle = Point(0.3, -0.4), 1.7, 0.7
    ux, uy = math.cos(angle), math.sin(angle)
    foot = Point(o.x + height * r * uy, o.y - height * r * ux)
    a = Point(foot.x - 2.0 * ux, foot.y - 2.0 * uy)
    b_ = Point(foot.x + 3.0 * ux, foot.y + 3.0 * uy)
    want = oracle_line_circle(a, b_, ResolvedCircle(o, r))
    bases = (math.acos(1 / 3), -math.acos(1 / 3), math.acos(-1 / 3), -math.acos(-1 / 3))
    nudges = (0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5, 1e-3, -1e-3)
    for t in [base + nudge for base in bases for nudge in nudges] + [0.0, math.acos(0.6)]:
        d = Point(o.x + r * (math.cos(t) * ux - math.sin(t) * uy),
                  o.y + r * (math.cos(t) * uy + math.sin(t) * ux))
        pts = run(cons.build_line_circle_off_center, a, b_, o, d)
        as_set(pts, [(w.x, w.y) for w in want], within=1e-12)


def test_line_circle_center_on_line_examples():
    pts = run(cons.build_line_circle_center_on_line, Point(0, 0), Point(2, 0), Point(0, 1))
    as_set(pts, [(1.0, 0.0), (-1.0, 0.0)], within=1e-6)
    # ordering: the point on a's side of the center comes first
    assert pts[0].x > 0


def test_line_circle_center_on_line_parallelogram_point():
    # d = (1, 1) lies at 45 degrees, so it is D itself, and D' = (1, -1):
    # the arc bisection's parallelogram point is P = o + D - D' = (0, 2),
    # and the last circle, about P of radius sqrt(|oP|^2 + r^2) = sqrt(6),
    # meets the circle at both answers: 13 circles in all
    b = Builder([Point(0, 0), Point(3, 0), Point(1, 1)])
    n1, n2 = cons.build_line_circle_center_on_line(b, 0, 1, 2)
    close(b.point(n1), math.sqrt(2), 0.0, within=1e-14)
    close(b.point(n2), -math.sqrt(2), 0.0, within=1e-14)
    last = b.circle_value(b.first[n1])
    assert b.first[n2] == b.first[n1]
    close(last.center, 0.0, 2.0, within=1e-14)
    assert last.radius == pytest.approx(math.sqrt(6), abs=1e-14)
    assert b.finish([n1, n2])[0].circle_count() == 13


def test_line_circle_center_on_line_sweep():
    """d swept round the circle in 0.1 degree steps, d off the line by a
    twentieth of r or more, and the arc bisection's hard angles, each also
    nudged by 1e-9 degrees: at 90 degrees from the line D' is D's antipode
    and P's circles only touch, and at 30 degrees one cut of omega with
    C(D, o) is D' itself. The worst error reads 8.1e-15 (r = 1.7)."""
    o, r, angle = Point(0.3, -0.4), 1.7, 0.7
    ux, uy = math.cos(angle), math.sin(angle)
    a, b_ = Point(o.x - 2.0 * ux, o.y - 2.0 * uy), Point(o.x + 3.0 * ux, o.y + 3.0 * uy)
    want = [(w.x, w.y) for w in oracle_line_circle(a, b_, ResolvedCircle(o, r))]
    hard = [sign * base + nudge for base in (30, 60, 90, 120, 150)
            for sign in (1, -1) for nudge in (0.0, 1e-9, -1e-9)]
    swept = [k / 10 for k in range(3600) if abs(math.sin(math.radians(k / 10))) >= 0.05]
    for degrees in swept + hard:
        t = math.radians(degrees)
        d = Point(o.x + r * (math.cos(t) * ux - math.sin(t) * uy),
                  o.y + r * (math.cos(t) * uy + math.sin(t) * ux))
        b = Builder([a, b_, o, d])
        x, y = cons.build_line_circle_off_center(b, 0, 1, 2, 3)
        as_set((b.point(x), b.point(y)), want, within=1e-13 * r)
        assert (b.point(x).x - o.x) * ux + (b.point(x).y - o.y) * uy > 0  # b's side first
        assert b.finish([x, y])[0].circle_count() <= 14


@pytest.mark.parametrize("offset", [1e-5, 1e-9])
def test_line_circle_center_on_line_datum_near_the_line(offset):
    # d lies nearly on the line, where its mirror image D' nearly is d: the
    # apex of (o, d) nearer 45 degrees stands in for d
    o, a = Point(0.4, -0.3), Point(2.9, 1.2)
    ux, uy = (a.x - o.x) / math.dist(o, a), (a.y - o.y) / math.dist(o, a)
    r = 1.3
    along = math.sqrt(r * r - offset * offset)
    d = Point(o.x + along * ux - offset * uy, o.y + along * uy + offset * ux)
    x, y = run(cons.build_line_circle_center_on_line, o, a, d)
    want = oracle_line_circle(o, a, ResolvedCircle(o, math.dist(o, d)))
    as_set((x, y), [(w.x, w.y) for w in want], within=1e-12)
    assert (x.x - o.x) * ux + (x.y - o.y) * uy > 0  # a's side first


def test_line_circle_center_on_line_datum_on_line():
    # the given radius point already sits on the line: answered directly
    pts = run(cons.build_line_circle_center_on_line, Point(0, 0), Point(2, 0), Point(-1, 0))
    as_set(pts, [(1.0, 0.0), (-1.0, 0.0)], within=1e-9)


@pytest.mark.parametrize("near", [1e-3, 1e-6, 1e-9])
def test_line_circle_center_on_line_with_the_line_points_near_the_center(near):
    """The line through the center of the unit circle and a point ``near``
    from it: the circle about that point through D all but coincides with
    the unit circle, and its cut with it lost digits as 1/near before the
    point was doubled away from the center. Over 60 directions of d the
    worst error read 1.7e-7 at 1e-9, and reads 1.3e-13 with the doubling."""
    a = Point(near * math.cos(0.7), near * math.sin(0.7))
    want = [(w.x, w.y) for w in oracle_line_circle(ORIGIN, a, ResolvedCircle(ORIGIN, 1.0))]
    for k in range(60):
        t = math.radians(6 * k + 3)
        d = Point(math.cos(t), math.sin(t))
        as_set(run(cons.build_line_circle_center_on_line, ORIGIN, a, d), want, within=1e-12)


def test_line_circle_center_on_line_at_a_tiny_scale_raises_a_typed_error():
    # at a scale of 1e-12 the arc bisection's last mirror circles, about the
    # cuts s1 and s2, only touch: there is no E* to pick
    o = Point(-3.115044388549565e-12, -3.9656388606993e-12)
    a = Point(-1.895765423894632e-12, -4.345296123760764e-12)
    d = Point(-3.5454637362861075e-12, -1.948851337458773e-12)
    b = Builder([o, a, d])
    with pytest.raises(DegenerateCircle, match="^the circles about s1 and s2 only touch$"):
        cons.build_line_circle_center_on_line(b, 0, 1, 2)
    assert len(b) == 23  # build_reflect rolls its two circles back


def test_line_circle_inversion_route_sweep(monkeypatch):
    """Centers more than EPS and less than r/64 from the line, which no
    fuzz case reaches, all take the inversion route: within 1e-12 of the
    oracle and in 28 circles or fewer. At seed 42 the worst error reads
    9.6e-14 and the mean 25.72 circles; over 2,000 draws each at seeds 1
    and 2, 1.3e-13 and never more than 28 circles."""
    real, routed = cons._line_circle_by_inversion, []

    def counted(*args):
        routed.append(args)
        return real(*args)

    monkeypatch.setattr(cons, "_line_circle_by_inversion", counted)
    rng = SplitMix64(42)
    worst, draws = 0.0, 200
    for _ in range(draws):
        o = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        r = rng.uniform(0.5, 3.0)
        h = r * math.exp(rng.uniform(math.log(1e-10), math.log(1 / 64)))
        t, s = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        ux, uy = math.cos(t), math.sin(t)
        foot = Point(o.x - h * uy, o.y + h * ux)
        a, b_ = (Point(foot.x + k * ux, foot.y + k * uy)
                 for k in (rng.uniform(-3, -0.5), rng.uniform(0.5, 3)))
        d = Point(o.x + r * math.cos(s), o.y + r * math.sin(s))
        b = Builder([a, b_, o, d])
        nodes = cons.build_line_circle_off_center(b, 0, 1, 2, 3)
        assert b.finish(nodes)[0].circle_count() <= 28
        want = oracle_line_circle(a, b_, ResolvedCircle(o, r))
        assert len(nodes) == len(want) == 2
        worst = max(worst, max(min(math.dist(b.point(n), w) for w in want) for n in nodes))
    assert len(routed) == draws
    assert worst <= 1e-12


# --- the master property: oracle equivalence, spot-checked here -----------------
# (the full 1000-case sweeps live in the acceptance suite)

@pytest.mark.parametrize("op", OPS)
def test_oracle_equivalence_sample(op):
    report = run_op(op, 60, seed=202)
    assert report.failures == 0, report.details
    assert report.max_err <= 1e-6


# --- only typed errors, at any scale ----------------------------------------------

# routine: its seeds, and the arguments after the builder; neg and conj take
# the third seed, with seeds 0 and 1 their basis
SCANNED = {
    cons.build_apex: (2, (0, 1)),
    cons.build_extend: (2, (0, 1)),
    cons.build_nth_point: (2, (0, 1, 5)),
    cons.build_midpoint: (2, (0, 1)),
    cons.build_diameter_circle: (2, (0, 1)),
    cons.build_reflect: (3, (0, 1, 2)),
    cons.build_perp_foot: (3, (0, 1, 2)),
    cons.build_invert_exterior: (3, (0, 1, 2)),
    cons.build_invert_general: (3, (0, 1, 2)),
    cons.build_line_line: (4, (0, 1, 2, 3)),
    cons.build_line_circle_off_center: (4, (0, 1, 2, 3)),
    cons.build_line_circle_center_on_line: (3, (0, 1, 2)),
    field_ops.build_neg: (3, (2,)),
    field_ops.build_conj: (3, (2,)),
}
SCALES = (1e-300, 1e-160, 3e-13, 1e-12, 3e-12, 1.0, 1e9, 1e150, 1e300)


def test_every_construction_is_scanned():
    assert ({build.__name__ for build in SCANNED if build.__module__ == cons.__name__}
            == {name for name in vars(cons) if name.startswith("build_")})


@pytest.mark.parametrize("build", SCANNED, ids=lambda build: build.__name__)
def test_only_typed_errors_escape(build):
    """Seeded draws at scales from 1e-300 to 1e300, in three strata: generic
    points, the last point on the line of the first two (t = 0.37), and the
    last point 1e-13 of the scale from the first. Only a ``CompassError``
    may escape."""
    seeds, args = SCANNED[build]
    rng = SplitMix64(2023)
    for scale in SCALES:
        for draw in range(60):
            pts = [Point(scale * rng.uniform(-5, 5), scale * rng.uniform(-5, 5))
                   for _ in range(seeds)]
            first, second = pts[0], pts[1]
            if draw % 3 == 1:
                pts[-1] = Point(first.x + 0.37 * (second.x - first.x),
                                first.y + 0.37 * (second.y - first.y))
            elif draw % 3 == 2:
                t = rng.uniform(0, 2 * math.pi)
                pts[-1] = Point(first.x + 1e-13 * scale * math.cos(t),
                                first.y + 1e-13 * scale * math.sin(t))
            try:
                build(Builder(pts), *args)
            except CompassError:
                pass
            except Exception as err:  # the failure this test looks for
                pytest.fail(f"{build.__name__}{tuple(pts)} at scale {scale}: {err!r}")
