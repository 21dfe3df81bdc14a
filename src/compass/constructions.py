"""The library of named compass constructions.

Each routine appends a compass program to a Builder and returns the node(s)
of its result, so constructions compose into one program (the script
interpreter and the figure demos rely on that). The module-level functions
of the same names are the plain call-a-function surface: they seed a fresh
builder, run the routine, and hand back coordinates.

Lines never exist as drawn objects anywhere below; a "line" is always a
pair of distinct points, per the compass-only rules of the game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    CenterInversion,
    CompassError,
    DegenerateCircle,
    NoSuchIntersection,
    NotExterior,
    NotOnCircle,
    OnMirrorLine,
    ParallelLines,
    ScaleOverflow,
)
from .geom import DEFAULT_TOL, Point, Tolerance, distance
from .program import Builder, Program, Selector

MAX_SCALE = 2 ** 20  # cap for integer-ratio chains
_SIN60 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True, slots=True)
class CircleByCenterAndPoint:
    """A compass circle: a center and a point it passes through."""

    center: Point
    through: Point

    def __post_init__(self):
        if distance(self.center, self.through) <= DEFAULT_TOL.eps_degenerate:
            raise DegenerateCircle("circle through its own center")

    @property
    def radius(self) -> float:
        return distance(self.center, self.through)


def _point_line_distance(p: Point, a: Point, b: Point) -> float:
    # pre-checks and choices only; verification formulas live in oracle.py
    ux, uy = b.x - a.x, b.y - a.y
    return abs(ux * (p.y - a.y) - uy * (p.x - a.x)) / math.hypot(ux, uy)


def _apex_xy(a: Point, b: Point, side: Selector) -> tuple[float, float]:
    """Where ``build_apex`` will land: b turned 60 degrees about a."""
    ux, uy = b.x - a.x, b.y - a.y
    sin = _SIN60 if side is Selector.LEFT else -_SIN60
    return a.x + 0.5 * ux - sin * uy, a.y + 0.5 * uy + sin * ux


# --- elementary pieces ------------------------------------------------------

def build_apex(b: Builder, a: int, bn: int, side: Selector = Selector.LEFT) -> int:
    """Third vertex of the equilateral triangle on segment ab.

    Two circles, one pick; LEFT is the counterclockwise apex.
    """
    if distance(b.point(a), b.point(bn)) <= b.tol.eps_degenerate:
        raise DegenerateCircle("apex of a degenerate segment")
    return b.pick(b.circle(a, bn), b.circle(bn, a), side)


@lru_cache(maxsize=None)
def apex_program(side: Selector = Selector.LEFT) -> Program:
    """Canonical two-seed apex program (for replay on arbitrary segments)."""
    b = Builder([Point(0.0, 0.0), Point(1.0, 0.0)])
    return b.finish([build_apex(b, 0, 1, side)])[0]


@lru_cache(maxsize=None)
def nth_point_program(n: int) -> Program:
    """Canonical two-seed program for the n-fold point along the ray."""
    b = Builder([Point(0.0, 0.0), Point(1.0, 0.0)])
    return b.finish([build_nth_point(b, 0, 1, n)])[0]


@lru_cache(maxsize=None)
def extend_program() -> Program:
    """Reflection of the first seed through the second: marching three
    60-degree arcs around the circle centered at seed 1 through seed 0
    (the hexagon walk). Exactly 4 circles."""
    b = Builder([Point(0.0, 0.0), Point(1.0, 0.0)])
    base = b.circle(1, 0)
    step = b.circle(0, 1)
    u1 = b.pick(step, base, Selector.LEFT)
    u2 = b.pick(b.circle(u1, 1), base, Selector.LEFT)
    u3 = b.pick(b.circle(u2, 1), base, Selector.LEFT)
    return b.finish([u3])[0]


def build_extend(b: Builder, x: int, y: int) -> int:
    """Point 2y - x: x reflected through y."""
    return b.inline(extend_program(), (x, y))[0]


def build_nth_point(b: Builder, o: int, p: int, n: int) -> int:
    """o + n (p - o), as a chain of n - 1 reflections along the ray."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > MAX_SCALE:
        raise ScaleOverflow(f"scaling factor {n} exceeds {MAX_SCALE}")
    prev, cur = o, p
    for _ in range(n - 1):
        prev, cur = cur, build_extend(b, prev, cur)
    return cur


@lru_cache(maxsize=None)
def midpoint_program() -> Program:
    """The 7-circle bisection: reflect b through a to get c, cut the circle
    (c through b) with the circle (b through a) -- that one is shared with
    the reflection -- and close with the two circles through b around the
    cut points."""
    b = Builder([Point(0.0, 0.0), Point(1.0, 0.0)])
    c = build_extend(b, 1, 0)
    big = b.circle(c, 1)
    back = b.circle(1, 0)  # reused from the extend walk
    m, n = b.both(big, back)
    out = b.pick(b.circle(m, 1), b.circle(n, 1), Selector.RIGHT)
    return b.finish([out])[0]


def build_midpoint(b: Builder, a: int, bn: int) -> int:
    return b.inline(midpoint_program(), (a, bn))[0]


def build_diameter_circle(b: Builder, a: int, bn: int) -> int:
    """The circle with segment ab as diameter: centered at the midpoint,
    through a. Returns a circle node."""
    return b.circle(build_midpoint(b, a, bn), a)


def build_reflect(b: Builder, a: int, bn: int, c: int) -> int:
    """Mirror image of c in line ab: the circles centered a and b through c
    meet again there. Two circles and one pick.

    Where c lies on the line, to within the kernel's tangency band, the
    circles only touch, at the foot of c, and there is no mirror image to
    pick: that raises ``OnMirrorLine`` and appends nothing.
    """
    mark = b.mark()
    image = b.pick_other(b.circle(a, c), b.circle(bn, c), avoid=c, strict=True)
    if image is None:
        b.rollback(mark)
        raise OnMirrorLine(f"{b.point(c)} lies on the mirror line")
    return image


def build_perp_foot(b: Builder, a: int, bn: int, c: int) -> int:
    """Foot of the perpendicular from c onto line ab: the midpoint of c and
    its mirror image, 9 circles and 7 picks. When c is on the line the
    mirror circles touch at the foot, which is then the answer: 2 circles
    and 1 pick.
    """
    eps = b.tol.eps_degenerate
    pa, pb, pc = b.point(a), b.point(bn), b.point(c)
    if distance(pa, pb) <= eps:
        raise DegenerateCircle("foot on a degenerate line")
    if distance(pc, pa) <= eps or distance(pc, pb) <= eps:
        raise DegenerateCircle("foot construction needs c distinct from a and b")
    around_a, around_b = b.circle(a, c), b.circle(bn, c)
    mirror = b.pick_other(around_a, around_b, avoid=c, strict=True)
    if mirror is None:
        return b.pick(around_a, around_b, Selector.LEFT)
    return build_midpoint(b, c, mirror)


# --- inversion ---------------------------------------------------------------

def build_invert_exterior(b: Builder, o: int, d: int, p: int) -> int:
    """Inversion of p in the circle omega centered o through d, by three
    circles: the circle centered p through o cuts omega at m and n, and the
    image is the mirror image of o in the chord mn, where the circles
    centered m and n through o meet again. Valid for |op| > r/2 (4 circles
    and 3 picks); the contract asks |op| > r (``NotExterior``).

    Far outside, the chord mn nears a diameter and the rounding of m and n
    grows with |op|; at about |op| = 1e6 r the circles about m and n only
    touch, at o, and that raises ``ScaleOverflow``.
    """
    po, pd, pp = b.point(o), b.point(d), b.point(p)
    r = distance(po, pd)
    if distance(po, pp) <= r + b.tol.eps_degenerate:
        raise NotExterior(f"{pp} is not strictly outside radius {r}")
    omega = b.circle(o, d)
    m, n = b.both(b.circle(p, o), omega)
    image = b.pick_other(b.circle(m, o), b.circle(n, o), avoid=o, strict=True)
    if image is None:
        raise ScaleOverflow(f"{pp} is too far outside radius {r} to invert")
    return image


def build_invert_general(b: Builder, o: int, d: int, p: int) -> int:
    """Inversion of any point p != center.

    Exterior points invert directly; points on the circle are their own
    image. An interior point at distance d from the center needs an integer
    ratio n > r/d to clear the circle (the paper's rule takes
    n = floor(r/d) + 2). Inversion turns scaling by any integer m into
    scaling by 1/m, so the point is pushed out by the power of two
    2^k >= n, with k doublings about the center, inverted there, and the
    image pulled back by k more doublings: 8k + 4 circles, 4 per doubling
    and 4 for the core. The pushed-out point lies beyond r, so twice clear
    of the core's limit r/2, where its first circle only touches omega.
    """
    eps = b.tol.eps_degenerate
    po, pd, pp = b.point(o), b.point(d), b.point(p)
    r = distance(po, pd)
    dist = distance(po, pp)
    if dist <= eps:
        raise CenterInversion("inversion is undefined at the center")
    if abs(dist - r) <= eps:
        return p
    if dist > r + eps:
        return build_invert_exterior(b, o, d, p)
    n = math.floor(r / dist) + 2
    if n > MAX_SCALE:
        raise ScaleOverflow(
            f"interior point needs ratio {n}, beyond {MAX_SCALE}")
    doublings = (n - 1).bit_length()  # smallest k with 2**k >= n
    q = p
    for _ in range(doublings):
        q = build_extend(b, o, q)
    j = build_invert_exterior(b, o, d, q)
    for _ in range(doublings):
        j = build_extend(b, o, j)
    return j


# --- intersections through inversion -----------------------------------------

def build_line_line(b: Builder, a: int, bn: int, c: int, d: int) -> int:
    """Intersection of lines ab and cd.

    Pick a pole off both lines (an apex of a segment between the four
    points) and invert in the circle around it through a. Each line
    inverts to the circle through the pole centered on the inverse of the
    pole's mirror image in the line; those two circles meet again at the
    inverse of the sought point, which is inverted back. That is 18
    circles (fewer where steps coincide) when both mirror images and the
    cut point lie outside the pole circle, and 8 more for each doubling an
    interior one takes, two at least.

    The pole is retried over the twelve apexes, rolling back each that
    fails: first demanding practical clearance from both lines (which
    bounds the interior-inversion ratio), then accepting anything
    non-degenerate.
    """
    eps = b.tol.eps_degenerate
    pa, pb, pc, pd = b.point(a), b.point(bn), b.point(c), b.point(d)
    if distance(pa, pb) <= eps or distance(pc, pd) <= eps:
        raise DegenerateCircle("line-line needs two proper lines")
    ux, uy = pb.x - pa.x, pb.y - pa.y
    vx, vy = pd.x - pc.x, pd.y - pc.y
    if abs(ux * vy - uy * vx) <= eps * math.hypot(ux, uy) * math.hypot(vx, vy):
        raise ParallelLines("line directions agree within tolerance")

    # Apexes of ab and cd first, per the deterministic rule; apexes of the
    # cross pairs afterwards, because for symmetric inputs (e.g. two
    # perpendicular axes) every apex of ab and cd lands exactly on the
    # other line.
    pairs = ((a, bn), (c, d), (a, c), (bn, d), (a, d), (bn, c))
    pole_specs = tuple((e1, e2, side) for e1, e2 in pairs
                       for side in (Selector.LEFT, Selector.RIGHT))
    last_error: CompassError | None = None
    for strict in (True, False):
        for e1, e2, side in pole_specs:
            mark = b.mark()
            try:
                pole = build_apex(b, e1, e2, side)
                pp = b.point(pole)
                radius = distance(pp, pa)  # the pole circle goes through a
                clearance = min(_point_line_distance(pp, pa, pb),
                                _point_line_distance(pp, pc, pd))
                floor = 1e-3 * radius if strict else eps
                if radius <= eps or clearance <= floor:
                    raise DegenerateCircle("pole too close to a line")
                images = [b.circle(build_invert_general(
                    b, pole, a, build_reflect(b, e, f, pole)), pole)
                    for e, f in ((a, bn), (c, d))]
                k = b.pick_other(*images, avoid=pole)
                return build_invert_general(b, pole, a, k)
            except CompassError as err:
                last_error = err
                b.rollback(mark)
    raise last_error if last_error is not None else ParallelLines("no usable pole")


def _clear_of_line(b: Builder, o: int, d: int, a: int, bn: int,
                   floor: float) -> int:
    """A point of the circle centered o through d that keeps clear of line
    ab: d itself when it lies ``floor`` or more from the line, else the apex
    of (o, d) farther from it, which takes the circle centered d through o
    and one pick beside the circle itself. The apexes turn d by 60 degrees
    either way about o, so when d lies within r/4 of the line the farther
    one lies at least r/4 from it."""
    po, pd, pa, pb = b.point(o), b.point(d), b.point(a), b.point(bn)
    if _point_line_distance(pd, pa, pb) >= floor:
        return d
    left, right = (_point_line_distance(Point(*_apex_xy(po, pd, side)), pa, pb)
                   for side in (Selector.LEFT, Selector.RIGHT))
    return build_apex(b, o, d, Selector.LEFT if left >= right else Selector.RIGHT)


def build_line_circle_off_center(b: Builder, a: int, bn: int,
                                 o: int, d: int) -> tuple[int, ...]:
    """Points of line ab on the circle omega centered o through d.

    The line meets omega where omega meets its own mirror image in the
    line: the circle centered on o's mirror image through the mirror image
    of a point t of omega. t is d, or, where d lies within r/4 of the line
    (its mirror image is then poorly conditioned), the apex of (o, d)
    farther from it. 6 circles and 4 picks, one circle and pick more for
    the apex; returns two nodes, or one on tangency.

    The mirror image meets omega at an angle of about 2h/r for a center h
    from the line, and o's own mirror circles cross at an angle of order h
    too, so the error grows as 1/h^2. A center within r/64 of the line, or
    whose mirror circles only touch, takes the inversion route
    (``_line_circle_by_inversion``) instead, whose circles cross at the
    angle the line makes with omega, nearly a right angle there.

    A center on the line (to within ``eps_degenerate``) has no mirror image:
    the answer is d and its antipode, or where d is off the line the
    inversion route's, ordered along a -> bn: bn's side of the center first.
    """
    eps = b.tol.eps_degenerate
    pa, pb, po, pd = b.point(a), b.point(bn), b.point(o), b.point(d)
    if distance(pa, pb) <= eps:
        raise DegenerateCircle("line-circle needs a proper line")
    h, r = _point_line_distance(po, pa, pb), distance(po, pd)
    if h <= eps:
        if _point_line_distance(pd, pa, pb) <= eps:
            x1, x2 = d, build_antipode(b, o, d, d)
        else:
            x1, x2 = _line_circle_by_inversion(b, a, bn, o, d)
        v1 = b.point(x1)
        ahead = (v1.x - po.x) * (pb.x - pa.x) + (v1.y - po.y) * (pb.y - pa.y) >= 0
        return (x1, x2) if ahead else (x2, x1)
    o_mirror = None
    if 64.0 * h >= r:
        try:
            o_mirror = build_reflect(b, a, bn, o)
        except OnMirrorLine:
            pass
    if o_mirror is None:
        return _line_circle_by_inversion(b, a, bn, o, d)
    omega = b.circle(o, d)
    t = _clear_of_line(b, o, d, a, bn, r / 4.0)
    mirror = b.circle(o_mirror, build_reflect(b, a, bn, t))
    try:
        return b.meet(mirror, omega)
    except NoSuchIntersection:
        raise NoSuchIntersection("the line misses the circle") from None


def _line_circle_by_inversion(b: Builder, a: int, bn: int, o: int,
                              d: int) -> tuple[int, int]:
    """Points of line ab on the circle centered o through d, for a center
    on or near the line, by inversion.

    Take C on the circle and off the line: d, or, where d lies within r/3
    of the line, the apex of (o, d) farther from it. Lay out O, C, P, Q
    equally spaced and invert in the circle Lambda around Q through C
    (radius 2r). It sends the circle to sigma, the circle on diameter CP,
    and the line to the circle through Q centered on the inverse of Q's
    mirror image in the line. Inverting the two cuts of those circles back
    lands on the sought points. With the center on the line, Q's mirror
    image lies outside Lambda and each cut inside, between r and 2r from Q,
    at two doublings: 59 circles and 48 picks, 61 and 49 with the apex.
    """
    c = _clear_of_line(b, o, d, a, bn, distance(b.point(o), b.point(d)) / 3.0)
    p = build_extend(b, o, c)
    q = build_extend(b, c, p)
    pi_circle = b.circle(build_invert_general(b, q, c, build_reflect(b, a, bn, q)), q)
    sigma = build_diameter_circle(b, c, p)
    s1, s2 = b.both(sigma, pi_circle)
    return build_invert_general(b, q, c, s1), build_invert_general(b, q, c, s2)


def build_line_circle_center_on_line(b: Builder, o: int, a: int,
                                     d: int) -> tuple[int, int]:
    """Points of line oa on the circle centered o through d, the one on a's
    side of the center first: ``build_line_circle_off_center`` with o on
    the line."""
    return build_line_circle_off_center(b, o, a, o, d)


def build_antipode(b: Builder, o: int, d: int, p: int) -> int:
    """Diametrically opposite point of p on the circle centered o through d."""
    po, pd, pp = b.point(o), b.point(d), b.point(p)
    if abs(distance(po, pp) - distance(po, pd)) > b.tol.eps_degenerate:
        raise NotOnCircle(f"{pp} does not lie on the circle")
    return build_extend(b, p, o)


# --- plain functional surface -------------------------------------------------

def apex(a: Point, b: Point, side: Selector = Selector.LEFT,
         tol: Tolerance = DEFAULT_TOL) -> Point:
    bld = Builder([a, b], tol)
    return bld.point(build_apex(bld, 0, 1, side))


def extend(x: Point, y: Point, tol: Tolerance = DEFAULT_TOL) -> Point:
    bld = Builder([x, y], tol)
    return bld.point(build_extend(bld, 0, 1))


def nth_point(o: Point, p: Point, n: int, tol: Tolerance = DEFAULT_TOL) -> Point:
    bld = Builder([o, p], tol)
    return bld.point(build_nth_point(bld, 0, 1, n))


def midpoint(a: Point, b: Point, tol: Tolerance = DEFAULT_TOL) -> Point:
    bld = Builder([a, b], tol)
    return bld.point(build_midpoint(bld, 0, 1))


def diameter_circle(a: Point, b: Point,
                    tol: Tolerance = DEFAULT_TOL) -> CircleByCenterAndPoint:
    bld = Builder([a, b], tol)
    node = build_diameter_circle(bld, 0, 1)
    return CircleByCenterAndPoint(bld.circle_value(node).center, a)


def perp_foot(a: Point, b: Point, c: Point, tol: Tolerance = DEFAULT_TOL) -> Point:
    bld = Builder([a, b, c], tol)
    return bld.point(build_perp_foot(bld, 0, 1, 2))


def invert_exterior(omega: CircleByCenterAndPoint, p: Point,
                    tol: Tolerance = DEFAULT_TOL) -> Point:
    bld = Builder([omega.center, omega.through, p], tol)
    return bld.point(build_invert_exterior(bld, 0, 1, 2))


def invert_general(omega: CircleByCenterAndPoint, p: Point,
                   tol: Tolerance = DEFAULT_TOL) -> Point:
    bld = Builder([omega.center, omega.through, p], tol)
    return bld.point(build_invert_general(bld, 0, 1, 2))


def line_line(a: Point, b: Point, c: Point, d: Point,
              tol: Tolerance = DEFAULT_TOL) -> Point:
    bld = Builder([a, b, c, d], tol)
    return bld.point(build_line_line(bld, 0, 1, 2, 3))


def line_circle_off_center(a: Point, b: Point, omega: CircleByCenterAndPoint,
                           tol: Tolerance = DEFAULT_TOL) -> tuple[Point, ...]:
    bld = Builder([a, b, omega.center, omega.through], tol)
    nodes = build_line_circle_off_center(bld, 0, 1, 2, 3)
    return tuple(bld.point(n) for n in nodes)


def line_circle_center_on_line(o: Point, a: Point, omega: CircleByCenterAndPoint,
                               tol: Tolerance = DEFAULT_TOL) -> tuple[Point, Point]:
    if distance(omega.center, o) > tol.eps_degenerate:
        raise ValueError("omega must be centered at o")
    bld = Builder([o, a, omega.through], tol)
    n1, n2 = build_line_circle_center_on_line(bld, 0, 1, 2)
    return bld.point(n1), bld.point(n2)


def antipode(omega: CircleByCenterAndPoint, p: Point,
             tol: Tolerance = DEFAULT_TOL) -> Point:
    bld = Builder([omega.center, omega.through, p], tol)
    return bld.point(build_antipode(bld, 0, 1, 2))
