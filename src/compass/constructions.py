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
    CenterOnLine,
    CompassError,
    DegenerateCircle,
    NoSuchIntersection,
    NotExterior,
    NotOnCircle,
    ParallelLines,
    ScaleOverflow,
)
from .geom import DEFAULT_TOL, Point, Tolerance, distance
from .program import Builder, Program, Selector

MAX_SCALE = 2 ** 20  # cap for integer-ratio chains


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
    # degeneracy pre-checks only; verification formulas live in oracle.py
    ux, uy = b.x - a.x, b.y - a.y
    return abs(ux * (p.y - a.y) - uy * (p.x - a.x)) / math.hypot(ux, uy)


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


def build_perp_foot(b: Builder, a: int, bn: int, c: int) -> int:
    """Foot of the perpendicular from c onto line ab.

    The circles with diameters ac and bc meet at c and at the foot; when c
    is on the line they are tangent there and the foot is c itself.
    """
    eps = b.tol.eps_degenerate
    pa, pb, pc = b.point(a), b.point(bn), b.point(c)
    if distance(pa, pb) <= eps:
        raise DegenerateCircle("foot on a degenerate line")
    if distance(pc, pa) <= eps or distance(pc, pb) <= eps:
        raise DegenerateCircle("foot construction needs c distinct from a and b")
    d1 = build_diameter_circle(b, a, c)
    d2 = build_diameter_circle(b, bn, c)
    return b.pick_other(d1, d2, avoid=c)


# --- inversion ---------------------------------------------------------------

def build_invert_exterior(b: Builder, o: int, d: int, p: int) -> int:
    """Inversion of an exterior point p in the circle centered o through d.

    Cuts the circle with the one on diameter op, then drops the
    perpendicular from the center onto the chord.
    """
    po, pd, pp = b.point(o), b.point(d), b.point(p)
    r = distance(po, pd)
    if distance(po, pp) <= r + b.tol.eps_degenerate:
        raise NotExterior(f"{pp} is not strictly outside radius {r}")
    omega = b.circle(o, d)
    theta = build_diameter_circle(b, o, p)
    m, n = b.both(theta, omega)
    return build_perp_foot(b, m, n, o)


def build_invert_general(b: Builder, o: int, d: int, p: int) -> int:
    """Inversion of any point p != center.

    Exterior points invert directly; points on the circle are their own
    image. An interior point at distance d from the center needs an integer
    ratio n > r/d to clear the circle (the paper's rule takes
    n = floor(r/d) + 2). Inversion turns scaling by any integer m into
    scaling by 1/m, so the point is pushed out by the power of two
    2^k >= n, with k doublings about the center, inverted there, and the
    image pulled back by k more doublings: O(log r/d) circles in all.
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

    Pick a pole off both lines (an apex of one of the segments), invert the
    two perpendicular feet in a circle around the pole, cut the circles on
    the inverted diameters, and invert the cut back. The pole is retried
    over the four apex choices: first demanding practical clearance from
    both lines (which bounds the interior-inversion ratio), then accepting
    anything non-degenerate.
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
                n_foot = build_perp_foot(b, a, bn, pole)
                m_foot = build_perp_foot(b, c, d, pole)
                i = build_invert_general(b, pole, a, n_foot)
                j = build_invert_general(b, pole, a, m_foot)
                di = build_diameter_circle(b, i, pole)
                dj = build_diameter_circle(b, j, pole)
                k = b.pick_other(di, dj, avoid=pole)
                return build_invert_general(b, pole, a, k)
            except CompassError as err:
                last_error = err
                b.rollback(mark)
    raise last_error if last_error is not None else ParallelLines("no usable pole")


def build_line_circle_off_center(b: Builder, a: int, bn: int,
                                 o: int, d: int) -> tuple[int, ...]:
    """Points of line ab on the circle centered o through d, center off the line.

    Inversion sends the line to the circle on diameter o-K, where K inverts
    the foot of the center; cutting that against the given circle lands
    exactly on the line. Returns two nodes, or one on tangency.
    """
    eps = b.tol.eps_degenerate
    pa, pb, po = b.point(a), b.point(bn), b.point(o)
    if distance(pa, pb) <= eps:
        raise DegenerateCircle("line-circle needs a proper line")
    if _point_line_distance(po, pa, pb) <= eps:
        raise CenterOnLine("center lies on the line; use the diameter variant")
    omega = b.circle(o, d)
    h = build_perp_foot(b, a, bn, o)
    k = build_invert_general(b, o, d, h)
    diam = build_diameter_circle(b, o, k)
    try:
        return b.meet(diam, omega)
    except NoSuchIntersection:
        raise NoSuchIntersection("the line misses the circle") from None


def build_line_circle_center_on_line(b: Builder, o: int, a: int,
                                     d: int) -> tuple[int, int]:
    """Points of line oa on the circle centered o through d.

    With C = d off the line, lay out O, C, P, Q equally spaced, work in the
    doubled circle around Q through C, invert the foot of Q, and cut the
    circles on diameters QI and CP; inverting the cut back lands on the two
    sought points. When d is already on the line the answer is d and its
    antipode, directly.

    Outputs are ordered with the point on a's side of the center first.
    """
    eps = b.tol.eps_degenerate
    po, pa, pdd = b.point(o), b.point(a), b.point(d)
    if distance(po, pa) <= eps:
        raise DegenerateCircle("the line needs a point distinct from the center")

    if _point_line_distance(pdd, po, pa) <= eps:
        x1, x2 = d, build_antipode(b, o, d, d)
    else:
        c = d
        p = build_extend(b, o, c)
        q = build_extend(b, c, p)
        lam_center, lam_through = q, c  # radius 2r circle
        b.circle(lam_center, lam_through)
        h = build_perp_foot(b, o, a, q)
        i = build_invert_general(b, lam_center, lam_through, h)
        pi_circle = build_diameter_circle(b, q, i)
        sigma = build_diameter_circle(b, c, p)
        s1, s2 = b.both(sigma, pi_circle)
        x1 = build_invert_general(b, lam_center, lam_through, s1)
        x2 = build_invert_general(b, lam_center, lam_through, s2)

    ux, uy = pa.x - po.x, pa.y - po.y
    v1 = b.point(x1)
    if (v1.x - po.x) * ux + (v1.y - po.y) * uy >= 0:
        return x1, x2
    return x2, x1


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
