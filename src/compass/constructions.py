"""The library of named compass constructions.

Each routine appends a compass program to a Builder and returns the node(s)
of its result, so constructions compose into one program (the script
interpreter and the figure demos rely on that). To run one on points, seed a
builder with them and read the result off it by node:

    b = Builder([a, c])
    b.point(build_midpoint(b, 0, 1))

Lines never exist as drawn objects anywhere below; a "line" is always a
pair of distinct points, per the compass-only rules of the game.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import (
    BelowResolution,
    CenterInversion,
    CompassError,
    DegenerateCircle,
    NoSuchIntersection,
    NotExterior,
    NotPositiveInteger,
    OnMirrorLine,
    ParallelLines,
    ScaleOverflow,
)
from .geom import BAND_RESOLUTION, EPS, Point
from .program import Builder, Program, Selector

MAX_SCALE = 2 ** 20  # cap for integer-ratio chains
CANONICAL_SEEDS = (Point(0.0, 0.0), Point(1.0, 0.0))  # the numbers 0 and 1
_SIN60 = math.sqrt(3.0) / 2.0
_SIDES = _LEFT, _RIGHT = Selector.LEFT, Selector.RIGHT  # module names, as in program.py


def _point_line_distance(p: Point, a: Point, b: Point) -> float:
    # pre-checks and choices only; verification formulas live in oracle.py
    ux, uy = b.x - a.x, b.y - a.y
    return abs(ux * (p.y - a.y) - uy * (p.x - a.x)) / math.hypot(ux, uy)


def _apex_xy(a: Point, b: Point, side: Selector) -> tuple[float, float]:
    """Where ``build_apex`` will land: b turned 60 degrees about a."""
    ux, uy = b.x - a.x, b.y - a.y
    sin = _SIN60 if side is _LEFT else -_SIN60
    return a.x + 0.5 * ux - sin * uy, a.y + 0.5 * uy + sin * ux


# --- elementary pieces ------------------------------------------------------

def build_apex(b: Builder, a: int, bn: int, side: Selector = Selector.LEFT) -> int:
    """Third vertex of the equilateral triangle on segment ab.

    Two circles, one pick; LEFT is the counterclockwise apex. A degenerate
    segment fails at its first circle (``DegenerateCircle``).
    """
    return b.pick(b.circle(a, bn), b.circle(bn, a), side)


@lru_cache(maxsize=None)
def apex_program(side: Selector = Selector.LEFT) -> Program:
    """Canonical two-seed apex program (for replay on arbitrary segments)."""
    b = Builder(CANONICAL_SEEDS)
    return b.finish([build_apex(b, 0, 1, side)])[0]


@lru_cache(maxsize=256, typed=True)  # bounded: a script may ask for any n up to MAX_SCALE
def nth_point_program(n: int) -> Program:
    """Canonical two-seed program for the n-fold point along the ray, the
    one ``build_nth_point`` inlines, built once per n. n is checked here,
    on every miss: the cache keys on n's type, so True and 2.0 never hit
    the programs of 1 and 2, and an error is never cached."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise NotPositiveInteger(f"n must be a positive integer, got {n!r}")
    if n > MAX_SCALE:
        raise ScaleOverflow(f"scaling factor {n} exceeds {MAX_SCALE}")
    b = Builder(CANONICAL_SEEDS)
    return b.finish([_doubling_chain(b, 0, 1, n)])[0]


@lru_cache(maxsize=None)
def extend_program() -> Program:
    """Reflection of the first seed x through the second y, 2y - x, in 3
    circles and 3 picks, which is optimal (``tests/test_minimal.py``). The
    circles about y through x and about x through y cut at the apexes u
    and v; the circle about u through v, of radius sqrt(3)|xy|, meets the
    circle about y again at 2y - x."""
    b = Builder(CANONICAL_SEEDS)
    base = b.circle(1, 0)
    u, v = b.both(b.circle(0, 1), base)
    return b.finish([b.pick(b.circle(u, v), base, Selector.LEFT)])[0]


def build_extend(b: Builder, x: int, y: int) -> int:
    """Point 2y - x: x reflected through y."""
    return b.inline(extend_program(), (x, y))[0]


def _doubling_chain(b: Builder, o: int, p: int, n: int) -> int:
    """The steps of ``build_nth_point``, appended one doubling at a time;
    run only to build the cached canonical programs."""
    if n == 1:
        return p
    if n == 2:
        return build_extend(b, o, p)
    if n == 3:
        back = b.circle(build_extend(b, o, p), p)
        w = b.pick(back, b.circle(p, o), Selector.LEFT)
        return b.pick(b.circle(w, o), back, Selector.RIGHT)
    return build_extend(b, p if n % 2 else o, _doubling_chain(b, o, p, (n + 1) // 2))


def build_nth_point(b: Builder, o: int, p: int, n: int) -> int:
    """o + n (p - o), by doublings through the points P(k) = o + k (p - o):
    P(2k) = extend(P(0), P(k)) and P(2k - 1) = extend(P(1), P(k)), down to
    P(2), one doubling, or P(3), the 5-circle tripling, which is optimal
    (``tests/test_minimal.py``). The tripling cuts C(P(2), P(1)) with the
    doubling's own C(P(1), P(0)) at w, and the circle about w through P(0),
    of radius sqrt(3)|op|, meets C(P(2), P(1)) again at P(3). 3 circles
    per halving of n: nth(2**20) takes 60.

    It is one inline of the cached ``nth_point_program(n)``, which checks
    n, while the inline checks that o and p are points: the same rows in
    the same order as the doublings one by one, so the same steps,
    hash-cons hits and failure points. For n == 1 the program has no step
    and hands p back.
    """
    return b.inline(nth_point_program(n), (o, p))[0]


@lru_cache(maxsize=None)
def midpoint_program() -> Program:
    """The 6-circle bisection, which is optimal (``tests/test_minimal.py``):
    reflect b through a to get c, cut the circle (c through b) with the
    circle (b through a) -- that one is shared with the reflection -- and
    close with the two circles through b around the cut points."""
    b = Builder(CANONICAL_SEEDS)
    c = build_extend(b, 1, 0)
    big = b.circle(c, 1)
    back = b.circle(1, 0)  # reused from the doubling
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
    image = b.pick_other(b.circle(a, c), b.circle(bn, c), avoid=c)
    if image is None:
        b.rollback(mark)
        raise OnMirrorLine(f"{b.point(c)} lies on the mirror line")
    return image


def build_perp_foot(b: Builder, a: int, bn: int, c: int) -> int:
    """Foot of the perpendicular from c onto line ab: the midpoint of c and
    its mirror image, 8 circles and 7 picks. When c is on the line the
    mirror circles touch at the foot, which is then the answer: 2 circles
    and 1 pick. A c at a or b raises the kernel's ``DegenerateCircle`` from
    its mirror circle about that point; at b, that comes after the circle
    about a is appended.
    """
    if math.dist(b.point(a), b.point(bn)) <= EPS:
        raise DegenerateCircle("foot on a degenerate line")
    around_a, around_b = b.circle(a, c), b.circle(bn, c)
    mirror = b.pick_other(around_a, around_b, avoid=c)
    if mirror is None:
        return b.pick(around_a, around_b, Selector.LEFT)
    return build_midpoint(b, c, mirror)


# --- inversion ---------------------------------------------------------------

def _invert_core(b: Builder, o: int, d: int, p: int) -> int:
    """Inversion of p in the circle omega centered o through d, by three
    circles: the circle centered p through o cuts omega at m and n, and the
    image is the mirror image of o in the chord mn (``build_reflect``). 4
    circles with omega, and 3 picks; valid for |op| > r/2, where the circle
    about p touches omega. Far outside, the chord mn nears a diameter and
    the rounding of m and n grows with |op|; at about |op| = 1e6 r the
    mirror circles only touch, at o: ``build_reflect``'s ``OnMirrorLine``,
    raised as ``ScaleOverflow``."""
    omega = b.circle(o, d)
    m, n = b.both(b.circle(p, o), omega)
    try:
        return build_reflect(b, m, n, o)
    except OnMirrorLine:
        raise ScaleOverflow(f"{b.point(p)} is too far outside radius "
                            f"{math.dist(b.point(o), b.point(d))} to invert") from None


def build_invert_exterior(b: Builder, o: int, d: int, p: int) -> int:
    """Inversion of p in the circle centered o through d by the 4-circle
    core, which is optimal (``tests/test_minimal.py``). The core is valid
    beyond r/2 (``build_invert_general``); this contract asks |op| > r
    (``NotExterior``)."""
    po, pd, pp = b.point(o), b.point(d), b.point(p)
    r = math.dist(po, pd)
    if math.dist(po, pp) <= r + EPS:
        raise NotExterior(f"{pp} is not strictly outside radius {r}")
    return _invert_core(b, o, d, p)


def _doublings(dist: float, r: float) -> int:
    """The doublings ``build_invert_general`` takes each way for a point
    ``dist`` from the center of a circle of radius r: the smallest k >= 0
    with 2**k dist >= (r + min(r/16, dist)) / 2, which clears the core's
    limit r/2 by r/32, or by dist/2 where that is less; none from 17r/32
    out. The paper's 2**k >= floor(r/dist) + 2 asks one or two more. A
    ratio beyond ``MAX_SCALE``, or one that overflows, counts as that. 0 is
    the least it returns, which ``build_line_line``'s lazy order relies on."""
    if not r - dist > EPS:  # outside, on the circle, or not a number
        return 0
    ratio = min(r / max(dist, EPS), MAX_SCALE)
    mantissa, k = math.frexp(ratio + min(ratio / 16.0, 1.0))  # mantissa in [1/2, 1)
    return k - 2 if mantissa == 0.5 else k - 1


def build_invert_general(b: Builder, o: int, d: int, p: int) -> int:
    """Inversion of any point p != center, or p itself on the circle.

    A point at distance d from the center is pushed out by k doublings
    about it, ``build_nth_point(b, o, p, 2**k)``, inverted by the core of
    ``build_invert_exterior``, valid beyond r/2, and the image pulled back
    by as many: inversion turns scaling by 2^k into 2^-k. That is 6k + 4
    circles, with k the fewest doublings that clear r/2 by r/32, or by d/2
    where that is less (``_doublings``): from 17r/32 out k = 0, and it is
    the core alone, 4 circles, with no inline. Raises ``ScaleOverflow``
    where the paper ratio floor(r/d) + 2 exceeds ``MAX_SCALE``, and
    ``BelowResolution`` for a p within ``EPS`` of the circle but more than
    ``BAND_RESOLUTION`` of the radius off it.
    """
    po, pd, pp = b.point(o), b.point(d), b.point(p)
    r = math.dist(po, pd)
    dist = math.dist(po, pp)
    if dist <= EPS:
        raise CenterInversion("inversion is undefined at the center")
    if abs(dist - r) <= EPS:
        if abs(dist - r) > BAND_RESOLUTION * r:
            raise BelowResolution(f"node {p}: on the circle only within the band, "
                                  f"{abs(dist - r) / r:.3g} of the radius off")
        return p
    if r / dist >= MAX_SCALE - 1:  # floor(r/d) + 2 > MAX_SCALE, or r/d overflows
        raise ScaleOverflow(
            f"interior point with r/d = {r / dist:.6g} needs a ratio beyond {MAX_SCALE}")
    twice = 1 << _doublings(dist, r)
    if twice == 1:
        return _invert_core(b, o, d, p)
    return build_nth_point(b, o, _invert_core(b, o, d, build_nth_point(b, o, p, twice)), twice)


# --- intersections through inversion -----------------------------------------

def _ranked(specs: list, score):
    """``specs`` sorted stably by ``score``, each scored once and lazily: in
    order only until one scores 0, the least a score can be; that one heads
    the order and is yielded at once, and the rest are scored and ranked
    only if the caller asks for more."""
    scores = []
    for spec in specs:
        scores.append(score(spec))
        if not scores[-1]:  # no score is less: this spec heads the sort
            yield spec
            break
    scores += map(score, specs[len(scores):])
    order = sorted(range(len(specs)), key=scores.__getitem__)
    yield from (specs[i] for i in order[0 in scores:])  # after the head, if tried


def build_line_line(b: Builder, a: int, bn: int, c: int, d: int) -> int:
    """Intersection of lines ab and cd, by inversion on one of two families
    of routes, each route rolled back where it fails and the next tried.

    *About a seed* (first). Invert in omega, the circle about a seed o of
    one line through another seed e. Line oq maps to itself, and the other
    line to the circle Gamma through o about g, the inverse of o's mirror
    image in that line. Gamma cuts its own mirror image in line oq at o and
    at X', the inverse of the crossing X, which is inverted back: 13 circles
    and 9 picks. For perpendicular lines g lies on line oq and the mirror
    circles only touch, so this family is tried only where
    |cos theta| >= 1/16, theta the angle between the lines.

    *About an apex pole* (the fallback). Invert in the circle about an apex
    of a segment between the four points, through a. Both lines map to
    circles through the pole, which meet again at X': 18 circles.

    Each inversion of a point within 17/32 of the radius of the center
    takes 6 circles more per doubling (``_doublings``). The 12 choices of
    (o, e), o over a, bn, c, d and e over the other seeds, and the 12
    apexes are each ranked by their doublings, predicted on floats, ties in
    that order (``_ranked``). A route fails on ``build_reflect``'s
    ``OnMirrorLine`` for a point within the tangency band of a line, on the
    kernel's error for a circle that is degenerate or not finite, or where
    two circles only touch at the center; the last error is raised when
    every route fails. Over 600 fuzz draws at seed 42 the mean is 13.64
    circles, gated at 13.7 in ``tests/test_counts.py``.
    """
    pa, pb, pc, pd = b.point(a), b.point(bn), b.point(c), b.point(d)
    if math.dist(pa, pb) <= EPS or math.dist(pc, pd) <= EPS:
        raise DegenerateCircle("line-line needs two proper lines")
    ux, uy = pb.x - pa.x, pb.y - pa.y
    vx, vy = pd.x - pc.x, pd.y - pc.y
    nu, nv, cross = math.hypot(ux, uy), math.hypot(vx, vy), ux * vy - uy * vx
    # on unit directions: ``cross`` itself overflows at large scale
    ex, ey, fx, fy = ux / nu, uy / nu, vx / nv, vy / nv
    if abs(ex * fy - ey * fx) <= EPS:
        raise ParallelLines("line directions agree within tolerance")

    seeds = {a: pa, bn: pb, c: pc, d: pd}
    t = ((pc.x - pa.x) * vy - (pc.y - pa.y) * vx) / cross
    sx, sy = pa.x + t * ux, pa.y + t * uy  # the sought point s, on floats
    # o, q on one line, e the circle's through point, and the other line
    options = [(o, q, e, *line) for o, q, line in ((a, bn, (c, d)), (bn, a, (c, d)),
                                                  (c, d, (a, bn)), (d, c, (a, bn)))
               for e in seeds if e != o]

    def seed_doublings(spec: tuple[int, int, int, int, int]) -> int:
        # m lies 2h from o, h o's distance from the other line, and X'
        # r^2 / |s - o| from it
        o, _, e, c1, c2 = (seeds[n] for n in spec)
        r = math.hypot(e.x - o.x, e.y - o.y)
        wx, wy = c2.x - c1.x, c2.y - c1.y
        h = abs(wx * (o.y - c1.y) - wy * (o.x - c1.x)) / math.hypot(wx, wy)
        return (_doublings(2.0 * h, r)
                + _doublings(r * r / max(math.hypot(sx - o.x, sy - o.y), EPS), r))

    # Where the ranking ties: apexes of ab and cd first, per the
    # deterministic rule; apexes of the cross pairs afterwards, because for
    # symmetric inputs (e.g. two perpendicular axes) every apex of ab and cd
    # lands exactly on the other line.
    pairs = ((a, bn), (c, d), (a, c), (bn, d), (a, d), (bn, c))
    poles = [(e1, e2, side) for e1, e2 in pairs for side in _SIDES]

    def pole_doublings(spec: tuple[int, int, Selector]) -> int:
        # The pole's mirror image in each line lies twice the pole's
        # distance from that line away, and X' r^2 / |s - pole| away.
        px, py = _apex_xy(seeds[spec[0]], seeds[spec[1]], spec[2])
        r = math.hypot(px - pa.x, py - pa.y)
        to_ab = 2.0 * abs(ux * (py - pa.y) - uy * (px - pa.x)) / nu
        to_cd = 2.0 * abs(vx * (py - pc.y) - vy * (px - pc.x)) / nv
        to_cut = r * r / max(math.hypot(sx - px, sy - py), EPS)
        return sum(_doublings(dist, r) for dist in (to_ab, to_cd, to_cut))

    families = ((True, options, seed_doublings), (False, poles, pole_doublings))
    last_error: CompassError | None = None
    for seeded, specs, score in families[16.0 * abs(ex * fx + ey * fy) < 1.0:]:
        for spec in _ranked(specs, score):
            mark = b.mark()
            try:
                if seeded:  # line oq maps to itself: cut Gamma with its mirror image in it
                    center, q, through, c1, c2 = spec
                    g = build_invert_general(b, center, through,
                                             build_reflect(b, c1, c2, center))
                    images = (b.circle(g, center),
                              b.circle(build_reflect(b, center, q, g), center))
                else:  # both lines map to circles through the pole
                    center, through = build_apex(b, *spec), a
                    images = [b.circle(build_invert_general(
                        b, center, a, build_reflect(b, e, f, center)), center)
                        for e, f in ((a, bn), (c, d))]
                image = b.pick_other(*images, avoid=center)
                if image is None:
                    raise DegenerateCircle("the images only touch at the center of inversion")
                return build_invert_general(b, center, through, image)
            except CompassError as err:
                last_error = err
                b.rollback(mark)
    raise last_error


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
                   for side in _SIDES)
    return build_apex(b, o, d, _LEFT if left >= right else _RIGHT)


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
    angle the line makes with omega, nearly a right angle there. That
    route reads a point off with this mirror route, on a line that keeps
    the center r/4 or more away: mostly 25 to 28 circles.

    A center on the line (to within ``EPS``) has no mirror image:
    the answer is d and its antipode, or where d is off the line
    Mascheroni's arc bisection (``_arc_bisection``, 13 or 14 circles, more
    where both points lie within about r/480 of the center). A center, or
    a d, on the line only within the band, more than ``BAND_RESOLUTION``
    of r off it, raises ``BelowResolution``.

    On every route the two points come ordered along a -> bn, bn's side
    first, as ``oracle_line_circle`` orders them: the order depends on
    neither the route nor the side of the line the center lies on.
    """
    pa, pb, po, pd = b.point(a), b.point(bn), b.point(o), b.point(d)
    if math.dist(pa, pb) <= EPS:
        raise DegenerateCircle("line-circle needs a proper line")
    h, r = _point_line_distance(po, pa, pb), math.dist(po, pd)
    if h <= EPS:
        if h > BAND_RESOLUTION * r:
            raise _off_the_line(o, h, r)
        gap = _point_line_distance(pd, pa, pb)
        if gap <= EPS:
            if gap > BAND_RESOLUTION * r:
                raise _off_the_line(d, gap, r)
            got = d, build_extend(b, d, o)
        else:
            got = _arc_bisection(b, a, bn, o, d)
    else:
        o_mirror = None
        if 64.0 * h >= r:
            try:
                o_mirror = build_reflect(b, a, bn, o)
            except OnMirrorLine:
                pass
        if o_mirror is None:
            got = _line_circle_by_inversion(b, a, bn, o, d)
        else:
            got = _mirror_cut(b, a, bn, o, d, o_mirror)
    if len(got) == 1:
        return got
    x1, x2 = got
    xs, ys = b.xs, b.ys
    ahead = (xs[x1] - xs[x2]) * (pb.x - pa.x) + (ys[x1] - ys[x2]) * (pb.y - pa.y) >= 0
    return got if ahead else (x2, x1)


def _off_the_line(node: int, gap: float, r: float) -> BelowResolution:
    """The error for a node on the line only within the band: ``gap`` from
    it, within ``EPS`` but more than ``BAND_RESOLUTION`` of the radius
    ``r``, as ``build_invert_general`` refuses a point on its circle."""
    return BelowResolution(f"node {node}: on the line only within the band, "
                           f"{gap / r:.3g} of the radius off")


def _mirror_cut(b: Builder, a: int, bn: int, o: int, d: int,
                o_mirror: int) -> tuple[int, ...]:
    """The mirror route of ``build_line_circle_off_center``, given o's
    mirror image in line ab."""
    omega = b.circle(o, d)
    t = _clear_of_line(b, o, d, a, bn, math.dist(b.point(o), b.point(d)) / 4.0)
    mirror = b.circle(o_mirror, build_reflect(b, a, bn, t))
    try:
        return b.meet(mirror, omega)
    except NoSuchIntersection:
        raise NoSuchIntersection("the line misses the circle") from None


def _arc_bisection(b: Builder, a: int, bn: int, o: int,
                   d: int) -> tuple[int, int]:
    """Points of line ab on the circle omega centered o through d, for o
    on the line and d off it, by Mascheroni's bisection of the arc DD'
    (*La geometria del compasso*, 1797): D is a point of omega and D' its
    mirror image in the line, so the line cuts omega at the midpoints of
    the arcs DD'. 13 circles and 11 picks, 14 and 12 with an apex.

    D is d, or the apex of (o, d) whose angle with the line is nearest 45
    degrees: at 0 degrees D' is D, and at 90 degrees P below only touches.
    D' is the second cut of omega with the circle about F, the point of a,
    bn farther from o, through D. While F lies near o that circle all but
    coincides with omega, and the cut's error grows as r/|oF|; so F is first
    doubled away from o, ``build_nth_point(b, o, F, 2**k)`` for
    k = ``_doublings(256 |oF|, r)``, which moves an F within about r/480
    of o out to r/482 or more: 46 or 47 circles in all at |oF| = 1e-6 r.
    At k = 0 nothing is inlined, as in ``build_invert_general``.
    That cannot undo the rounding of F's own coordinates, which leaves an
    error of about ulp(|o|) r/|oF| about a center far from the origin. Of
    the cuts u, v of omega with C(D, o), w is the one farther from D':
    turning D' 60 degrees about w, on the side that turns D onto o, gives D*
    with |oD*| = |DD'| = c. The circle C6 about o through D* meets C(D, o)
    at P = o + D - D' and C(D', o) at Q = o + D' - D, each picked on the
    side its float prediction takes, as w is. C(P, D') and C(Q, D), of
    radius^2 r^2 + 2c^2, cut the line at E with |oE|^2 = r^2 + c^2. E's
    mirror image E* in the bisector of oP (``build_reflect`` in the cuts of
    C6 and C(P, o); its ``OnMirrorLine`` is raised as ``DegenerateCircle``)
    has |PE*| = |oE|, and since oP is square to the line, C(P, E*) meets
    omega at the two points sought.
    """
    pa, pb, po, pd = b.point(a), b.point(bn), b.point(o), b.point(d)
    ux, uy = pb.x - pa.x, pb.y - pa.y

    def slant(x: float, y: float) -> float:  # |sin 2 theta|, up to a factor
        dx, dy = x - po.x, y - po.y
        return abs((ux * dy - uy * dx) * (ux * dx + uy * dy))

    omega = b.circle(o, d)
    side = max((None, *_SIDES), key=lambda s: slant(
        *((pd.x, pd.y) if s is None else _apex_xy(po, pd, s))))
    dn = d if side is None else build_apex(b, o, d, side)
    far = a if math.dist(pa, po) >= math.dist(pb, po) else bn
    k = _doublings(256.0 * math.dist(b.point(far), po), math.dist(po, pd))
    far = build_nth_point(b, o, far, 1 << k) if k else far
    dm = b.pick_other(b.circle(far, dn), omega, avoid=dn)
    if dm is None:
        raise DegenerateCircle("the line's points lie too close to the center")
    pdn, pdm = b.point(dn), b.point(dm)
    around_d = b.circle(dn, o)
    # u and v are the apexes of (o, D): omega is the circle about o through D
    w = b.pick(omega, around_d, max(_SIDES, key=lambda s: math.dist(
        Point(*_apex_xy(po, pdn, s)), pdm)))
    pw = b.point(w)
    turn = min(_SIDES, key=lambda s: math.dist(Point(*_apex_xy(pw, pdn, s)), po))
    c6 = b.circle(o, build_apex(b, w, dm, turn))
    # a cut's left point p has cross(c2 - c1, p - c1) > 0, and
    # cross(D - o, D - D') = -cross(D' - o, D' - D): P and Q lie on opposite sides
    ex, ey = pdn.x - pdm.x, pdn.y - pdm.y
    left = (pdn.x - po.x) * ey - (pdn.y - po.y) * ex > 0
    p = b.pick(c6, around_d, _LEFT if left else _RIGHT)
    q = b.pick(c6, b.circle(dm, o), _RIGHT if left else _LEFT)
    e = b.pick(b.circle(p, dm), b.circle(q, dn), _LEFT)
    s1, s2 = b.both(c6, b.circle(p, o))
    try:
        e_star = build_reflect(b, s1, s2, e)
    except OnMirrorLine:
        raise DegenerateCircle("the circles about s1 and s2 only touch") from None
    return b.both(b.circle(p, e_star), omega)


def _line_circle_by_inversion(b: Builder, a: int, bn: int, o: int,
                              d: int) -> tuple[int, int]:
    """Points of line ab on the circle omega centered o through d, for a
    center near the line (more than ``EPS`` and less than r/64 from it), by
    inversion.

    Take C on omega and off the line: d, or, where d lies within r/3 of
    the line, the apex of (o, d) farther from it. Lay out O, C, P, Q
    equally spaced and invert in the circle Lambda around Q through C
    (radius 2r). It sends omega to sigma, the circle on diameter CP, and
    the line to the circle through Q centered on the inverse of Q's mirror
    image in the line. Those circles cut at the inverses S of the sought
    points X. Q lies about r or more from the line and X within 4r of Q,
    so line QS, which passes through X, keeps O r/4 or more away: X is
    read off as a cut of line QS with omega by the mirror route of
    ``build_line_circle_off_center``, never by this route again.

    Line QX touches omega where X is Q's foot on line ab (near
    cos(angle COX) = 1/3 or -1/3), and a cut there loses half its digits.
    So only the cut whose X lies farther from the foot is read off, and
    the other X is the other cut inverted back: mostly 25 to 28 circles.
    """
    pa, pb = b.point(a), b.point(bn)
    r = math.dist(b.point(o), b.point(d))
    c = _clear_of_line(b, o, d, a, bn, r / 3.0)
    p = build_extend(b, o, c)
    q = build_extend(b, c, p)
    pi_circle = b.circle(build_invert_general(b, q, c, build_reflect(b, a, bn, q)), q)
    sigma = build_diameter_circle(b, c, p)
    cuts = b.both(sigma, pi_circle)
    # coordinates choose: where each cut inverts to, and how far that lies
    # from Q's foot on the line
    pq = b.point(q)
    lam2 = math.dist(pq, b.point(c)) ** 2
    ux, uy = pb.x - pa.x, pb.y - pa.y
    t = ((pq.x - pa.x) * ux + (pq.y - pa.y) * uy) / (ux * ux + uy * uy)
    foot = Point(pa.x + t * ux, pa.y + t * uy)
    images = []
    for s in map(b.point, cuts):
        k = lam2 / ((s.x - pq.x) ** 2 + (s.y - pq.y) ** 2)
        images.append(Point(pq.x + k * (s.x - pq.x), pq.y + k * (s.y - pq.y)))
    far = 0 if math.dist(images[0], foot) >= math.dist(images[1], foot) else 1
    found = _mirror_cut(b, q, cuts[far], o, d, build_reflect(b, q, cuts[far], o))
    x = min(found, key=lambda n: math.dist(b.point(n), images[far]))
    return x, build_invert_general(b, q, c, cuts[1 - far])


def build_line_circle_center_on_line(b: Builder, o: int, a: int,
                                     d: int) -> tuple[int, int]:
    """Points of line oa on the circle centered o through d, the one on a's
    side of the center first: ``build_line_circle_off_center`` with o on
    the line."""
    return build_line_circle_off_center(b, o, a, o, d)

