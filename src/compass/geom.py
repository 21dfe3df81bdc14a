"""Floating-point plane geometry primitives.

The one physical operation of the whole engine lives here: intersecting two
circles. Everything else in the package reduces to it. Radii are never free
numbers; a circle is always resolved from a center point and a through
point, which is what makes the layer above compass-only by construction.

This module holds the only copy of the circle and intersection arithmetic:
``radius`` resolves a circle and ``cut`` intersects two circles, both on
bare floats. ``circle_from`` wraps ``radius`` and ``circle_circle_intersect``
wraps ``cut`` in value objects for callers that want them; the step kernel
in ``program`` calls ``radius`` and ``cut`` directly and builds no object.
``cut`` alone knows which point is left and what a touch is: it returns
both points, left first, and a touch is two equal points. The two give
every numeric verdict of a step, each testing what it computed: degenerate
or non-finite from ``radius``; none, coincident, overflow or unresolved from
``cut``.

The value records ``Point``, ``ResolvedCircle``, ``TwoPoints`` and
``Tangent`` are named tuples: a ``Point`` equals, hashes and unpacks like
the plain tuple ``(x, y)``, and takes tuple arithmetic and order with it
(``p + q`` is a 4-tuple, ``2 * p`` repeats ``p``, ``sorted`` orders points,
``Tangent(p) == (p,)``), which no module here uses. ``NoIntersection`` and
``Coincident`` carry no fields, so they are ``record.Record`` classes, equal
only to their own kind.

``EPS`` is the one degeneracy band: a circle no larger, two centers no
farther apart, or a tangency gap no wider is taken as collapsed. Every
pre-check, the oracles and trace loading read it. Constructions commute with
similarities, so the band is the kernel's, not a caller's setting. Being
absolute, it would call circles tangent that cross by a wide margin at a
small scale: ``cut`` refuses a touch whose gap exceeds ``BAND_RESOLUTION``
of the radius, and ``build_invert_general`` an "on the circle" likewise.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import isfinite

from .errors import BelowResolution, DegenerateCircle, NonFiniteInput
from .record import Record

Point = namedtuple("Point", "x y")
Point.__doc__ = "A point of the plane: floats x and y, in dimensionless plane units."

ResolvedCircle = namedtuple("ResolvedCircle", "center radius")
ResolvedCircle.__doc__ = """A circle whose radius has been derived from two constructed
points: its center, a ``Point``, and its radius, a float."""


EPS = 1e-12
BAND_RESOLUTION = 2.0 ** -20  # the least gap, relative to the radius, the band may not close


# --- intersection outcomes -------------------------------------------------

TwoPoints = namedtuple("TwoPoints", "left right")
TwoPoints.__doc__ = """Both intersection points, ordered by the left/right convention:
``left`` is the point p with cross(c2.center - c1.center, p - c1.center) > 0."""

Tangent = namedtuple("Tangent", "point")


class NoIntersection(Record):
    __slots__ = ()


class Coincident(Record):
    __slots__ = ()


def radius(cx: float, cy: float, tx: float, ty: float) -> float:
    """The radius of the compass circle centered (cx, cy) through (tx, ty):
    DegenerateCircle unless above ``EPS``, NonFiniteInput unless finite (a
    non-finite coordinate, or an overflow, gives a non-finite ``hypot``)."""
    r = math.hypot(tx - cx, ty - cy)
    if EPS < r < math.inf:
        return r
    if r <= EPS:
        raise DegenerateCircle(
            f"circle through its own center: ({cx}, {cy}) / ({tx}, {ty})")
    raise NonFiniteInput(f"radius {r} of the circle ({cx}, {cy}) / ({tx}, {ty}) is not finite")


def circle_from(center: Point, through: Point) -> ResolvedCircle:
    """Resolve a compass circle from its center and a point it passes through."""
    return ResolvedCircle(center, radius(center.x, center.y, through.x, through.y))


# ``cut`` results other than points
CUT_NONE = "none"
CUT_COINCIDENT = "coincident"
CUT_OVERFLOW = "overflow"
CUT_UNRESOLVED = "a touch below the band's resolution"  # the verdict goes on with its gap


def cut(x1: float, y1: float, r1: float, x2: float, y2: float, r2: float):
    """Intersect the circle (x1, y1; r1) with the circle (x2, y2; r2).

    Returns ``CUT_NONE`` when the circles do not meet (concentric circles
    included), ``CUT_COINCIDENT`` for two copies of one circle,
    ``CUT_OVERFLOW`` when a point it computed is not finite, ``CUT_UNRESOLVED``
    and the gap for a touch that misses tangency by more than
    ``BAND_RESOLUTION`` of the larger radius, and otherwise the two points
    ``(lx, ly, rx, ry)``: ``left`` is the point p with
    cross(c2 - c1, p - c1) > 0, ``right`` the other. A touch is two equal
    points: where the circles are tangent, its one point twice.

    Uses the radical-line form: project the crossing point onto the center
    axis, then solve for the perpendicular half-chord. This stays stable
    near tangency, where the naive simultaneous quadratics lose digits.
    Tangency is declared when the center distance sits within ``EPS`` of
    r1 + r2 (external) or |r1 - r2| (internal).

    The inputs are taken as finite, with radii above ``EPS``.
    """
    dx = x2 - x1
    dy = y2 - y1
    d = math.hypot(dx, dy)

    if d <= EPS:
        if abs(r1 - r2) <= EPS:
            return CUT_COINCIDENT
        return CUT_NONE  # concentric

    outer = d - (r1 + r2)
    inner = d - abs(r1 - r2)
    if abs(outer) <= EPS or abs(inner) <= EPS:
        gap = min(abs(outer), abs(inner)) / max(r1, r2)
        if gap > BAND_RESOLUTION:
            return f"{CUT_UNRESOLVED}: the circles miss tangency by {gap:.3g} of the radius"
        # Tangent: the touch point lies on the center axis.
        a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
        x, y = x1 + a * dx / d, y1 + a * dy / d
        if not (isfinite(x) and isfinite(y)):
            return CUT_OVERFLOW
        return (x, y, x, y)
    if outer > 0.0 or inner < 0.0:
        return CUT_NONE

    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    ux, uy = dx / d, dy / d
    mx, my = x1 + a * ux, y1 + a * uy
    hx, hy = h * ux, h * uy
    # +90 degree normal of (ux, uy) is (-uy, ux); that side is "left".
    lx, ly, rx, ry = mx - hy, my + hx, mx + hy, my - hx
    if not (isfinite(lx) and isfinite(ly) and isfinite(rx) and isfinite(ry)):
        return CUT_OVERFLOW
    return (lx, ly, rx, ry)


def circle_circle_intersect(c1: ResolvedCircle, c2: ResolvedCircle
                            ) -> TwoPoints | Tangent | NoIntersection | Coincident:
    """Intersect two circles and wrap the result of ``cut`` in an outcome.

    Checks what ``cut`` takes for granted, finite centers and finite radii
    above ``EPS``, and raises NonFiniteInput where ``cut`` reports an
    overflow, BelowResolution where it refuses a touch. A touch, two equal
    points, is reported once as ``Tangent``.
    """
    o1, o2 = c1.center, c2.center
    if not all(map(isfinite, (*o1, *o2, c1.radius, c2.radius))):
        raise NonFiniteInput(f"non-finite coordinate or radius in {c1} / {c2}")
    if c1.radius <= EPS or c2.radius <= EPS:
        raise DegenerateCircle("intersection of a degenerate circle")
    got = cut(o1.x, o1.y, c1.radius, o2.x, o2.y, c2.radius)
    if got == CUT_NONE:
        return NoIntersection()
    if got == CUT_COINCIDENT:
        return Coincident()
    if got == CUT_OVERFLOW:
        raise NonFiniteInput("an intersection point is not finite")
    if type(got) is str:
        raise BelowResolution(got)
    left, right = Point(*got[:2]), Point(*got[2:])
    return Tangent(left) if left == right else TwoPoints(left, right)
