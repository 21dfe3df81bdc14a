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
both points, left first, and a touch is two equal points.

``EPS`` is the one degeneracy band: a circle no larger, two centers no
farther apart, or a tangency gap no wider is taken as collapsed. Every
pre-check, the oracles and trace loading read it. Constructions commute with
similarities, so the band is the kernel's, not a caller's setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateCircle, NonFiniteInput


@dataclass(frozen=True, slots=True)
class Point:
    """A point of the plane, in dimensionless plane units."""

    x: float
    y: float


@dataclass(frozen=True, slots=True)
class ResolvedCircle:
    """A circle whose radius has been derived from two constructed points."""

    center: Point
    radius: float


EPS = 1e-12


# --- intersection outcomes -------------------------------------------------

@dataclass(frozen=True, slots=True)
class TwoPoints:
    """Both intersection points, ordered by the left/right convention:
    ``left`` is the point p with cross(c2.center - c1.center, p - c1.center) > 0."""

    left: Point
    right: Point


@dataclass(frozen=True, slots=True)
class Tangent:
    point: Point


@dataclass(frozen=True, slots=True)
class NoIntersection:
    pass


@dataclass(frozen=True, slots=True)
class Coincident:
    pass


IntersectionOutcome = TwoPoints | Tangent | NoIntersection | Coincident


def _require_finite(*points: Point) -> None:
    for p in points:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise NonFiniteInput(f"non-finite coordinate in {p}")


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    _require_finite(p, q)
    return math.hypot(q.x - p.x, q.y - p.y)


def orientation_sign(a: Point, b: Point, c: Point) -> int:
    """Sign of cross(b - a, c - a): +1 counterclockwise, -1 clockwise, 0 collinear.

    The zero band scales with the operand magnitudes so that far-apart
    collinear points still classify as collinear.
    """
    _require_finite(a, b, c)
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = c.x - a.x, c.y - a.y
    cross = ux * vy - uy * vx
    scale = max(1.0, math.hypot(ux, uy) * math.hypot(vx, vy))
    if abs(cross) <= EPS * scale:
        return 0
    return 1 if cross > 0 else -1


def radius(cx: float, cy: float, tx: float, ty: float) -> float:
    """The radius of the compass circle centered (cx, cy) through (tx, ty):
    all four coordinates finite, the radius above ``EPS``."""
    if not (math.isfinite(cx) and math.isfinite(cy)
            and math.isfinite(tx) and math.isfinite(ty)):
        raise NonFiniteInput(f"non-finite coordinate in ({cx}, {cy}) / ({tx}, {ty})")
    r = math.hypot(tx - cx, ty - cy)
    if r <= EPS:
        raise DegenerateCircle(
            f"circle through its own center: ({cx}, {cy}) / ({tx}, {ty})")
    return r


def circle_from(center: Point, through: Point) -> ResolvedCircle:
    """Resolve a compass circle from its center and a point it passes through."""
    return ResolvedCircle(center, radius(center.x, center.y, through.x, through.y))


# ``cut`` results other than points
CUT_NONE = "none"
CUT_COINCIDENT = "coincident"


def cut(x1: float, y1: float, r1: float, x2: float, y2: float, r2: float):
    """Intersect the circle (x1, y1; r1) with the circle (x2, y2; r2).

    Returns ``CUT_NONE`` when the circles do not meet (concentric circles
    included), ``CUT_COINCIDENT`` for two copies of one circle, and otherwise
    the two points ``(lx, ly, rx, ry)``: ``left`` is the point p with
    cross(c2 - c1, p - c1) > 0, ``right`` the other. A touch is two equal
    points: where the circles are tangent, its one point twice.

    Uses the radical-line form: project the crossing point onto the center
    axis, then solve for the perpendicular half-chord. This stays stable
    near tangency, where the naive simultaneous quadratics lose digits.
    Tangency is declared when the center distance sits within ``EPS`` of
    r1 + r2 (external) or |r1 - r2| (internal).

    Plain arithmetic only: the inputs are taken as finite with radii above
    ``EPS``, and the callers check that the points they keep are finite.
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
        # Tangent: the touch point lies on the center axis.
        a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
        x, y = x1 + a * dx / d, y1 + a * dy / d
        return (x, y, x, y)
    if outer > 0.0 or inner < 0.0:
        return CUT_NONE

    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    ux, uy = dx / d, dy / d
    mx, my = x1 + a * ux, y1 + a * uy
    hx, hy = h * ux, h * uy
    # +90 degree normal of (ux, uy) is (-uy, ux); that side is "left".
    return (mx - hy, my + hx, mx + hy, my - hx)


def circle_circle_intersect(c1: ResolvedCircle, c2: ResolvedCircle) -> IntersectionOutcome:
    """Intersect two circles and wrap the result of ``cut`` in an outcome.

    Checks what ``cut`` takes for granted: finite centers, radii above
    ``EPS``, and finite intersection points (``NonFiniteInput`` when
    the arithmetic overflows). A touch, two equal points, is reported once
    as ``Tangent``.
    """
    o1, o2 = c1.center, c2.center
    _require_finite(o1, o2)
    if c1.radius <= EPS or c2.radius <= EPS:
        raise DegenerateCircle("intersection of a degenerate circle")
    got = cut(o1.x, o1.y, c1.radius, o2.x, o2.y, c2.radius)
    if got == CUT_NONE:
        return NoIntersection()
    if got == CUT_COINCIDENT:
        return Coincident()
    left, right = Point(*got[:2]), Point(*got[2:])
    _require_finite(left, right)
    return Tangent(left) if left == right else TwoPoints(left, right)
