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


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Numeric thresholds: eps_abs for coordinate agreement, eps_degenerate
    for deciding that a configuration has collapsed."""

    eps_abs: float = 1e-9
    eps_degenerate: float = 1e-12

    def __post_init__(self):
        for eps in (self.eps_abs, self.eps_degenerate):
            if not (eps > 0 and math.isfinite(eps)):
                raise ValueError("tolerances must be positive and finite")


DEFAULT_TOL = Tolerance()


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


def orientation_sign(a: Point, b: Point, c: Point, tol: Tolerance = DEFAULT_TOL) -> int:
    """Sign of cross(b - a, c - a): +1 counterclockwise, -1 clockwise, 0 collinear.

    The zero band scales with the operand magnitudes so that far-apart
    collinear points still classify as collinear.
    """
    _require_finite(a, b, c)
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = c.x - a.x, c.y - a.y
    cross = ux * vy - uy * vx
    scale = max(1.0, math.hypot(ux, uy) * math.hypot(vx, vy))
    if abs(cross) <= tol.eps_degenerate * scale:
        return 0
    return 1 if cross > 0 else -1


def radius(cx: float, cy: float, tx: float, ty: float, eps: float) -> float:
    """The radius of the compass circle centered (cx, cy) through (tx, ty):
    all four coordinates finite, the radius above ``eps``."""
    if not (math.isfinite(cx) and math.isfinite(cy)
            and math.isfinite(tx) and math.isfinite(ty)):
        raise NonFiniteInput(f"non-finite coordinate in ({cx}, {cy}) / ({tx}, {ty})")
    r = math.hypot(tx - cx, ty - cy)
    if r <= eps:
        raise DegenerateCircle(
            f"circle through its own center: ({cx}, {cy}) / ({tx}, {ty})")
    return r


def circle_from(center: Point, through: Point, tol: Tolerance = DEFAULT_TOL) -> ResolvedCircle:
    """Resolve a compass circle from its center and a point it passes through."""
    return ResolvedCircle(center, radius(center.x, center.y, through.x, through.y,
                                         tol.eps_degenerate))


# ``cut`` results other than points
CUT_NONE = "none"
CUT_COINCIDENT = "coincident"


def cut(x1: float, y1: float, r1: float, x2: float, y2: float, r2: float,
        eps: float):
    """Intersect the circle (x1, y1; r1) with the circle (x2, y2; r2).

    Returns ``CUT_NONE`` when the circles do not meet (concentric circles
    included), ``CUT_COINCIDENT`` for two copies of one circle, ``(x, y)``
    for a tangency, and otherwise ``(mx, my, h*uy, h*ux)``: the foot of the
    chord on the center axis and the half-chord h times the axis direction
    (ux, uy), so that

        left  = (mx - h*uy, my + h*ux)
        right = (mx + h*uy, my - h*ux)

    ``left`` is the point p with cross(c2 - c1, p - c1) > 0.

    Uses the radical-line form: project the crossing point onto the center
    axis, then solve for the perpendicular half-chord. This stays stable
    near tangency, where the naive simultaneous quadratics lose digits.
    Tangency is declared when the center distance sits within ``eps`` of
    r1 + r2 (external) or |r1 - r2| (internal); the tangent point satisfies
    both selectors.

    Plain arithmetic only: the inputs are taken as finite with radii above
    ``eps``, and the callers check that the point they keep is finite.
    """
    dx = x2 - x1
    dy = y2 - y1
    d = math.hypot(dx, dy)

    if d <= eps:
        if abs(r1 - r2) <= eps:
            return CUT_COINCIDENT
        return CUT_NONE  # concentric

    outer = d - (r1 + r2)
    inner = d - abs(r1 - r2)
    if abs(outer) <= eps or abs(inner) <= eps:
        # Tangent: the touch point lies on the center axis.
        a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
        return (x1 + a * dx / d, y1 + a * dy / d)
    if outer > 0.0 or inner < 0.0:
        return CUT_NONE

    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    ux, uy = dx / d, dy / d
    # +90 degree normal of (ux, uy) is (-uy, ux); that side is "left".
    return (x1 + a * ux, y1 + a * uy, h * uy, h * ux)


def circle_circle_intersect(c1: ResolvedCircle, c2: ResolvedCircle,
                            tol: Tolerance = DEFAULT_TOL) -> IntersectionOutcome:
    """Intersect two circles and wrap the result of ``cut`` in an outcome.

    Checks what ``cut`` takes for granted: finite centers, radii above
    eps_degenerate, and finite intersection points (``NonFiniteInput`` when
    the arithmetic overflows). A tangency is reported once as ``Tangent``.
    """
    o1, o2 = c1.center, c2.center
    _require_finite(o1, o2)
    eps = tol.eps_degenerate
    if c1.radius <= eps or c2.radius <= eps:
        raise DegenerateCircle("intersection of a degenerate circle")
    got = cut(o1.x, o1.y, c1.radius, o2.x, o2.y, c2.radius, eps)
    if got == CUT_NONE:
        return NoIntersection()
    if got == CUT_COINCIDENT:
        return Coincident()
    if len(got) == 2:
        point = Point(*got)
        _require_finite(point)
        return Tangent(point)
    mx, my, hy, hx = got
    left = Point(mx - hy, my + hx)
    right = Point(mx + hy, my - hx)
    _require_finite(left, right)
    return TwoPoints(left, right)
