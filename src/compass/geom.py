"""Floating-point plane geometry primitives.

The one physical operation of the whole engine lives here: intersecting two
circles. Everything else in the package reduces to it. Radii are never free
numbers; a circle is always resolved from a center point and a through
point, which is what makes the layer above compass-only by construction.
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


def circle_from(center: Point, through: Point, tol: Tolerance = DEFAULT_TOL) -> ResolvedCircle:
    """Resolve a compass circle from its center and a point it passes through."""
    r = distance(center, through)
    if r <= tol.eps_degenerate:
        raise DegenerateCircle(
            f"circle through its own center: {center} / {through}")
    return ResolvedCircle(center, r)


def circle_circle_intersect(c1: ResolvedCircle, c2: ResolvedCircle,
                            tol: Tolerance = DEFAULT_TOL) -> IntersectionOutcome:
    """Intersect two circles.

    Uses the radical-line form: project the crossing point onto the center
    axis, then solve for the perpendicular half-chord. This stays stable
    near tangency, where the naive simultaneous quadratics lose digits.

    Classification: tangency is declared when the center distance sits
    within eps_degenerate of r1 + r2 (external) or |r1 - r2| (internal);
    the tangent point is reported once and satisfies both selectors
    downstream.
    """
    _require_finite(c1.center, c2.center)
    eps = tol.eps_degenerate
    if c1.radius <= eps or c2.radius <= eps:
        raise DegenerateCircle("intersection of a degenerate circle")

    dx = c2.center.x - c1.center.x
    dy = c2.center.y - c1.center.y
    d = math.hypot(dx, dy)

    if d <= eps:
        if abs(c1.radius - c2.radius) <= eps:
            return Coincident()
        return NoIntersection()  # concentric

    outer = d - (c1.radius + c2.radius)
    inner = d - abs(c1.radius - c2.radius)
    if abs(outer) <= eps or abs(inner) <= eps:
        # Tangent: the touch point lies on the center axis.
        a = (d * d + c1.radius * c1.radius - c2.radius * c2.radius) / (2.0 * d)
        return Tangent(Point(c1.center.x + a * dx / d, c1.center.y + a * dy / d))
    if outer > 0.0 or inner < 0.0:
        return NoIntersection()

    a = (d * d + c1.radius * c1.radius - c2.radius * c2.radius) / (2.0 * d)
    h = math.sqrt(max(c1.radius * c1.radius - a * a, 0.0))
    ux, uy = dx / d, dy / d
    mx = c1.center.x + a * ux
    my = c1.center.y + a * uy
    # +90 degree normal of (ux, uy) is (-uy, ux); that side is "left".
    left = Point(mx - h * uy, my + h * ux)
    right = Point(mx + h * uy, my - h * ux)
    return TwoPoints(left, right)
