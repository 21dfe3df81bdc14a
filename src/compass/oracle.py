"""Analytic reference formulas used only to verify constructions.

Nothing here is compass-constrained: lines are solved as linear systems,
circles as quadratics, inversion by its closed form, and the field
operations with ordinary complex arithmetic. Construction code must never
call into this module; it exists so every construction can be checked
against an independently derived answer.
"""

from __future__ import annotations

import math

from .geom import EPS, Point, ResolvedCircle
from .record import Record


class Parallel(Record):
    """Marker result for (near-)parallel line pairs."""

    __slots__ = ()


def oracle_line_line(a: Point, b: Point, c: Point, d: Point) -> Point | Parallel:
    """Intersection of lines ab and cd by a 2x2 linear solve."""
    ux, uy = b.x - a.x, b.y - a.y
    vx, vy = d.x - c.x, d.y - c.y
    det = ux * vy - uy * vx
    scale = max(1.0, math.hypot(ux, uy) * math.hypot(vx, vy))
    if abs(det) <= EPS * scale:
        return Parallel()
    t = ((c.x - a.x) * vy - (c.y - a.y) * vx) / det
    return Point(a.x + t * ux, a.y + t * uy)


def oracle_foot(a: Point, b: Point, c: Point) -> Point:
    """Orthogonal projection of c onto line ab."""
    ux, uy = b.x - a.x, b.y - a.y
    t = ((c.x - a.x) * ux + (c.y - a.y) * uy) / (ux * ux + uy * uy)
    return Point(a.x + t * ux, a.y + t * uy)


def oracle_line_circle(a: Point, b: Point, omega: ResolvedCircle) -> list[Point]:
    """Points of line ab on the circle: zero, one (tangent), or two.

    Projects the center onto the line, then walks the half-chord out along
    the line direction. Tangency is declared when the center-to-line
    distance is within ``EPS`` of the radius.
    """
    foot = oracle_foot(a, b, omega.center)
    dist = math.hypot(foot.x - omega.center.x, foot.y - omega.center.y)
    if abs(dist - omega.radius) <= EPS:
        return [foot]
    if dist > omega.radius:
        return []
    half = math.sqrt(omega.radius * omega.radius - dist * dist)
    norm = math.hypot(b.x - a.x, b.y - a.y)
    ux, uy = (b.x - a.x) / norm, (b.y - a.y) / norm
    return [Point(foot.x + half * ux, foot.y + half * uy),
            Point(foot.x - half * ux, foot.y - half * uy)]


def oracle_circle_circle(c1: ResolvedCircle, c2: ResolvedCircle) -> list[Point]:
    """Circle pair intersection by eliminating the quadratic terms.

    Subtracting the two circle equations gives the radical line; that line
    is then intersected with the first circle. Deliberately a different
    derivation from the engine's center-axis projection.
    """
    ex = 2.0 * (c2.center.x - c1.center.x)
    ey = 2.0 * (c2.center.y - c1.center.y)
    k = ((c1.radius ** 2 - c2.radius ** 2)
         - (c1.center.x ** 2 - c2.center.x ** 2)
         - (c1.center.y ** 2 - c2.center.y ** 2))
    # Radical line: ex * x + ey * y = k. Pick two points on it.
    if abs(ex) < EPS and abs(ey) < EPS:
        return []  # concentric (or coincident: no isolated points)
    if abs(ey) >= abs(ex):
        p = Point(0.0, k / ey)
        q = Point(1.0, (k - ex) / ey)
    else:
        p = Point(k / ex, 0.0)
        q = Point((k - ey) / ex, 1.0)
    return oracle_line_circle(p, q, c1)


def oracle_invert(omega: ResolvedCircle, p: Point) -> Point:
    """Inversion of p in the circle: O + r^2 (p - O) / |p - O|^2."""
    dx, dy = p.x - omega.center.x, p.y - omega.center.y
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        raise ZeroDivisionError("inversion of the center is undefined")
    s = omega.radius * omega.radius / d2
    return Point(omega.center.x + s * dx, omega.center.y + s * dy)


def oracle_midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def oracle_complex_mul(a: Point, b: Point) -> Point:
    z = complex(a.x, a.y) * complex(b.x, b.y)
    return Point(z.real, z.imag)


def oracle_complex_add(a: Point, b: Point) -> Point:
    return Point(a.x + b.x, a.y + b.y)


def oracle_complex_conj(a: Point) -> Point:
    return Point(a.x, -a.y)
