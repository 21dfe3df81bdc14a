import math

import pytest

from compass.geom import Point, ResolvedCircle
from compass.oracle import (
    Parallel,
    oracle_circle_circle,
    oracle_complex_add,
    oracle_complex_conj,
    oracle_complex_mul,
    oracle_foot,
    oracle_invert,
    oracle_line_circle,
    oracle_line_line,
    oracle_midpoint,
)


def close_to(p, x, y, within=1e-12):
    assert p.x == pytest.approx(x, abs=within) and p.y == pytest.approx(y, abs=within)


def test_line_line():
    s = oracle_line_line(Point(0, 0), Point(1, 1), Point(0, 2), Point(2, 0))
    close_to(s, 1.0, 1.0)
    assert oracle_line_line(Point(0, 0), Point(1, 0),
                            Point(0, 1), Point(1, 1)) == Parallel()
    s = oracle_line_line(Point(0, 0), Point(2, 0), Point(1, -1), Point(1, 1))
    close_to(s, 1.0, 0.0)


def test_line_circle():
    unit = ResolvedCircle(Point(0, 0), 1.0)
    pts = oracle_line_circle(Point(-2, 0.5), Point(2, 0.5), unit)
    assert len(pts) == 2
    xs = sorted(p.x for p in pts)
    assert xs[0] == pytest.approx(-math.sqrt(0.75), abs=1e-12)
    assert xs[1] == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert all(p.y == pytest.approx(0.5) for p in pts)

    tangent = oracle_line_circle(Point(-2, 1), Point(2, 1), unit)
    assert len(tangent) == 1
    close_to(tangent[0], 0.0, 1.0)

    assert oracle_line_circle(Point(-2, 2), Point(2, 2), unit) == []


def test_line_circle_diameter_self_consistency():
    # a line through the center returns the antipodal pair
    circle = ResolvedCircle(Point(1, -2), 2.5)
    pts = oracle_line_circle(Point(1, -2), Point(4, 2), circle)
    assert len(pts) == 2
    mid = oracle_midpoint(pts[0], pts[1])
    close_to(mid, 1.0, -2.0, within=1e-9)
    assert math.hypot(pts[0].x - pts[1].x, pts[0].y - pts[1].y) == \
        pytest.approx(5.0, abs=1e-9)


def test_circle_circle():
    unit = ResolvedCircle(Point(0, 0), 1.0)
    pts = oracle_circle_circle(unit, ResolvedCircle(Point(1, 0), 1.0))
    half_chord = math.sqrt(0.75)
    assert sorted(p.y for p in pts) == pytest.approx([-half_chord, half_chord], abs=1e-12)
    assert all(p.x == pytest.approx(0.5, abs=1e-12) for p in pts)
    # concentric circles have no radical line, and so no isolated points
    assert oracle_circle_circle(unit, ResolvedCircle(Point(0, 0), 2.0)) == []
    assert oracle_circle_circle(unit, unit) == []


def test_invert():
    unit = ResolvedCircle(Point(0, 0), 1.0)
    close_to(oracle_invert(unit, Point(2, 0)), 0.5, 0.0)
    close_to(oracle_invert(unit, Point(0, 1)), 0.0, 1.0)
    big = ResolvedCircle(Point(0, 0), 1.5)
    close_to(oracle_invert(big, Point(1.5, 1.5)), 0.75, 0.75)
    with pytest.raises(ZeroDivisionError):
        oracle_invert(unit, Point(0, 0))


def test_affine_and_complex():
    close_to(oracle_midpoint(Point(0, 0), Point(1, 0)), 0.5, 0.0)
    close_to(oracle_foot(Point(0, 0), Point(3, 0), Point(1, 2)), 1.0, 0.0)
    close_to(oracle_complex_mul(Point(0, 1), Point(0, 1)), -1.0, 0.0)
    close_to(oracle_complex_add(Point(1, 2), Point(3, -1)), 4.0, 1.0)
    close_to(oracle_complex_conj(Point(0.75, 0.5)), 0.75, -0.5)
