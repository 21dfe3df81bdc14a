"""Certified minimal cores: an exhaustive search for the fewest circles that
construct a point, against which the engine's cores are checked.

A search state is a set of circles, each centered on a known point and
through another; its points are the seeds and every cut of its circles,
merged at ``MERGE``. States grow one circle at a time, breadth first, so the
first depth at which the goal is a point is the minimum. Constructions
commute with similarities, so seeds 0 and 1 (and a generic third point for
inversion) stand for every input.
"""

import math

import pytest

from compass import constructions as cons
from compass.geom import CUT_COINCIDENT, CUT_NONE, Point, cut
from compass.program import Builder

MERGE = 1e-9


def fewest_circles(seeds, goal, limit):
    """(the fewest circles that construct ``goal``, the states searched)."""
    xy, cells, circles, rows, cuts = [], {}, {}, [], {}

    def point(x, y):
        cx, cy = round(x / MERGE), round(y / MERGE)
        for i in range(cx - 1, cx + 2):
            for j in range(cy - 1, cy + 2):
                for known in cells.get((i, j), ()):
                    if math.dist(xy[known], (x, y)) <= MERGE:
                        return known
        xy.append((x, y))
        cells.setdefault((cx, cy), []).append(len(xy) - 1)
        return len(xy) - 1

    def circle(center, through):
        r = math.dist(xy[center], xy[through])
        key = (center, round(r / MERGE))
        if key not in circles:  # a row: center, radius, and whether on goal
            circles[key] = len(rows)
            rows.append((*xy[center], r, abs(math.dist(xy[center], goal) - r) <= MERGE))
        return circles[key]

    def meet(c1, c2):
        key = (min(c1, c2), max(c1, c2))
        if key not in cuts:
            got = cut(*rows[c1][:3], *rows[c2][:3])
            cuts[key] = () if got in (CUT_NONE, CUT_COINCIDENT) else (
                point(*got[:2]), point(*got[2:]))
        return cuts[key]

    def drawable(state, pts):
        return {circle(p, q) for p in pts for q in pts if p != q} - state

    target = point(*goal)
    level = {frozenset(): frozenset(point(*s) for s in seeds)}
    searched = 0
    for depth in range(limit):
        searched += len(level)
        if any(target in pts for pts in level.values()):
            return depth, searched
        # one more circle reaches the goal where it cuts a drawn circle through it
        if any(any(rows[s][3] for s in state) and any(rows[c][3] for c in drawable(state, pts))
               for state, pts in level.items()):
            return depth + 1, searched
        if depth + 1 == limit:  # the next level would not be searched
            break
        level = {state | {c}: pts.union(*(meet(c, s) for s in state))
                 for state, pts in level.items() for c in drawable(state, pts)}
    return None, searched


UNIT = ((0.0, 0.0), (1.0, 0.0))
P = (1.7, 0.6)  # generic and outside the unit circle


def image(p):
    """p inverted in the unit circle."""
    return p[0] / (p[0] ** 2 + p[1] ** 2), p[1] / (p[0] ** 2 + p[1] ** 2)


# interior, but beyond 17/32, where the core needs no doubling
INNER = (0.6, 0.35)
# interior and within 17/32: one doubling each way
DEEP = (0.45, 0.2)


@pytest.mark.parametrize("seeds, goal, fewest, states, build", [
    (UNIT, (2.0, 0.0), 3, 4, lambda b: cons.build_extend(b, 0, 1)),
    (UNIT, (0.5, 0.0), 6, 1136, lambda b: cons.build_midpoint(b, 0, 1)),
    # two doublings: sharing circles between them saves none
    (UNIT, (4.0, 0.0), 6, 1136,
     lambda b: cons.build_extend(b, 0, cons.build_extend(b, 0, 1))),
    (UNIT, (3.0, 0.0), 5, 52, lambda b: cons.build_nth_point(b, 0, 1, 3)),
    (UNIT + (P,), image(P), 4, 138, lambda b: cons.build_invert_exterior(b, 0, 1, 2)),
    (UNIT + (INNER,), image(INNER), 4, 138,
     lambda b: cons.build_invert_general(b, 0, 1, 2)),
], ids=["extend", "midpoint", "4x", "3x", "invert-exterior", "invert-interior"])
def test_engine_core_meets_the_fewest_circles(seeds, goal, fewest, states, build):
    assert fewest_circles(seeds, goal, fewest + 1) == (fewest, states)
    b = Builder([Point(*s) for s in seeds])
    node = build(b)
    assert math.dist((b.point(node).x, b.point(node).y), goal) <= 1e-12
    assert b.finish([node])[0].circle_count() == fewest


def test_deep_interior_inversion_lower_bound():
    """No construction reaches DEEP's image within 5 circles, so its floor
    is 6; the engine's one doubling each way around the core takes 10."""
    assert fewest_circles(UNIT + (DEEP,), image(DEEP), 5) == (None, 2982)
    b = Builder([Point(*s) for s in UNIT + (DEEP,)])
    node = cons.build_invert_general(b, 0, 1, 2)
    assert math.dist((b.point(node).x, b.point(node).y), image(DEEP)) <= 1e-12
    assert b.finish([node])[0].circle_count() == 10
