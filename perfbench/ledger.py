"""Deterministic count ledger.

Step, circle and pick counts do not depend on the hardware, so they can back
a claim exactly where wall times cannot. The ledger records, for one
workload and seed: counts per item of the pool, a digest of every output
coordinate (bit for bit), the counts of each construction on fixed inputs,
and the counts of each built-in demo.
"""

from __future__ import annotations

import hashlib

from compass import constructions as cons
from compass import demos, dsl
from compass.geom import Point
from compass.program import Builder

_R = 1.0606601717798212  # radius 1.5 at 45 degrees, as in the invert demo

# construction -> (seed points, call on a builder whose seeds are nodes 0..)
FIXED_INPUTS = {
    "apex": ([(0, 0), (1, 0)], lambda b: cons.build_apex(b, 0, 1)),
    "extend": ([(0, 0), (1, 0)], lambda b: cons.build_extend(b, 0, 1)),
    "nth_point": ([(0, 0), (1, 0)], lambda b: cons.build_nth_point(b, 0, 1, 5)),
    "midpoint": ([(0, 0), (1, 0)], lambda b: cons.build_midpoint(b, 0, 1)),
    "perp_foot": ([(0, 0), (3, 0), (1, 2)], lambda b: cons.build_perp_foot(b, 0, 1, 2)),
    "invert_exterior": ([(0, 0), (_R, _R), (1.5, 1.5)],
                        lambda b: cons.build_invert_exterior(b, 0, 1, 2)),
    "invert_general": ([(0, 0), (1, 0), (0.01, 0)],
                       lambda b: cons.build_invert_general(b, 0, 1, 2)),
    "line_line": ([(-0.4, -0.4), (2.3, 2.3), (0.2, 1.8), (2.7, -0.7)],
                  lambda b: cons.build_line_line(b, 0, 1, 2, 3)),
    "line_circle_off_center": ([(-2.5, 0.5), (-1.5, 0.5), (0, 0), (1, 0)],
                               lambda b: cons.build_line_circle_off_center(b, 0, 1, 2, 3)),
    "line_circle_center_on_line": ([(0, 0), (2, 0), (0.8660254037844386, 0.5)],
                                   lambda b: cons.build_line_circle_center_on_line(b, 0, 1, 2)),
}


def _program_counts(program) -> dict:
    return {"steps": len(program.steps), "circles": program.circle_count(),
            "picks": program.pick_count()}


def construction_counts() -> dict:
    out = {}
    for name, (seeds, call) in FIXED_INPUTS.items():
        b = Builder([Point(float(x), float(y)) for x, y in seeds])
        result = call(b)
        nodes = result if isinstance(result, tuple) else (result,)
        program, _ = b.finish(list(nodes))
        counts = _program_counts(program)
        counts["steps_per_call"] = len(program.steps) - program.seed_count
        out[name] = counts
    return out


def demo_counts() -> dict:
    return {name: _program_counts(dsl.run_source(source).trace.program)
            for name, source in sorted(demos.DEMOS.items())}


def digest(outcomes) -> str:
    """SHA-256 over the repr of every output coordinate, in pool order."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(repr(out.coords).encode())
    return h.hexdigest()


def ledger(workload: str, seed: int, outcomes, units: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "pool_items": len(outcomes),
        "units": units,
        "circles": sum(o.circles for o in outcomes),
        "steps": sum(o.steps for o in outcomes),
        "picks": sum(o.picks for o in outcomes),
        "circles_per_item": [o.circles for o in outcomes],
        "output_digest": digest(outcomes),
        "constructions": construction_counts(),
        "demos": demo_counts(),
    }
