"""Symmetry gates: what the arithmetic keeps bit for bit.

``geom.cut`` and ``geom.radius`` use only differences, ``hypot``, products,
quotients, ``abs`` and a square root, and a sign flip or a swap of the two
coordinates passes through each of them exactly. So the symmetries of the
square act on programs exactly: a program executed on mapped seeds resolves
every step to the mapped value, equal under ``==`` (a zero may change its
sign). A mirror reverses orientation, so it runs the program with its LEFT
and RIGHT picks swapped. No oracle is needed, so this covers the ops that
have none.

- Program level: the 1,410 traces ``fuzz.run_op(op, 120, 1)`` audits over
  every op, and the 10 demo programs, under mirror y -> -y, swap x <-> y,
  and rotation by 90 and by 180 degrees.
- Script level, where the routes run again: every demo and good corpus
  script with its ``given`` points rotated by 90 or 180 degrees, or scaled
  by 2^20, gives the mapped points with the same circle count. A mirror is
  not exact here, as a route picks an apex by side.
- Powers of two, program level: the seeds scaled by 2^-10 or 2^-20 give the
  scaled outputs exactly. At 2^10, 2^20, 2^30 and 2^-30 some traces raise
  or come out inexact today, because the tangency band does not scale with
  the figure (ROADMAP item 4); those rows are strict xfails, and flip when
  it lands.
"""

from pathlib import Path

import pytest

from compass import dsl, fuzz
from compass.demos import DEMOS
from compass.errors import CompassError
from compass.geom import Point
from compass.program import OP_LEFT, OP_RIGHT, Program, Resolved, execute

CORPUS_GOOD = Path(__file__).parent / "corpus" / "good"

_SWAP_PICKS = {OP_LEFT: OP_RIGHT, OP_RIGHT: OP_LEFT}


def _mirror_y(x, y):
    return x, -y


def _swap_xy(x, y):
    return y, x


def _rot90(x, y):
    return -y, x


def _rot180(x, y):
    return -x, -y


# name: (map of the plane, whether it reverses orientation)
PROGRAM_MAPS = {
    "mirror-y": (_mirror_y, True),
    "swap-xy": (_swap_xy, True),
    "rot90": (_rot90, False),
    "rot180": (_rot180, False),
}


@pytest.fixture(scope="module")
def traces():
    """Every trace the fuzz ops audit at 120 cases, seed 1, then every demo's."""
    audited = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzz, "purity_audit", audited.append)
        for op in fuzz.OPS:
            fuzz.run_op(op, 120, 1)
    assert len(audited) == 1410
    return audited + [dsl.run_source(DEMOS[name]).trace for name in sorted(DEMOS)]


def _mirrored(program: Program) -> Program:
    ops = tuple(_SWAP_PICKS.get(op, op) for op in program.ops)
    return Program(program.seed_count, ops, program.first, program.second, program.outputs)


@pytest.mark.parametrize("name", PROGRAM_MAPS)
def test_programs_commute_with_the_symmetries_of_the_square(traces, name):
    f, reverses = PROGRAM_MAPS[name]
    for k, trace in enumerate(traces):
        program = _mirrored(trace.program) if reverses else trace.program
        got = execute(program, [Point(*f(x, y)) for x, y in trace.seed_values])
        r = trace.resolved
        xs, ys = zip(*map(f, r.xs, r.ys))
        assert got.resolved == Resolved(xs, ys, r.rs), f"trace {k} under {name}"


def _scaled(k):
    return lambda x, y: (x * 2.0 ** k, y * 2.0 ** k)


def _item_4(k):
    return pytest.param(k, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True, reason="ROADMAP item 4"))


@pytest.mark.parametrize("k", [-10, -20, _item_4(10), _item_4(20), _item_4(30), _item_4(-30)])
def test_programs_commute_with_scaling_by_a_power_of_two(traces, k):
    scale = 2.0 ** k
    for n, trace in enumerate(traces):
        try:
            got = execute(trace.program, [Point(x * scale, y * scale)
                                          for x, y in trace.seed_values])
        except CompassError as err:
            raise AssertionError(f"trace {n} at 2^{k}: {err!r}") from None
        want = tuple(Point(x * scale, y * scale) for x, y in trace.output_points())
        assert got.output_points() == want, f"trace {n} at 2^{k}"


SCRIPT_MAPS = {"rot90": _rot90, "rot180": _rot180, "scale-2^20": _scaled(20)}

SCRIPTS = {f"demo {name}": source for name, source in sorted(DEMOS.items())}
SCRIPTS.update((path.name, path.read_text(encoding="utf-8"))
               for path in sorted(CORPUS_GOOD.glob("*.compass")))


def _moved(given: dsl.Given, f) -> dsl.Given:
    x, y = f(given.x, given.y)
    return given._replace(x=x, y=y)


@pytest.mark.parametrize("name", SCRIPT_MAPS)
def test_scripts_commute_with_rotations_and_scaling(name):
    f = SCRIPT_MAPS[name]
    assert len(SCRIPTS) == 23
    for script, source in SCRIPTS.items():
        statements = dsl.parse_source(source)
        base = dsl.interpret(statements)
        moved = dsl.interpret([_moved(s, f) if isinstance(s, dsl.Given) else s
                               for s in statements])
        assert moved.named_points == base.named_points, script
        for point, _ in base.named_points:
            assert moved.point(point) == Point(*f(*base.point(point))), (script, point)
        assert (moved.trace.program.circle_count()
                == base.trace.program.circle_count()), script
