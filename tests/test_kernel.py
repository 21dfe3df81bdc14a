"""The step kernel: ``execute`` and every ``Builder`` resolving method must
agree bit for bit with ``circle_circle_intersect`` and with each other, and
must reject bad node references with typed errors."""

import copy
import math

import pytest
from hypothesis import given, settings, strategies as st

from compass import dsl, fuzz, program as program_module, replay
from compass.constructions import (
    apex_program,
    build_apex,
    build_midpoint,
    build_nth_point,
    extend_program,
    midpoint_program,
    nth_point_program,
)
from compass.demos import DEMOS
from compass.errors import (
    CoincidentCircles,
    CompassError,
    DegenerateCircle,
    InvalidNodeId,
    MalformedProgram,
    NoSuchIntersection,
    NonFiniteInput,
)
from compass.geom import (
    CUT_OVERFLOW,
    EPS,
    Coincident,
    NoIntersection,
    Point,
    Tangent,
    TwoPoints,
    circle_circle_intersect,
    circle_from,
    cut,
)
from compass.program import (
    OP_CIRCLE,
    OP_LEFT,
    OP_RIGHT,
    OP_SEED,
    Builder,
    Program,
    Selector,
    execute,
)

O = Point(0.0, 0.0)
U = Point(1.0, 0.0)
LEFT, RIGHT = Selector.LEFT, Selector.RIGHT

# seeds whose cut overflows: the center distance squared is not finite
FAR = (Point(-1e200, 0.0), Point(1e200, 0.0))


# --- node references ----------------------------------------------------------

# step rows (op, first, second) of hand-built programs
S, C, L, R = OP_SEED, OP_CIRCLE, OP_LEFT, OP_RIGHT


def program_of(seed_count, rows, outputs):
    """A program from its step rows, checked as it is built."""
    ops, first, second = zip(*rows)
    return Program(seed_count, ops, first, second, tuple(outputs))


@pytest.mark.parametrize("steps, outputs", [
    (((S, 0, -1), (S, 1, -1), (C, 0, -1)), ()),                # negative reference
    (((S, 0, -1), (S, 1, -1), (C, 0, 2)), ()),                 # reference to itself
    (((S, 0, -1), (S, 1, -1), (C, 0, 3), (C, 1, 0)), ()),      # forward
    (((S, 0, -1), (S, 1, -1), (C, 0, 1), (C, 1, 0), (L, 2, -1)), ()),
    (((S, 0, -1), (S, 1, -1), (C, 0, 1), (C, 1, 0), (L, 2, 5)), ()),
    (((S, 0, -1), (S, 1, -1)), (2,)),                          # output past the end
    (((S, 0, -1), (S, 1, -1)), (-1,)),
    (((S, 0, -1), (C, 0, 0)), ()),                             # missing seed
    (((S, 0, -1), (S, 1, -1), (C, 0, 1), (S, 1, -1)), ()),     # misplaced seed
    (((S, 0, -1), (S, 1, -1), (L, 0, 0)), ()),                 # pick over a point
    (((S, 0, -1), (S, 1, -1), (C, 0, 1), (C, 2, 0)), ()),      # circle over a circle
])
def test_execute_rejects_bad_references(steps, outputs):
    # no such program is built, so none reaches execute or inline
    with pytest.raises(MalformedProgram):
        program_of(2, steps, outputs)


APEX_ROWS = ((S, 0, -1), (S, 1, -1), (C, 0, 1), (C, 1, 0), (L, 2, 3))


@pytest.mark.parametrize("build, error", [
    (lambda: program_of(2, APEX_ROWS[:4] + ((7, 2, 3),), (4,)), "^step 4: unknown op 7"),
    (lambda: Program(2, (S, S, C), (0, 1, 0), (-1, -1), ()), "columns differ in length"),
], ids=["unknown-op", "ragged-columns"])
def test_malformed_columns(build, error):
    with pytest.raises(MalformedProgram, match=error):
        build()


def test_output_on_a_circle_is_a_malformed_program():
    with pytest.raises(MalformedProgram, match="^output 1: id 2 is not a point"):
        program_of(2, APEX_ROWS, (4, 2))
    b = Builder([O, U])
    c = b.circle(0, 1)
    with pytest.raises(MalformedProgram, match="^output 1: id 2 is not a point"):
        b.finish([0, c])
    with pytest.raises(MalformedProgram, match="^output 0: id 3 outside"):
        b.finish([3])


def test_builder_rejects_nodes_outside_it():
    b = Builder([O, U])
    c = b.circle(0, 1)
    for bad in (-1, 7):
        with pytest.raises(InvalidNodeId):
            b.point(bad)
        with pytest.raises(InvalidNodeId):
            b.circle_value(bad)
        with pytest.raises(InvalidNodeId):
            b.circle(0, bad)
        with pytest.raises(InvalidNodeId):
            b.pick(c, bad, LEFT)
        with pytest.raises(InvalidNodeId):
            b.both(bad, c)
        with pytest.raises(InvalidNodeId):
            b.pick_other(c, b.circle(1, 0), avoid=bad)
        with pytest.raises(InvalidNodeId):
            b.inline(extend_program(), (0, bad))
    # nothing was appended by the failed calls
    assert len(b) == 4
    assert b.finish([])[0].steps == ((OP_SEED, 0, -1), (OP_SEED, 1, -1),
                                     (OP_CIRCLE, 0, 1), (OP_CIRCLE, 1, 0))


def test_inline_failure_leaves_completed_steps():
    # the guest's second pick cuts the unit circle with itself, drawn through
    # the apex: a pick on the unit circle, so that circle is node 2 again and
    # appends nothing; the apex steps before it stay, counted, as they did
    # when each step was appended on its own
    guest = program_of(2, APEX_ROWS + ((C, 0, 4), (L, 2, 5)), (6,))
    b = Builder([O, U])
    mark = b.mark()
    with pytest.raises(CoincidentCircles):
        b.inline(guest, (0, 1))
    assert b.mark() == (5,) and b.ops.count(OP_CIRCLE) == 2
    b.rollback(mark)
    assert b.mark() == mark and b.circle(0, 1) == 2


def test_repeated_picks_make_no_new_cut(monkeypatch):
    """Every method cuts through ``Builder._cut_at``, which reads the builder's
    last cut again for the pair it cut last, whichever method cut it: after
    ``pick``, ``both`` and ``pick_other`` make no cut, and return the stored
    nodes. A pair cut again after another pair is cut anew."""
    calls = []
    real = program_module.cut

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(program_module, "cut", counting)
    b = Builder([O, U])
    c1, c2 = b.circle(0, 1), b.circle(1, 0)
    left = b.pick(c1, c2, LEFT)
    pair = b.both(c1, c2)
    assert pair[0] == left and len(calls) == 1
    size = len(b)
    assert b.pick(c1, c2, LEFT) == left
    assert b.pick(c1, c2, RIGHT) == pair[1]
    assert len(calls) == 1
    # both picks are stored, so both and pick_other append nothing
    assert b.both(c1, c2) == pair
    assert b.pick_other(c1, c2, avoid=pair[0]) == pair[1]
    assert b.pick_other(c1, c2, avoid=pair[1]) == pair[0]
    assert len(b) == size and len(calls) == 1
    # the reversed pair is another cut, after which c1, c2 is cut again
    assert b.pick(c2, c1, LEFT) == b.pick(c2, c1, LEFT)
    assert b.pick(c1, c2, RIGHT) == pair[1]
    assert len(calls) == 3 and calls[2] == calls[0]


# --- overflow -----------------------------------------------------------------

def test_overflowing_pick_raises():
    b = Builder(list(FAR))
    c1, c2 = b.circle(0, 1), b.circle(1, 0)
    with pytest.raises(NonFiniteInput):
        b.pick(c1, c2, LEFT)
    with pytest.raises(NonFiniteInput):
        b.both(c1, c2)
    with pytest.raises(NonFiniteInput):
        b.pick_other(c1, c2, avoid=0)
    with pytest.raises(NonFiniteInput):
        circle_circle_intersect(b.circle_value(c1), b.circle_value(c2))
    with pytest.raises(NonFiniteInput):
        execute(apex_program(LEFT), FAR)
    assert len(b) == 4


def test_cut_reports_an_overflowing_point():
    c1, c2 = circle_from(*FAR), circle_from(*FAR[::-1])
    # two points: the center distance squared is not finite
    assert cut(*c1.center, c1.radius, *c2.center, c2.radius) == CUT_OVERFLOW
    # a touch from inside, at (2e308, 0), past the largest float
    assert cut(1e308, 0.0, 1e308, 1.5e308, 0.0, 5e307) == CUT_OVERFLOW


def test_overflowing_circle_raises_and_appends_nothing():
    seeds = [Point(1e308, 1e308), Point(-1e308, -1e308)]
    b = Builder(seeds)
    with pytest.raises(NonFiniteInput):
        b.circle(0, 1)
    assert len(b) == 2
    with pytest.raises(NonFiniteInput):
        execute(apex_program(LEFT), seeds)


# --- parity with circle_circle_intersect ---------------------------------------

coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
radius = st.floats(min_value=0.01, max_value=20)


@st.composite
def circle_pairs(draw):
    """Seeds (center1, through1, center2, through2) of two circles, drawn
    from every configuration a cut distinguishes."""
    x, y, r1 = draw(coord), draw(coord), draw(radius)
    kind = draw(st.sampled_from(["random", "crossing", "outer", "inner", "nested",
                                 "concentric", "coincident", "overflow"]))
    c1, t1 = Point(x, y), Point(x + r1, y)
    if kind == "random":
        c2, t2 = Point(draw(coord), draw(coord)), Point(draw(coord), draw(coord))
    elif kind == "crossing":  # both circles pass through t1
        c2, t2 = Point(draw(coord), draw(coord)), t1
    elif kind == "outer":  # touching from outside at t1
        r2 = draw(radius)
        c2, t2 = Point(x + r1 + r2, y), t1
    elif kind == "inner":  # touching from inside at t1
        c2, t2 = Point(x + r1 * draw(st.floats(0.05, 0.95)), y), t1
    elif kind == "nested":
        c2 = Point(x + r1 * 0.1, y)
        t2 = Point(c2.x, y + r1 * draw(st.floats(0.05, 0.8)))
    elif kind == "concentric":
        c2, t2 = c1, Point(x, y + r1 * draw(st.floats(0.05, 0.95)))
    elif kind == "coincident":
        c2, t2 = c1, Point(x - r1, y)
    else:
        return FAR + FAR[::-1]
    if c2 == t2:
        t2 = Point(t2.x + 1.0, t2.y)
    return c1, t1, c2, t2


def reference(seeds):
    """What each selector must give, from the outcome objects: a point per
    selector, or the error class every resolving path must raise."""
    try:
        out = circle_circle_intersect(circle_from(seeds[0], seeds[1]),
                                      circle_from(seeds[2], seeds[3]))
    except CompassError as err:
        return type(err)
    if isinstance(out, TwoPoints):
        return {LEFT: out.left, RIGHT: out.right}
    if isinstance(out, Tangent):
        return {LEFT: out.point, RIGHT: out.point}
    if isinstance(out, NoIntersection):
        return NoSuchIntersection
    assert isinstance(out, Coincident)
    return CoincidentCircles


def resolved(fn):
    try:
        return fn()
    except CompassError as err:
        return type(err)


def builder_with_circles(seeds):
    b = Builder(list(seeds))
    return b, b.circle(0, 1), b.circle(2, 3)


@given(circle_pairs())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_outcomes_bit_for_bit(seeds):
    want = reference(seeds)

    def one(which):
        b, c1, c2 = builder_with_circles(seeds)
        return b.point(b.pick(c1, c2, which))

    def both():
        b, c1, c2 = builder_with_circles(seeds)
        return tuple(b.point(n) for n in b.both(c1, c2))

    def other(avoid):
        b, c1, c2 = builder_with_circles(seeds)
        node = b.pick_other(c1, c2, avoid)
        return None if node is None else b.point(node)

    def met():
        b, c1, c2 = builder_with_circles(seeds)
        return tuple(b.point(n) for n in b.meet(c1, c2))

    def executed():
        program = program_of(4, ((S, 0, -1), (S, 1, -1), (S, 2, -1), (S, 3, -1),
                                 (C, 0, 1), (C, 2, 3), (L, 4, 5), (R, 4, 5)), (6, 7))
        return execute(program, seeds).output_points()

    if isinstance(want, type):
        for got in (resolved(lambda: one(LEFT)), resolved(lambda: one(RIGHT)),
                    resolved(both), resolved(lambda: other(0)), resolved(executed),
                    resolved(met)):
            assert got is want
        return
    assert one(LEFT) == want[LEFT]
    assert one(RIGHT) == want[RIGHT]
    assert both() == (want[LEFT], want[RIGHT])
    assert executed() == (want[LEFT], want[RIGHT])
    touch = want[LEFT] == want[RIGHT]
    assert met() == ((want[LEFT],) if touch else (want[LEFT], want[RIGHT]))
    # cut's first point is the left one: on the left of center 1 -> center 2
    c1, c2 = circle_from(seeds[0], seeds[1]), circle_from(seeds[2], seeds[3])
    lx, ly, rx, ry = cut(c1.center.x, c1.center.y, c1.radius,
                         c2.center.x, c2.center.y, c2.radius)
    ux, uy = c2.center.x - c1.center.x, c2.center.y - c1.center.y

    def side(x, y):  # cross(c2 - c1, p - c1) and its zero band, relative to scale
        vx, vy = x - c1.center.x, y - c1.center.y
        return ux * vy - uy * vx, EPS * max(1.0, math.hypot(ux, uy) * math.hypot(vx, vy))

    cross, band = side(lx, ly)
    assert cross >= -band
    cross, band = side(rx, ry)
    assert cross <= band
    for avoid in range(4):
        if touch:  # no other point, no pick
            assert other(avoid) is None
            continue
        a = seeds[avoid]
        far_left = (math.hypot(want[LEFT].x - a.x, want[LEFT].y - a.y)
                    >= math.hypot(want[RIGHT].x - a.x, want[RIGHT].y - a.y))
        assert other(avoid) == want[LEFT if far_left else RIGHT]


# --- execute reproduces the builder's trace -------------------------------------

def canonical_traces():
    def built(routine):
        b = Builder([O, U])
        return b.finish([routine(b)])

    yield "apex-left", built(lambda b: build_apex(b, 0, 1, LEFT)), apex_program(LEFT)
    yield "apex-right", built(lambda b: build_apex(b, 0, 1, RIGHT)), apex_program(RIGHT)
    yield "extend", built(lambda b: b.inline(extend_program(), (0, 1))[0]), extend_program()
    yield "midpoint", built(lambda b: build_midpoint(b, 0, 1)), midpoint_program()
    for n in range(1, 9):
        yield (f"nth-{n}", built(lambda b, n=n: build_nth_point(b, 0, 1, n)),
               nth_point_program(n))


@pytest.mark.parametrize("name, built, canonical", list(canonical_traces()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_execute_equals_builder_trace_canonical(name, built, canonical):
    program, trace = built
    assert program == canonical
    assert execute(program, trace.seed_values) == trace


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_execute_equals_builder_trace_demos(demo):
    trace = dsl.run_source(DEMOS[demo]).trace
    assert execute(trace.program, trace.seed_values) == trace


# --- a compiled program fails as execute does ------------------------------------

# the left and right picks of the circles (0; 1) and (2; 3)
CUT_PAIR = program_of(4, ((S, 0, -1), (S, 1, -1), (S, 2, -1), (S, 3, -1),
                          (C, 0, 1), (C, 2, 3), (L, 4, 5), (R, 4, 5)), (6, 7))

# draw: (program, seeds, the error class execute raises)
FAILING_DRAWS = {
    "overflowing-pick": (apex_program(LEFT), FAR, NonFiniteInput),
    "overflowing-circle": (apex_program(LEFT), (Point(1e308, 1e308), Point(-1e308, -1e308)),
                           NonFiniteInput),
    "degenerate-circle": (apex_program(LEFT), (U, U), DegenerateCircle),
    "miss": (CUT_PAIR, (O, U, Point(5.0, 0.0), Point(6.0, 0.0)), NoSuchIntersection),
    "coincident": (CUT_PAIR, (O, U, O, U), CoincidentCircles),
    "seed-count": (apex_program(LEFT), (O, U, U), MalformedProgram),
    "not-a-pair": (apex_program(LEFT), (O, (1.0,)), NonFiniteInput),
    "not-a-number": (apex_program(LEFT), (O, (True, 0.0)), NonFiniteInput),
    "int-past-float-range": (apex_program(LEFT), (O, (10**400, 0)), NonFiniteInput),
}


def outcome(program, seeds):
    """``execute(program, seeds)``, or the error's class and message."""
    try:
        return execute(program, seeds)
    except CompassError as err:
        return type(err), str(err)


def executed(program, seeds, compiling):
    """``execute`` on a copy of ``program``, compiled or not: the trace, or
    the error's class and message."""
    program = copy.copy(program)
    if compiling:
        replay.compile(program)
    return outcome(program, seeds)


@pytest.mark.parametrize("name", sorted(FAILING_DRAWS))
def test_a_compiled_program_fails_as_execute_does(name):
    program, seeds, error = FAILING_DRAWS[name]
    got = executed(program, seeds, compiling=True)
    assert got == executed(program, seeds, compiling=False)
    assert got[0] is error


def test_compiled_fuzz_programs_replay_similarity_images_as_execute_does():
    """Every program ``fuzz.run_op(op, 20, 42)`` audits, over every op,
    compiled and interpreted on seeded similarity images of its seeds,
    z -> p + s e^(it) z with s from 2^-30 to 2^30: the same columns, or the
    same error class and message."""
    audited = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzz, "purity_audit", audited.append)
        for op in fuzz.OPS:
            fuzz.run_op(op, 20, 42)
    assert len(audited) == 235
    rng, failed = fuzz.SplitMix64(21), 0
    for trace in audited:
        interpreted, compiled = copy.copy(trace.program), copy.copy(trace.program)
        replay.compile(compiled)  # a copy holds no compiled function until then
        for _ in range(3):
            t, s = rng.uniform(0.0, 2.0 * math.pi), 2.0 ** rng.uniform(-30.0, 30.0)
            wx, wy = s * math.cos(t), s * math.sin(t)
            px, py = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
            seeds = [Point(px + wx * x - wy * y, py + wx * y + wy * x)
                     for x, y in trace.seed_values]
            want = outcome(interpreted, seeds)
            failed += type(want) is tuple
            assert outcome(compiled, seeds) == want
    assert 0 < failed < len(audited)  # images that fail are compared too


def test_a_compiled_program_keeps_int_seeds_as_ints():
    def reprs(trace):  # the sign of a zero and an int's type count
        r = trace.resolved
        return [tuple(map(repr, column)) for column in (r.xs, r.ys, r.rs)]

    got, want = (executed(apex_program(LEFT), [(0, 0), (1, 0)], compiling)
                 for compiling in (True, False))
    assert reprs(got) == reprs(want)
    # the seeds and the circles' centers are the int seeds; the pick is floats
    assert [type(x) for x in got.resolved.xs] == [int] * 4 + [float]
