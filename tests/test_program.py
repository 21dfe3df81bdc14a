import copy
import dataclasses
import math
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from compass import dsl, program as program_module, replay, tracedoc
from compass.constructions import (
    apex_program,
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
    MalformedTrace,
    NonFiniteInput,
    NoSuchIntersection,
)
from compass.fuzz import SplitMix64
from compass.geom import Point, ResolvedCircle, cut, radius
from compass.program import (
    OP_CIRCLE,
    OP_LEFT,
    OP_RIGHT,
    OP_SEED,
    Builder,
    Program,
    Resolved,
    Selector,
    Trace,
    _no_point,
    ancestors,
    execute,
    purity_audit,
    rebase,
    similarity_transport_check,
)
from compass.svg import render_trace

O = Point(0.0, 0.0)
U = Point(1.0, 0.0)


def seeds_only(seeds, outputs=()):
    """A program that draws nothing and outputs some of its seeds."""
    return Builder(seeds).finish(outputs)[0]


def out_of(program, seeds):
    return execute(program, seeds).output_points()


def test_execute_apex():
    (c,) = out_of(apex_program(Selector.LEFT), (O, U))
    assert c.x == pytest.approx(0.5, abs=1e-12)
    assert c.y == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_execute_extend():
    (w,) = out_of(extend_program(), (O, U))
    assert w.x == pytest.approx(2.0, abs=1e-9)
    assert w.y == pytest.approx(0.0, abs=1e-9)


def test_execute_determinism_bit_for_bit():
    seeds = (Point(0.1, -0.7), Point(2.3, 1.9))
    t1 = execute(midpoint_program(), seeds)
    t2 = execute(midpoint_program(), seeds)
    assert t1 == t2  # trace equality covers every resolved float


def test_execute_wrong_seed_count():
    with pytest.raises(MalformedProgram):
        execute(extend_program(), (O,))
    with pytest.raises(MalformedProgram, match="^program wants 2 seeds, got 1$"):
        execute(extend_program(), iter([O]))


def test_execute_takes_seeds_as_any_iterable():
    # as Builder does: the seeds are taken as a tuple before they are counted
    want = execute(midpoint_program(), [O, U])
    assert execute(midpoint_program(), iter([O, U])) == want


@pytest.mark.parametrize("seed_map", [iter([0, 1]), (n for n in (0, 1)), range(2), [0, 1]],
                         ids=["iterator", "generator", "range", "list"])
def test_inline_takes_its_seed_map_as_any_iterable(seed_map):
    # as execute takes its seeds: the map is taken as a list before it is
    # counted, where an iterator once raised a bare TypeError from len()
    want = Builder([O, U])
    want_out = want.inline(extend_program(), (0, 1))
    b = Builder([O, U])
    assert b.inline(extend_program(), seed_map) == want_out
    assert b.finish(want_out) == want.finish(want_out)


def test_pick_errors():
    b = Builder([O, U, Point(5.0, 0.0), Point(5.1, 0.0)])
    c1 = b.circle(0, 1)
    c2 = b.circle(2, 3)
    with pytest.raises(NoSuchIntersection):
        b.pick(c1, c2, Selector.LEFT)
    b2 = Builder([O, U, Point(0.0, 1.0)])
    same1 = b2.circle(0, 1)
    same2 = b2.circle(0, 2)
    with pytest.raises(CoincidentCircles):
        b2.pick(same1, same2, Selector.LEFT)


@pytest.mark.parametrize("call, message", [
    (lambda b: b.point(2), "node 2 is not a point"),
    (lambda b: b.circle_value(0), "node 0 is not a circle"),
    (lambda b: b.inline(extend_program(), (0,)), "seed_map has 1 entries for 2 seeds"),
    (lambda b: b.inline(extend_program(), iter([0])), "seed_map has 1 entries for 2 seeds"),
    (lambda b: b.pick(2, 2, "left"), "bad selector 'left'"),
], ids=["circle-as-point", "point-as-circle", "short-seed-map", "short-seed-map-iterator",
        "non-selector"])
def test_builder_refuses_a_bad_argument(call, message):
    b = Builder([O, U])
    b.circle(0, 1)
    with pytest.raises(CompassError, match=message):
        call(b)
    assert len(b) == 3  # a failing call appends nothing


# (call on the builder below, error type, message): node -1, node len(b) = 4,
# a node of the wrong kind and one that equals a node but is not an int (a
# row not yet in the table), as each argument of each resolving method
_BAD_NODE_CALLS = [
    *[(f"circle({u}, {v})", lambda b, u=u, v=v: b.circle(u, v), err, message)
      for u, v, err, message in [
          (-1, 1, InvalidNodeId, "node -1 outside the builder"),
          (0, -1, InvalidNodeId, "node -1 outside the builder"),
          (4, 1, InvalidNodeId, "node 4 outside the builder"),
          (0, 4, InvalidNodeId, "node 4 outside the builder"),
          (2, 1, MalformedProgram, "node 2 is not a point"),
          (0, 3, MalformedProgram, "node 3 is not a point"),
          (True, True, InvalidNodeId, "node True is not an integer"),
          (0, 0.0, InvalidNodeId, "node 0.0 is not an integer"),
          # equal to the stored row (OP_CIRCLE, 0, 1): refused before the lookup
          (False, True, InvalidNodeId, "node False is not an integer"),
          (0.0, 1, InvalidNodeId, "node 0.0 is not an integer")]],
    *[(f"{name}({c1}, {c2})", lambda b, call=call, c1=c1, c2=c2: call(b, c1, c2), err, message)
      for name, call in [
          ("pick-left", lambda b, c1, c2: b.pick(c1, c2, Selector.LEFT)),
          ("pick-right", lambda b, c1, c2: b.pick(c1, c2, Selector.RIGHT)),
          ("both", Builder.both), ("meet", Builder.meet),
          ("pick_other", lambda b, c1, c2: b.pick_other(c1, c2, avoid=0))]
      for c1, c2, err, message in [
          (-1, 3, InvalidNodeId, "node -1 outside the builder"),
          (2, -1, InvalidNodeId, "node -1 outside the builder"),
          (4, 3, InvalidNodeId, "node 4 outside the builder"),
          (2, 4, InvalidNodeId, "node 4 outside the builder"),
          (0, 3, MalformedProgram, "node 0 is not a circle"),
          (2, 1, MalformedProgram, "node 1 is not a circle"),
          (2.0, 3, InvalidNodeId, "node 2.0 is not an integer"),
          (2, 3.0, InvalidNodeId, "node 3.0 is not an integer")]],
    *[(f"pick_other(2, 3, avoid={avoid})", lambda b, avoid=avoid: b.pick_other(2, 3, avoid),
       err, message)
      for avoid, err, message in [
          (-1, InvalidNodeId, "node -1 outside the builder"),
          (4, InvalidNodeId, "node 4 outside the builder"),
          (2, MalformedProgram, "node 2 is not a point"),
          (False, InvalidNodeId, "node False is not an integer")]],
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in _BAD_NODE_CALLS],
                         ids=[case[0] for case in _BAD_NODE_CALLS])
def test_builder_refuses_a_bad_node(call, error, message):
    # the checks the resolving methods make inline raise what Builder._node
    # raises, and leave the builder as it was
    b = Builder([O, U])
    b.circle(0, 1)
    b.circle(1, 0)

    def state():
        return (b.ops[:], b.first[:], b.second[:], b.xs[:], b.ys[:], b.rs[:], dict(b.table))

    before = state()
    with pytest.raises(CompassError) as caught:
        call(b)
    assert type(caught.value) is error and str(caught.value) == message
    assert state() == before


@pytest.mark.parametrize("call", [
    lambda b: b.point(True), lambda b: b.circle_value(2.0),
    lambda b: b.inline(extend_program(), (0, 1.0)), lambda b: b.witness(1.0),
    lambda b: b.witness(False), lambda b: b.pair_based("0"), lambda b: ancestors(b, 0.0),
], ids=["point", "circle_value", "inline", "witness-float", "witness-bool", "pair_based",
        "ancestors"])
def test_node_readers_refuse_a_node_that_is_not_an_int(call):
    b = Builder([O, U])
    b.circle(0, 1)
    with pytest.raises(InvalidNodeId, match="is not an integer$"):
        call(b)
    assert len(b) == 3


@pytest.mark.parametrize("node", [99, 2, True], ids=["outside", "circle", "bool"])
@pytest.mark.parametrize("reader", ["point", "witness", "pair_based"])
def test_point_readers_check_their_node_as_point_does(reader, node):
    # pair_based once answered True for a circle node, and witness named an
    # output its caller never passed; both said "outside program" for 99
    b = Builder([O, U])
    b.circle(0, 1)
    with pytest.raises(CompassError) as want:
        b.point(node)
    with pytest.raises(CompassError) as got:
        getattr(b, reader)(node)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert len(b) == 3


def test_a_bool_node_appends_nothing():
    # circle(False, True) once appended the row (OP_CIRCLE, False, True),
    # and finish handed over a 'first' column the constructor refuses
    b = Builder([O, U])
    for call in (lambda: b.circle(False, True), lambda: b.circle(True, False)):
        with pytest.raises(InvalidNodeId, match="^node (False|True) is not an integer$"):
            call()
    assert len(b) == 2 and b.table == {}
    c1, c2 = b.circle(0, 1), b.circle(1, 0)
    program = b.finish([b.pick(c1, c2, Selector.LEFT)])[0]
    assert set(map(type, program.first + program.second)) == {int}


@pytest.mark.parametrize("c1, c2, message", [
    (2.0, 3.0, "node 2.0 is not an integer"),
    (2, 3.0, "node 3.0 is not an integer"),
    (2.0, 3, "node 2.0 is not an integer"),
], ids=["float-float", "int-float", "float-int"])
def test_a_pick_equal_to_a_stored_one_is_refused(c1, c2, message):
    # the stored row (OP_LEFT, 2, 3) equals (OP_LEFT, 2.0, 3.0) and hashes
    # alike, so pick tests its operands' types before the lookup
    b = Builder([O, U])
    b.circle(0, 1)
    b.circle(1, 0)
    left = b.pick(2, 3, Selector.LEFT)
    before = len(b), dict(b.table)
    with pytest.raises(InvalidNodeId, match=f"^{message}$"):
        b.pick(c1, c2, Selector.LEFT)
    assert (len(b), dict(b.table)) == before and b.pick(2, 3, Selector.LEFT) == left


class ProbeCount(dict):
    """A hash-cons table that counts its lookups."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.probes += 1
        return dict.__getitem__(self, key)

    def __contains__(self, key):
        self.probes += 1
        return dict.__contains__(self, key)


def test_circle_and_pick_probe_the_table_once_per_call():
    b = Builder([O, U])
    b.table = table = ProbeCount()
    steps = [lambda: b.circle(0, 1), lambda: b.circle(1, 0),
             lambda: b.pick(2, 3, Selector.LEFT), lambda: b.pick(2, 3, Selector.RIGHT)]
    for _ in range(2):  # each row appended, then each row found
        for k, step in enumerate(steps):
            before = table.probes
            assert step() == k + 2
            assert table.probes == before + 1
    assert len(b) == 6 and table == {(OP_CIRCLE, 0, 1): 2, (OP_CIRCLE, 1, 0): 3,
                                     (OP_LEFT, 2, 3): 4, (OP_RIGHT, 2, 3): 5}


@pytest.mark.parametrize("avoid, error, message", [
    (-1, InvalidNodeId, "node -1 outside the builder"),
    (99, InvalidNodeId, "node 99 outside the builder"),
    (3, MalformedProgram, "node 3 is not a point"),
], ids=["negative", "past-the-end", "circle"])
def test_pick_other_checks_avoid_where_the_circles_only_touch(avoid, error, message):
    b = Builder([O, U, Point(2.0, 0.0)])
    c1, c2 = b.circle(0, 1), b.circle(2, 1)  # they touch at (1, 0)
    assert (c1, c2) == (3, 4) and b.pick_other(c1, c2, 1) is None
    with pytest.raises(CompassError) as caught:
        b.pick_other(c1, c2, avoid)
    assert type(caught.value) is error and str(caught.value) == message
    assert len(b) == 5


@pytest.mark.parametrize("bad, at", [((5, 7), 0), ((-1, 7), 1)], ids=["seed-0", "seed-1"])
def test_check_states_the_whole_seed_row(bad, at):
    # a trace document keeps no seed operand, so a seed row with one would
    # come back from a dump and load as another program
    with pytest.raises(MalformedProgram, match=rf"^step {at}: expected Seed\(slot={at}\)"):
        Program(2, (OP_SEED, OP_SEED, OP_CIRCLE, OP_CIRCLE, OP_LEFT),
                (0, 1, 0, 1, 2), (*bad, 1, 0, 3), (4,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_builder_refuses_a_non_finite_seed(bad):
    with pytest.raises(NonFiniteInput):
        Builder([O, Point(0.0, bad)])


@pytest.mark.parametrize("bad", [True, Fraction(1, 3)])
def test_builder_refuses_a_seed_that_is_not_an_int_or_a_float(bad):
    # math.isfinite reads both, and execute once returned a trace that dumps
    # refused ("step 1: 'x' must be a number"); now neither builds anything
    seeds = (O, Point(bad, 0))
    with pytest.raises(NonFiniteInput, match=r"^seed .* is not a pair of numbers$"):
        Builder(seeds)
    with pytest.raises(NonFiniteInput, match=r"^seed .* is not a pair of numbers$"):
        execute(midpoint_program(), seeds)


@pytest.mark.parametrize("seed", [None, 1.0, (1.0,), (1.0, 2.0, 3.0), "ab", (1.0, None)],
                         ids=["none", "float", "one", "three", "string", "null-y"])
def test_builder_refuses_a_seed_that_is_not_a_pair_of_numbers(seed):
    with pytest.raises(NonFiniteInput, match=r"^seed .* is not a pair of numbers$"):
        Builder([O, seed])


def test_builder_reads_a_pair_as_the_point_it_equals():
    pairs = ((0.0, 0.0), (1, 0.0))
    assert Builder(pairs).finish([1]) == Builder(map(Point._make, pairs)).finish([1])
    assert execute(midpoint_program(), pairs) == execute(midpoint_program(), (O, Point(1, 0.0)))


def test_builder_refuses_an_int_seed_past_the_float_range():
    # math.isfinite raised a bare OverflowError here
    with pytest.raises(NonFiniteInput, match="^non-finite seed"):
        execute(midpoint_program(), (O, Point(10 ** 400, 0)))


def test_resolved_columns_are_read_only():
    resolved = execute(midpoint_program(), (O, U)).resolved
    before = (resolved.xs, resolved.ys, resolved.rs)
    for name in ("xs", "ys", "rs"):
        with pytest.raises(AttributeError):
            setattr(resolved, name, ())
        with pytest.raises(AttributeError):
            delattr(resolved, name)
    assert (resolved.xs, resolved.ys, resolved.rs) == before
    for again in (copy.copy(resolved), copy.deepcopy(resolved),
                  pickle.loads(pickle.dumps(resolved))):
        assert type(again) is Resolved and again == resolved


# --- valid by construction ---------------------------------------------------

@pytest.mark.parametrize("fields, message", [
    ((2, (0, 0), (0, 1), (-1, -1), 7), "^'outputs' must be a sequence$"),
    ((2, None, (0, 1), (-1, -1), ()), "^'ops' must be a sequence$"),
    ((2, (0, 0), 1, (-1, -1), ()), "^'first' must be a sequence$"),
    ((2, (0, 0), (0, 1), {-1, -2}, ()), "^'second' must be a sequence$"),
    ((-1, (0,), (0,), (-1,), ()), "^'seed_count' -1 is negative$"),
    ((-1, (), (), (), ()), "^'seed_count' -1 is negative$"),
    ((1, (0, 1), (0, 0), (-1, 0), ()), "^step 1: circle through its own center$"),
    ((2, (0, 0, 1, 1, 2), (0, 1, 0, 1, 3), (-1, -1, 1, 0, 3), (4,)),
     "^step 4: pick of a circle with itself$"),
], ids=["int-outputs", "null-ops", "int-first", "set-second", "negative-seed-count",
        "negative-seed-count-no-steps", "circle-through-its-center", "pick-of-itself"])
def test_malformed_fields_raise_typed_errors(fields, message):
    # the first two raised a bare TypeError, the next a misplaced seed at
    # step -1, and a negative seed count over no steps passed; the circle
    # through its own center built, and every execute of it raised
    # DegenerateCircle, and the pick of a circle with itself built, and every
    # execute of it raised CoincidentCircles
    with pytest.raises(MalformedProgram, match=message):
        Program(*fields)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_the_constructors_accept_what_finish_and_witness_hand_over(name):
    # finish and witness skip the constructors' step passes: their columns
    # must pass them
    b = Builder.resume(dsl.run_source(DEMOS[name]).trace)
    points = [i for i, r in enumerate(b.rs) if r is None]
    handed = [b.finish(points)[1], *(b.witness(i) for i in points if b.pair_based(i))]
    assert len(handed) > 2
    for trace in handed:
        p = trace.program
        again = Trace(Program(p.seed_count, p.ops, p.first, p.second, p.outputs), trace.resolved)
        assert again == trace


@pytest.fixture
def column_passes(monkeypatch):
    """The column types of every ``program._mistyped`` pass, as they run."""
    passes = []
    mistyped = program_module._mistyped

    def counted(column, types):
        passes.append(types)
        return mistyped(column, types)

    monkeypatch.setattr(program_module, "_mistyped", counted)
    return passes


def _engine_traces():
    """A trace from each place the engine builds one, keyed by the place."""
    traces = {"execute": execute(midpoint_program(), (O, U))}
    b = Builder([O, U])
    c1, c2 = b.circle(0, 1), b.circle(1, 0)
    left = b.pick(c1, c2, Selector.LEFT)
    traces["witness, every step kept"] = b.witness(left)
    right = b.pick(c1, c2, Selector.RIGHT)
    traces["witness, some steps cut"] = b.witness(left)
    traces["finish"] = b.finish([left, right])[1]
    traces["loads"] = tracedoc.loads(
        tracedoc.dumps(tracedoc.document_from_trace(traces["execute"]))).trace
    return traces


def _consume(trace):
    """Every consumer that once checked a trace before reading it."""
    assert purity_audit(trace) == (trace.program.seed_count, trace.circle_count,
                                   trace.program.pick_count())
    render_trace(trace)
    tracedoc.dumps(tracedoc.document_from_trace(trace))
    Builder.resume(trace)


def test_engine_traces_are_checked_by_construction(column_passes):
    traces = _engine_traces()
    # the full witness keeps its builder's table, the cut one does not
    assert traces["witness, every step kept"]._kept is not None
    assert traces["witness, some steps cut"]._kept is None
    assert len(traces["witness, some steps cut"].program.ops) < len(traces["finish"].program.ops)
    column_passes.clear()
    for name, trace in traces.items():
        _consume(trace)
        assert column_passes == [], name


def test_other_traces_are_checked_once(column_passes):
    trace = execute(midpoint_program(), (O, U))
    column_passes.clear()
    for make, passes in ((lambda: Trace(trace.program, trace.resolved), 3),
                         (lambda: dataclasses.replace(trace), 3),
                         (lambda: copy.copy(trace), 3),
                         (lambda: copy.deepcopy(trace), 6),  # the program's passes too
                         (lambda: pickle.loads(pickle.dumps(trace)), 6)):
        again = make()
        assert again == trace and len(column_passes) == passes
        column_passes.clear()
        _consume(again)
        assert column_passes == []  # and none in a consumer


def test_a_bad_column_is_refused_by_the_constructor():
    trace = execute(midpoint_program(), (O, U))
    r = trace.resolved
    bad = Resolved((True, *r.xs[1:]), r.ys, r.rs)
    with pytest.raises(MalformedTrace, match="^step 0: 'x' must be a number$"):
        Trace(trace.program, bad)
    with pytest.raises(MalformedTrace, match="^step 0: 'x' must be a number$"):
        dataclasses.replace(trace, resolved=bad)
    # a trace is valid only over a Program, which is valid by construction
    for stand_in in (None, trace.program.steps, tracedoc.document_from_trace(trace)):
        with pytest.raises(MalformedTrace, match="^'program' must be a Program$"):
            Trace(stand_in, r)


@pytest.fixture
def finiteness_passes(monkeypatch):
    """The length of every column the one finiteness test reads, as it runs,
    whether the engine or the trace reader calls it."""
    passes = []
    nonfinite = program_module._nonfinite

    def counted(column):
        passes.append(len(column))
        return nonfinite(column)

    monkeypatch.setattr(program_module, "_nonfinite", counted)
    monkeypatch.setattr(tracedoc, "_nonfinite", counted)
    return passes


NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10 ** 400}


def forged(resolved, key, at, value):
    """The resolved columns, entry ``at`` of column ``key`` (x, y or radius)
    replaced by ``value``."""
    columns = {"x": list(resolved.xs), "y": list(resolved.ys), "radius": list(resolved.rs)}
    columns[key][at] = value
    return Resolved(*map(tuple, columns.values()))


@pytest.mark.parametrize("bad", sorted(NON_FINITE))
@pytest.mark.parametrize("key, at", [("x", 1), ("y", 1), ("x", 13), ("y", 13), ("radius", 2)],
                         ids=["x-seed", "y-seed", "x-pick", "y-pick", "radius"])
def test_trace_refuses_a_non_finite_number(key, at, bad):
    # such a trace once built: render_trace wrote r="nan" or d="M nan 0 ...",
    # and on 10**400 dumps, render_trace and Builder.resume(...).circle(0, 1)
    # raised a bare OverflowError
    trace = execute(midpoint_program(), (O, U))
    resolved = forged(trace.resolved, key, at, NON_FINITE[bad])
    with pytest.raises(MalformedTrace, match=rf"^step {at}: {key!r} must be finite$"):
        Trace(trace.program, resolved)
    with pytest.raises(MalformedTrace, match=rf"^step {at}: {key!r} must be finite$"):
        dataclasses.replace(trace, resolved=resolved)


ABOUT_1_THROUGH_0 = Program(2, (OP_SEED, OP_SEED, OP_CIRCLE), (0, 1, 1), (-1, -1, 0), ())


@pytest.mark.parametrize("seeds, key, value", [
    ((O, U), "x", 0.5), ((O, U), "y", 1e-300), ((O, U), "radius", 2.0),
    # circles geom.radius refuses, so that no builder, execute or loads draws one
    ((U, U), "radius", 1.0), ((Point(-1e308, -1e308), Point(1e308, 1e308)), "radius", 1.0),
], ids=["x", "y", "radius", "through-its-center", "radius-past-the-floats"])
def test_trace_refuses_a_circle_that_is_not_its_rows(seeds, key, value):
    # such a trace once built: render_trace drew a circle its program never
    # drew, dumps wrote a document that loads read as another trace, and a
    # builder resumed from it cut with the stored radius
    (x0, y0), (x1, y1) = seeds
    drawn = Resolved((x0, x1, x1), (y0, y1, y1), (None, None, 1.0))
    if seeds == (O, U):  # as execute draws it
        assert Trace(ABOUT_1_THROUGH_0, drawn) == execute(ABOUT_1_THROUGH_0, seeds)
    message = "^step 2: not the circle about node 1 through node 0$"
    with pytest.raises(MalformedTrace, match=message):
        Trace(ABOUT_1_THROUGH_0, forged(drawn, key, 2, value))


def test_one_finiteness_test_reads_seeds_traces_and_trace_files(finiteness_passes):
    trace = execute(midpoint_program(), (O, U))  # the seeds' x and y, in one column
    assert finiteness_passes == [4]
    Trace(trace.program, trace.resolved)  # each resolved column
    assert finiteness_passes == [4, 14, 14, 14]
    finiteness_passes.clear()
    text = tracedoc.dumps(tracedoc.document_from_trace(trace))
    render_trace(trace)
    Builder.resume(trace).circle(0, 1)
    assert finiteness_passes == []  # a trace is finite by construction
    assert tracedoc.loads(text).trace == trace
    assert finiteness_passes == [8, 8]  # the point steps' x and y


def test_the_first_non_finite_seed_is_named():
    # the seed, not the column: seed 1's y comes before seed 2's x
    with pytest.raises(NonFiniteInput, match=r"^non-finite seed Point\(x=0.0, y=nan\)$"):
        Builder([O, Point(0.0, math.nan), Point(math.inf, 0.0)])
    with pytest.raises(NonFiniteInput, match=r"^non-finite seed \(10{400}, 0\)$"):
        execute(extend_program(), [O, (10 ** 400, 0)])


def test_degenerate_circle_step():
    b = Builder([O, O])
    with pytest.raises(DegenerateCircle):
        b.circle(0, 1)


def test_rebase_apex_scaled():
    # replay the apex with (0, a) as starting points; a = 2 doubles it
    host = seeds_only((O, U))
    prog = rebase(host, apex_program(Selector.LEFT), (0, 1))
    (c,) = out_of(prog, (O, Point(2.0, 0.0)))
    # complex check: a * (0.5 + i sqrt(3)/2)
    z = complex(2, 0) * complex(0.5, math.sqrt(3) / 2)
    assert c.x == pytest.approx(z.real, abs=1e-9)
    assert c.y == pytest.approx(z.imag, abs=1e-9)


def test_rebase_extend_onto_one_two():
    # 1 and 2 host the guest; 2*2 - 1 = 3
    host = rebase(seeds_only((O, U)), extend_program(), (0, 1))  # constructs 2
    two = host.outputs[0]
    prog = rebase(host, extend_program(), (1, two))
    (w,) = out_of(prog, (O, U))
    assert w.x == pytest.approx(3.0, abs=1e-9)
    assert w.y == pytest.approx(0.0, abs=1e-9)


def test_rebase_identity_output_program():
    host = rebase(seeds_only((O, U)), extend_program(), (0, 1))
    ident = seeds_only((O, U), (1,))
    rebased = rebase(host, ident, (0, 1))
    assert rebased.steps == host.steps  # unchanged except outputs
    assert rebased.outputs == (1,)


def test_rebase_bad_seed_map():
    with pytest.raises(InvalidNodeId):
        rebase(seeds_only((O, U)), extend_program(), (0, 99))
    with pytest.raises(InvalidNodeId):
        rebase(seeds_only((O, U)), extend_program(), (0,))
    # an entry that is not an int (a bool is not one) is refused as
    # ``Builder.inline`` refuses it, before any step is appended
    for entry in (1.0, "a", True):
        with pytest.raises(InvalidNodeId, match=rf"^seed_map entry {entry!r} is not an integer$"):
            rebase(seeds_only((O, U)), extend_program(), (0, entry))
        with pytest.raises(InvalidNodeId, match=r"is not an integer$"):
            Builder([O, U]).inline(extend_program(), (0, entry))


@pytest.mark.parametrize("seed_map, error", [
    ((0, 1), None),
    ((0, 99), "seed_map entry 99 outside host program"),
    ((0,), "seed_map has 1 entries for 2 seeds"),
    ((0, 1.0), "seed_map entry 1.0 is not an integer"),
    ((0, 2), "seed_map entry 2 is not a point node"),
], ids=["good", "outside", "short", "float", "circle"])
def test_rebase_takes_any_iterable_seed_map(seed_map, error):
    # as Builder.inline takes it: read once as a list, then counted and checked
    host = rebase(seeds_only((O, U)), extend_program(), (0, 1))
    if error is None:
        assert rebase(host, extend_program(), iter(seed_map)) == rebase(
            host, extend_program(), seed_map)
        return
    for given in (seed_map, iter(seed_map)):
        with pytest.raises(CompassError) as caught:
            rebase(host, extend_program(), given)
        assert type(caught.value) is InvalidNodeId and str(caught.value) == error


def test_rebase_refuses_a_circle_in_the_seed_map():
    host = rebase(seeds_only((O, U)), extend_program(), (0, 1))
    assert host.ops[2] == OP_CIRCLE
    with pytest.raises(InvalidNodeId, match="entry 2 is not a point node"):
        rebase(host, extend_program(), (0, 2))


def test_similarity_transport_refuses_q_equal_to_p():
    with pytest.raises(DegenerateCircle):
        similarity_transport_check(midpoint_program(), (O, U), U, U)


def test_similarity_transport_examples():
    tolcheck = similarity_transport_check
    assert tolcheck(midpoint_program(), (O, U), Point(1, 1), Point(3, 1))
    moved = execute(midpoint_program(), (Point(1, 1), Point(3, 1)))
    m = moved.output_points()[0]
    assert m.x == pytest.approx(2.0, abs=1e-9)
    assert m.y == pytest.approx(1.0, abs=1e-9)

    # rotation by 90 degrees: apex lands on (-sqrt(3), 1)
    assert tolcheck(apex_program(Selector.LEFT), (O, U), O, Point(0, 2))
    rotated = execute(apex_program(Selector.LEFT), (O, Point(0, 2)))
    c = rotated.output_points()[0]
    assert c.x == pytest.approx(-math.sqrt(3), abs=1e-9)
    assert c.y == pytest.approx(1.0, abs=1e-9)

    # identity similarity
    assert tolcheck(extend_program(), (O, U), O, U)


def test_similarity_transport_fails_where_moving_the_seeds_rounds_them():
    seeds = (Point(0.3, 0.7), Point(1.1, -0.4))
    assert similarity_transport_check(midpoint_program(), seeds, Point(0, 0), Point(2, 1))
    assert not similarity_transport_check(midpoint_program(), seeds,
                                          Point(1e12, 0), Point(1e12 + 1, 0))


def test_purity_audit_midpoint_counts():
    trace = execute(midpoint_program(), (O, U))
    report = purity_audit(trace)
    assert report.seeds == 2
    assert report.circles == 6
    assert report.picks == 6
    assert trace.circle_count == 6


def test_purity_audit_empty_program():
    seeds = (O, U, Point(2, 2))
    trace = execute(seeds_only(seeds), seeds)
    report = purity_audit(trace)
    assert (report.seeds, report.circles, report.picks) == (3, 0, 0)


def test_trace_check_refuses_too_few_resolved_values():
    trace = execute(midpoint_program(), (O, U))
    with pytest.raises(MalformedTrace, match="do not cover the steps"):
        Trace(trace.program, tuple(trace.resolved)[:-1])


@pytest.mark.parametrize("column", ["xs", "ys"])
def test_trace_check_refuses_a_short_coordinate_column(column):
    # rs covers the steps, so only the column lengths tell; without their
    # check purity_audit passed such a trace, and dumps and render_trace
    # raised a bare IndexError
    trace = execute(midpoint_program(), (O, U))
    cols = {"xs": trace.resolved.xs, "ys": trace.resolved.ys, "rs": trace.resolved.rs}
    cols[column] = cols[column][:-1]
    with pytest.raises(MalformedTrace, match="^resolved values do not cover the steps$"):
        Trace(trace.program, Resolved(**cols))


def test_purity_audit_rejects_forged_step():
    # a non-compass step is a malformed program, so none reaches a consumer
    with pytest.raises(MalformedProgram, match="^step 1: unknown op"):
        Program(1, (OP_SEED, 9), (0, 0), (-1, 0), ())
    # a circle step that resolved to a point is a malformed trace
    program = Program(2, (OP_SEED, OP_SEED, OP_CIRCLE), (0, 1, 0), (-1, -1, 1), ())
    with pytest.raises(MalformedTrace, match="^step 2:"):
        Trace(program, (O, U, O))


@pytest.mark.parametrize("program", [
    apex_program(Selector.LEFT), extend_program(), midpoint_program()])
def test_selector_complementation(program):
    # seeds on the mirror axis: swapping all picks conjugates the outputs
    other = {OP_LEFT: OP_RIGHT, OP_RIGHT: OP_LEFT}
    swapped = Program(program.seed_count, tuple(other.get(op, op) for op in program.ops),
                      program.first, program.second, program.outputs)
    base = out_of(program, (O, U))
    flipped = out_of(swapped, (O, U))
    for p, q in zip(base, flipped):
        assert q.x == pytest.approx(p.x, abs=1e-9)
        assert q.y == pytest.approx(-p.y, abs=1e-9)


SEEDS = (O, U, Point(0.3, 0.7))


def _gap(p, q):
    return math.hypot(p.x - q.x, p.y - q.y)


def _crossing(a, b):
    d = _gap(a.center, b.center)
    return d > 0.1 and abs(a.radius - b.radius) + 0.1 < d < a.radius + b.radius - 0.1


@st.composite
def valid_programs(draw):
    """Programs grown on a builder over ``SEEDS``: each circle's center and
    through point are distinct nodes at least 0.1 apart, and each pick cuts
    two circles that cross well clear of tangency, so most programs execute
    to the end."""
    seed_count = draw(st.integers(min_value=1, max_value=3))
    b = Builder(SEEDS[:seed_count])
    points, circles, drawn = list(range(seed_count)), [], set()
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        spans = [(c, t) for c in points for t in points if (c, t) not in drawn
                 and _gap(b.point(c), b.point(t)) > 0.1]
        cuts = [(c1, c2, which) for c1 in circles for c2 in circles
                for which in Selector if (c1, c2, which) not in drawn
                and _crossing(b.circle_value(c1), b.circle_value(c2))]
        if cuts and (not spans or draw(st.booleans())):
            step = draw(st.sampled_from(cuts))
            points.append(b.pick(*step))
        elif spans:
            step = draw(st.sampled_from(spans))
            circles.append(b.circle(*step))
        else:
            break
        drawn.add(step)
    return b.finish(points)[0]


@given(valid_programs())
@settings(max_examples=80, deadline=None)
def test_topological_integrity(program):
    # the resolve loop accepts every well-formed program: execution may fail
    # on the geometry, never on the structure
    try:
        execute(program, SEEDS[:program.seed_count])
    except MalformedProgram:
        raise
    except CompassError:
        pass


def test_builder_circle_cache_and_rollback():
    b = Builder([O, U])
    c1 = b.circle(0, 1)
    assert b.circle(0, 1) == c1  # structural reuse, not a second step
    mark = b.mark()
    c2 = b.circle(1, 0)
    b.pick(c1, c2, Selector.LEFT)
    b.rollback(mark)
    assert len(b) == mark[0]
    c2_again = b.circle(1, 0)
    assert c2_again == c2  # same slot after rollback


@pytest.mark.parametrize("mark", [(0,), (1,), (-1,), (6,), (1.0,), (2.0,), (True,),
                                  (2, 3), (), [2], 2, 5, None],
                         ids=repr)
def test_rollback_refuses_a_bad_mark(mark):
    """A mark before the seeds, past the end, or not a one-tuple of an int
    is a typed error, and the builder keeps every row and table key."""
    b = Builder([O, U])
    c1, c2 = b.circle(0, 1), b.circle(1, 0)
    b.pick(c1, c2, Selector.LEFT)
    before = copy.deepcopy((b.ops, b.first, b.second, b.xs, b.ys, b.rs, b.table, b._last))
    with pytest.raises(InvalidNodeId, match="^mark .* is not a step count of this builder$"):
        b.rollback(mark)
    assert (b.ops, b.first, b.second, b.xs, b.ys, b.rs, b.table, b._last) == before
    b.rollback((5,))  # the two ends of the range are marks
    b.rollback((2,))
    assert len(b) == 2 and b.table == {}


def test_resume_keys_each_row_on_its_first_step():
    # execute keeps a repeated row; the resumed builder's table finds the first
    twice = Program(2, (OP_SEED, OP_SEED, OP_CIRCLE, OP_CIRCLE), (0, 1, 0, 0),
                    (-1, -1, 1, 1), ())
    b = Builder.resume(execute(twice, (O, U)))
    assert b.table == {(OP_CIRCLE, 0, 1): 2}
    assert b.circle(0, 1) == 2 and len(b) == 4


def test_builder_hash_conses_picks_and_rollback_forgets_them():
    b = Builder([O, U])
    c1, c2 = b.circle(0, 1), b.circle(1, 0)
    mark = b.mark()
    left = b.pick(c1, c2, Selector.LEFT)
    assert b.pick(c1, c2, Selector.LEFT) == left  # structural reuse
    assert b.both(c1, c2)[0] == left and b.pick_other(c1, c2, avoid=left) == left + 1
    assert len(b) == left + 2
    # inlining a program whose steps are all present appends nothing
    assert b.inline(apex_program(Selector.LEFT), (0, 1)) == (left,)
    assert len(b) == left + 2
    b.rollback(mark)
    right = b.pick(c1, c2, Selector.RIGHT)
    assert right == left  # the rolled-back slot, now holding the right point
    again = b.pick(c1, c2, Selector.LEFT)
    assert again == right + 1
    assert b.point(again).y > 0 > b.point(right).y


def test_rollback_and_resume_start_with_no_last_cut(monkeypatch):
    """A rollback that frees the ids of the last cut's circles forgets that
    cut: a different circle redrawn at one of those ids is cut anew, and its
    pick is the new point. A builder resumed from a trace that kept no table
    holds no last cut either; one resumed from a witness that kept its
    builder's table holds that builder's last cut, and reads it again."""
    calls = []
    real = program_module.cut

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(program_module, "cut", counting)
    seeds = [O, U, Point(0.0, 1.0)]
    b = Builder(seeds)
    unit = b.circle(0, 1)
    mark = b.mark()
    c = b.circle(1, 0)
    old = b.pick(unit, c, Selector.LEFT)
    assert b._last[:2] == (unit, c) and len(calls) == 1
    b.rollback(mark)
    assert b._last == program_module._NO_CUT
    assert b.circle(2, 0) == c  # circle(2, 0) at circle(1, 0)'s id
    new = b.pick(unit, c, Selector.LEFT)
    assert new == old and len(calls) == 2
    fresh = Builder(seeds)
    assert b.point(new) == fresh.point(fresh.pick(fresh.circle(0, 1), fresh.circle(2, 0),
                                                  Selector.LEFT))
    assert b.point(new) != Point(0.5, math.sqrt(3) / 2)
    # resumed from a trace with no table, or from the witness of a builder
    # that holds a last cut, handed over with the table it kept
    b = Builder([O, U])
    c1, c2 = b.circle(0, 1), b.circle(1, 0)
    apex = b.pick(c1, c2, Selector.LEFT)
    assert b._last[:2] == (c1, c2)
    for trace in (execute(apex_program(Selector.LEFT), (O, U)), copy.copy(b.witness(apex))):
        assert Builder.resume(trace)._last == program_module._NO_CUT
    resumed = Builder.resume(b.witness(apex))
    assert resumed._last == b._last
    del calls[:]
    assert resumed.pick(c1, c2, Selector.RIGHT) == apex + 1 and not calls
    assert resumed.point(apex + 1) == b.point(b.pick(c1, c2, Selector.RIGHT))


def test_builder_witness():
    b = Builder([O, U, Point(4.0, 4.0)])
    b.circle(2, 0)  # a step the witness does not need
    w = b.inline(extend_program(), (0, 1))[0]
    witness = b.witness(w)
    # seeds 0 and 1 and w's ancestors, in order
    assert witness.program == extend_program()
    (value,) = out_of(witness.program, (O, U))
    assert value.x == pytest.approx(2.0, abs=1e-9)
    # resolved as the builder resolved them, at the kept nodes
    kept = [0, 1, *range(4, w + 1)]
    assert tuple(witness.resolved) == tuple(b.finish([])[1].resolved[i] for i in kept)
    # where every step is kept, the witness is the builder's whole trace,
    # and the same as the remapping cut gives once a later step is appended
    whole = Builder([O, U])
    w1 = whole.inline(extend_program(), (0, 1))[0]
    all_kept = whole.witness(w1)
    assert all_kept == whole.finish([w1])[1]
    whole.circle(w1, 0)
    assert whole.witness(w1) == all_kept
    # a node that depends on the third seed has no witness
    w2 = b.inline(extend_program(), (0, 2))[0]
    with pytest.raises(InvalidNodeId):
        b.witness(w2)


def test_ancestors():
    program = midpoint_program()
    closure = ancestors(program, program.outputs[0])
    assert program.outputs[0] in closure
    assert 0 in closure and 1 in closure
    with pytest.raises(InvalidNodeId):
        ancestors(program, 999)


def rows_of(program):
    return tuple(zip(program.ops, program.first, program.second))


def test_steps_and_resolved_are_views_over_columns():
    trace = execute(midpoint_program(), (O, U))
    program = trace.program
    steps, resolved, rows = program.steps, trace.resolved, rows_of(program)
    assert len(steps) == len(resolved) == len(program.ops) == len(rows)
    assert steps[0] == (OP_SEED, 0, -1) and steps[-1] == rows[-1] == steps[len(steps) - 1]
    assert steps[-len(steps)] == rows[0] and steps[3] == rows[3]
    assert steps[:2] == ((OP_SEED, 0, -1), (OP_SEED, 1, -1)) and type(steps[:2]) is tuple
    assert steps[::-2] == rows[::-2] and type(steps[::-2]) is tuple and steps[5:2] == ()
    assert tuple(steps) == rows and [*steps] == list(rows) and tuple(reversed(steps)) == rows[::-1]
    assert resolved[:2] == (O, U) and resolved[-1] == resolved[len(resolved) - 1]
    assert tuple(resolved) == resolved[:]
    for past in (len(steps), -len(steps) - 1):
        with pytest.raises(IndexError):
            steps[past]
    # values given at the edge encode into the same columns
    again = Trace(trace.program, tuple(resolved))
    assert again == trace and again.resolved.xs == resolved.xs
    with pytest.raises(MalformedTrace, match="^step 1:"):
        Trace(seeds_only((O, U)), (O, "ruler-point"))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_steps_equal_and_hash_as_their_rows(name):
    program = dsl.run_source(DEMOS[name]).trace.program
    steps, rows = program.steps, rows_of(program)
    assert steps == rows and rows == steps and not steps != rows
    assert steps == program.steps and hash(steps) == hash(rows) and rows in {steps}
    assert steps != rows[:-1] and steps != list(rows)
    assert repr(steps) == repr(rows)


def test_counting_steps_builds_no_row():
    n = 10_000
    program = Program(2, (OP_SEED, OP_SEED) + (OP_CIRCLE,) * n, (0, 1) + (0,) * n,
                      (-1, -1) + (1,) * n, (0,))
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        count = len(program.steps)
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert count == n + 2
    assert allocated < 1024, f"len(steps) allocated {allocated} bytes"


def test_resolved_equals_and_hashes_by_its_columns():
    trace = execute(midpoint_program(), (O, U))
    resolved, twin = trace.resolved, execute(midpoint_program(), (O, U)).resolved
    assert twin is not resolved and twin == resolved and hash(twin) == hash(resolved)
    # equal only to a Resolved, so equal values still hash equal
    assert resolved != tuple(resolved) and tuple(resolved) not in {resolved}
    assert Trace(trace.program, tuple(resolved)) == trace


# --- the step loop against a reference that cuts afresh for every pick ------

def reference_reflected_back(table, c, k, y, z):
    """For circle ``k`` = C(y; z), z where the left pick of circles ``c``
    and ``k`` ends ``extend``'s rows on (x, y) with base ``k``, and x is the
    output of those rows on (z, y), else None: the rows looked up in
    ``table`` forward, one by one, from k."""
    def wide_circle(x):  # extend's circle(u, v) on (x, y) with base k
        around = table.get((OP_CIRCLE, x, y))
        return table.get((OP_CIRCLE, table.get((OP_LEFT, around, k)),
                          table.get((OP_RIGHT, around, k))))

    x = table.get((OP_LEFT, wide_circle(z), k))
    return z if wide_circle(x) == c else None


def reference_resolve(b, program, node, table):
    """The step loop of ``Builder.inline`` (with ``b``'s table) and of
    ``execute`` (with None), without the last-cut reuse: each pick calls
    ``geom.cut`` on its own circles. Appends to ``b``'s columns. With a
    table, a circle about a pick's circle's center through that pick is
    that circle, and a point reflected twice through one center is that
    point."""
    xs, ys, rs = b.xs, b.ys, b.rs
    start = program.seed_count
    for op, u, v in zip(program.ops[start:], program.first[start:], program.second[start:]):
        nu, nv = node[u], node[v]
        if table is not None:
            key = op, nu, nv
            hit = table.get(key)
            if hit is None and op == OP_CIRCLE and b.ops[nv] in (OP_LEFT, OP_RIGHT):
                hit = next((k for k in (b.first[nv], b.second[nv]) if b.first[k] == nu), None)
            if hit is None and op == OP_LEFT:
                hit = reference_reflected_back(table, nu, nv, b.first[nv], b.second[nv])
            if hit is not None:
                node.append(hit)
                continue
        at = len(rs)
        if op == OP_CIRCLE:
            x, y = xs[nu], ys[nu]
            r = radius(x, y, xs[nv], ys[nv])
        else:
            got = cut(xs[nu], ys[nu], rs[nu], xs[nv], ys[nv], rs[nv])
            if type(got) is str:
                raise _no_point(got, at)
            x, y = got[:2] if op == OP_LEFT else got[2:]
            if not (math.isfinite(x) and math.isfinite(y)):
                raise NonFiniteInput(f"step {at}: intersection point ({x}, {y}) is not finite")
            r = None
        for column, item in zip((b.ops, b.first, b.second, xs, ys, rs), (op, nu, nv, x, y, r)):
            column.append(item)
        if table is not None:
            table[key] = at
        node.append(at)
    return tuple(node[out] for out in program.outputs)


def columns(b):
    """The six columns, floats by ``repr`` so that even the sign of a zero counts."""
    return (tuple(b.ops), tuple(b.first), tuple(b.second),
            *(tuple(map(repr, column)) for column in (b.xs, b.ys, b.rs)))


def outcome(call):
    try:
        return call()
    except CompassError as err:
        return type(err), str(err)


def compiled(program):
    """A copy of ``program``, which holds no compiled function, compiled."""
    twin = copy.copy(program)
    replay.compile(twin)
    return twin


def assert_execute_matches_reference(program, seeds):
    """``execute`` of ``program`` interpreted and compiled against the reference."""
    ref = Builder(seeds)
    reference_resolve(ref, program, list(range(program.seed_count)), None)
    for run in (copy.copy(program), compiled(program)):
        assert columns(Builder.resume(execute(run, seeds))) == columns(ref)


@given(valid_programs())
@settings(max_examples=80, deadline=None)
def test_compiled_programs_execute_as_interpreted(program):
    seeds = SEEDS[:program.seed_count]

    def run(p):
        return outcome(lambda: columns(Builder.resume(execute(p, seeds))))
    assert program._compiled is None
    assert run(compiled(program)) == run(program)


def assert_inline_matches_reference(host, program, seed_map):
    """Inline ``program`` into one ``host()`` and run the reference on
    another: the same nodes or error, columns and hash-cons table."""
    b, ref = host(), host()
    got = outcome(lambda: b.inline(program, seed_map))
    want = outcome(lambda: reference_resolve(ref, program, list(seed_map), ref.table))
    assert got == want
    assert columns(b) == columns(ref) and b.table == ref.table
    return got


CANONICAL_PROGRAMS = {
    "apex-left": lambda: apex_program(Selector.LEFT),
    "apex-right": lambda: apex_program(Selector.RIGHT),
    "extend": extend_program,
    "midpoint": midpoint_program,
    **{f"nth-{n}": lambda n=n: nth_point_program(n) for n in range(1, 9)},
    "nth-2**20": lambda: nth_point_program(2**20),  # 122 steps
}


def _canonical_host():
    b = Builder([Point(0.1, -0.7), Point(2.3, 1.9), Point(-1.2, 0.4)])
    b.inline(apex_program(Selector.LEFT), (0, 1))  # steps the inlines below hit
    return b


@pytest.mark.parametrize("name", sorted(CANONICAL_PROGRAMS))
def test_canonical_programs_resolve_as_the_reference_loop(name):
    program = CANONICAL_PROGRAMS[name]()
    for seeds in [(O, U), (Point(0.1, -0.7), Point(2.3, 1.9)), (U, Point(-3.0, 1e-3))]:
        assert_execute_matches_reference(program, seeds)
    for seed_map in [(0, 1), (1, 0), (1, 2), (2, 0)]:
        assert_inline_matches_reference(_canonical_host, program, seed_map)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_programs_resolve_as_the_reference_loop(name):
    trace = dsl.run_source(DEMOS[name]).trace
    program, seeds = trace.program, trace.seed_values
    assert_execute_matches_reference(program, seeds)
    n = program.seed_count

    def host():
        b = Builder(seeds)
        b.inline(program, tuple(range(n)))  # a second inline hits these
        return b

    for seed_map in [tuple(range(n)), (*range(1, n), 0)]:
        assert_inline_matches_reference(lambda: Builder(seeds), program, seed_map)
        assert_inline_matches_reference(host, program, seed_map)


def _two_circles():
    """Seeds 0 and 1 and the circles 2 = C(0; 1) and 3 = C(1; 0)."""
    return (OP_SEED, OP_SEED, OP_CIRCLE, OP_CIRCLE), (0, 1, 0, 1), (-1, -1, 1, 0)


def _program(*steps, outputs):
    ops, first, second = _two_circles()
    for op, u, v in steps:
        ops, first, second = ops + (op,), first + (u,), second + (v,)
    return Program(2, ops, first, second, outputs)


SPLIT_PAIRS = {
    # the left and right picks of circles 2 and 3 with a circle between them:
    # about 0 through the left pick, which ``execute`` appends and ``inline``
    # finds is circle 2
    "split-by-a-circle": _program((OP_LEFT, 2, 3), (OP_CIRCLE, 0, 4), (OP_RIGHT, 2, 3),
                                  outputs=(4, 6)),
    # ... about the left pick through 1, which both append
    "split-by-a-new-circle": _program((OP_LEFT, 2, 3), (OP_CIRCLE, 4, 1), (OP_RIGHT, 2, 3),
                                      outputs=(4, 6)),
    # ... with a cut of another pair between them, which the right pick must not reuse
    "split-by-another-cut": _program((OP_LEFT, 2, 3), (OP_CIRCLE, 4, 0), (OP_LEFT, 2, 5),
                                     (OP_RIGHT, 2, 3), outputs=(4, 6, 7)),
    # the same two circles in the other order: the cut swaps its sides
    "swapped-circles": _program((OP_LEFT, 2, 3), (OP_LEFT, 3, 2), (OP_RIGHT, 3, 2),
                                (OP_RIGHT, 2, 3), outputs=(4, 5, 6, 7)),
}


@pytest.mark.parametrize("name", sorted(SPLIT_PAIRS))
def test_split_pick_pairs_resolve_as_the_reference_loop(name):
    program = SPLIT_PAIRS[name]
    for seeds in [(O, U), (Point(0.1, -0.7), Point(2.3, 1.9))]:
        assert_execute_matches_reference(program, seeds)
        assert_inline_matches_reference(lambda: Builder(seeds), program, (0, 1))
        assert_inline_matches_reference(lambda: Builder(seeds), program, (1, 0))


def test_a_pair_whose_first_pick_is_a_hash_cons_hit_resolves_as_the_reference_loop():
    # the host holds the left pick of circles 2 and 3 and a cut of circles 3
    # and 2; the inlined pair's left pick is that node, its right pick is new
    def host():
        b = Builder([O, U])
        c1, c2 = b.circle(0, 1), b.circle(1, 0)
        b.pick(c1, c2, Selector.LEFT)
        return b

    pair = _program((OP_LEFT, 2, 3), (OP_RIGHT, 2, 3), outputs=(4, 5))
    assert assert_inline_matches_reference(host, pair, (0, 1)) == (4, 5)
    # a cut of another pair comes before the hit: the right pick cuts afresh
    after_cut = _program((OP_LEFT, 3, 2), (OP_LEFT, 2, 3), (OP_RIGHT, 2, 3),
                         outputs=(4, 5, 6))
    assert assert_inline_matches_reference(host, after_cut, (0, 1)) == (5, 4, 6)


# --- the circle rule: a circle about a pick's circle's center through that
# pick is that circle, on a hash-cons miss of ``Builder._step`` only

# circle 2 = C(0; 1) drawn again, about 0 through the left pick 4 on it
REDRAWN = _program((OP_LEFT, 2, 3), (OP_CIRCLE, 0, 4), outputs=(4,))


def test_builder_circle_through_a_pick_on_it_is_that_circle():
    b = Builder([O, U])
    c1, c2 = b.circle(0, 1), b.circle(1, 0)
    p = b.pick(c1, c2, Selector.LEFT)
    table = dict(b.table)
    assert (b.circle(0, p), b.circle(1, p)) == (c1, c2)  # its first circle, its second
    assert len(b) == 5 and b.table == table  # nothing appended, nothing keyed
    assert b.circle(p, 0) == 5 and b.ops[5] == OP_CIRCLE  # a circle about the pick is new


def test_execute_draws_every_circle_the_rule_would_find():
    for run in (copy.copy(REDRAWN), compiled(REDRAWN)):
        trace = execute(run, (O, U))
        assert trace.program.circle_count() == 3 and len(trace.resolved) == 6
        assert trace.resolved[5].center == trace.resolved[2].center
    b = Builder([O, U])
    assert b.inline(REDRAWN, (0, 1)) == (4,) and len(b) == 5


@pytest.mark.parametrize("which", [0, 1], ids=["first-circle", "second-circle"])
def test_inline_finds_a_rewired_circle_through_a_pick_on_it(which):
    """The guest's circle about seed 0 through seed 1, rewired onto a host
    circle's center and a pick on that circle, is the host circle."""
    def host():
        b = Builder([Point(0.3, 0.4), O, U])
        b.pick(b.circle(1, 2), b.circle(2, 1), Selector.LEFT)  # circles 3 and 4, pick 5
        return b

    guest = Program(3, (OP_SEED,) * 3 + (OP_CIRCLE, OP_CIRCLE, OP_LEFT),
                    (0, 1, 2, 0, 2, 3), (-1, -1, -1, 1, 1, 4), (5,))
    circle = 3 + which
    b = host()
    (out,) = assert_inline_matches_reference(host, guest, (1 + which, 5, 0))
    assert len(b) == 6 and b.inline(guest, (1 + which, 5, 0)) == (out,)
    assert len(b) == 8 and b.ops[6:] == [OP_CIRCLE, OP_LEFT]  # one new circle, one pick
    assert (b.first[out], b.second[out]) == (circle, 6)


# --- the first point rule: a point reflected twice through one center is
# that point, on a hash-cons miss of ``Builder._step`` only

Z, Y = Point(0.3, -0.7), Point(-1.1, 0.4)

# extend's rows on (z, y) = (0, 1) about K = C(1; 0), node 3, to x = 7 =
# 2y - z, then on (x, y) about K again, to 12, the left pick of circle(u,
# v), node 11, with K: 2y - (2y - z), drawn out
TWICE = _program((OP_LEFT, 2, 3), (OP_RIGHT, 2, 3), (OP_CIRCLE, 4, 5), (OP_LEFT, 6, 3),
                 (OP_CIRCLE, 7, 1), (OP_LEFT, 8, 3), (OP_RIGHT, 8, 3), (OP_CIRCLE, 9, 10),
                 (OP_LEFT, 11, 3), outputs=(12,))


def reflected_by_hand():
    """Extend's rows on (z, y), seeds 0 and 1, by ``circle``, ``both`` and
    ``pick``, then on (their output, y) up to circle(u, v): the builder,
    K = C(y; z) and circle(u, v)."""
    b = Builder([Z, Y])
    k = b.circle(1, 0)
    u, v = b.both(b.circle(0, 1), k)
    x = b.pick(b.circle(u, v), k, Selector.LEFT)
    assert b.circle(1, x) == k  # the circle rule: the second run's base is K
    u, v = b.both(b.circle(x, 1), k)
    return b, k, b.circle(u, v)


def test_builder_pick_of_a_point_reflected_twice_is_that_point():
    b, k, c = reflected_by_hand()
    state = columns(b), dict(b.table)
    assert b.pick(c, k, Selector.LEFT) == 0
    assert (columns(b), b.table) == state  # nothing appended, nothing keyed
    right = b.pick(c, k, Selector.RIGHT)  # the other cut is new
    assert right == len(b) - 1 == 12 and b.ops[right] == OP_RIGHT


def test_both_meet_and_pick_other_keep_the_point_reflected_twice():
    b, k, c = reflected_by_hand()
    assert b.both(c, k) == (0, 12) and len(b) == 13
    b, k, c = reflected_by_hand()
    assert b.meet(c, k) == (0, 12) and len(b) == 13
    b, k, c = reflected_by_hand()
    right = b.pick(c, k, Selector.RIGHT)
    assert b.pick_other(c, k, avoid=right) == 0 and b.pick_other(c, k, avoid=0) == right
    assert len(b) == 13 and (OP_LEFT, c, k) not in b.table


@pytest.mark.parametrize("seed_map", [(0, 1), (1, 0)], ids=["z-first", "z-second"])
def test_inline_finds_a_point_reflected_twice(seed_map):
    """The rewired TWICE, and extend run twice through one center, end on
    the node of z, with the four steps before the last pick new."""
    (out,) = assert_inline_matches_reference(lambda: Builder([Z, Y]), TWICE, seed_map)
    b = Builder([Z, Y])
    assert b.inline(TWICE, seed_map) == (out,) == (seed_map[0],) and len(b) == 12
    b = Builder([Z, Y])
    z, y = seed_map
    x = b.inline(extend_program(), (z, y))[0]
    assert len(b) == 8 and b.inline(extend_program(), (x, y)) == (z,)
    assert len(b) == 12 and b.ops[8:] == [OP_CIRCLE, OP_LEFT, OP_RIGHT, OP_CIRCLE]


def test_execute_draws_the_point_a_builder_finds_reflected_twice():
    for run in (copy.copy(TWICE), compiled(TWICE)):
        trace = execute(run, (Z, Y))
        assert len(trace.resolved) == 13 and trace.program.pick_count() == 6
        assert trace.resolved[12] != Z and math.dist(trace.resolved[12], Z) <= 1e-15
    b = Builder([Z, Y])
    assert b.inline(TWICE, (0, 1)) == (0,) and len(b) == 12


@pytest.mark.parametrize("scale", [2.0 ** -20, 1.0, 2.0 ** 20], ids=["2^-20", "1", "2^20"])
def test_a_point_reflected_twice_replays_within_ulps_on_seeded_draws(scale):
    """Over 1,000 SplitMix64 draws of (z, y) at each scale, the unreduced
    last pick of TWICE, which ``execute`` draws, lies within 32 ulps of the
    largest seed coordinate of z (28.7 at most, measured), where a builder
    takes z itself."""
    rng = SplitMix64(33)
    program = compiled(TWICE)
    for _ in range(1000):
        z = Point(scale * rng.uniform(-5, 5), scale * rng.uniform(-5, 5))
        y = Point(scale * rng.uniform(-5, 5), scale * rng.uniform(-5, 5))
        drawn = execute(program, (z, y)).resolved[12]
        assert math.dist(drawn, z) <= 32 * math.ulp(max(map(abs, (*z, *y))))
        assert Builder((z, y)).inline(TWICE, (0, 1)) == (0,)
