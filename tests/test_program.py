import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from compass.constructions import apex_program, extend_program, midpoint_program
from compass.errors import (
    CoincidentCircles,
    CompassError,
    DegenerateCircle,
    InvalidNodeId,
    MalformedProgram,
    MalformedTrace,
    NoSuchIntersection,
)
from compass.geom import Point
from compass.program import (
    OP_CIRCLE,
    OP_LEFT,
    OP_RIGHT,
    OP_SEED,
    Builder,
    Program,
    Selector,
    Trace,
    ancestors,
    empty_program,
    execute,
    purity_audit,
    rebase,
    similarity_transport_check,
)

O = Point(0.0, 0.0)
U = Point(1.0, 0.0)


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
    assert t1 == t2  # dataclass equality covers every resolved float


def test_execute_wrong_seed_count():
    with pytest.raises(MalformedProgram):
        execute(extend_program(), (O,))


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


def test_degenerate_circle_step():
    b = Builder([O, O])
    with pytest.raises(DegenerateCircle):
        b.circle(0, 1)


def test_rebase_apex_scaled():
    # replay the apex with (0, a) as starting points; a = 2 doubles it
    host = empty_program(2)
    prog = rebase(host, apex_program(Selector.LEFT), (0, 1))
    (c,) = out_of(prog, (O, Point(2.0, 0.0)))
    # complex check: a * (0.5 + i sqrt(3)/2)
    z = complex(2, 0) * complex(0.5, math.sqrt(3) / 2)
    assert c.x == pytest.approx(z.real, abs=1e-9)
    assert c.y == pytest.approx(z.imag, abs=1e-9)


def test_rebase_extend_onto_one_two():
    # 1 and 2 host the guest; 2*2 - 1 = 3
    host = rebase(empty_program(2), extend_program(), (0, 1))  # constructs 2
    two = host.outputs[0]
    prog = rebase(host, extend_program(), (1, two))
    (w,) = out_of(prog, (O, U))
    assert w.x == pytest.approx(3.0, abs=1e-9)
    assert w.y == pytest.approx(0.0, abs=1e-9)


def test_rebase_identity_output_program():
    host = rebase(empty_program(2), extend_program(), (0, 1))
    ident = empty_program(2, (1,))
    rebased = rebase(host, ident, (0, 1))
    assert rebased.steps == host.steps  # unchanged except outputs
    assert rebased.outputs == (1,)


def test_rebase_bad_seed_map():
    with pytest.raises(InvalidNodeId):
        rebase(empty_program(2), extend_program(), (0, 99))
    with pytest.raises(InvalidNodeId):
        rebase(empty_program(2), extend_program(), (0,))


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


def test_purity_audit_midpoint_counts():
    trace = execute(midpoint_program(), (O, U))
    report = purity_audit(trace)
    assert report.seeds == 2
    assert report.circles == 7
    assert report.picks == 6
    assert trace.circle_count == 7


def test_purity_audit_empty_program():
    trace = execute(empty_program(3), (O, U, Point(2, 2)))
    report = purity_audit(trace)
    assert (report.seeds, report.circles, report.picks) == (3, 0, 0)


def test_purity_audit_rejects_forged_step():
    # a non-compass step is a malformed program, whoever runs it
    forged = Program(1, (OP_SEED, 9), (0, 0), (-1, 0), ())
    with pytest.raises(MalformedProgram, match="^step 1: unknown op"):
        execute(forged, (O,))
    with pytest.raises(MalformedProgram, match="^step 1: unknown op"):
        purity_audit(Trace(forged, (O, O)))
    # a circle step that resolved to a point fails the audit
    program = Program(2, (OP_SEED, OP_SEED, OP_CIRCLE), (0, 1, 0), (-1, -1, 1), ())
    with pytest.raises(MalformedTrace, match="^step 2:"):
        purity_audit(Trace(program, (O, U, O)))


@pytest.mark.parametrize("program", [
    apex_program(Selector.LEFT), extend_program(), midpoint_program()])
def test_selector_complementation(program):
    # seeds on the mirror axis: swapping all picks conjugates the outputs
    other = {OP_LEFT: OP_RIGHT, OP_RIGHT: OP_LEFT}
    swapped = dataclasses.replace(program, ops=tuple(other.get(op, op) for op in program.ops))
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
    assert witness.resolved == tuple(b.finish([])[1].resolved[i] for i in kept)
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


def test_steps_and_resolved_are_views_over_columns():
    trace = execute(midpoint_program(), (O, U))
    program = trace.program
    steps, resolved = program.steps, trace.resolved
    assert len(steps) == len(resolved) == len(program.ops)
    assert steps[:2] == ((OP_SEED, 0, -1), (OP_SEED, 1, -1)) and type(steps[:2]) is tuple
    assert steps[-1] == (program.ops[-1], program.first[-1], program.second[-1])
    assert resolved[:2] == (O, U) and resolved[-1] == resolved[len(resolved) - 1]
    assert steps == tuple(steps) and resolved == tuple(resolved)
    with pytest.raises(IndexError):
        steps[len(steps)]
    # values given at the edge encode into the same columns
    again = Trace(trace.program, tuple(resolved))
    assert again == trace and again.resolved.xs == resolved.xs
    with pytest.raises(MalformedTrace, match="^step 1:"):
        Trace(empty_program(2), (O, "ruler-point"))
