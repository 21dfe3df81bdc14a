import copy
import math
import pickle

import pytest

from compass import field_ops as F
from compass.constructions import CANONICAL_SEEDS, build_apex, build_extend, build_midpoint
from compass.errors import InvalidNodeId, MalformedProgram, OnMirrorLine
from compass.fuzz import SplitMix64, _ValuePool
from compass.geom import Point, cut
from compass.oracle import (
    oracle_complex_add,
    oracle_complex_conj,
    oracle_complex_mul,
)
from compass.program import Builder, Selector, Trace, ancestors, execute, purity_audit

SQRT15_4 = math.sqrt(15.0) / 4.0


def close(p, x, y, within=1e-9):
    assert p.x == pytest.approx(x, abs=within), p
    assert p.y == pytest.approx(y, abs=within), p


def paper_half():
    """1/2 by the paper's chase: |alpha|^2 = 3/2 is constructible, and
    adding -1 lands on 1/2."""
    al = F.alpha()
    return F.add(F.mul(al, F.conj(al)), F.neg(F.one()))


def test_seeds_and_minus_one():
    assert F.zero().value == Point(0.0, 0.0)
    assert F.one().value == Point(1.0, 0.0)
    close(F.minus_one().value, -1.0, 0.0)


def test_alpha_value():
    close(F.alpha().value, 0.75, SQRT15_4, within=1e-12)


def test_neg_examples():
    close(F.neg(F.one()).value, -1.0, 0.0)
    close(F.neg(F.zero()).value, 0.0, 0.0)
    a = F.alpha()
    close(F.neg(a).value, -0.75, -SQRT15_4, within=1e-7)


def test_neg_is_one_reflection():
    # -v = 2*0 - v: 3 circles on top of v's witness, however deep that is
    v = F.alpha()
    for _ in range(4):
        v = F.add(F.mul(v, v), F.one())
    negated = F.neg(v)
    assert negated.program.circle_count() == v.program.circle_count() + 3
    assert negated.program.pick_count() == v.program.pick_count() + 3
    close(negated.value, -v.value.x, -v.value.y,
          within=1e-9 * max(1.0, math.hypot(v.value.x, v.value.y)))


def _alpha():
    a = F.alpha()
    return Builder.resume(a.trace), a.primary_output


def _apex():
    b = Builder(CANONICAL_SEEDS)
    return b, build_apex(b, 0, 1)


@pytest.mark.parametrize("make", [_alpha, _apex], ids=["alpha", "apex"])
def test_a_value_negated_twice_is_its_own_node(make):
    """-(-a) reflects a through 0 and back about the one circle C(0; a):
    for alpha the builder takes a's node, and the witness ends on a's own
    step. The apex is a pick of C(0; 1), which the circle rule takes for
    C(0; a), so no rule finds the second reflection drawn: it is a new node
    within 1e-15 of a, until a ``_drawn`` rule reads a's circles by their
    rows."""
    b, a = make()
    minus = F.build_neg(b, a)
    n = len(b)
    twice = F.build_neg(b, minus)
    if make is _apex:
        assert twice != a and len(b) == n + 5
        assert math.dist(b.point(twice), b.point(a)) <= 1e-15
        return
    assert twice == a and len(b) == n + 4
    value = F.alpha()
    back = F.neg(F.neg(value))
    assert (back.value == value.value
            and back.program.circle_count() == value.program.circle_count())


@pytest.mark.parametrize("left, right", [(F.one, F.minus_one), (F.minus_one, F.one)],
                         ids=["one-plus-minus-one", "minus-one-plus-one"])
def test_one_and_minus_one_add_to_seed_zero(left, right):
    """Both ways round, the double replay reflects 0 through 1 to 2 and
    back, so the sum is seed 0 itself."""
    total = F.add(left(), right())
    assert total.primary_output == 0 and total.program.circle_count() == 0


def test_neg_near_zero_is_seed_zero():
    # a + (-a) rounds to a point within EPS of 0, not onto seed 0; reflecting
    # it would draw a circle through its own center
    a = F.alpha()
    tiny = F.add(a, F.neg(a))
    assert tiny.primary_output != 0 and tiny.value != Point(0.0, 0.0)
    b = Builder.resume(tiny.trace)
    before = len(b)
    assert F.build_neg(b, tiny.primary_output) == 0
    assert len(b) == before
    assert F.neg(tiny).value == Point(0.0, 0.0)


def test_add_examples():
    close(F.add(F.one(), F.one()).value, 2.0, 0.0)
    a = F.alpha()
    close(F.add(a, F.zero()).value, a.value.x, a.value.y)
    two = F.add(F.one(), F.one())
    close(F.add(two, F.minus_one()).value, 1.0, 0.0)


def test_mul_examples():
    two = F.add(F.one(), F.one())
    close(F.mul(two, two).value, 4.0, 0.0)
    a = F.alpha()
    close(F.mul(a, F.one()).value, a.value.x, a.value.y)
    close(F.mul(a, F.conj(a)).value, 1.5, 0.0, within=1e-7)


@pytest.mark.parametrize("left, at_seed", [(F.zero, True),
                                           (lambda: F.add(F.alpha(), F.neg(F.alpha())), False)],
                         ids=["seed-zero", "alpha-plus-minus-alpha"])
def test_mul_zero_basis_short_circuits(left, at_seed):
    """A left factor at 0 makes the product seed 0 with no replay: a itself
    when it is seed 0, else seed 0's witness. alpha + (-alpha) rounds to a
    point within EPS of 0 that is not seed 0 (1 + (-1) is seed 0 itself)."""
    a = left()
    product = F.mul(a, F.alpha())
    assert product.primary_output == 0  # the zero seed itself
    assert product.value == Point(0.0, 0.0)
    assert product.program.circle_count() == 0  # no collapsed replay executed
    assert (product is a) is at_seed


def test_conj_examples():
    a = F.alpha()
    close(F.conj(a).value, 0.75, -SQRT15_4, within=1e-9)
    h = paper_half()
    close(F.conj(h).value, 0.5, 0.0, within=1e-7)  # a point of line 01 is its own conjugate
    back = F.conj(F.conj(a))
    close(back.value, a.value.x, a.value.y, within=1e-8)


@pytest.mark.parametrize("a", [Point(0.5, 3e-7), Point(1e4, 0.01)], ids=["unit", "far"])
def test_conj_refuses_a_point_its_mirror_circles_only_touch(a):
    """Off line 01 by far more than EPS, a's mirror circles about seeds 0
    and 1 still touch within the band: no mirror image, and nothing drawn,
    where conj picked the touch on the line (an error of a.y)."""
    b = Builder([Point(0, 0), Point(1, 0), a])
    with pytest.raises(OnMirrorLine):
        F.build_conj(b, 2)
    assert len(b) == 3


def test_conj_keeps_a_point_of_line_01_and_mirrors_one_off_it():
    b = Builder([Point(0, 0), Point(1, 0), Point(0.5, 1e-13), Point(0.5, 1e-5)])
    assert F.build_conj(b, 2) == 2 and len(b) == 4
    image = b.point(F.build_conj(b, 3))
    close(image, 0.5, -1e-5, within=1e-12)
    assert image.y < 0


def test_conj_near_seeds_short_circuits():
    # conjugating 0 or 1 would degenerate the circles; fixed points return as-is
    zero, one = F.zero(), F.one()
    assert F.conj(zero) is zero
    assert F.conj(one) is one


@pytest.mark.parametrize("routine", ["relative", "neg", "conj", "mul", "add"])
def test_ring_operations_need_seeds_zero_and_one(routine):
    """Without seed 1 there is no frame for a field value: a typed error, not
    an IndexError, and nothing appended."""
    b = Builder([Point(0, 0)])
    one = F.one().program
    call = {
        "relative": lambda: F.relative(b, 0),
        "neg": lambda: F.build_neg(b, 0),
        "conj": lambda: F.build_conj(b, 0),
        "mul": lambda: F.build_mul(b, 0, one),
        "add": lambda: F.build_add(b, 0, one, one, 1 + 0j),
    }[routine]
    before = len(b)
    with pytest.raises(InvalidNodeId, match="^field values need seeds 0 and 1$"):
        call()
    assert len(b) == before == 1


@pytest.mark.parametrize("routine", ["relative", "neg", "conj", "mul", "add"])
@pytest.mark.parametrize("operand", ["outside", "circle"])
def test_ring_operations_check_their_operand(routine, operand):
    """An operand outside the builder, or a circle node, is a typed error
    with nothing appended, not an IndexError or a node handed back."""
    b = Builder(F.CANONICAL_SEEDS)
    node = 99 if operand == "outside" else b.circle(0, 1)
    error, message = {"outside": (InvalidNodeId, "^node 99 outside the builder$"),
                      "circle": (MalformedProgram, f"^node {node} is not a point$")}[operand]
    one = F.one().program
    call = {
        "relative": lambda: F.relative(b, node),
        "neg": lambda: F.build_neg(b, node),
        "conj": lambda: F.build_conj(b, node),
        "mul": lambda: F.build_mul(b, node, one),
        "add": lambda: F.build_add(b, node, one, one, 1 + 0j),
    }[routine]
    before = len(b)
    with pytest.raises(error, match=message):
        call()
    assert len(b) == before


def test_paper_half():
    h = paper_half()
    close(h.value, 0.5, 0.0, within=1e-7)
    # transported to arbitrary seeds it lands on their midpoint
    p, q = Point(1, 1), Point(3, 1)
    trace = execute(h.program, (p, q))
    close(trace.output_points()[0], 2.0, 1.0, within=1e-7)
    report = purity_audit(trace)
    assert report.circles == trace.circle_count


def test_paper_half_agrees_with_midpoint_route():
    # two independent compass routes to the same point: the chase's 17
    # circles and the midpoint's 6, which the script op half() draws
    h = paper_half()
    b = Builder([Point(0, 0), Point(1, 0)])
    m = b.point(build_midpoint(b, 0, 1))
    assert math.hypot(h.value.x - m.x, h.value.y - m.y) <= 1e-12


def _depth_tol(*values):
    steps = sum(len(v.program.steps) for v in values)
    return 1e-9 * (1 + steps)


def _relative_depth_tol(*values):
    """The ``_depth_tol`` budget times max(1, |value|): an absolute bound
    cannot compare values far from the unit disk."""
    size = max(math.hypot(v.value.x, v.value.y) for v in values)
    return _depth_tol(*values) * max(1.0, size)


def test_ring_axioms_numerically():
    pool = _ValuePool()
    rng = SplitMix64(31)
    for _ in range(40):
        a = pool.draw(rng, 3)
        b = pool.draw(rng, 3)
        c = pool.draw(rng, 3)
        comm_add = (F.add(a, b), F.add(b, a))
        bound = _depth_tol(*comm_add)
        assert math.hypot(comm_add[0].value.x - comm_add[1].value.x,
                          comm_add[0].value.y - comm_add[1].value.y) <= bound
        comm_mul = (F.mul(a, b), F.mul(b, a))
        bound = _depth_tol(*comm_mul)
        assert math.hypot(comm_mul[0].value.x - comm_mul[1].value.x,
                          comm_mul[0].value.y - comm_mul[1].value.y) <= bound
        left = F.mul(a, F.add(b, c))
        right = F.add(F.mul(a, b), F.mul(a, c))
        bound = _depth_tol(left, right)
        assert math.hypot(left.value.x - right.value.x,
                          left.value.y - right.value.y) <= bound


def test_random_values_match_complex_oracle():
    pool = _ValuePool()
    rng = SplitMix64(37)
    for _ in range(60):
        a = pool.draw(rng, 2)
        b = pool.draw(rng, 2)
        got = F.mul(a, b).value
        want = oracle_complex_mul(a.value, b.value)
        assert math.hypot(got.x - want.x, got.y - want.y) <= 1e-6
        got = F.add(a, b).value
        want = oracle_complex_add(a.value, b.value)
        assert math.hypot(got.x - want.x, got.y - want.y) <= 1e-6
        got = F.conj(a).value
        want = oracle_complex_conj(a.value)
        assert math.hypot(got.x - want.x, got.y - want.y) <= 1e-6
        got = F.neg(a).value
        assert math.hypot(got.x + a.value.x, got.y + a.value.y) <= 1e-6


def _assert_live_only(v):
    live = ancestors(v.program, v.primary_output) | set(range(v.program.seed_count))
    assert live == set(range(len(v.program.steps)))


def test_witnesses_hold_live_steps_only():
    a = F.alpha()
    for v in (F.add(a, F.one()), F.mul(a, a), F.conj(a), F.neg(a), paper_half()):
        _assert_live_only(v)


def _within_ulps(got, exact, ulps=4):
    return math.hypot(got.x - exact.x, got.y - exact.y) <= (
        ulps * 2.0 ** -52 * math.hypot(exact.x, exact.y))


def test_add_chain_witness_budgets():
    # the 3-circle doubling's last cut is centered off the real axis, so a
    # real sum lands within a few ulp of the axis, not on it: (10, 1.0e-15)
    # and (63.999999999999986, 1.4e-14)
    one = F.one()
    v = one
    for _ in range(9):
        v = F.add(v, one)
        _assert_live_only(v)
    assert len(v.program.steps) <= 56
    assert _within_ulps(v.value, Point(10.0, 0.0))
    v = one
    for _ in range(6):
        v = F.add(v, v)
        _assert_live_only(v)
    assert len(v.program.steps) <= 38
    assert _within_ulps(v.value, Point(64.0, 0.0))


def paper_add(a, b):
    """The paper's argument for a + b, kept as the reference for ``add``:
    build 2 = 2*1 - 0, replay a's witness on (1, 2) to construct a + 1, then
    replay b's witness on (a, a + 1)."""
    builder = Builder.resume(a.trace)
    two = build_extend(builder, 0, 1)
    a_plus_1 = builder.inline(a.program, (1, two))[0]
    out = builder.inline(b.program, (a.primary_output, a_plus_1))[0]
    return F.ConstructibleValue(builder.witness(out))


def _gap(u, v):
    return math.hypot(u.value.x - v.value.x, u.value.y - v.value.y)


def test_add_agrees_with_the_paper_double_replay():
    pool = _ValuePool()
    rng = SplitMix64(37)
    for _ in range(60):
        a = pool.draw(rng, 2)
        b = pool.draw(rng, 2)
        got, want = F.add(a, b), paper_add(a, b)
        assert _gap(got, want) <= _depth_tol(got, want)


def test_fibonacci_chain_is_linear_and_exact():
    # p, q = p + q, p from (alpha, 1), beside the exact complex chain
    p, q = F.alpha(), F.one()
    want_p, want_q = Point(0.75, SQRT15_4), Point(1.0, 0.0)
    for _ in range(10):
        got, ref = F.add(p, q), paper_add(p, q)
        assert _gap(got, ref) <= _depth_tol(got, ref)
        p, q = got, p
        want_p, want_q = oracle_complex_add(want_p, want_q), want_p
    assert len(p.program.steps) <= 220
    _assert_live_only(p)
    close(p.value, want_p.x, want_p.y, within=1e-12)


def test_doubling_chain_is_linear():
    v = F.alpha()
    for _ in range(20):
        got, ref = F.add(v, v), paper_add(v, v)
        assert _gap(got, ref) <= _relative_depth_tol(got, ref)
        v = got
    assert v.trace.circle_count <= 3 * 20 + 30
    scale = 2.0 ** 20
    close(v.value, 0.75 * scale, SQRT15_4 * scale, within=1e-12 * scale)


def test_squaring_chain_budget():
    # mul(s, s) replays s's witness on (0, s), so each squaring doubles it:
    # alpha^(2^k) holds 16 * 2^(k-1) + 2 steps, 8 * 2^(k-1) circles and as
    # many picks (2306 steps and 1280 circles at k = 8 with 4-circle
    # doublings); its worst relative error is 2.2e-14, at k = 8
    v, want = F.alpha(), complex(0.75, SQRT15_4)
    for k in range(1, 9):
        v, want = F.mul(v, v), want * want
        assert len(v.program.steps) <= 16 * 2 ** (k - 1) + 2
        assert v.program.circle_count() <= 8 * 2 ** (k - 1)
        assert v.program.pick_count() <= 8 * 2 ** (k - 1)
        assert abs(complex(v.value.x, v.value.y) - want) <= 5e-14 * abs(want)


def test_carried_value_is_the_executed_witness():
    # the fuzzer audits a value's own trace in place of re-executing its
    # witness, so the two must be equal, down to every resolved step
    pool = _ValuePool()
    rng = SplitMix64(37)
    for v in [*pool.atoms, *(pool.draw(rng, 2) for _ in range(60))]:
        executed = execute(v.program, F.CANONICAL_SEEDS)
        assert executed == v.trace
        assert v.value == executed.output_points()[0]
        # the witness holds no two steps under one row, so the resumed
        # hash-cons table keys every step, and replaying the witness on its
        # own seeds finds every step there
        builder = Builder.resume(v.trace)
        assert len(builder.table) == len(v.program.steps) - v.program.seed_count
        assert builder.inline(v.program, (0, 1)) == (v.primary_output,)
        assert len(builder) == len(v.program.steps)
        # and the witness cut out of it is the value's own trace
        assert builder.witness(v.primary_output) == v.trace


def _fresh_atoms():
    """The atoms, each built here on its own builder as ``field_ops`` builds it."""
    def seed(node):
        return F.ConstructibleValue(Builder(F.CANONICAL_SEEDS).witness(node))

    b = Builder(F.CANONICAL_SEEDS)
    big = b.circle(build_extend(b, 1, 0), 1)  # centered -1
    small = b.circle(1, 0)
    alpha = F.ConstructibleValue(b.witness(b.pick(big, small, Selector.LEFT)))
    return {"zero": seed(0), "one": seed(1), "alpha": alpha}


def test_atoms_are_built_once_and_equal_a_fresh_build():
    atoms = {name: getattr(F, name) for name in ("zero", "one", "alpha")}
    before = {name: make() for name, make in atoms.items()}
    # growing values from the shared atoms changes none of them
    v = F.add(F.alpha(), F.one())
    F.mul(F.conj(v), F.neg(F.zero()))
    for name, fresh in _fresh_atoms().items():
        shared = atoms[name]()
        assert shared is before[name] and shared is atoms[name]()
        assert shared is not fresh and shared.trace == fresh.trace
        assert repr(shared.trace) == repr(fresh.trace)  # down to the sign of a zero


def test_value_reads_the_resolved_output():
    values = list(_ValuePool().atoms)
    v = F.one()
    for _ in range(6):
        v = F.add(v, F.alpha())
        values.append(v)
    for v in values:
        assert v.value == v.trace.resolved[v.primary_output]
        assert type(v.value) is Point


# --- the kept hash-cons table and last cut ----------------------------------

def _rebuilt_table(trace):
    """The table ``Builder.resume`` rebuilds from the rows of a trace that
    kept none."""
    bare = Trace(trace.program, trace.resolved)
    assert bare._kept is None
    return Builder.resume(bare).table


def _kept_table(trace):
    """The table a trace kept, or None: the first of its ``_kept`` pair,
    whose second is the last cut, a pair of its circle nodes and their cut."""
    if trace._kept is None:
        return None
    table, (c1, c2, got) = trace._kept
    if got is not None:
        xs, ys, rs = trace.resolved.xs, trace.resolved.ys, trace.resolved.rs
        assert got == cut(xs[c1], ys[c1], rs[c1], xs[c2], ys[c2], rs[c2]), (c1, c2)
    return table


def test_a_value_keeps_the_table_its_resume_would_rebuild():
    # a doubling's witness keeps every step of its builder, and so does one
    # of each other operation on it; a table, wherever one is kept, is the
    # one the rebuild makes
    one, v, w = F.one(), F.alpha(), F.alpha()
    for _ in range(8):
        v, w = F.add(v, one), F.add(w, w)
        assert _kept_table(w.trace) is not None
        for t in (v.trace, w.trace):
            assert t._kept is None or _kept_table(t) == _rebuilt_table(t)
    for u in (F.mul(v, w), F.neg(v), F.conj(w)):
        assert _kept_table(u.trace) is not None
        assert _kept_table(u.trace) == _rebuilt_table(u.trace)
    pool = _ValuePool()
    rng = SplitMix64(41)
    kept = 0
    for _ in range(60):
        v = pool.draw(rng, 2)
        if v.trace._kept is not None:
            kept += 1
            assert _kept_table(v.trace) == _rebuilt_table(v.trace)
        assert Builder.resume(v.trace).table == _rebuilt_table(v.trace)
    assert kept >= 50


def test_growing_a_resumed_builder_leaves_the_kept_table():
    v = F.add(F.alpha(), F.alpha())
    before = dict(_kept_table(v.trace))
    b = Builder.resume(v.trace)
    assert b.table == before and b.table is not _kept_table(v.trace)
    assert b._last == v.trace._kept[1]
    build_extend(b, build_midpoint(b, 0, v.primary_output), 1)
    assert len(b.table) > len(before)
    assert _kept_table(v.trace) == before
    assert Builder.resume(v.trace).table == before


def test_a_builder_growing_after_a_witness_leaves_the_witness_table():
    # as a script's builder grows on after each field operand's witness
    b = Builder(F.CANONICAL_SEEDS)
    c = build_extend(b, 0, 1)
    w = b.witness(c)
    before = dict(_kept_table(w))
    assert before == b.table and _kept_table(w) is not b.table and w._kept[1] == b._last
    build_extend(b, c, build_midpoint(b, 0, c))
    b.witness(len(b) - 1)
    assert _kept_table(w) == before == _rebuilt_table(w)


def test_trace_identity_ignores_the_kept_table():
    kept = F.add(F.alpha(), F.alpha()).trace
    bare = Trace(kept.program, kept.resolved)
    assert kept._kept is not None
    assert kept == bare and hash(kept) == hash(bare) and repr(kept) == repr(bare)
    assert pickle.dumps(kept) == pickle.dumps(bare)
    for copied in (copy.copy(kept), copy.deepcopy(kept), pickle.loads(pickle.dumps(kept))):
        assert copied == kept
        assert Builder.resume(copied).table == _kept_table(kept)
