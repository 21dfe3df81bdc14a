import math

import pytest

from compass import field_ops as F
from compass.constructions import build_extend, midpoint
from compass.fuzz import SplitMix64, _ValuePool
from compass.geom import Point
from compass.oracle import (
    oracle_complex_add,
    oracle_complex_conj,
    oracle_complex_mul,
)
from compass.program import Builder, ancestors, execute, purity_audit

SQRT15_4 = math.sqrt(15.0) / 4.0


def close(p, x, y, within=1e-9):
    assert p.x == pytest.approx(x, abs=within), p
    assert p.y == pytest.approx(y, abs=within), p


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


def test_second_neg_executes_nothing(monkeypatch):
    """-1 is built once: only the first neg builds its steps."""
    F.minus_one.cache_clear()  # whatever ran before, -1 is not built yet
    a = F.alpha()
    calls = []
    real = F.cons.build_extend

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(F.cons, "build_extend", counting)
    first = F.neg(a)
    assert len(calls) == 1
    calls.clear()
    second = F.neg(a)
    assert calls == []
    assert (second.value.x.hex(), second.value.y.hex()) == (
        first.value.x.hex(), first.value.y.hex())
    assert second.trace == first.trace


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


def test_mul_zero_basis_short_circuits():
    product = F.mul(F.zero(), F.alpha())
    assert product.primary_output == 0  # the zero seed itself
    assert product.value == Point(0.0, 0.0)
    assert product.program.circle_count() == 0  # no collapsed replay executed


def test_conj_examples():
    a = F.alpha()
    close(F.conj(a).value, 0.75, -SQRT15_4, within=1e-9)
    h = F.demo_half()
    close(F.conj(h).value, 0.5, 0.0, within=1e-7)  # real axis is fixed, via tangency
    back = F.conj(F.conj(a))
    close(back.value, a.value.x, a.value.y, within=1e-8)


def test_conj_near_seeds_short_circuits():
    # conjugating 0 or 1 would degenerate the circles; fixed points return as-is
    zero, one = F.zero(), F.one()
    assert F.conj(zero) is zero
    assert F.conj(one) is one


def test_demo_half():
    h = F.demo_half()
    close(h.value, 0.5, 0.0, within=1e-7)
    # transported to arbitrary seeds it lands on their midpoint
    p, q = Point(1, 1), Point(3, 1)
    trace = execute(h.program, (p, q))
    close(trace.output_points()[0], 2.0, 1.0, within=1e-7)
    report = purity_audit(trace)
    assert report.circles == trace.circle_count


def test_demo_half_agrees_with_midpoint_route():
    # two independent compass routes to the same point
    h = F.demo_half()
    m = midpoint(Point(0, 0), Point(1, 0))
    assert math.hypot(h.value.x - m.x, h.value.y - m.y) <= 1e-7


def test_witness_required():
    from compass.errors import MalformedProgram
    from compass.program import empty_program
    with pytest.raises(MalformedProgram):
        F.value_from_program(empty_program(3, (0,)))


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


def _assert_live_only(v):
    live = ancestors(v.program, v.primary_output) | set(range(v.program.seed_count))
    assert live == set(range(len(v.program.steps)))


def test_witnesses_hold_live_steps_only():
    a = F.alpha()
    for v in (F.add(a, F.one()), F.mul(a, a), F.conj(a), F.neg(a), F.demo_half()):
        _assert_live_only(v)


def test_add_chain_witness_budgets():
    one = F.one()
    v = one
    for _ in range(9):
        v = F.add(v, one)
        _assert_live_only(v)
    assert len(v.program.steps) <= 65
    assert v.value == Point(10.0, 0.0)
    v = one
    for _ in range(6):
        v = F.add(v, v)
        _assert_live_only(v)
    assert len(v.program.steps) <= 44
    assert v.value == Point(64.0, 0.0)


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
    assert v.trace.circle_count <= 4 * 20 + 30
    scale = 2.0 ** 20
    close(v.value, 0.75 * scale, SQRT15_4 * scale, within=1e-12 * scale)


def test_carried_value_is_the_executed_witness():
    pool = _ValuePool()
    rng = SplitMix64(37)
    for _ in range(60):
        v = pool.draw(rng, 2)
        executed = execute(v.program, F.CANONICAL_SEEDS)
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
