"""Exact step budgets: (steps, circles, picks) of the canonical programs and
of every demo, upper bounds on every core's counts on the benchmark
ledger's fixed inputs, bounds on the mean circles of the line routines and
ring operations over fuzz draws, and the exact outputs and circles of every
benchmark workload's smallest pool. The counts are deterministic and
hardware-independent, so a change that alters any construction's program
fails here. A change that lowers a count re-pins it at the new value."""

import importlib
from pathlib import Path

import pytest

from compass import constructions, dsl, field_ops, fuzz, program
from compass.constructions import (
    apex_program,
    extend_program,
    midpoint_program,
    nth_point_program,
)
from compass.demos import DEMOS
from compass.program import Selector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def counts(program):
    return len(program.steps), program.circle_count(), program.pick_count()


CANONICAL = {
    "apex-left": (lambda: apex_program(Selector.LEFT), (5, 2, 1)),
    "apex-right": (lambda: apex_program(Selector.RIGHT), (5, 2, 1)),
    "extend": (extend_program, (8, 3, 3)),
    "midpoint": (midpoint_program, (14, 6, 6)),
    "nth-1": (lambda: nth_point_program(1), (2, 0, 0)),
    "nth-2": (lambda: nth_point_program(2), (8, 3, 3)),
    "nth-3": (lambda: nth_point_program(3), (12, 5, 5)),
    "nth-4": (lambda: nth_point_program(4), (14, 6, 6)),
    "nth-5": (lambda: nth_point_program(5), (18, 8, 8)),
    "nth-6": (lambda: nth_point_program(6), (18, 8, 8)),
    "nth-7": (lambda: nth_point_program(7), (20, 9, 9)),
    "nth-8": (lambda: nth_point_program(8), (20, 9, 9)),
}

DEMO_COUNTS = {
    "add": (8, 3, 3),
    "conjugate": (12, 5, 5),
    "extend": (12, 4, 6),
    "half": (37, 17, 18),
    "invert": (10, 4, 3),
    "line-circle": (14, 6, 4),
    "line-circle-diameter": (27, 13, 11),
    "line-line": (33, 16, 13),
    "midpoint": (14, 6, 6),
    "mul": (14, 6, 6),
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_program_counts(name):
    make, expected = CANONICAL[name]
    assert counts(make()) == expected


def test_every_demo_is_pinned():
    assert set(DEMO_COUNTS) == set(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMO_COUNTS))
def test_demo_counts(name):
    assert counts(dsl.run_source(DEMOS[name]).trace.program) == DEMO_COUNTS[name]


# op: bound on the mean circles per trace ``fuzz.run_op(op, 600, 42)`` audits;
# the read-off and the pole ranking take them from 48.3 and 36.3 to 24.6 and
# 23.6, the 3-circle doubling to 21.2 and 22.2, and the arc bisection and
# the fewest doublings to 11.5 and 20.6; interior inversion doubling only
# to r/2 takes line-line to 18.3, and invert from 11.6 to 7.6; taking the
# circle about a pick's circle's center through that pick as that circle
# takes line-line to 16.3, mul from 12.6 to 10.3, add from 17.6 to 14.8 and
# conj from 8.2 to 6.4; taking a point reflected twice through one center as
# that point takes mul to 8.55, add to 11.65 and conj to 5.42; taking the
# invert trace before the involution check's steps takes invert to 4.21;
# inverting about a seed of one line before any apex pole takes line-line
# from 16.34 to 13.64; growing a sum on the operand of fewer circles and
# handing a point of line 01 back as its own conjugate take mul from 8.552
# to 7.935, add from 11.647 to 9.86 and conj from 5.417 to 4.87
FUZZ_MEAN_CIRCLES = {"invert": 4.3, "line-circle-diameter": 12.0, "line-line": 13.7,
                     "mul": 7.94, "add": 9.86, "conj": 4.87}


@pytest.mark.parametrize("op", sorted(FUZZ_MEAN_CIRCLES))
def test_fuzz_mean_circles(op, monkeypatch):
    circles = []
    monkeypatch.setattr(fuzz, "purity_audit",
                        lambda trace: circles.append(trace.circle_count))
    assert fuzz.run_op(op, 600, 42).failures == 0
    assert len(circles) == 600
    assert sum(circles) / len(circles) <= FUZZ_MEAN_CIRCLES[op]


@pytest.mark.parametrize("op", fuzz.OPS)
def test_fuzz_traces_hold_no_dead_step(op, monkeypatch):
    """Every step of every trace ``fuzz.run_op(op, 120, 42)`` audits is one
    an output depends on, so the audit and the circle counts above measure
    the construction and not a check run beside it."""
    dead = []

    def audit(trace):
        p = trace.program
        live = [False] * len(p.steps)
        for out in p.outputs:
            for i, flag in enumerate(program._live(p, out)):
                live[i] = live[i] or flag
        dead.append(live[p.seed_count:].count(False))

    monkeypatch.setattr(fuzz, "purity_audit", audit)
    report = fuzz.run_op(op, 120, 42)
    assert report.failures == 0 and len(dead) == report.audited
    assert sum(dead) == 0


# op: ring-operation calls (field_ops add, mul, conj and neg) of one
# ``fuzz.run_op(op, 120, 42)``, the atoms and their one-operation layer
# built. mul read 427 while every draw built its value afresh, and 327 with
# each one-op value built once per call, where add read 327 and conj 355;
# 273, 272 and 333 with every operand value built once per call; with the
# one-op values built once per process, the values below. They may only fall.
FUZZ_MUL_RING_CALLS = 218
FUZZ_RING_CALLS = {"mul": FUZZ_MUL_RING_CALLS, "add": 217, "conj": 294}


def ring_calls(monkeypatch):
    """A list that gets one entry per ring-operation call from then on: the
    operation's ``_RING_OPS`` index and its operands' ids inside a pool's
    draw, None outside one."""
    depth = [0]  # the draws under way
    calls = []
    draw = fuzz._ValuePool.draw

    def traced_draw(pool, rng, depth_left):
        depth[0] += 1
        try:
            return draw(pool, rng, depth_left)
        finally:
            depth[0] -= 1

    def counted(k, f):
        def call(*operands):
            # the operands of a draw's operation are held by the pool, so
            # their ids name them for the whole call
            calls.append((k, *map(id, operands)) if depth[0] else None)
            return f(*operands)
        return call

    monkeypatch.setattr(fuzz._ValuePool, "draw", traced_draw)
    for k, name in enumerate(fuzz._RING_OPS):
        monkeypatch.setattr(field_ops, name, counted(k, getattr(field_ops, name)))
    return calls


def test_fuzz_builds_each_one_op_value_once_per_call(monkeypatch):
    fuzz._atoms()  # built once per process: before the count, not in either call
    layer = fuzz._layer()  # the same
    calls = ring_calls(monkeypatch)
    for op, most in FUZZ_RING_CALLS.items():
        totals = []
        for _ in range(2):  # only the atoms and the layer carry over
            calls.clear()
            assert fuzz.run_op(op, 120, 42).failures == 0
            built = [key for key in calls if key is not None]
            assert len(set(built)) == len(built), op  # no operand value built twice
            assert not set(built) & set(layer), op  # nor a layer value built again
            totals.append(len(calls))
        assert totals[0] == totals[1] <= most, op


def test_fuzz_layer_is_every_value_one_operation_over_the_atoms(monkeypatch):
    layer = fuzz._layer()
    assert len(layer) == 60
    # the values a pool that starts empty builds at depth 1, built afresh
    monkeypatch.setattr(fuzz, "_layer", dict)
    pool, rng = fuzz._ValuePool(), fuzz.SplitMix64(1410)
    calls = ring_calls(monkeypatch)
    for _ in range(4000):
        pool.draw(rng, 1)
    assert set(pool._built) == set(layer) == set(calls)
    assert all(pool._built[key].trace == value.trace for key, value in layer.items())


# op: (``_doublings`` calls, ``Builder.inline`` calls, ``program.cut`` calls)
# of one warm ``fuzz.run_op(op, 120, 42)``, the canonical programs already
# cached. Scoring line-line's poles all before the first was tried, and
# inlining the empty ``nth_point_program(1)`` around each inversion that
# takes no doubling, read (4680, 720, 1224), (160, 320, 576) and
# (96, 120, 975). Scoring poles only until one predicts no doubling, and
# inlining nothing where an inversion or the arc bisection takes none, gives
# the values below. The cuts are the arithmetic, which must not change; the
# rest may only fall. Line-line's cuts read 1224 until every builder method
# read the builder's last cut again for the pair it cut last: 84 of them
# repeated the cut just made. Line-line read (1215, 12, 1140) until it
# inverted about a seed of one line before any apex pole: 13 circles a case
# where no doubling is taken, against 18, so fewer cuts by design.
FUZZ_ROUTE_CALLS = {
    "line-line": (897, 10, 891),
    "invert": (160, 92, 576),
    "line-circle-diameter": (96, 24, 975),
}


def warm_calls(op, monkeypatch, *targets):
    """The calls of each ``(owner, name)`` in ``targets`` over one warm
    ``fuzz.run_op(op, 120, 42)``, checked equal over two calls."""
    tally = [0] * len(targets)

    def counted(k, f):
        def call(*args):
            tally[k] += 1
            return f(*args)
        return call

    assert fuzz.run_op(op, 120, 42).failures == 0  # fills the program caches
    for k, (owner, name) in enumerate(targets):
        monkeypatch.setattr(owner, name, counted(k, getattr(owner, name)))
    totals = []
    for _ in range(2):  # nothing carries from one call to the next
        tally[:] = [0] * len(targets)
        assert fuzz.run_op(op, 120, 42).failures == 0
        totals.append(tuple(tally))
    assert totals[0] == totals[1]
    return totals[0]


@pytest.mark.parametrize("op", sorted(FUZZ_ROUTE_CALLS))
def test_fuzz_route_calls(op, monkeypatch):
    doublings, inlines, cuts = warm_calls(
        op, monkeypatch, (constructions, "_doublings"), (program.Builder, "inline"),
        (program, "cut"))
    most_doublings, most_inlines, parent_cuts = FUZZ_ROUTE_CALLS[op]
    assert cuts == parent_cuts
    assert doublings <= most_doublings and inlines <= most_inlines


# op: (``program.cut`` calls, ``program.radius`` calls) of one warm
# ``fuzz.run_op(op, 120, 42)``: the arithmetic of the ops that replay one
# shared program per case, which must not change. Each of ``warm_calls``'s
# three runs executes that program once per case, in ``execute``'s loop.
FUZZ_REPLAY_CALLS = {
    "apex": (120, 240),
    "extend": (240, 360),
    "nth": (492, 697),
    "midpoint": (480, 720),
}


@pytest.mark.parametrize("op", sorted(FUZZ_REPLAY_CALLS))
def test_fuzz_replay_calls(op, monkeypatch):
    runs = []

    def execute(program, seeds):
        runs.append(program)
        return real(program, seeds)

    real = fuzz.execute
    monkeypatch.setattr(fuzz, "execute", execute)
    cuts, radii = warm_calls(op, monkeypatch, (program, "cut"), (program, "radius"))
    assert (cuts, radii) == FUZZ_REPLAY_CALLS[op]
    assert len(runs) == 3 * 120


# core: (steps, circles, picks) bound of ``perfbench/ledger.py``'s
# ``construction_counts()``, on the fixed inputs the benchmark ledger records
CORE_COUNTS = {
    "apex": (5, 2, 1),
    "extend": (8, 3, 3),
    "nth_point": (18, 8, 8),
    "midpoint": (14, 6, 6),
    "perp_foot": (18, 8, 7),
    "invert_exterior": (10, 4, 3),
    "invert_general": (82, 40, 39),
    "line_line": (33, 16, 13),
    "line_circle_off_center": (14, 6, 4),
    "line_circle_center_on_line": (27, 13, 11),
}


def test_ledger_core_counts_stay_within_bounds(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    got = importlib.import_module("ledger").construction_counts()
    assert set(got) == set(CORE_COUNTS)
    for name, bound in CORE_COUNTS.items():
        have = got[name]["steps"], got[name]["circles"], got[name]["picks"]
        assert all(n <= most for n, most in zip(have, bound)), (name, have, bound)


# workload: (sha256 of every output coordinate, total circles) over the pool
# ``make_pool(20141011, 0.2)``, the pool of ``perfbench/run.py --seconds 1``,
# as its ledger records them: the bits of every output the benchmark checks.
# script-mix read 4284956c... until every ``linexcircle`` route put the
# line's b side first: the same points, some bound in the other order. The
# three read 947acfad... with 772 circles, c7b029f5... with 12658 and
# 4f6820c5... with 3919 until a circle about a pick's circle's center
# through that pick was taken as that circle; oracle-fuzz read 561d84af...
# with 11536 and deep-witness 3d331005... with 3687 until a point reflected
# twice through one center was taken as that point. script-mix read
# c68b4089... with 743 until half() drew the 6-circle midpoint in place of
# the paper's 18-circle chase, and oracle-fuzz read 10832 circles until the
# invert cases took their trace before the involution check's steps.
# script-mix read 2018ee90... with 647 circles and oracle-fuzz cf2bfdfd...
# with 10412 until line-line inverted about a seed of one line before any
# apex pole: other bits of each crossing, and fewer circles. oracle-fuzz
# read 489db3d4... with 10094 circles until add grew the operand of fewer
# circles and conj handed a point of line 01 back.
WORKLOAD_OUTPUTS = {
    "script-mix": ("4aae4ba673802bf0d363a6067fe6a0dbf0f09d9263128991fc05b737083a9cd5", 608),
    "oracle-fuzz": ("8f48234c2e8a2c479654e39c20d9f163fb8759ce403e3d7a7b037c0ab9de15df", 9746),
    "deep-witness": ("d2ff8aba59879284e74aed7ab314f71ff817dfd17bc8caf9d17068600f711c13", 3575),
}


def test_workload_outputs_stay_bit_identical(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ledger = importlib.import_module("ledger")
    workloads = importlib.import_module("workloads").WORKLOADS
    assert set(workloads) == set(WORKLOAD_OUTPUTS)
    for name, (digest, circles) in WORKLOAD_OUTPUTS.items():
        workload = workloads[name]()
        pool = workload.make_pool(20141011, 0.2)
        outcomes = [workload.check(item, workload.run(item)) for item in pool]
        assert [o.problem for o in outcomes if not o.ok] == [], name
        assert ledger.digest(outcomes) == digest, name
        assert sum(o.circles for o in outcomes) == circles, name
