"""Exact step budgets: (steps, circles, picks) of the canonical programs and
of every demo, upper bounds on every core's counts on the benchmark
ledger's fixed inputs, bounds on the mean circles of the line routines
over fuzz draws, and the exact outputs and circles of every benchmark
workload's smallest pool. The counts are deterministic and
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
    "conjugate": (14, 7, 5),
    "extend": (12, 4, 6),
    "half": (39, 19, 18),
    "invert": (10, 4, 3),
    "line-circle": (14, 6, 4),
    "line-circle-diameter": (27, 13, 11),
    "line-line": (35, 18, 13),
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
# to r/2 takes line-line to 18.3, and invert from 11.6 to 7.6
FUZZ_MEAN_CIRCLES = {"invert": 8.0, "line-circle-diameter": 12.0, "line-line": 18.5}


@pytest.mark.parametrize("op", sorted(FUZZ_MEAN_CIRCLES))
def test_fuzz_mean_circles(op, monkeypatch):
    circles = []
    monkeypatch.setattr(fuzz, "purity_audit",
                        lambda trace: circles.append(trace.circle_count))
    assert fuzz.run_op(op, 600, 42).failures == 0
    assert len(circles) == 600
    assert sum(circles) / len(circles) <= FUZZ_MEAN_CIRCLES[op]


# ring-operation calls (field_ops add, mul, conj and neg) of one
# ``fuzz.run_op("mul", 120, 42)``, the atoms built: 427 while every draw
# built its value afresh; 327 with each one-op value built once per call
FUZZ_MUL_RING_CALLS = 327


def test_fuzz_builds_each_one_op_value_once_per_call(monkeypatch):
    fuzz._atoms()  # built once per process: before the count, not in either call
    depths = []  # the depths of the draws under way
    calls = []  # per ring-operation call, whether a depth-1 draw made it
    draw = fuzz._ValuePool.draw

    def traced_draw(pool, rng, depth):
        depths.append(depth)
        try:
            return draw(pool, rng, depth)
        finally:
            depths.pop()

    def counted(op):
        def call(*operands):
            calls.append(depths[-1:] == [1])  # made by a depth-1 draw
            return op(*operands)
        return call

    monkeypatch.setattr(fuzz._ValuePool, "draw", traced_draw)
    for name in ("add", "mul", "conj", "neg"):
        monkeypatch.setattr(field_ops, name, counted(getattr(field_ops, name)))
    totals = []
    for _ in range(2):  # nothing carries from one call to the next
        calls.clear()
        assert fuzz.run_op("mul", 120, 42).failures == 0
        totals.append((len(calls), sum(calls)))
    assert totals[0] == totals[1]
    total, one_op = totals[0]
    assert total <= FUZZ_MUL_RING_CALLS
    assert one_op <= 2 * 5 * 5 + 2 * 5  # each of the 60 one-op values at most once


# op: (``_doublings`` calls, ``Builder.inline`` calls, ``program.cut`` calls)
# of one warm ``fuzz.run_op(op, 120, 42)``, the canonical programs already
# cached. Scoring line-line's poles all before the first was tried, and
# inlining the empty ``nth_point_program(1)`` around each inversion that
# takes no doubling, read (4680, 720, 1224), (160, 320, 576) and
# (96, 120, 975). Scoring poles only until one predicts no doubling, and
# inlining nothing where an inversion or the arc bisection takes none, gives
# the values below. The cuts are the arithmetic, which must not change; the
# rest may only fall.
FUZZ_ROUTE_CALLS = {
    "line-line": (1215, 12, 1224),
    "invert": (160, 92, 576),
    "line-circle-diameter": (96, 24, 975),
}


@pytest.mark.parametrize("op", sorted(FUZZ_ROUTE_CALLS))
def test_fuzz_route_calls(op, monkeypatch):
    tally = {}

    def counted(name, f):
        def call(*args):
            tally[name] += 1
            return f(*args)
        return call

    assert fuzz.run_op(op, 120, 42).failures == 0  # fills the program caches
    monkeypatch.setattr(constructions, "_doublings",
                        counted("doublings", constructions._doublings))
    monkeypatch.setattr(program.Builder, "inline", counted("inline", program.Builder.inline))
    monkeypatch.setattr(program, "cut", counted("cut", program.cut))
    totals = []
    for _ in range(2):  # nothing carries from one call to the next
        tally.update(doublings=0, inline=0, cut=0)
        assert fuzz.run_op(op, 120, 42).failures == 0
        totals.append((tally["doublings"], tally["inline"], tally["cut"]))
    assert totals[0] == totals[1]
    doublings, inlines, cuts = totals[0]
    most_doublings, most_inlines, parent_cuts = FUZZ_ROUTE_CALLS[op]
    assert cuts == parent_cuts
    assert doublings <= most_doublings and inlines <= most_inlines


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
    "line_line": (35, 18, 13),
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
# as its ledger records them: the bits of every output the benchmark checks
WORKLOAD_OUTPUTS = {
    "script-mix": ("4284956c469b983294b29270e14c55eebb928f0c3ecec6207730188d7e9680f6", 772),
    "oracle-fuzz": ("c7b029f515172322a9abd587d0efeb1885946fa87f6090319e06e708a32c52ad", 12658),
    "deep-witness": ("4f6820c51df6bd30f6c245912955ea7594ad0a29af3d97ec5a8212dcca703a38", 3919),
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
