"""Ring operations on constructible points, built by rewiring witnesses.

A constructible value is not a coordinate pair: it is a two-seed program
(the witness that the point can be reached from 0 and 1 by compass alone)
together with the node holding the result. Multiplying by a replays b's
witness with (0, a) as its starting points; the orientation-based pick
selectors make that replay land on exactly the similarity image needed.

``add`` doubles, reflects 0 through the midpoint of a and b, or runs the
paper's double replay (a's witness on (1, 2) gives a + 1, b's on (a, a + 1)
a + b), by a rule on the operands' values and witness sizes alone.

Each operation resumes a ``Builder`` from the trace and hash-cons table of
its left operand and inlines into it, sharing every step already there, so
no step is resolved twice and witnesses grow linearly along chains of
additions (the double replay alone grows them exponentially). A final
``compact`` keeps only the seeds and the ancestors of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import constructions as cons
from .errors import MalformedProgram
from .geom import DEFAULT_TOL, Point, Tolerance
# rebase is unused here but stays importable: perfbench's tracer wraps it here.
from .program import (  # noqa: F401
    Builder,
    Program,
    Selector,
    Trace,
    compact,
    empty_program,
    execute,
    rebase,
)

CANONICAL_SEEDS = (Point(0.0, 0.0), Point(1.0, 0.0))


@dataclass(frozen=True, slots=True)
class ConstructibleValue:
    """A constructible point carried with its resolved two-seed witness.

    ``trace`` is the witness program resolved on the canonical seeds 0 and
    1, as the builder that grew it resolved it; ``value`` is read from it,
    and ``table`` is its hash-cons table, for ``Builder.resume``. Witnesses
    made by the ring operations hold live steps only: every step is a seed
    or an ancestor of the output. ``collapsed`` marks a product that was
    short-circuited because its left factor resolved to zero.
    """

    trace: Trace
    table: dict = field(compare=False, repr=False)
    collapsed: bool = False

    @property
    def program(self) -> Program:
        return self.trace.program

    @property
    def primary_output(self) -> int:
        return self.trace.program.outputs[0]

    @property
    def value(self) -> Point:
        return self.trace.resolved[self.primary_output]


def _finish(builder: Builder, out: int) -> ConstructibleValue:
    return ConstructibleValue(*compact(builder.finish([out])[1], builder.table))


def value_from_program(program: Program,
                       tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """Wrap a two-seed witness, executing it on the canonical seeds and
    keeping its live steps only; the only place values are executed."""
    if program.seed_count != 2 or len(program.outputs) != 1:
        raise MalformedProgram("a constructible value needs 2 seeds and 1 output")
    return ConstructibleValue(*compact(execute(program, CANONICAL_SEEDS, tol)))


def zero(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    return value_from_program(empty_program(2, (0,)), tol)


def one(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    return value_from_program(empty_program(2, (1,)), tol)


@lru_cache(maxsize=16)
def minus_one(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """-1, by reflecting seed 1 through seed 0. Built once per tolerance and
    shared, so its table is only ever copied (``Builder.resume`` does)."""
    b = Builder(CANONICAL_SEEDS, tol)
    return _finish(b, cons.build_extend(b, 1, 0))


def alpha(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """(3 + i sqrt(15)) / 4: the upper cut of the circles centered -1 and 1
    with radii 2 and 1."""
    b = Builder(CANONICAL_SEEDS, tol)
    big = b.circle(cons.build_extend(b, 1, 0), 1)  # centered -1
    small = b.circle(1, 0)
    return _finish(b, b.pick(big, small, Selector.LEFT))


def mul(a: ConstructibleValue, b: ConstructibleValue,
        tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """a * b: replay b's witness treating (0, a) as its starting points.

    A left factor at zero collapses the replay basis, so the product
    short-circuits to the zero seed and is flagged.
    """
    if math.hypot(a.value.x, a.value.y) <= tol.eps_degenerate:
        return replace(zero(tol), collapsed=True)
    builder = Builder.resume(a.trace, a.table, tol)
    out = builder.inline(b.program, (0, a.primary_output))[0]
    return _finish(builder, out)


def neg(a: ConstructibleValue, tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """-a, as the product (-1) * a."""
    return mul(minus_one(tol), a, tol)


def add(a: ConstructibleValue, b: ConstructibleValue,
        tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """a + b by one of three routes, with C a witness's circle count:

    - a == b, farther than eps from 0: reflect 0 through a (4 circles);
    - |a - b| and |a + b| above eps, C(a) > 7 and C(b) >= 1: inline b's
      witness on (0, 1) beside a's, sharing their common steps, and reflect
      0 through the midpoint of a and b (at most C(b) + 11 circles);
    - otherwise the paper's double replay, re-running up to C(a) + 4
      circles: fewer when a is shallow or b is a bare seed.
    """
    eps = tol.eps_degenerate
    va, vb = a.value, b.value
    builder = Builder.resume(a.trace, a.table, tol)
    a_node = a.primary_output
    if va == vb and math.hypot(va.x, va.y) > eps:
        return _finish(builder, cons.build_extend(builder, 0, a_node))
    if (a.trace.circle_count > 7 and b.trace.circle_count >= 1
            and math.hypot(va.x - vb.x, va.y - vb.y) > eps
            and math.hypot(va.x + vb.x, va.y + vb.y) > eps):
        b_node = builder.inline(b.program, (0, 1))[0]
        return _finish(builder, cons.build_extend(
            builder, 0, cons.build_midpoint(builder, a_node, b_node)))
    two = cons.build_extend(builder, 0, 1)  # 2 = 2*1 - 0
    a_plus_1 = builder.inline(a.program, (1, two))[0]
    return _finish(builder, builder.inline(b.program, (a_node, a_plus_1))[0])


def conj(a: ConstructibleValue, tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """Complex conjugate: cut the circles centered 0 and 1 through a and
    take the point that is not a. On the real axis the circles are tangent
    at a and the value is its own conjugate; at 0 and 1 the circles would
    degenerate, so those fixed points return ``a`` itself."""
    eps = tol.eps_degenerate
    v = a.value
    if math.hypot(v.x, v.y) <= eps or math.hypot(v.x - 1.0, v.y) <= eps:
        return a
    builder = Builder.resume(a.trace, a.table, tol)
    a_node = a.primary_output
    c0 = builder.circle(0, a_node)
    c1 = builder.circle(1, a_node)
    return _finish(builder, builder.pick_other(c0, c1, avoid=a_node))


def demo_half(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """1/2, the paper-chase: |alpha|^2 = 3/2 is constructible, so adding -1
    lands on 1/2. Two independent compass routes to the segment midpoint."""
    al = alpha(tol)
    return add(mul(al, conj(al, tol), tol), neg(one(tol), tol), tol)
