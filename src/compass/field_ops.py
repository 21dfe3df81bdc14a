"""Ring operations on constructible points, built by rewiring witnesses.

A constructible value is not a coordinate pair: it is a two-seed program
(the witness that the point can be reached from 0 and 1 by compass alone)
together with the node holding the result. Negation, addition,
multiplication and conjugation operate on the witnesses. Multiplying by a
means replaying b's witness with (0, a) as its starting points; addition
replays a's witness on (1, 2) to get a+1 and then b's on (a, a+1). The
orientation-based pick selectors make those replays land on exactly the
similarity images the argument needs.

Each operation resumes a ``Builder`` from the trace its left operand
already carries and inlines the replays into it, so no earlier step is
resolved twice; the value is read from the builder. A final ``compact``
keeps only the seeds and the ancestors of the result, so a witness holds
live steps only and its size tracks the work the value needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constructions import extend_program
from .errors import MalformedProgram
from .geom import DEFAULT_TOL, Point, Tolerance
from .program import (
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
    1, as the builder that grew it resolved it; ``value`` is read from it.
    Witnesses made by the ring operations hold live steps only: every step
    is a seed or an ancestor of the output. ``collapsed`` marks a product
    that was short-circuited because its left factor resolved to zero (the
    replay basis would have collapsed).
    """

    trace: Trace
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


def _make(program: Program, tol: Tolerance) -> ConstructibleValue:
    """Resolve a bare witness program; the only place values are executed."""
    if program.seed_count != 2 or len(program.outputs) != 1:
        raise MalformedProgram("a constructible value needs 2 seeds and 1 output")
    return ConstructibleValue(compact(execute(program, CANONICAL_SEEDS, tol)))


def _finish(builder: Builder, out: int) -> ConstructibleValue:
    return ConstructibleValue(compact(builder.finish([out])[1]))


def value_from_program(program: Program,
                       tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """Wrap a two-seed witness, executing it on the canonical seeds and
    keeping its live steps only."""
    return _make(program, tol)


def zero(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    return _make(empty_program(2, (0,)), tol)


def one(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    return _make(empty_program(2, (1,)), tol)


def minus_one(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """-1, by reflecting seed 1 through seed 0."""
    guest = extend_program()
    return _make(rebase(empty_program(2), guest, (1, 0)), tol)


def alpha(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """(3 + i sqrt(15)) / 4: the upper cut of the circles centered -1 and 1
    with radii 2 and 1."""
    b = Builder(CANONICAL_SEEDS, tol)
    m1 = b.inline(extend_program(), (1, 0))[0]
    big = b.circle(m1, 1)
    small = b.circle(1, 0)
    return _finish(b, b.pick(big, small, Selector.LEFT))


def mul(a: ConstructibleValue, b: ConstructibleValue,
        tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """a * b: replay b's witness treating (0, a) as its starting points.

    A left factor at zero collapses the replay basis, so the product
    short-circuits to the zero seed and is flagged.
    """
    if math.hypot(a.value.x, a.value.y) <= tol.eps_degenerate:
        return ConstructibleValue(zero(tol).trace, collapsed=True)
    builder = Builder.resume(a.trace, tol)
    out = builder.inline(b.program, (0, a.primary_output))[0]
    return _finish(builder, out)


def neg(a: ConstructibleValue, tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """-a, as the product (-1) * a."""
    return mul(minus_one(tol), a, tol)


def add(a: ConstructibleValue, b: ConstructibleValue,
        tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """a + b by the double replay: build 2, replay a's witness on (1, 2)
    to construct a + 1, then replay b's witness on (a, a + 1)."""
    builder = Builder.resume(a.trace, tol)
    two = builder.inline(extend_program(), (0, 1))[0]  # 2 = 2*1 - 0
    a_plus_1 = builder.inline(a.program, (1, two))[0]
    out = builder.inline(b.program, (a.primary_output, a_plus_1))[0]
    return _finish(builder, out)


def conj(a: ConstructibleValue, tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """Complex conjugate: cut the circles centered 0 and 1 through a and
    take the point that is not a. On the real axis the circles are tangent
    at a and the value is its own conjugate; at 0 and 1 the circles would
    degenerate, so those fixed points return ``a`` itself."""
    eps = tol.eps_degenerate
    v = a.value
    if math.hypot(v.x, v.y) <= eps or math.hypot(v.x - 1.0, v.y) <= eps:
        return a
    builder = Builder.resume(a.trace, tol)
    a_node = a.primary_output
    c0 = builder.circle(0, a_node)
    c1 = builder.circle(1, a_node)
    return _finish(builder, builder.pick_other(c0, c1, avoid=a_node))


def demo_half(tol: Tolerance = DEFAULT_TOL) -> ConstructibleValue:
    """1/2, the paper-chase: |alpha|^2 = 3/2 is constructible, so adding -1
    lands on 1/2. Two independent compass routes to the segment midpoint."""
    al = alpha(tol)
    return add(mul(al, conj(al, tol), tol), neg(one(tol), tol), tol)
