"""Ring operations on constructible points, built by rewiring witnesses.

``build_add``, ``build_mul``, ``build_neg`` and ``build_conj`` are
constructions like any other: they grow the caller's builder and read its
seeds 0 and 1 as the numbers 0 and 1, so a point's value is ``relative``,
(p - z0) / (z1 - z0), and seeds within ``geom.EPS`` raise
``DegenerateCircle``. Multiplying by a replays b's witness
(``Builder.witness``) on (0, a); the orientation-based pick selectors
make that replay land on exactly the similarity image needed.
``build_add`` doubles, reflects 0 through the midpoint of a and b, or runs
the paper's double replay (a's witness on (1, 2) gives a + 1, b's on
(a, a + 1) a + b), by a rule on the operands' values and witness sizes.

``ConstructibleValue`` and its functions are the API edge: a value is its
witness resolved on the canonical seeds; an operation resumes a ``Builder``
on its left operand's rows, calls the ``build_*`` routine and carries the
result's witness (``Builder.witness``) as the new value. Sharing the steps
already there, witnesses grow linearly along chains of additions, not
exponentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import constructions as cons
from .errors import DegenerateCircle, MalformedProgram
from .geom import EPS, Point
# execute and rebase are unused here but stay importable: perfbench's tracer
# wraps them here.
from .program import (  # noqa: F401
    Builder,
    Program,
    Selector,
    Trace,
    empty_program,
    execute,
    rebase,
)

CANONICAL_SEEDS = (Point(0.0, 0.0), Point(1.0, 0.0))


# --- ring operations on a builder -------------------------------------------

def relative(b: Builder, node: int) -> complex:
    """The value of point ``node`` in the frame of the builder's seeds 0
    and 1, (p - z0) / (z1 - z0); bit-exact on the canonical seeds."""
    z0 = complex(b.xs[0], b.ys[0])
    unit = complex(b.xs[1], b.ys[1]) - z0
    if abs(unit) <= EPS:
        raise DegenerateCircle("seeds 0 and 1 coincide: no frame for field values")
    p = b.point(node)
    return (complex(p.x, p.y) - z0) / unit


def _size(v: complex) -> float:
    """|v| by math.hypot, as the routes always measured: abs() rounds apart."""
    return math.hypot(v.real, v.imag)


def build_mul(b: Builder, a: int, wb: Program) -> int:
    """a * b: replay b's witness ``wb`` on (0, a). A left factor at 0
    collapses that basis, and the product is seed 0."""
    if _size(relative(b, a)) <= EPS:
        return 0
    return b.inline(wb, (0, a))[0]


def build_neg(b: Builder, a: int, wa: Program) -> int:
    """-a, as the product (-1) * a, from a's node and witness ``wa``; -0 is
    seed 0, with nothing appended."""
    relative(b, a)  # raises where seeds 0 and 1 coincide
    if a == 0:
        return 0
    return build_mul(b, cons.build_extend(b, 1, 0), wa)


def build_add(b: Builder, a: int, wa: Program, wb: Program, vb: complex) -> int:
    """a + b, from a's node and witness ``wa`` and b's witness ``wb`` and
    value ``vb``, by one of three routes, with C a witness's circle count:

    - a == b, farther than EPS from 0: reflect 0 through a (4 circles);
    - |a - b| and |a + b| above EPS, C(a) > 7 and C(b) >= 1: place b's
      witness on (0, 1) beside a's, sharing their common steps, and reflect
      0 through the midpoint of a and b (at most C(b) + 11 circles);
    - otherwise the paper's double replay, re-running up to C(a) + 4
      circles: fewer when a is shallow or b is a bare seed.

    Seed 0 is the identity: 0 + b is b's witness on (0, 1), a + 0 is a,
    and neither appends a step the result does not use.
    """
    va = relative(b, a)
    if a == 0:
        return b.inline(wb, (0, 1))[0]
    if wb.outputs[0] == 0:
        return a
    if va == vb and _size(va) > EPS:
        return cons.build_extend(b, 0, a)
    if (wa.circle_count() > 7 and wb.circle_count() >= 1
            and _size(va - vb) > EPS and _size(va + vb) > EPS):
        b_node = b.inline(wb, (0, 1))[0]
        return cons.build_extend(b, 0, cons.build_midpoint(b, a, b_node))
    two = cons.build_extend(b, 0, 1)  # 2 = 2*1 - 0
    a_plus_1 = b.inline(wa, (1, two))[0]
    return b.inline(wb, (a, a_plus_1))[0]


def build_conj(b: Builder, a: int) -> int:
    """Complex conjugate: a's mirror image in line 01, where the circles
    centered 0 and 1 through a meet again (``build_reflect`` without its
    mark and rollback). On that line they touch, at a's own conjugate; at 0
    and 1 they would degenerate, and those fixed points return a itself."""
    v = relative(b, a)
    if _size(v) <= EPS or _size(v - 1.0) <= EPS:
        return a
    around_0, around_1 = b.circle(0, a), b.circle(1, a)
    image = b.pick_other(around_0, around_1, avoid=a)
    return b.pick(around_0, around_1, Selector.LEFT) if image is None else image


# --- values: the API edge ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class ConstructibleValue:
    """A constructible point carried with its two-seed witness ``trace``,
    resolved on the canonical seeds 0 and 1 as the builder that grew it
    resolved it; ``Builder.resume`` grows it further. Witnesses made by the
    ring operations hold only seeds and ancestors of the output."""

    trace: Trace

    @property
    def program(self) -> Program:
        return self.trace.program

    @property
    def primary_output(self) -> int:
        return self.trace.program.outputs[0]

    @property
    def value(self) -> Point:
        return self.trace.resolved[self.primary_output]


def value_from_program(program: Program) -> ConstructibleValue:
    """Wrap a two-seed witness, inlined on the canonical seeds and cut down
    to its output's ancestors; the only place a value's steps are resolved
    from scratch. Repeated rows are kept once, as ``inline`` hash-conses."""
    if program.seed_count != 2 or len(program.outputs) != 1:
        raise MalformedProgram("a constructible value needs 2 seeds and 1 output")
    b = Builder(CANONICAL_SEEDS)
    return ConstructibleValue(b.witness(b.inline(program, (0, 1))[0]))


def zero() -> ConstructibleValue:
    return value_from_program(empty_program(2, (0,)))


def one() -> ConstructibleValue:
    return value_from_program(empty_program(2, (1,)))


@lru_cache(maxsize=None)
def minus_one() -> ConstructibleValue:
    """-1, by reflecting seed 1 through seed 0. Built once and shared;
    values are immutable, and ``Builder.resume`` copies the trace's columns."""
    b = Builder(CANONICAL_SEEDS)
    return ConstructibleValue(b.witness(cons.build_extend(b, 1, 0)))


def alpha() -> ConstructibleValue:
    """(3 + i sqrt(15)) / 4: the upper cut of the circles centered -1 and 1
    with radii 2 and 1."""
    b = Builder(CANONICAL_SEEDS)
    big = b.circle(cons.build_extend(b, 1, 0), 1)  # centered -1
    small = b.circle(1, 0)
    return ConstructibleValue(b.witness(b.pick(big, small, Selector.LEFT)))


def mul(a: ConstructibleValue, b: ConstructibleValue) -> ConstructibleValue:
    """a * b (``build_mul``)."""
    builder = Builder.resume(a.trace)
    return ConstructibleValue(builder.witness(build_mul(builder, a.primary_output, b.program)))


def neg(a: ConstructibleValue) -> ConstructibleValue:
    """-a, as the product (-1) * a."""
    return mul(minus_one(), a)


def add(a: ConstructibleValue, b: ConstructibleValue) -> ConstructibleValue:
    """a + b (``build_add``): b's witness joins a's builder only if replayed."""
    builder, vb = Builder.resume(a.trace), b.value
    out = build_add(builder, a.primary_output, a.program, b.program, complex(vb.x, vb.y))
    return ConstructibleValue(builder.witness(out))


def conj(a: ConstructibleValue) -> ConstructibleValue:
    """The complex conjugate (``build_conj``)."""
    builder = Builder.resume(a.trace)
    out = build_conj(builder, a.primary_output)
    return a if out == a.primary_output else ConstructibleValue(builder.witness(out))


@lru_cache(maxsize=None)
def demo_half() -> ConstructibleValue:
    """1/2, the paper-chase: |alpha|^2 = 3/2 is constructible, so adding -1
    lands on 1/2. Two independent compass routes to the segment midpoint.
    Built once, like ``minus_one``."""
    al = alpha()
    return add(mul(al, conj(al)), neg(one()))
