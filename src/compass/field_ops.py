"""Ring operations on constructible points, built by rewiring witnesses.

``build_add``, ``build_mul``, ``build_neg`` and ``build_conj`` are
constructions like any other: they grow the caller's builder and read its
seeds 0 and 1 as the numbers 0 and 1, so a point's value is ``relative``,
(p - z0) / (z1 - z0), and seeds within ``geom.EPS`` raise
``DegenerateCircle``. Multiplying by a replays b's witness
(``Builder.witness``) on (0, a); the orientation-based pick selectors make
that replay land on exactly the similarity image needed. Negating and
conjugating replay nothing: -a is a reflected through 0, and conj(a) a's
mirror image in line 01, or a itself, drawing nothing, for a point of that
line; a point whose mirror circles only touch raises ``OnMirrorLine``.
``build_add`` doubles, reflects 0 through the midpoint of a and b, or runs
the paper's double replay (a's witness on (1, 2) gives a + 1, b's on (a,
a + 1) a + b), by a rule on the operands' values and witness sizes.
The double replay holds a's witness twice, so ``add`` takes for a the
operand whose witness has fewer circles.
In -1 + 1 and 1 + (-1) that replay reflects 0 through 1 to 2 and back,
which the builder takes as 0 itself (a point reflected twice through one
center is that point), so the sum is seed 0, where it was a point within
an ulp or so of it. Likewise -(-a) is a's own node, unless a is a pick of a
circle K about seed 0 through another point, as the apex of 0 and 1 is of
C(0; 1): the circle rule takes K for C(0; a), the double-reflection rule
finds no circle about 0 drawn through a, and -(-a) is a new node within an
ulp or so of a.

``ConstructibleValue`` and its functions are the API edge: a value is its
witness resolved on the canonical seeds, the ``Builder.witness`` of a node
grown on a ``Builder(CANONICAL_SEEDS)`` (defined in ``constructions``, whose
canonical programs start from them); ``zero`` and ``one`` are those of its
seeds. Each operation resumes a ``Builder`` on one operand's rows (the
left factor of a product, the operand of fewer circles of a sum), calls
the ``build_*`` routine and carries the result's witness as the new
value. Sharing the steps already there, witnesses grow linearly along
chains of additions, not exponentially. A witness that keeps every step of
its builder also keeps a copy of the builder's hash-cons table, so
resuming it copies that table instead of rebuilding it row by row.

The atoms ``zero``, ``one``, ``minus_one`` and ``alpha`` are built once
(``functools.lru_cache``) and the same object is handed to every caller.
Sharing them is safe: a value is an immutable record (a named tuple
of a ``Trace``, whose columns are tuples), and ``Builder.resume`` copies
those columns into the lists it grows, and the kept table into a dict of
its own, so no operation changes an operand.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from . import constructions as cons
from .constructions import CANONICAL_SEEDS
from .errors import DegenerateCircle, InvalidNodeId
from .geom import EPS, Point
# execute and rebase are unused here but stay importable: perfbench's tracer
# wraps them here.
from .program import (  # noqa: F401
    OP_CIRCLE,
    Builder,
    Program,
    Selector,
    execute,
    rebase,
)


# --- ring operations on a builder -------------------------------------------

def relative(b: Builder, node: int) -> complex:
    """The value of point ``node`` in the frame of seeds 0 and 1,
    (p - z0) / (z1 - z0), read off the builder's ``xs`` and ``ys`` columns;
    bit-exact on the canonical seeds. Raises InvalidNodeId on a builder
    with fewer than two seeds, and ``Builder.point``'s error on a node that
    is not a point of the builder."""
    if b.seed_count < 2:
        raise InvalidNodeId("field values need seeds 0 and 1")
    xs, ys = b.xs, b.ys
    z0 = complex(xs[0], ys[0])
    unit = complex(xs[1], ys[1]) - z0
    if abs(unit) <= EPS:
        raise DegenerateCircle("seeds 0 and 1 coincide: no frame for field values")
    return (complex(*b.point(node)) - z0) / unit


def _size(v: complex) -> float:
    """|v| by math.hypot, as the routes always measured: abs() rounds apart."""
    return math.hypot(v.real, v.imag)


def _at_zero(b: Builder, a: int) -> bool:
    """Whether point ``a`` lies within EPS of seed 0, in the seeds' frame."""
    return _size(relative(b, a)) <= EPS


def build_mul(b: Builder, a: int, wb: Program) -> int:
    """a * b: replay b's witness ``wb`` on (0, a). A left factor at 0
    collapses that basis, and the product is seed 0."""
    return 0 if _at_zero(b, a) else b.inline(wb, (0, a))[0]


def build_neg(b: Builder, a: int) -> int:
    """-a = 2*0 - a: a reflected through seed 0 (``build_extend``, 3
    circles). An a within EPS of 0 is seed 0, with nothing appended: its
    reflection would draw a circle through its own center."""
    return 0 if _at_zero(b, a) else cons.build_extend(b, a, 0)


def build_add(b: Builder, a: int, wa: Program, wb: Program, vb: complex) -> int:
    """a + b, from a's node and witness ``wa`` and b's witness ``wb`` and
    value ``vb``, by one of three routes, with C a witness's circle count
    (``add`` passes the operand of fewer circles as a, unless that is a
    bare seed):

    - a == b, farther than EPS from 0: reflect 0 through a (3 circles);
    - |a - b| and |a + b| above EPS, C(a) > 7 and C(b) >= 1: place b's
      witness on (0, 1) beside a's, sharing their common steps, and reflect
      0 through the midpoint of a and b (at most C(b) + 9 circles);
    - otherwise the paper's double replay, re-running up to C(a) + 3
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
    """Complex conjugate: a's mirror image in line 01, ``build_reflect`` of
    a in the line through seeds 0 and 1. A point of line 01, its value
    within EPS of the real axis in the seeds' frame, is its own conjugate:
    a itself, with nothing drawn. The mirror circles' tangency gap is
    second order in a's distance h from the line, so they can touch for an
    h far above EPS, on seeds 1 apart too (a = 0.5 + 3e-7i): there is no
    mirror image to pick, and ``build_reflect`` raises ``OnMirrorLine``,
    appending nothing."""
    if abs(relative(b, a).imag) <= EPS:
        return a
    return cons.build_reflect(b, 0, 1, a)


# --- values: the API edge ----------------------------------------------------

class ConstructibleValue(namedtuple("ConstructibleValue", "trace")):
    """A constructible point carried with its two-seed witness ``trace``,
    resolved on the canonical seeds 0 and 1 as the builder that grew it
    resolved it; ``Builder.resume`` grows it further. Witnesses made by the
    ring operations hold only seeds and ancestors of the output. A named
    tuple: values with equal traces are equal."""

    __slots__ = ()

    @property
    def program(self) -> Program:
        return self.trace.program

    @property
    def primary_output(self) -> int:
        return self.trace.program.outputs[0]

    @property
    def value(self) -> Point:
        trace = self.trace
        out, resolved = trace.program.outputs[0], trace.resolved
        return Point(resolved.xs[out], resolved.ys[out])


@lru_cache(maxsize=None)
def zero() -> ConstructibleValue:
    """0, seed 0's witness; built once, like every atom."""
    return ConstructibleValue(Builder(CANONICAL_SEEDS).witness(0))


@lru_cache(maxsize=None)
def one() -> ConstructibleValue:
    """1, seed 1's witness; built once, like every atom."""
    return ConstructibleValue(Builder(CANONICAL_SEEDS).witness(1))


@lru_cache(maxsize=None)
def minus_one() -> ConstructibleValue:
    """-1 (``neg(one())``); built once, like every atom."""
    return neg(one())


@lru_cache(maxsize=None)
def alpha() -> ConstructibleValue:
    """(3 + i sqrt(15)) / 4: the upper cut of the circles centered -1 and 1
    with radii 2 and 1; built once, like every atom."""
    b = Builder(CANONICAL_SEEDS)
    big = b.circle(cons.build_extend(b, 1, 0), 1)  # centered -1
    small = b.circle(1, 0)
    return ConstructibleValue(b.witness(b.pick(big, small, Selector.LEFT)))


def _grow(a: ConstructibleValue, build, *args) -> ConstructibleValue:
    """Resume a's builder, run ``build`` at a's output, and carry the
    result's witness; a itself where the result is a's own output."""
    builder = Builder.resume(a.trace)
    out = build(builder, a.primary_output, *args)
    return a if out == a.primary_output else ConstructibleValue(builder.witness(out))


def mul(a: ConstructibleValue, b: ConstructibleValue) -> ConstructibleValue:
    """a * b (``build_mul``)."""
    return _grow(a, build_mul, b.program)


def neg(a: ConstructibleValue) -> ConstructibleValue:
    """-a (``build_neg``)."""
    return _grow(a, build_neg)


def _tie_key(v: ConstructibleValue) -> tuple:
    """How ``add`` orders operands of equal circle counts: by value (x,
    then y), then by witness rows, which tell apart two witnesses of one
    value."""
    w = v.program
    return v.value, w.ops, w.first, w.second


def add(a: ConstructibleValue, b: ConstructibleValue) -> ConstructibleValue:
    """a + b (``build_add``), grown on the builder of the operand whose
    witness has fewer circles, as the double replay runs that witness
    twice; the other's witness joins it only if replayed. A bare seed stays
    on the right, where it is the identity or replays in no circle, and
    equal counts go by ``_tie_key``, so the order is a function of the
    unordered pair: ``add(a, b) == add(b, a)``."""
    wa, wb = a.program, b.program
    if a is not b:
        cb = wb.circle_count()
        if cb:
            ca = wa.circle_count()
            swap = ca == 0 or cb < ca or (ca == cb and _tie_key(b) < _tie_key(a))
        else:  # b is a bare seed: only whether a is one too matters, and
            # a + 1 reads a's rows up to its first circle, not all of them
            swap = OP_CIRCLE not in wa.ops and _tie_key(b) < _tie_key(a)
        if swap:
            a, b, wa, wb = b, a, wb, wa
    return _grow(a, build_add, wa, wb, complex(*b.value))


def conj(a: ConstructibleValue) -> ConstructibleValue:
    """The complex conjugate (``build_conj``)."""
    return _grow(a, build_conj)
