"""Compass constructions as replayable programs.

A construction is data: a topologically ordered list of steps over seed
slots, where a step either introduces a seed point, draws a circle through
two earlier points, or picks one of the two intersection points of two
earlier circles. Because constructions are values they can be executed on
any seeds, inlined into other programs with their seeds rewired (the
"repeat the construction on new starting points" move), counted, serialized
and audited.

The left/right pick selector is orientation-based: "left" is the
intersection point p with cross(c2 - c1, p - c1) > 0, for circle centers
c1 and c2, as ``geom.cut`` defines it.
Orientation is preserved by every orientation-preserving similarity, which
is exactly what makes rewired programs land on the similarity image of
their original outputs.

Storage is columnar. A step is its row ``(op, first, second)``: the op is
``OP_SEED`` (first is the slot, second -1), ``OP_CIRCLE`` (center, through)
or ``OP_LEFT``/``OP_RIGHT`` (the two circles: the selector is part of the
op). A ``Program`` is those three int columns plus the outputs, and has
no other view of its rows: ``Program.steps`` is the range of its step ids,
and step ``i`` is ``(ops[i], first[i], second[i])``. A ``Trace`` is
its program plus float columns x, y and radius (``None`` for a point); its
seed values and circle count are derived.

A ``Program`` or ``Trace`` is valid by construction: its constructor, which
``copy``, ``pickle`` and ``dataclasses.replace`` go through too, is the one
rulebook of what it is, and raises the typed error, naming the field, step
or output, for a column entry of the wrong type or any other broken rule.
A trace's numbers are finite, by the one finiteness test ``_nonfinite``,
which the seeds and ``tracedoc.loads`` read too, and each circle is its
center and ``geom.radius`` of its two nodes, as every builder draws it.
So no consumer checks a record again. The engine's own builds skip the
passes they cannot fail: traces through ``_built``, and a ``Builder``'s
columns through ``Program._grown``, which checks only the outputs (a
``Builder`` refuses a seed that is not a pair of ints or floats, and a node
that is not an int). ``Builder._step``, the one code that resolves and
appends a builder's step, and ``execute``'s loop read and append numbers
only: a pick keeps the left or the right half of ``geom.cut``'s ``(lx, ly,
rx, ry)``, and only maps its other verdicts to errors. Each reads its last
cut again instead of cutting that circle pair twice in a row, so
``geom.cut`` is still the only intersection arithmetic. A builder takes a
step the rows already hold under another row as that node, by the rules of
``_drawn`` only; ``execute`` takes every row as it is, and
``replay.compile`` unrolls its loop: the same bits and errors.
``Builder.witness`` is the one way to cut a point's ancestors out as a
trace of their own. Value objects (``Point``, ``ResolvedCircle``) exist
only at the API edge: ``Trace.resolved`` is the one view of them, equal by
its columns. ``AuditReport`` and ``geom``'s values are named tuples;
``Program``, ``Trace`` and ``Resolved`` are ``record.Record`` classes.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import accumulate, compress, islice
from operator import itemgetter

from .errors import (
    CoincidentCircles,
    CompassError,
    DegenerateCircle,
    InvalidNodeId,
    MalformedProgram,
    MalformedTrace,
    NoSuchIntersection,
    NonFiniteInput,
)
# circle_from and circle_circle_intersect stay importable from this module:
# perfbench's tracer wraps them here.
from .geom import (  # noqa: F401
    CUT_COINCIDENT,
    CUT_OVERFLOW,
    Point,
    ResolvedCircle,
    circle_circle_intersect,
    circle_from,
    cut,
    radius,
)
from .record import Record


class Selector(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


# Module-level names: looking an enum member up through its class costs
# several times the rest of a selector test.
_LEFT, _RIGHT = Selector.LEFT, Selector.RIGHT

OP_SEED, OP_CIRCLE, OP_LEFT, OP_RIGHT = range(4)
SELECTOR_NAMES = {OP_LEFT: _LEFT.value, OP_RIGHT: _RIGHT.value}  # as traces and SVG write them
_INT, _NUMBER, _RADIUS = {int}, {int, float}, {int, float, type(None)}  # column types
_NO_CUT = (-1, -1, None)  # ``Builder._last`` before any cut: no node is -1


def _mistyped(column: Sequence, types: set) -> int | None:
    """The index of the first entry whose type is not in ``types`` (a bool
    is not an int), or None: one C-level pass when there is none."""
    if set(map(type, column)) <= types:
        return None
    return next(i for i, v in enumerate(column) if type(v) not in types)


def _nonfinite(column: Sequence) -> int | None:
    """The index of the first NaN, ±inf or int past the float range (None,
    a point's radius, passes), or None: one C-level pass when there is none."""
    try:
        if all(map(math.isfinite, filter(None, column))):  # None and zeros dropped
            return None
    except OverflowError:  # an int past the float range
        pass
    return next(i for i, v in enumerate(column) if v and not abs(v) <= sys.float_info.max)


class Resolved(Record, Sequence):
    """The resolved value of every step, as ``Point`` or ``ResolvedCircle``,
    over the float columns ``xs``, ``ys`` and ``rs`` (``None`` for a point):
    ``len`` is O(1), an index builds one value, a slice gives a tuple. A
    ``Record`` of its columns that prints as the tuple of its values; its
    own ``__init__``, unrolled for the engine's builds, takes keywords too."""

    _fields = ("xs", "ys", "rs")
    __slots__ = _fields

    def __init__(self, xs: tuple, ys: tuple, rs: tuple):
        init = object.__setattr__
        init(self, "xs", xs)
        init(self, "ys", ys)
        init(self, "rs", rs)

    @classmethod
    def of_values(cls, values) -> Resolved:
        """Encode points and circles as they are, whatever step they stand for."""
        rows = []
        for i, v in enumerate(values):
            if type(v) is Point:
                rows.append((v.x, v.y, None))
            elif type(v) is ResolvedCircle:
                rows.append((v.center.x, v.center.y, v.radius))
            else:
                raise MalformedTrace(f"step {i}: {v!r} is not a point or a circle")
        return cls(*zip(*rows)) if rows else cls((), (), ())

    def __len__(self) -> int:
        return len(self.rs)

    def _at(self, i: int) -> Point | ResolvedCircle:
        r = self.rs[i]
        if r is None:
            return Point(self.xs[i], self.ys[i])
        return ResolvedCircle(Point(self.xs[i], self.ys[i]), r)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._at, range(len(self))[i]))
        return self._at(range(len(self))[i])

    def __repr__(self) -> str:
        return repr(tuple(self))


class Program(Record):
    """An executable compass construction over ``seed_count`` seed slots:
    the int columns ``ops``, ``first`` and ``second``, and the outputs.
    Valid by construction: the constructor is the one rulebook. Its private
    ``_compiled``, kept as ``Trace._kept`` is, is ``replay.compile``'s or None."""

    _fields = ("seed_count", "ops", "first", "second", "outputs")
    __slots__ = (*_fields, "_compiled")

    def __init__(self, seed_count: int, ops: tuple[int, ...], first: tuple[int, ...],
                 second: tuple[int, ...], outputs: tuple[int, ...]):
        """Raise MalformedProgram, naming the field, step or output, unless
        each column is a sequence, the seed count a non-negative int, every
        column entry an int, the seeds first in slot order, each the row
        ``(OP_SEED, slot, -1)`` (a trace document keeps no other seed
        operand), every other step a circle over two distinct earlier point
        steps or a pick of two distinct earlier circle steps, and every output a
        point step."""
        Record.__init__(self, seed_count, ops, first, second, outputs)
        object.__setattr__(self, "_compiled", None)
        for key in ("ops", "first", "second", "outputs"):
            if not isinstance(getattr(self, key), Sequence):
                raise MalformedProgram(f"{key!r} must be a sequence")
        count = len(ops)
        if not len(first) == len(second) == count:
            raise MalformedProgram("the op and operand columns differ in length")
        if type(seed_count) is not int:
            raise MalformedProgram("'seed_count' must be an integer")
        if seed_count < 0:
            raise MalformedProgram(f"'seed_count' {seed_count} is negative")
        for key, column in (("op", ops), ("first", first), ("second", second)):
            i = _mistyped(column, _INT)
            if i is not None:
                what = f"unknown op {ops[i]!r}" if key == "op" else f"{key!r} must be an integer"
                raise MalformedProgram(f"step {i}: {what}")
        for i in range(seed_count):
            if i >= count or ops[i] != OP_SEED or first[i] != i or second[i] != -1:
                raise MalformedProgram(
                    f"step {i}: expected Seed(slot={i}) before all other steps")
        for i in range(seed_count, count):
            op, u, v = ops[i], first[i], second[i]
            if op == OP_SEED:
                raise MalformedProgram(f"step {i}: misplaced seed")
            if op not in (OP_CIRCLE, OP_LEFT, OP_RIGHT):
                raise MalformedProgram(f"step {i}: unknown op {op!r}")
            if not (0 <= u < i and 0 <= v < i):
                raise MalformedProgram(f"step {i}: reference outside [0, {i})")
            if op == OP_CIRCLE and OP_CIRCLE in (ops[u], ops[v]):
                raise MalformedProgram(f"step {i}: circle over non-point nodes")
            if op != OP_CIRCLE and not ops[u] == ops[v] == OP_CIRCLE:
                raise MalformedProgram(f"step {i}: pick over non-circle nodes")
            if u == v:
                what = ("circle through its own center" if op == OP_CIRCLE
                        else "pick of a circle with itself")
                raise MalformedProgram(f"step {i}: {what}")
        self._check_outputs()

    @classmethod
    def _grown(cls, seed_count, ops, first, second, outputs) -> Program:
        """The program of the columns a ``Builder`` grew, each step well
        formed as it was appended: only the outputs, the caller's nodes,
        are checked."""
        program = cls.__new__(cls)
        init = object.__setattr__  # field by field: builders hand programs over often
        init(program, "seed_count", seed_count)
        init(program, "ops", ops)
        init(program, "first", first)
        init(program, "second", second)
        init(program, "outputs", outputs)
        init(program, "_compiled", None)
        program._check_outputs()
        return program

    def _check_outputs(self) -> None:
        """The output rule of the constructor."""
        ops = self.ops
        for k, out in enumerate(self.outputs):
            if type(out) is not int:
                raise MalformedProgram(f"output {k}: 'outputs' must be an integer")
            if not 0 <= out < len(ops):
                raise MalformedProgram(f"output {k}: id {out} outside the {len(ops)} steps")
            if ops[out] == OP_CIRCLE:
                raise MalformedProgram(f"output {k}: id {out} is not a point node")

    @property
    def steps(self) -> range:
        """The step ids: step ``i`` is the row ``(ops[i], first[i],
        second[i])``. Kept for perfbench, which counts steps as ``len(p.steps)``."""
        return range(len(self.ops))

    def circle_count(self) -> int:
        return self.ops.count(OP_CIRCLE)

    def pick_count(self) -> int:
        return self.ops.count(OP_LEFT) + self.ops.count(OP_RIGHT)


class Trace(Record):
    """A fully resolved execution record of a program on concrete seeds;
    a tuple given for ``resolved`` is encoded (``Resolved.of_values``).
    Valid by construction, as its program is: its numbers are finite, and
    each circle is the one its row draws. The private ``_kept``, outside
    ``==``, ``hash``, ``repr``, copy and pickling, is the hash-cons table and
    the last cut of the builder whose ``witness`` handed its columns over, as
    a pair kept for ``Builder.resume`` (None on any other trace)."""

    _fields = ("program", "resolved")
    __slots__ = (*_fields, "_kept")

    def __init__(self, program: Program, resolved: Resolved):
        """Raise MalformedTrace unless ``program`` is a ``Program``, each
        resolved column holds one value per step, and, naming the step,
        unless every circle step resolved to a circle and every other step
        to a point, each coordinate and radius a finite int or float, and
        each circle at its center node with ``geom.radius`` of its two
        nodes, as a builder, ``execute`` and ``tracedoc.loads`` draw it."""
        if type(resolved) is not Resolved:
            resolved = Resolved.of_values(resolved)
        Record.__init__(self, program, resolved)
        object.__setattr__(self, "_kept", None)
        if not isinstance(program, Program):
            raise MalformedTrace("'program' must be a Program")
        ops = program.ops
        xs, ys, rs = resolved.xs, resolved.ys, resolved.rs
        if not len(xs) == len(ys) == len(rs) == len(ops):
            raise MalformedTrace("resolved values do not cover the steps")
        if [r is None for r in rs] != [op != OP_CIRCLE for op in ops]:
            i = next(i for i, op in enumerate(ops) if (rs[i] is None) is (op == OP_CIRCLE))
            kind, want = (("seed", "point"), ("circle", "circle"), ("pick", "point"),
                          ("pick", "point"))[ops[i]]
            raise MalformedTrace(f"step {i}: {kind} resolved to non-{want}")
        for key, column, types in (("x", xs, _NUMBER), ("y", ys, _NUMBER),
                                   ("radius", rs, _RADIUS)):
            i, what = _mistyped(column, types), "a number"
            if i is None:  # numbers, so the finiteness test reads them
                i, what = _nonfinite(column), "finite"
            if i is not None:
                raise MalformedTrace(f"step {i}: {key!r} must be {what}")
        first, second = program.first, program.second
        for i in compress(range(len(ops)), map(OP_CIRCLE.__eq__, ops)):
            u, v = first[i], second[i]
            try:
                r = radius(xs[u], ys[u], xs[v], ys[v])
            except (DegenerateCircle, NonFiniteInput):  # through its center, or past the floats
                r = None
            if (xs[i], ys[i], rs[i]) != (xs[u], ys[u], r):
                raise MalformedTrace(f"step {i}: not the circle about node {u} through node {v}")

    @property
    def seed_values(self) -> tuple[Point, ...]:
        return self.resolved[:self.program.seed_count]

    @property
    def circle_count(self) -> int:
        return self.program.circle_count()

    def output_points(self) -> tuple[Point, ...]:
        return tuple(map(self.resolved._at, self.program.outputs))


AuditReport = namedtuple("AuditReport", "seeds circles picks")


def _built(program: Program, xs: tuple, ys: tuple, rs: tuple) -> Trace:
    """The trace of a program over columns the engine resolved, one value
    per step, each a finite int or float (a radius a float, None for a point):
    what the constructor checks holds as built, so nothing is checked."""
    trace = Trace.__new__(Trace)
    init = object.__setattr__  # field by field: the engine builds traces often
    init(trace, "program", program)
    init(trace, "resolved", Resolved(xs, ys, rs))
    init(trace, "_kept", None)
    return trace


def execute(program: Program, seeds: Iterable[Point]) -> Trace:
    """Run a program on concrete seed points, resolving every node in order.

    Each step is resolved as its row says, as ``Builder._step`` resolves
    it, last cut included, but with no hash-consing nor ``_drawn``'s rules
    (a circle the circle rule takes as K has its own radius, rounded from
    other nodes), so the trace has one value per step, a pure function of
    the arguments, and a builder's program replays bit for bit. A compiled
    program (``replay``) runs this loop unrolled, after the same seed
    checks: the same bits, and the same error at the same step.
    """
    seeds = tuple(seeds)
    if len(seeds) != program.seed_count:
        raise MalformedProgram(
            f"program wants {program.seed_count} seeds, got {len(seeds)}")
    xs, ys = _seed_columns(seeds)
    if program._compiled is not None:
        return _built(program, *program._compiled(xs, ys))
    start = program.seed_count
    rs = [None] * start
    cut_u = cut_v = -1  # the circle pair ``got`` was cut from
    for at, op, u, v in zip(range(start, len(program.ops)), program.ops[start:],
                            program.first[start:], program.second[start:]):
        if op == OP_CIRCLE:
            x, y = xs[u], ys[u]
            r = radius(x, y, xs[v], ys[v])
        else:
            if u != cut_u or v != cut_v:
                got = cut(xs[u], ys[u], rs[u], xs[v], ys[v], rs[v])
                if type(got) is str:
                    raise _no_point(got, at)
                cut_u, cut_v = u, v
            half = 0 if op == OP_LEFT else 2
            x, y, r = got[half], got[half + 1], None
        xs.append(x)
        ys.append(y)
        rs.append(r)
    return _built(program, tuple(xs), tuple(ys), tuple(rs))


def _seed_columns(seeds: tuple) -> tuple[list, list]:
    """The x and y columns of seeds, each a pair of finite ints or floats (a bool is not)."""
    xs, ys = [], []
    for p in seeds:
        try:
            x, y = p
        except (TypeError, ValueError):
            x = y = None
        if type(x) not in _NUMBER or type(y) not in _NUMBER:
            raise NonFiniteInput(f"seed {p} is not a pair of numbers")
        xs.append(x)
        ys.append(y)
    if _nonfinite(xs + ys) is not None:  # name the first seed that is not finite
        p = next(p for p in seeds if _nonfinite(p) is not None)
        raise NonFiniteInput(f"non-finite seed {p}")
    return xs, ys


def _no_point(got: str, at: int) -> CompassError:
    if got == CUT_COINCIDENT:
        return CoincidentCircles(f"step {at}: pick on coincident circles")
    if got == CUT_OVERFLOW:
        return NonFiniteInput(f"step {at}: an intersection point is not finite")
    return NoSuchIntersection(f"step {at}: circles do not meet")


def _drawn(ops: list, first: list, second: list, op: int, u: int, v: int) -> int | None:
    """The node the rows already hold for the row ``(op, u, v)``, which
    missed the hash-cons table, or None: where ``u`` and ``v`` are valid
    nodes of the kind ``op`` takes, a step already drawn by one of two rules.

    - *The circle rule.* The circle about u through v, where v is a pick
      and its first or second circle K is about u, is K: K has that center
      and passes through v.
    - *A point reflected twice through one center is that point.* The left
      pick of circles u and v is z where it is the last step of
      ``extend``'s rows run twice through one center y: v is K, the circle
      about y through z, x the left pick of circle(u', v') with K, where u'
      and v' are the left and right picks of circle(z, y) with K, and u is
      circle(a, b), where a and b are the left and right picks of
      circle(x, y) with K. The first run is 2y - z, whose own circle about
      y is K by the circle rule, so the second is 2y - (2y - z) = z. Two
      index reads answer most left picks, and four more an extend's last
      pick, where most extends, which reflect a seed, stop.

    Both are exact in real arithmetic, so neither takes ``EPS``; selectors
    read left and right off the centers, which are one node, so every pick
    on K keeps its meaning. They read only earlier rows, so they are derived
    on each miss and never stored in ``table``, which stays the one its rows
    rebuild. A new rule is one more branch here. Its one caller is
    ``Builder._step``, which every way to grow a builder goes through."""
    if op == OP_CIRCLE:
        if ops[v] != OP_SEED:
            k = first[v]
            if first[k] == u:
                return k
            k = second[v]
            if first[k] == u:
                return k
        return None
    if op != OP_LEFT:
        return None
    k, a = v, first[u]  # a seed's first is itself, and its second -1
    if second[a] != k:
        return None
    x = first[first[a]]
    if ops[x] != OP_LEFT or second[x] != k or ops[a] != OP_LEFT:
        return None
    b, c = second[u], first[a]
    if ops[b] != OP_RIGHT or first[b] != c or second[b] != k:
        return None
    y = second[c]
    if first[k] != y:
        return None
    c = first[x]
    a, b = first[c], second[c]
    if ops[a] != OP_LEFT or ops[b] != OP_RIGHT or second[a] != k or second[b] != k:
        return None
    c, z = first[a], second[k]
    if first[b] != c or first[c] != z or second[c] != y:
        return None
    return z


def rebase(host: Program, guest: Program, seed_map: Iterable[int]) -> Program:
    """Inline ``guest`` into ``host``, feeding the guest's seeds from the host
    nodes named in ``seed_map``, taken as a list before it is counted, as
    ``Builder.inline`` takes it.

    The guest's non-seed steps are appended with references rewired; the
    result's outputs are the guest's outputs, remapped. Executing the result
    replays the guest construction "as if" the mapped host points were its
    starting points.
    """
    mapping = list(seed_map)
    if len(mapping) != guest.seed_count:
        raise InvalidNodeId(
            f"seed_map has {len(mapping)} entries for {guest.seed_count} seeds")
    for ref in mapping:
        if type(ref) is not int:
            raise InvalidNodeId(f"seed_map entry {ref!r} is not an integer")
        if not 0 <= ref < len(host.ops):
            raise InvalidNodeId(f"seed_map entry {ref} outside host program")
        if host.ops[ref] == OP_CIRCLE:
            raise InvalidNodeId(f"seed_map entry {ref} is not a point node")

    ops, first, second = list(host.ops), list(host.first), list(host.second)
    start = guest.seed_count
    for op, u, v in zip(guest.ops[start:], guest.first[start:], guest.second[start:]):
        mapping.append(len(ops))
        ops.append(op)
        first.append(mapping[u])
        second.append(mapping[v])
    return Program(host.seed_count, tuple(ops), tuple(first), tuple(second),
                   tuple(mapping[o] for o in guest.outputs))


def _live(program: Program | Builder, node: int) -> list[bool]:
    """Which steps of a program or builder ``node`` depends on, itself
    included, as one flag per step up to ``node``. Every step refers only
    to earlier ones, so one sweep down from there marks them all."""
    ops, first, second = program.ops, program.first, program.second
    if type(node) is not int:
        raise InvalidNodeId(f"node {node!r} is not an integer")
    if not 0 <= node < len(ops):
        raise InvalidNodeId(f"node {node} outside program")
    keep = [False] * node + [True]
    for i in range(node, -1, -1):
        if keep[i] and ops[i] != OP_SEED:
            keep[first[i]] = keep[second[i]] = True
    return keep


def ancestors(program: Program, node: int) -> set[int]:
    """All nodes the given node depends on, itself included."""
    return {i for i, live in enumerate(_live(program, node)) if live}


def similarity_transport_check(program: Program, seeds: Sequence[Point],
                               p: Point, q: Point) -> bool:
    """Check that the program commutes with the orientation-preserving
    similarity z -> p + (q - p) z.

    Executes once on ``seeds`` and once on the similarity images of the
    seeds, then compares outputs against the similarity images of the
    original outputs, within 1e-9 * max(1, |q - p|).
    """
    w = complex(q.x - p.x, q.y - p.y)
    if w == 0:
        raise DegenerateCircle("similarity with q = p is not a similarity")

    def sim(pt: Point) -> Point:
        z = complex(p.x, p.y) + w * complex(pt.x, pt.y)
        return Point(z.real, z.imag)

    base = execute(program, seeds)
    moved = execute(program, [sim(s) for s in seeds])
    limit = 1e-9 * max(1.0, abs(w))
    for out, expect_src in zip(moved.output_points(), base.output_points()):
        expect = sim(expect_src)
        if math.hypot(out.x - expect.x, out.y - expect.y) > limit:
            return False
    return True


def purity_audit(trace: Trace) -> AuditReport:
    """Count a trace's seeds, circles and picks. A ``Trace`` is made of
    compass steps only by construction, so this checks nothing."""
    program = trace.program
    seeds, circles = program.seed_count, program.circle_count()
    return AuditReport(seeds=seeds, circles=circles,
                       picks=len(program.ops) - seeds - circles)


class Builder:
    """Grows a program and its trace together, as the six columns ``ops``,
    ``first``, ``second``, ``xs``, ``ys`` and ``rs`` (see the module
    docstring); nodes are ints. Construction routines need coordinates while
    they build (to choose selectors, scaling factors, retry poles), so each
    step is resolved as it is appended; ``point`` and ``circle_value`` build
    the value object of one node, ``finish`` hands the columns over, and
    ``witness`` hands over the trace of one point's ancestors. Before any
    step, ``finish(outputs)`` gives a program that draws nothing, and
    ``witness(0)`` or ``witness(1)`` a seed's witness (``field_ops.zero``
    and ``one``).

    Every step goes through ``_step``, which alone resolves and appends one,
    so a step gives the same bits however it is appended; a touch is the
    cut's two equal points, to ``meet`` and ``pick_other`` alike. A seed is
    read as ``x, y = seed``: a pair of ints or floats acts as the ``Point``
    it equals, anything else raises NonFiniteInput. A node argument that is
    not an int (a bool is not one) or is outside the builder raises
    ``InvalidNodeId``; a failing call appends nothing, and a failing
    ``inline`` keeps the steps it completed.

    Steps are hash-consed in ``table``, keyed on their ``(op, first,
    second)`` rows: a step whose row is there is the existing node. On a
    miss, ``_step`` asks ``_drawn``, the one rulebook of steps the rows
    already hold under another row, and takes its node, appending nothing.
    ``circle`` and ``inline`` check their nodes, then call ``_step``; every
    pick method is ``_cut`` (see ``_cut_at``), to choose its points, then
    ``_step`` of its pick or picks. ``Builder.resume`` takes over a finished
    trace with a copy of the table and the last cut its ``witness`` kept, or
    else a table rebuilt from its rows, so growing a program never resolves
    its steps again.
    """

    def __init__(self, seeds: Iterable[Point]):
        seeds = tuple(seeds)
        n = self.seed_count = len(seeds)
        self.xs, self.ys = _seed_columns(seeds)
        self.ops, self.first, self.second = [OP_SEED] * n, list(range(n)), [-1] * n
        self.rs: list[float | None] = [None] * n
        self.table: dict[tuple, int] = {}
        self._last = _NO_CUT  # (c1, c2, points) of the last cut: see ``_cut_at``

    @classmethod
    def resume(cls, trace: Trace) -> "Builder":
        """A builder holding ``trace``, with a copy of the hash-cons table
        and the last cut the trace kept (``witness``), or else a table
        rebuilt from the rows last to first, so that of two equal rows the
        first keeps the key, and no last cut. In a hash-consed builder every
        row is unique, so the two tables are equal. A trace is valid by
        construction, so the builder holds ints and finite numbers only, and
        each circle its center and radius, as ``finish`` and ``witness`` take
        for granted and as its cuts read."""
        p, r = trace.program, trace.resolved
        builder = cls.__new__(cls)  # every attribute is set here
        builder.seed_count = p.seed_count
        builder.ops, builder.first, builder.second = list(p.ops), list(p.first), list(p.second)
        builder.xs, builder.ys, builder.rs = list(r.xs), list(r.ys), list(r.rs)
        kept = trace._kept
        if kept is not None:
            table, builder._last = kept
            builder.table = table.copy()
        else:
            rows = zip(reversed(p.ops), reversed(p.first), reversed(p.second))
            builder.table = dict(zip(rows, range(len(p.ops) - 1, p.seed_count - 1, -1)))
            builder._last = _NO_CUT
        return builder

    def __len__(self) -> int:
        return len(self.ops)

    def _node(self, node: int, circle: bool) -> None:
        """Raise unless ``node`` is a circle node (or a point node)."""
        if type(node) is not int:
            raise InvalidNodeId(f"node {node!r} is not an integer")
        if not 0 <= node < len(self.rs):
            raise InvalidNodeId(f"node {node} outside the builder")
        if (self.rs[node] is None) is circle:
            raise MalformedProgram(f"node {node} is not a {'circle' if circle else 'point'}")

    def point(self, node: int) -> Point:
        self._node(node, False)
        return Point(self.xs[node], self.ys[node])

    def circle_value(self, node: int) -> ResolvedCircle:
        self._node(node, True)
        return ResolvedCircle(Point(self.xs[node], self.ys[node]), self.rs[node])

    def _step(self, op: int, u: int, v: int) -> int:
        """The node of the well-formed row ``(op, u, v)``: the table's, else
        ``_drawn``'s, else the step resolved and appended, a circle by
        ``geom.radius`` and a pick by its half of the cut of ``u`` and ``v``
        (``_cut_at``). The one code that resolves and appends a step."""
        key = op, u, v
        node = self.table.get(key)
        if node is None:
            node = _drawn(self.ops, self.first, self.second, op, u, v)
        if node is not None:
            return node
        xs, ys, rs = self.xs, self.ys, self.rs
        if op == OP_CIRCLE:
            x, y = xs[u], ys[u]
            r = radius(x, y, xs[v], ys[v])
        else:
            got, half = self._cut_at(u, v), 0 if op == OP_LEFT else 2
            x, y, r = got[half], got[half + 1], None
        node = self.table[key] = len(rs)
        self.ops.append(op)
        self.first.append(u)
        self.second.append(v)
        xs.append(x)
        ys.append(y)
        rs.append(r)
        return node

    def circle(self, center: int, through: int) -> int:
        rs = self.rs
        count = len(rs)
        if not (type(center) is int and 0 <= center < count and rs[center] is None):
            self._node(center, False)
        if not (type(through) is int and 0 <= through < count and rs[through] is None):
            self._node(through, False)
        return self._step(OP_CIRCLE, center, through)

    def _cut(self, c1: int, c2: int) -> tuple[float, float, float, float]:
        """``_cut_at`` of two nodes, each checked to be a circle node."""
        rs = self.rs
        count = len(rs)
        if not (type(c1) is int and 0 <= c1 < count and rs[c1] is not None):
            self._node(c1, True)
        if not (type(c2) is int and 0 <= c2 < count and rs[c2] is not None):
            self._node(c2, True)
        return self._cut_at(c1, c2)

    def _cut_at(self, c1: int, c2: int) -> tuple[float, float, float, float]:
        """``geom.cut``'s points on circle nodes ``c1`` and ``c2``; its other
        verdicts raise. The last cut, the pair and its points, is kept in
        ``_last`` and read again for that pair: a node never changes, so it
        is the same cut of the same floats. ``rollback``, which frees node
        ids, forgets it; ``resume`` takes the one its ``witness`` kept."""
        last = self._last
        if last[0] == c1 and last[1] == c2:
            return last[2]
        xs, ys, rs = self.xs, self.ys, self.rs
        got = cut(xs[c1], ys[c1], rs[c1], xs[c2], ys[c2], rs[c2])
        if type(got) is str:
            raise _no_point(got, len(rs))
        self._last = c1, c2, got
        return got

    def pick(self, c1: int, c2: int, which: Selector) -> int:
        op = OP_LEFT if which is _LEFT else OP_RIGHT if which is _RIGHT else None
        if op is None:
            raise MalformedProgram(f"bad selector {which!r}")
        self._cut(c1, c2)
        return self._step(op, c1, c2)

    def both(self, c1: int, c2: int) -> tuple[int, int]:
        """Left and right picks; a touch yields the same point twice."""
        self._cut(c1, c2)
        return self._step(OP_LEFT, c1, c2), self._step(OP_RIGHT, c1, c2)

    def meet(self, c1: int, c2: int) -> tuple[int, ...]:
        """The points where two circle nodes meet: the left and right picks,
        or the left pick alone where they touch."""
        lx, ly, rx, ry = self._cut(c1, c2)
        left = self._step(OP_LEFT, c1, c2)
        if lx == rx and ly == ry:
            return (left,)
        return left, self._step(OP_RIGHT, c1, c2)

    def pick_other(self, c1: int, c2: int, avoid: int) -> int | None:
        """The intersection point that is not the point at node ``avoid``;
        where the circles only touch, None, and nothing is picked."""
        lx, ly, rx, ry = self._cut(c1, c2)
        self._node(avoid, False)
        if lx == rx and ly == ry:
            return None
        ax, ay = self.xs[avoid], self.ys[avoid]
        if math.hypot(lx - ax, ly - ay) >= math.hypot(rx - ax, ry - ay):
            return self._step(OP_LEFT, c1, c2)
        return self._step(OP_RIGHT, c1, c2)

    def inline(self, guest: Program, seed_map: Iterable[int]) -> tuple[int, ...]:
        """Append a program's non-seed steps, rewiring its seeds onto existing
        nodes, the seed map taken as a list before it is counted, as
        ``execute`` takes its seeds; returns the guest's outputs as nodes of
        this builder. Each rewired guest row is well formed and goes to ``_step``."""
        node = list(seed_map)
        if len(node) != guest.seed_count:
            raise InvalidNodeId(
                f"seed_map has {len(node)} entries for {guest.seed_count} seeds")
        for n in node:
            self._node(n, False)
        start, step, mapped = guest.seed_count, self._step, node.append
        for op, u, v in zip(guest.ops[start:], guest.first[start:], guest.second[start:]):
            mapped(step(op, node[u], node[v]))
        return tuple(node[out] for out in guest.outputs)

    def mark(self) -> tuple[int]:
        """The step count, a checkpoint for ``rollback``; a one-tuple, as
        perfbench's tracer reads it as ``mark[0]``."""
        return (len(self.ops),)

    def rollback(self, mark: tuple[int]) -> None:
        """Discard steps appended after ``mark``, table keys included. A mark
        that is not a one-tuple of an int from ``seed_count`` to ``len(self)``
        raises InvalidNodeId and discards nothing."""
        if (type(mark) is not tuple or len(mark) != 1 or type(mark[0]) is not int
                or not self.seed_count <= mark[0] <= len(self.ops)):
            raise InvalidNodeId(f"mark {mark!r} is not a step count of this builder")
        n = mark[0]
        for column in (self.ops, self.first, self.second, self.xs, self.ys, self.rs):
            del column[n:]
        self.table = {k: v for k, v in self.table.items() if v < n}
        self._last = _NO_CUT

    def pair_based(self, node: int) -> bool:
        """Whether point ``node`` (checked as ``point`` checks it) depends on
        no seed but 0 and 1, as the operands of the ring operations must."""
        if not (type(node) is int and 0 <= node < len(self.rs) and self.rs[node] is None):
            self._node(node, False)
        keep = _live(self, node)
        return self.seed_count >= 2 and not any(keep[2:self.seed_count])

    def witness(self, node: int) -> Trace:
        """The steps point ``node`` depends on, as a trace over seeds 0 and 1
        with ``node`` its output, resolved as this builder resolved them: the
        witness that the ring operations replay and that a value carries.
        Kept steps stay in order; where every step is kept the columns are
        handed over as ``finish`` does, and the trace keeps a copy of the
        hash-cons table and the last cut in its private ``_kept`` for
        ``resume``: node ids do not change there, so both still name the same
        steps. ``node`` is checked as ``point`` checks it, then raises
        InvalidNodeId unless ``pair_based``."""
        if not (type(node) is int and 0 <= node < len(self.rs) and self.rs[node] is None):
            self._node(node, False)
        keep = _live(self, node)
        if self.seed_count < 2 or any(keep[2:self.seed_count]):
            raise InvalidNodeId(f"node {node} is not built from seeds 0 and 1 alone")
        keep[:2] = True, True  # seeds 0 and 1, also where node is seed 0
        # a value's builder is usually all ancestors of its result: there
        # the remap is the identity, and skipping it pays on value chains
        if len(keep) == len(self.ops) and all(keep):
            trace = self.finish([node])[1]
            object.__setattr__(trace, "_kept", (self.table.copy(), self._last))
            return trace
        # rank[i] is the new index of kept step i, the count of kept steps
        # before it: seed 0 is kept, so the count of keep[1:i + 1]. The kept
        # steps open with seeds 0 and 1, so take gives tuples, each of its
        # exact size (one built from an iterator grows by resizing, which
        # fragments the heap), and every later kept step is a circle or a
        # pick, whose operands are kept and remapped.
        rank = list(accumulate(islice(keep, 1, None), initial=0))
        take, link = itemgetter(*compress(range(len(keep)), keep)), rank.__getitem__
        program = Program._grown(2, take(self.ops), (0, 1, *map(link, take(self.first)[2:])),
                                 (-1, -1, *map(link, take(self.second)[2:])), (rank[node],))
        return _built(program, take(self.xs), take(self.ys), take(self.rs))

    def finish(self, outputs: Sequence[int]) -> tuple[Program, Trace]:
        """The program and trace so far. Every step is well formed and every
        value a number as built, so only the outputs are checked
        (MalformedProgram, naming the output)."""
        program = Program._grown(self.seed_count, tuple(self.ops), tuple(self.first),
                                 tuple(self.second), tuple(outputs))
        return program, _built(program, tuple(self.xs), tuple(self.ys), tuple(self.rs))
