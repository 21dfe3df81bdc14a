"""Compass constructions as replayable programs.

A construction is data: a topologically ordered list of steps over seed
slots, where a step either introduces a seed point, draws a circle through
two earlier points, or picks one of the two intersection points of two
earlier circles. Because constructions are values they can be executed on
any seeds, inlined into other programs with their seeds rewired (the
"repeat the construction on new starting points" move), counted, serialized
and audited.

The left/right pick selector is orientation-based: "left" is the
intersection point p with orientation_sign(center1, center2, p) >= 0.
Orientation is preserved by every orientation-preserving similarity, which
is exactly what makes rewired programs land on the similarity image of
their original outputs.

Storage is columnar, with one constructor per type. A step is its row
``(op, first, second)``: the op is ``OP_SEED`` (first is the slot),
``OP_CIRCLE`` (center, through) or ``OP_LEFT``/``OP_RIGHT`` (the two
circles: the selector is part of the op). A ``Program`` is those three int
columns plus the outputs, and ``Program.steps`` is a view of its rows. A
``Trace`` is its program plus float columns x, y and radius (``None`` for
a point); its seed values and circle count are derived.
``Program.check`` is the one rulebook of what a program is, and
``Trace.check`` adds that each value is of its step's kind; every consumer
runs them, and a program is checked once. ``Builder._resolve``, the only
step loop, reads and appends numbers only: a pick keeps the left or the
right half of ``geom.cut``'s ``(lx, ly, rx, ry)``. ``Builder.witness`` is
the one way to cut a point's ancestors out as a trace of their own. Value
objects (``Point``, ``ResolvedCircle``) exist only at the API edge:
``Trace.resolved`` is a view.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
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
    Point,
    ResolvedCircle,
    circle_circle_intersect,
    circle_from,
    cut,
    radius,
)


class Selector(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


# Module-level names: looking an enum member up through its class costs
# several times the rest of a selector test.
_LEFT, _RIGHT = Selector.LEFT, Selector.RIGHT

OP_SEED, OP_CIRCLE, OP_LEFT, OP_RIGHT = range(4)
SELECTOR_NAMES = {OP_LEFT: _LEFT.value, OP_RIGHT: _RIGHT.value}  # as traces and SVG write them


class _View(Sequence):
    """A read-only sequence over columns: ``len`` is O(1), an index builds
    one object, a slice gives a tuple. Equal to a tuple or a view with the
    same items."""

    __slots__ = ()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._at, range(len(self))[i]))
        return self._at(range(len(self))[i])

    def __eq__(self, other):
        if isinstance(other, (tuple, _View)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


class Steps(_View):
    """The steps of a program, as ``(op, first, second)`` rows."""

    __slots__ = ("_program",)

    def __init__(self, program: Program):
        self._program = program

    def __len__(self) -> int:
        return len(self._program.ops)

    def _at(self, i: int) -> tuple[int, int, int]:
        p = self._program
        return p.ops[i], p.first[i], p.second[i]


class Resolved(_View):
    """The resolved value of every step, as ``Point`` or ``ResolvedCircle``,
    over the float columns ``xs``, ``ys`` and ``rs`` (``None`` for a point)."""

    __slots__ = ("xs", "ys", "rs")

    def __init__(self, xs: tuple, ys: tuple, rs: tuple):
        self.xs, self.ys, self.rs = xs, ys, rs

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

    def __hash__(self) -> int:
        return hash((self.xs, self.ys, self.rs))


@dataclass(frozen=True, slots=True)
class Program:
    """An executable compass construction over ``seed_count`` seed slots:
    the int columns ``ops``, ``first`` and ``second``, and the outputs."""

    seed_count: int
    ops: tuple[int, ...]
    first: tuple[int, ...]
    second: tuple[int, ...]
    outputs: tuple[int, ...]
    _checked: bool = field(default=False, init=False, compare=False, repr=False)

    def check(self) -> None:
        """Raise MalformedProgram, naming the step or output, unless the
        seeds come first in slot order, every other step is a circle over
        two earlier point steps or a pick of two earlier circle steps, and
        every output is a point step; run once per program."""
        if self._checked:
            return
        ops, first, second = self.ops, self.first, self.second
        count = len(ops)
        if not len(first) == len(second) == count:
            raise MalformedProgram("the op and operand columns differ in length")
        for i in range(self.seed_count):
            if i >= count or ops[i] != OP_SEED or first[i] != i:
                raise MalformedProgram(
                    f"step {i}: expected Seed(slot={i}) before all other steps")
        for i in range(self.seed_count, count):
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
        self._check_outputs()

    def _check_outputs(self) -> None:
        """The output rule of ``check``, for a program whose steps are known
        to be well formed; marks the program checked."""
        ops = self.ops
        for k, out in enumerate(self.outputs):
            if not 0 <= out < len(ops):
                raise MalformedProgram(f"output {k}: id {out} outside the {len(ops)} steps")
            if ops[out] == OP_CIRCLE:
                raise MalformedProgram(f"output {k}: id {out} is not a point node")
        object.__setattr__(self, "_checked", True)

    @property
    def steps(self) -> Steps:
        return Steps(self)

    def circle_count(self) -> int:
        return self.ops.count(OP_CIRCLE)

    def pick_count(self) -> int:
        return self.ops.count(OP_LEFT) + self.ops.count(OP_RIGHT)


@dataclass(frozen=True, slots=True)
class Trace:
    """A fully resolved execution record of a program on concrete seeds;
    a tuple given for ``resolved`` is encoded (``Resolved.of_values``)."""

    program: Program
    resolved: Resolved

    def __post_init__(self):
        if type(self.resolved) is not Resolved:
            object.__setattr__(self, "resolved", Resolved.of_values(self.resolved))

    @property
    def seed_values(self) -> tuple[Point, ...]:
        n, r = self.program.seed_count, self.resolved
        return tuple(map(Point, r.xs[:n], r.ys[:n]))

    @property
    def circle_count(self) -> int:
        return self.program.circle_count()

    def check(self) -> None:
        """Run ``Program.check``, then raise MalformedTrace, naming the step,
        unless every circle step resolved to a circle and every other step
        to a point."""
        self.program.check()
        ops = self.program.ops
        rs = self.resolved.rs
        if len(rs) != len(ops):
            raise MalformedTrace("resolved values do not cover the steps")
        if [r is None for r in rs] != [op != OP_CIRCLE for op in ops]:
            i = next(i for i, op in enumerate(ops) if (rs[i] is None) is (op == OP_CIRCLE))
            kind, want = (("seed", "point"), ("circle", "circle"), ("pick", "point"),
                          ("pick", "point"))[ops[i]]
            raise MalformedTrace(f"step {i}: {kind} resolved to non-{want}")

    def output_points(self) -> tuple[Point, ...]:
        return tuple(map(self.resolved._at, self.program.outputs))


@dataclass(frozen=True, slots=True)
class AuditReport:
    seeds: int
    circles: int
    picks: int


def execute(program: Program, seeds: Sequence[Point]) -> Trace:
    """Run a program on concrete seed points, resolving every node in order.

    This is the step loop of ``Builder.inline`` run on a fresh builder with
    every step kept as it is (no hash-consing), so the trace has one
    resolved value per program step. Execution is a pure function of its
    arguments; identical inputs give bit-identical traces.
    """
    if len(seeds) != program.seed_count:
        raise MalformedProgram(
            f"program wants {program.seed_count} seeds, got {len(seeds)}")
    b = Builder(seeds)
    b._resolve(program, list(range(program.seed_count)), None)
    return Trace(program, Resolved(tuple(b.xs), tuple(b.ys), tuple(b.rs)))


def _no_point(got: str, at: int) -> CompassError:
    if got == CUT_COINCIDENT:
        return CoincidentCircles(f"step {at}: pick on coincident circles")
    return NoSuchIntersection(f"step {at}: circles do not meet")


def rebase(host: Program, guest: Program, seed_map: Sequence[int]) -> Program:
    """Inline ``guest`` into ``host``, feeding the guest's seeds from the host
    nodes named in ``seed_map``.

    The guest's non-seed steps are appended with references rewired; the
    result's outputs are the guest's outputs, remapped. Executing the result
    replays the guest construction "as if" the mapped host points were its
    starting points.
    """
    if len(seed_map) != guest.seed_count:
        raise InvalidNodeId(
            f"seed_map has {len(seed_map)} entries for {guest.seed_count} seeds")
    for ref in seed_map:
        if not 0 <= ref < len(host.ops):
            raise InvalidNodeId(f"seed_map entry {ref} outside host program")
        if host.ops[ref] == OP_CIRCLE:
            raise InvalidNodeId(f"seed_map entry {ref} is not a point node")

    guest.check()
    ops, first, second = list(host.ops), list(host.first), list(host.second)
    mapping = list(seed_map)
    start = guest.seed_count
    for op, u, v in zip(guest.ops[start:], guest.first[start:], guest.second[start:]):
        mapping.append(len(ops))
        ops.append(op)
        first.append(mapping[u])
        second.append(mapping[v])
    return Program(host.seed_count, tuple(ops), tuple(first), tuple(second),
                   tuple(mapping[o] for o in guest.outputs))


def empty_program(seed_count: int, outputs: Sequence[int] = ()) -> Program:
    """A program that draws nothing and outputs (some of) its seeds."""
    return Program(seed_count, (OP_SEED,) * seed_count, tuple(range(seed_count)),
                   (-1,) * seed_count, tuple(outputs))


def _live(program: Program | Builder, roots: Sequence[int]) -> list[bool]:
    """Which steps of a program or builder the ``roots`` depend on, the roots
    included, as one flag per step up to the last root. Every step refers
    only to earlier ones, so one sweep down from there marks them all."""
    ops, first, second = program.ops, program.first, program.second
    keep = [False] * min(max(roots, default=-1) + 1, len(ops))
    for node in roots:
        if not 0 <= node < len(ops):
            raise InvalidNodeId(f"node {node} outside program")
        keep[node] = True
    for i in range(len(keep) - 1, -1, -1):
        if keep[i] and ops[i] != OP_SEED:
            keep[first[i]] = keep[second[i]] = True
    return keep


def ancestors(program: Program, node: int) -> set[int]:
    """All nodes the given node depends on, itself included."""
    return {i for i, live in enumerate(_live(program, [node])) if live}


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
    """Validate that a trace is made of compass steps only and report counts.

    Traces built by ``execute`` pass by construction, and ``tracedoc.loads``
    checks the traces it reads while building them; the audit checks a
    trace that came from anywhere else.
    """
    trace.check()
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
    ``witness`` hands over the trace of one point's ancestors.

    Every resolving method goes through ``geom.radius`` and ``geom.cut``,
    so a step gives the same bits however it is appended; a touch is the
    cut's two equal points, to ``meet`` and ``pick_other`` alike. Node
    arguments outside the builder raise ``InvalidNodeId``; a failing call
    appends nothing, and a failing ``inline`` keeps the steps it completed.

    Steps are hash-consed in ``table``, keyed on their ``(op, first,
    second)`` rows: a step whose row is there is the existing node, looked
    up before anything is resolved. ``Builder.resume`` takes over a
    finished trace and rebuilds the table from its rows, so growing a
    program never resolves its steps again.
    """

    def __init__(self, seeds: Sequence[Point]):
        seeds = tuple(seeds)
        n = self.seed_count = len(seeds)
        for p in seeds:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise NonFiniteInput(f"non-finite seed {p}")
        self.ops, self.first, self.second = [OP_SEED] * n, list(range(n)), [-1] * n
        self.xs, self.ys = [p.x for p in seeds], [p.y for p in seeds]
        self.rs: list[float | None] = [None] * n
        self.table: dict[tuple, int] = {}

    @classmethod
    def resume(cls, trace: Trace) -> "Builder":
        """A builder holding ``trace``, its hash-cons table rebuilt from the
        rows last to first, so that of two equal rows the first keeps the key."""
        p, r = trace.program, trace.resolved
        p.check()
        builder = cls.__new__(cls)  # every attribute is set here
        builder.seed_count = p.seed_count
        builder.ops, builder.first, builder.second = list(p.ops), list(p.first), list(p.second)
        builder.xs, builder.ys, builder.rs = list(r.xs), list(r.ys), list(r.rs)
        rows = zip(reversed(p.ops), reversed(p.first), reversed(p.second))
        builder.table = dict(zip(rows, range(len(p.ops) - 1, p.seed_count - 1, -1)))
        return builder

    def __len__(self) -> int:
        return len(self.ops)

    def _node(self, node: int, circle: bool) -> None:
        """Raise unless ``node`` is a circle node (or a point node)."""
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

    def _keep(self, op: int, u: int, v: int, x: float, y: float,
              r: float | None = None) -> int:
        """The node hash-consed as step (op, u, v), appending it if new."""
        key = op, u, v
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = len(self.ops)
            for column, item in zip((self.ops, self.first, self.second, self.xs, self.ys,
                                     self.rs), (op, u, v, x, y, r)):
                column.append(item)
        return node

    def circle(self, center: int, through: int) -> int:
        hit = self.table.get((OP_CIRCLE, center, through))
        if hit is not None:
            return hit
        self._node(center, False)
        self._node(through, False)
        x, y = self.xs[center], self.ys[center]
        r = radius(x, y, self.xs[through], self.ys[through])
        return self._keep(OP_CIRCLE, center, through, x, y, r)

    def _cut(self, c1: int, c2: int) -> tuple[float, float, float, float]:
        """The cut of two circle nodes (``geom.cut``), its points checked
        to be finite."""
        self._node(c1, True)
        self._node(c2, True)
        xs, ys, rs = self.xs, self.ys, self.rs
        at = len(rs)
        got = cut(xs[c1], ys[c1], rs[c1], xs[c2], ys[c2], rs[c2])
        if type(got) is str:
            raise _no_point(got, at)
        if all(map(math.isfinite, got)):
            return got
        raise NonFiniteInput(f"step {at}: an intersection point is not finite")

    def pick(self, c1: int, c2: int, which: Selector) -> int:
        op = OP_LEFT if which is _LEFT else OP_RIGHT if which is _RIGHT else None
        if op is None:
            raise MalformedProgram(f"bad selector {which!r}")
        hit = self.table.get((op, c1, c2))
        if hit is not None:
            return hit
        got = self._cut(c1, c2)
        return self._keep(op, c1, c2, *(got[:2] if op == OP_LEFT else got[2:]))

    def both(self, c1: int, c2: int) -> tuple[int, int]:
        """Left and right picks; a touch yields the same point twice."""
        lx, ly, rx, ry = self._cut(c1, c2)
        return self._keep(OP_LEFT, c1, c2, lx, ly), self._keep(OP_RIGHT, c1, c2, rx, ry)

    def meet(self, c1: int, c2: int) -> tuple[int, ...]:
        """The points where two circle nodes meet: the left and right picks,
        or the left pick alone where they touch."""
        lx, ly, rx, ry = self._cut(c1, c2)
        left = self._keep(OP_LEFT, c1, c2, lx, ly)
        if lx == rx and ly == ry:
            return (left,)
        return left, self._keep(OP_RIGHT, c1, c2, rx, ry)

    def pick_other(self, c1: int, c2: int, avoid: int) -> int | None:
        """The intersection point that is not the point at node ``avoid``;
        where the circles only touch, None, and nothing is picked."""
        lx, ly, rx, ry = self._cut(c1, c2)
        if lx == rx and ly == ry:
            return None
        self._node(avoid, False)
        ax, ay = self.xs[avoid], self.ys[avoid]
        if math.hypot(lx - ax, ly - ay) >= math.hypot(rx - ax, ry - ay):
            return self._keep(OP_LEFT, c1, c2, lx, ly)
        return self._keep(OP_RIGHT, c1, c2, rx, ry)

    def inline(self, guest: Program, seed_map: Sequence[int]) -> tuple[int, ...]:
        """Append a program's non-seed steps, rewiring its seeds onto existing
        nodes; returns the guest's outputs as nodes of this builder."""
        if len(seed_map) != guest.seed_count:
            raise InvalidNodeId(
                f"seed_map has {len(seed_map)} entries for {guest.seed_count} seeds")
        for node in seed_map:
            self._node(node, False)
        return self._resolve(guest, list(seed_map), self.table)

    def _resolve(self, program: Program, node: list[int],
                 table: dict[tuple, int] | None) -> tuple[int, ...]:
        """The step loop behind ``inline`` and ``execute``.

        ``node`` holds the builder nodes of ``program``'s seeds and grows to
        map every program step to its node. Each non-seed step is rewired
        through it, resolved and appended; with a hash-cons ``table``, a
        step whose rewired row is in it is that node instead. The structure
        was checked once (``Program.check``); errors name their step.
        """
        program.check()
        start = program.seed_count
        xs, ys, rs = self.xs, self.ys, self.rs
        add_x, add_y, add_r = xs.append, ys.append, rs.append
        add_op, add_first, add_second = self.ops.append, self.first.append, self.second.append
        mapped = node.append
        isfinite = math.isfinite
        for op, u, v in zip(program.ops[start:], program.first[start:], program.second[start:]):
            nu, nv = node[u], node[v]
            if table is not None:
                key = op, nu, nv
                hit = table.get(key)
                if hit is not None:
                    mapped(hit)
                    continue
            at = len(rs)
            if op == OP_CIRCLE:
                x, y = xs[nu], ys[nu]
                r = radius(x, y, xs[nv], ys[nv])
            else:
                got = cut(xs[nu], ys[nu], rs[nu], xs[nv], ys[nv], rs[nv])
                if type(got) is str:
                    raise _no_point(got, at)
                x, y = got[:2] if op == OP_LEFT else got[2:]
                if not (isfinite(x) and isfinite(y)):
                    raise NonFiniteInput(f"step {at}: intersection point ({x}, {y}) is not finite")
                r = None
            add_x(x)
            add_y(y)
            add_r(r)
            add_op(op)
            add_first(nu)
            add_second(nv)
            if table is not None:
                table[key] = at
            mapped(at)
        return tuple(node[out] for out in program.outputs)

    def mark(self) -> tuple[int]:
        """The step count, a checkpoint for ``rollback``; a one-tuple, as
        perfbench's tracer reads it as ``mark[0]``."""
        return (len(self.ops),)

    def rollback(self, mark: tuple[int]) -> None:
        """Discard steps appended after ``mark``, table keys included."""
        n = mark[0]
        for column in (self.ops, self.first, self.second, self.xs, self.ys, self.rs):
            del column[n:]
        self.table = {k: v for k, v in self.table.items() if v < n}

    def pair_based(self, node: int) -> bool:
        """Whether point ``node`` depends on no seed but 0 and 1, as the
        operands of the ring operations must."""
        keep = _live(self, [node])
        return self.seed_count >= 2 and not any(keep[2:self.seed_count])

    def witness(self, node: int) -> Trace:
        """The steps point ``node`` depends on, as a trace over seeds 0 and 1
        with ``node`` its output, resolved as this builder resolved them: the
        witness that the ring operations replay and that a value carries.
        Kept steps stay in order; where every step is kept the columns are
        handed over as ``finish`` does. Raises InvalidNodeId unless
        ``pair_based``."""
        keep = _live(self, [node])
        if self.seed_count < 2 or any(keep[2:self.seed_count]):
            raise InvalidNodeId(f"node {node} is not built from seeds 0 and 1 alone")
        keep[:2] = True, True  # seeds 0 and 1, also where node is seed 0
        # a value's builder is usually all ancestors of its result: there
        # the remap is the identity, and skipping it pays on value chains
        if len(keep) == len(self.ops) and all(keep):
            return self.finish([node])[1]
        kept = [i for i, live in enumerate(keep) if live]
        remap = [-1] * len(keep)
        for new, old in enumerate(kept):
            remap[old] = new
        # kept opens with seeds 0 and 1, so take gives tuples, and every
        # later kept step is a circle or a pick, whose operands are remapped
        take, link = itemgetter(*kept), remap.__getitem__
        program = Program(2, take(self.ops), (0, 1, *map(link, take(self.first)[2:])),
                          (-1, -1, *map(link, take(self.second)[2:])), (remap[node],))
        program._check_outputs()
        return Trace(program, Resolved(take(self.xs), take(self.ys), take(self.rs)))

    def finish(self, outputs: Sequence[int]) -> tuple[Program, Trace]:
        """The program and trace so far; every step is well formed as built."""
        program = Program(self.seed_count, tuple(self.ops), tuple(self.first),
                          tuple(self.second), tuple(outputs))
        program._check_outputs()
        return program, Trace(program, Resolved(tuple(self.xs), tuple(self.ys), tuple(self.rs)))
