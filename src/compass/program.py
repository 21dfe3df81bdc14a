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

Every step is resolved by one kernel. ``Builder._resolve`` is the only step
loop: ``Builder.inline`` runs it on rewired guest steps, sharing by
structure every step the builder already holds (hash-consing, see
``Builder``), and ``execute`` runs it on a fresh builder with the steps
kept as they are. Builders and the loop draw circles with
``geom.circle_from`` and cut them with ``geom.cut`` on bare floats. The
intersection arithmetic lives in ``geom`` alone; the outcome objects of
``circle_circle_intersect`` serve only ``Builder.outcome_of``, a peek.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Union

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
from .geom import (
    CUT_COINCIDENT,
    DEFAULT_TOL,
    Point,
    ResolvedCircle,
    Tolerance,
    circle_circle_intersect,
    circle_from,
    cut,
)


class Selector(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


# A module-level name for the kernel: looking an enum member up through its
# class costs several times the rest of a selector test.
_LEFT = Selector.LEFT


@dataclass(frozen=True, slots=True)
class Seed:
    slot: int


@dataclass(frozen=True, slots=True)
class CircleStep:
    center: int
    through: int


@dataclass(frozen=True, slots=True)
class PickStep:
    c1: int
    c2: int
    which: Selector


Step = Union[Seed, CircleStep, PickStep]


@dataclass(frozen=True, slots=True)
class Program:
    """An executable compass construction over ``seed_count`` seed slots."""

    seed_count: int
    steps: tuple[Step, ...]
    outputs: tuple[int, ...]

    def circle_count(self) -> int:
        return sum(1 for s in self.steps if type(s) is CircleStep)

    def pick_count(self) -> int:
        return sum(1 for s in self.steps if type(s) is PickStep)


@dataclass(frozen=True, slots=True)
class Trace:
    """A fully resolved execution record of a program on concrete seeds."""

    program: Program
    seed_values: tuple[Point, ...]
    resolved: tuple[Point | ResolvedCircle, ...]
    circle_count: int

    def output_points(self) -> tuple[Point, ...]:
        return tuple(self.resolved[i] for i in self.program.outputs)


@dataclass(frozen=True, slots=True)
class AuditReport:
    seeds: int
    circles: int
    picks: int


def execute(program: Program, seeds: Sequence[Point],
            tol: Tolerance = DEFAULT_TOL) -> Trace:
    """Run a program on concrete seed points, resolving every node in order.

    This is the step loop of ``Builder.inline`` run on a fresh builder with
    every step kept as it is (no hash-consing), so the trace has one
    resolved value per program step. Execution is a pure function of its
    arguments; identical inputs give bit-identical traces.
    """
    if len(seeds) != program.seed_count:
        raise MalformedProgram(
            f"program wants {program.seed_count} seeds, got {len(seeds)}")
    b = Builder(seeds, tol)
    b._resolve(program, list(range(program.seed_count)), None)
    return Trace(program, tuple(seeds), tuple(b._values), b._circle_count)


def _no_point(got: str, at: int) -> CompassError:
    if got == CUT_COINCIDENT:
        return CoincidentCircles(f"step {at}: pick on coincident circles")
    return NoSuchIntersection(f"step {at}: circles do not meet")


def _cut(c1: ResolvedCircle, c2: ResolvedCircle, eps: float, at: int):
    """Left and right cut points of two circles (a tangency's one point twice)."""
    o1 = c1.center
    o2 = c2.center
    got = cut(o1.x, o1.y, c1.radius, o2.x, o2.y, c2.radius, eps)
    if type(got) is str:
        raise _no_point(got, at)
    if len(got) == 2:
        lx, ly = rx, ry = got
    else:
        mx, my, hy, hx = got
        lx, ly, rx, ry = mx - hy, my + hx, mx + hy, my - hx
    if all(map(math.isfinite, (lx, ly, rx, ry))):
        return Point(lx, ly), Point(rx, ry)
    raise NonFiniteInput(f"step {at}: an intersection point is not finite")


def _pick(c1: ResolvedCircle, c2: ResolvedCircle, which: Selector, eps: float,
          at: int) -> Point:
    """The step kernel's pick: the selected intersection point of two circles,
    the only object it builds. A tangency satisfies both selectors."""
    o1 = c1.center
    o2 = c2.center
    got = cut(o1.x, o1.y, c1.radius, o2.x, o2.y, c2.radius, eps)
    if type(got) is str:
        raise _no_point(got, at)
    if len(got) == 2:
        x, y = got
    elif which is _LEFT:
        mx, my, hy, hx = got
        x, y = mx - hy, my + hx
    else:
        mx, my, hy, hx = got
        x, y = mx + hy, my - hx
    if math.isfinite(x) and math.isfinite(y):
        return Point(x, y)
    raise NonFiniteInput(f"step {at}: intersection point ({x}, {y}) is not finite")


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
        if not 0 <= ref < len(host.steps):
            raise InvalidNodeId(f"seed_map entry {ref} outside host program")
        if not isinstance(host.steps[ref], (Seed, PickStep)):
            raise InvalidNodeId(f"seed_map entry {ref} is not a point node")

    steps = list(host.steps)
    mapping: dict[int, int] = {}
    for i, step in enumerate(guest.steps):
        if isinstance(step, Seed):
            mapping[i] = seed_map[step.slot]
        elif isinstance(step, CircleStep):
            steps.append(CircleStep(mapping[step.center], mapping[step.through]))
            mapping[i] = len(steps) - 1
        elif isinstance(step, PickStep):
            steps.append(PickStep(mapping[step.c1], mapping[step.c2], step.which))
            mapping[i] = len(steps) - 1
        else:
            raise MalformedProgram(f"guest step {i}: unknown step kind {step!r}")
    outputs = tuple(mapping[o] for o in guest.outputs)
    return Program(host.seed_count, tuple(steps), outputs)


def empty_program(seed_count: int, outputs: Sequence[int] = ()) -> Program:
    """A program that draws nothing and outputs (some of) its seeds."""
    steps = tuple(Seed(i) for i in range(seed_count))
    return Program(seed_count, steps, tuple(outputs))


def compact(trace: Trace, table: dict | None = None) -> tuple[Trace, dict]:
    """Drop every step that is neither a seed nor an ancestor of an output.

    Kept steps stay in their order and resolve from the same operands, so
    their resolved values carry over as they are and nothing is executed
    again. Also returns the hash-cons table of the kept steps: ``table``,
    that of ``trace``, if given and nothing is dropped, else a new one.
    """
    program = trace.program
    keep = _live(program, [*range(program.seed_count), *program.outputs])
    if table is not None and all(keep):
        return trace, table
    compacted, kept, table = _restrict(program, keep, program.seed_count,
                                       program.outputs)
    resolved = trace.resolved
    return (Trace(compacted, trace.seed_values, tuple([resolved[i] for i in kept]),
                  compacted.circle_count()), table)


def _live(program: Program, roots: Sequence[int]) -> list[bool]:
    """Which steps the ``roots`` depend on, the roots included, as one flag
    per step. Every step refers only to earlier ones, so one sweep down from
    the last root marks them all."""
    steps = program.steps
    keep = [False] * len(steps)
    for node in roots:
        if not 0 <= node < len(steps):
            raise InvalidNodeId(f"node {node} outside program")
        keep[node] = True
    for i in range(max(roots, default=-1), -1, -1):
        if keep[i]:
            step = steps[i]
            kind = type(step)
            if kind is CircleStep:
                keep[step.center] = keep[step.through] = True
            elif kind is PickStep:
                keep[step.c1] = keep[step.c2] = True
    return keep


def _restrict(program: Program, keep: Sequence[bool], seed_count: int,
              outputs: Sequence[int]) -> tuple[Program, list[int], dict[tuple, int]]:
    """The steps marked in ``keep``, in order and with references renumbered,
    as a program over the first ``seed_count`` seeds; also the old index of
    each kept step, and the hash-cons table of the new program (see
    ``Builder``). Every reference of a kept step must itself be kept."""
    remap = [-1] * len(program.steps)
    kept: list[int] = []
    new_steps: list[Step] = []
    table: dict[tuple, int] = {}
    for i, step in enumerate(program.steps):
        if not keep[i]:
            continue
        at = remap[i] = len(new_steps)
        kind = type(step)
        if kind is CircleStep:
            center, through = remap[step.center], remap[step.through]
            if center != step.center or through != step.through:
                step = CircleStep(center, through)
            table.setdefault((center, through), at)
        elif kind is PickStep:
            c1, c2 = remap[step.c1], remap[step.c2]
            if c1 != step.c1 or c2 != step.c2:
                step = PickStep(c1, c2, step.which)
            table.setdefault((c1, c2, step.which is _LEFT), at)
        kept.append(i)
        new_steps.append(step)
    return (Program(seed_count, tuple(new_steps), tuple(remap[o] for o in outputs)),
            kept, table)


def ancestors(program: Program, node: int) -> set[int]:
    """All nodes the given node depends on, itself included."""
    return {i for i, live in enumerate(_live(program, [node])) if live}


def slice_to_pair_basis(program: Program, node: int) -> Program:
    """Extract the sub-construction of ``node`` as a two-seed program.

    The slice must depend only on the program's first two seeds; those
    become the new slots 0 and 1. Used to lift a point out of a larger
    construction so it can be rewired onto another basis.
    """
    keep = _live(program, [node])
    steps = program.steps
    used_slots = {steps[i].slot for i in range(node + 1)
                  if keep[i] and type(steps[i]) is Seed}
    if not used_slots <= {0, 1}:
        raise InvalidNodeId(
            f"node {node} depends on seeds {sorted(used_slots)}, not just 0 and 1")
    if program.seed_count < 2:
        raise InvalidNodeId("pair-basis slice needs a program with at least 2 seeds")
    keep[0] = keep[1] = True
    return _restrict(program, keep, 2, (node,))[0]


def similarity_transport_check(program: Program, seeds: Sequence[Point],
                               p: Point, q: Point,
                               tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check that the program commutes with the orientation-preserving
    similarity z -> p + (q - p) z.

    Executes once on ``seeds`` and once on the similarity images of the
    seeds, then compares outputs against the similarity images of the
    original outputs, within eps_abs * max(1, |q - p|).
    """
    w = complex(q.x - p.x, q.y - p.y)
    if w == 0:
        raise DegenerateCircle("similarity with q = p is not a similarity")

    def sim(pt: Point) -> Point:
        z = complex(p.x, p.y) + w * complex(pt.x, pt.y)
        return Point(z.real, z.imag)

    base = execute(program, seeds, tol)
    moved = execute(program, [sim(s) for s in seeds], tol)
    limit = tol.eps_abs * max(1.0, abs(w))
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
    program = trace.program
    if len(trace.resolved) != len(program.steps):
        raise MalformedTrace("resolved values do not cover the steps")
    seeds = circles = picks = 0
    for i, step in enumerate(program.steps):
        value = trace.resolved[i]
        if isinstance(step, Seed):
            seeds += 1
            if not isinstance(value, Point):
                raise MalformedTrace(f"step {i}: seed resolved to non-point")
        elif isinstance(step, CircleStep):
            circles += 1
            if not isinstance(value, ResolvedCircle):
                raise MalformedTrace(f"step {i}: circle resolved to non-circle")
        elif isinstance(step, PickStep):
            picks += 1
            if not isinstance(value, Point):
                raise MalformedTrace(f"step {i}: pick resolved to non-point")
        else:
            raise MalformedTrace(f"step {i}: non-compass step kind {step!r}")
    if seeds != program.seed_count:
        raise MalformedTrace("seed step count disagrees with seed_count")
    if circles != trace.circle_count:
        raise MalformedTrace("circle_count disagrees with the steps")
    return AuditReport(seeds=seeds, circles=circles, picks=picks)


class Builder:
    """Grows a program and its trace together.

    Construction routines need the resolved coordinates while they build
    (to choose selectors, scaling factors, retry poles), so the builder
    resolves each step as it is appended. The finished object is still a
    pure compass program; the coordinates only informed which program got
    built.

    Every resolving method goes through the module's step kernel (see the
    module docstring), so a step gives the same bits whether it is appended
    by a method, inlined from a program or replayed by ``execute``. Node
    arguments outside the builder raise ``InvalidNodeId``; a failing call
    appends nothing, and a failing ``inline`` keeps the steps it completed.

    Steps are hash-consed in ``table``: a circle on the same (center,
    through) nodes, or a pick on the same circle nodes and selector, is the
    existing node, with the same bits since execution is deterministic.
    ``Builder.resume`` takes over a finished trace and its table as they
    are, so growing a program never resolves or walks its steps again.
    """

    def __init__(self, seeds: Sequence[Point], tol: Tolerance = DEFAULT_TOL):
        self.tol = tol
        self._steps: list[Step] = []
        self._values: list[Point | ResolvedCircle] = []
        # picks key on ``which is _LEFT``: hashing an enum member runs Python code
        self.table: dict[tuple, int] = {}
        self._circle_count = 0
        for i, p in enumerate(seeds):
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise NonFiniteInput(f"non-finite seed {p}")
            self._steps.append(Seed(i))
            self._values.append(p)
        self.seed_count = len(self._steps)

    @classmethod
    def resume(cls, trace: Trace, table: dict[tuple, int],
               tol: Tolerance = DEFAULT_TOL) -> "Builder":
        """A builder holding ``trace`` and a copy of its hash-cons ``table``."""
        builder = cls(trace.seed_values, tol)
        builder._steps[:] = trace.program.steps
        builder._values[:] = trace.resolved
        builder.table = dict(table)
        builder._circle_count = trace.circle_count
        return builder

    def __len__(self) -> int:
        return len(self._steps)

    def point(self, node: int) -> Point:
        if not 0 <= node < len(self._values):
            raise InvalidNodeId(f"node {node} outside the builder")
        value = self._values[node]
        if not isinstance(value, Point):
            raise MalformedProgram(f"node {node} is not a point")
        return value

    def circle_value(self, node: int) -> ResolvedCircle:
        if not 0 <= node < len(self._values):
            raise InvalidNodeId(f"node {node} outside the builder")
        value = self._values[node]
        if not isinstance(value, ResolvedCircle):
            raise MalformedProgram(f"node {node} is not a circle")
        return value

    def circle(self, center: int, through: int) -> int:
        hit = self.table.get((center, through))
        if hit is not None:
            return hit
        value = circle_from(self.point(center), self.point(through), self.tol)
        self._circle_count += 1
        return self._keep((center, through), CircleStep(center, through), value)

    def outcome_of(self, c1: int, c2: int):
        """Peek at the intersection outcome without appending a pick."""
        return circle_circle_intersect(self.circle_value(c1), self.circle_value(c2),
                                       self.tol)

    def _keep(self, key: tuple, step: Step, value: Point | ResolvedCircle) -> int:
        """The node hash-consed under ``key``, appending ``step`` if new."""
        hit = self.table.get(key)
        if hit is not None:
            return hit
        self._steps.append(step)
        self._values.append(value)
        node = self.table[key] = len(self._steps) - 1
        return node

    def pick(self, c1: int, c2: int, which: Selector) -> int:
        value = _pick(self.circle_value(c1), self.circle_value(c2), which,
                      self.tol.eps_degenerate, len(self._values))
        return self._keep((c1, c2, which is _LEFT), PickStep(c1, c2, which), value)

    def both(self, c1: int, c2: int) -> tuple[int, int]:
        """Left and right picks; a tangency yields the same point twice."""
        left, right = _cut(self.circle_value(c1), self.circle_value(c2),
                           self.tol.eps_degenerate, len(self._values))
        return (self._keep((c1, c2, True), PickStep(c1, c2, _LEFT), left),
                self._keep((c1, c2, False), PickStep(c1, c2, Selector.RIGHT), right))

    def pick_other(self, c1: int, c2: int, avoid: int) -> int:
        """The intersection point that is not the point at node ``avoid``.

        On tangency there is only one point and it is returned regardless,
        per the both-selectors rule.
        """
        circle1, circle2 = self.circle_value(c1), self.circle_value(c2)
        a = self.point(avoid)
        p, q = _cut(circle1, circle2, self.tol.eps_degenerate, len(self._values))
        if math.hypot(p.x - a.x, p.y - a.y) >= math.hypot(q.x - a.x, q.y - a.y):
            return self._keep((c1, c2, True), PickStep(c1, c2, _LEFT), p)
        return self._keep((c1, c2, False), PickStep(c1, c2, Selector.RIGHT), q)

    def inline(self, guest: Program, seed_map: Sequence[int]) -> tuple[int, ...]:
        """Append a program's non-seed steps, rewiring its seeds onto existing
        nodes; returns the guest's outputs as nodes of this builder."""
        if len(seed_map) != guest.seed_count:
            raise InvalidNodeId(
                f"seed_map has {len(seed_map)} entries for {guest.seed_count} seeds")
        for node in seed_map:
            self.point(node)
        return self._resolve(guest, list(seed_map), self.table)

    def _resolve(self, program: Program, node: list[int],
                 table: dict[tuple, int] | None) -> tuple[int, ...]:
        """The step loop behind ``inline`` and ``execute``.

        ``node`` holds the builder nodes of ``program``'s seeds and grows to
        map every program step to its node. Each non-seed step is rewired
        through it, resolved and appended; with a hash-cons ``table``, a
        step whose rewired key is in it is that node instead. Every
        reference is checked to point backwards and at a node of the right
        kind, and every error names the step it happened at.
        """
        steps = program.steps
        count = len(steps)
        seed_count = program.seed_count
        for out in program.outputs:
            if not 0 <= out < count:
                raise MalformedProgram(f"output {out} outside the {count} steps")
        for i in range(seed_count):
            step = steps[i] if i < count else None
            if type(step) is not Seed or step.slot != i:
                raise MalformedProgram(
                    f"step {i}: expected Seed(slot={i}) before all other steps")
        values = self._values
        record = self._steps.append
        keep = values.append
        mapped = node.append
        tol = self.tol
        eps = tol.eps_degenerate
        for i in range(seed_count, count):
            step = steps[i]
            kind = type(step)
            at = len(values)
            if kind is PickStep:
                c1, c2 = step.c1, step.c2
                if not (0 <= c1 < i and 0 <= c2 < i):
                    raise MalformedProgram(f"step {i}: reference outside [0, {i})")
                n1, n2 = node[c1], node[c2]
                if table is not None:
                    key = (n1, n2, step.which is _LEFT)
                    hit = table.get(key)
                    if hit is not None:
                        mapped(hit)
                        continue
                v1, v2 = values[n1], values[n2]
                if type(v1) is not ResolvedCircle or type(v2) is not ResolvedCircle:
                    raise MalformedProgram(f"step {at}: pick over non-circle nodes")
                keep(_pick(v1, v2, step.which, eps, at))
                record(step if n1 == c1 and n2 == c2 else PickStep(n1, n2, step.which))
                if table is not None:
                    table[key] = at
            elif kind is CircleStep:
                c, t = step.center, step.through
                if not (0 <= c < i and 0 <= t < i):
                    raise MalformedProgram(f"step {i}: reference outside [0, {i})")
                nc, nt = node[c], node[t]
                if table is not None:
                    hit = table.get((nc, nt))
                    if hit is not None:
                        mapped(hit)
                        continue
                center, through = values[nc], values[nt]
                if type(center) is not Point or type(through) is not Point:
                    raise MalformedProgram(f"step {at}: circle over non-point nodes")
                keep(circle_from(center, through, tol))
                record(step if nc == c and nt == t else CircleStep(nc, nt))
                if table is not None:
                    table[(nc, nt)] = at
                self._circle_count += 1
            elif kind is Seed:
                raise MalformedProgram(f"step {i}: misplaced seed")
            else:
                raise MalformedProgram(f"step {i}: unknown step kind {step!r}")
            mapped(at)
        return tuple(node[out] for out in program.outputs)

    def mark(self) -> tuple[int, int]:
        """Checkpoint for speculative building (see ``rollback``)."""
        return (len(self._steps), self._circle_count)

    def rollback(self, mark: tuple[int, int]) -> None:
        """Discard steps appended after ``mark``, table keys included."""
        n, circles = mark
        del self._steps[n:]
        del self._values[n:]
        self._circle_count = circles
        self.table = {k: v for k, v in self.table.items() if v < n}

    def finish(self, outputs: Sequence[int]) -> tuple[Program, Trace]:
        program = Program(self.seed_count, tuple(self._steps), tuple(outputs))
        trace = Trace(program, tuple(self._values[:self.seed_count]),
                      tuple(self._values), self._circle_count)
        return program, trace
