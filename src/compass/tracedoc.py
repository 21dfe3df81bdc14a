"""JSON serialization of traces.

The document stores seeds with their coordinates, every circle and pick
step (picks carry their resolved point), and the named outputs. Node ids
are dense and reference strictly earlier ids. Coordinates are written with
17 significant digits so a parse/re-serialize round trip is byte-identical
and loses nothing of the doubles.

Where each check lives:

- ``loads`` checks, in one walk over the parsed JSON, the schema (field
  types, dense ids, known step kinds and selectors), the references (each
  to an earlier node of the right kind, outputs on point nodes) and the
  finiteness of every coordinate.
- ``trace_from_document`` makes the same checks on hand-built documents
  while it builds the trace, and rejects degenerate circles. It does not
  re-walk its result with ``Program.validate`` or ``purity_audit``. The
  references, node kinds and outputs those check are checked in its walk;
  the seed layout, one resolved value of the step's kind per step, and the
  circle count hold because the walk builds them that way.
- ``document_from_trace`` and ``svg.render_trace`` check the kind of each
  resolved value they read, so a hand-built ``Trace`` whose values disagree
  with its steps raises MalformedTrace, with or without ``-O``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import MalformedTrace
from .geom import DEFAULT_TOL, Point, ResolvedCircle, Tolerance
# purity_audit stays importable from this module: perfbench's tracer wraps it
# here.
from .program import (  # noqa: F401
    CIRCLE,
    POINT,
    CircleStep,
    PickStep,
    Program,
    Seed,
    Selector,
    Trace,
    purity_audit,
)

VERSION = 1

_SELECTOR_NAMES = {s: s.value for s in Selector}
_SELECTORS = {s.value: s for s in Selector}


@dataclass(frozen=True, slots=True)
class SeedRecord:
    id: int
    name: str | None
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class CircleRecord:
    id: int
    center: int
    through: int


@dataclass(frozen=True, slots=True)
class PickRecord:
    id: int
    c1: int
    c2: int
    selector: str
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class OutputRecord:
    name: str
    id: int


@dataclass(frozen=True, slots=True)
class TraceDocument:
    version: int
    seeds: tuple[SeedRecord, ...]
    steps: tuple[CircleRecord | PickRecord, ...]
    outputs: tuple[OutputRecord, ...]


def document_from_trace(trace: Trace,
                        seed_names: tuple[str | None, ...] = (),
                        output_names: tuple[str, ...] = ()) -> TraceDocument:
    program = trace.program
    steps = program.steps
    resolved = trace.resolved
    if len(resolved) != len(steps):
        raise MalformedTrace("resolved values do not cover the steps")
    if output_names and len(output_names) != len(program.outputs):
        raise MalformedTrace("output names do not match program outputs")
    seeds = []
    for i in range(program.seed_count):
        value = resolved[i]
        if type(value) is not Point:
            raise MalformedTrace(f"step {i}: seed resolved to non-point")
        name = seed_names[i] if i < len(seed_names) else None
        seeds.append(SeedRecord(i, name, value.x, value.y))
    records: list[CircleRecord | PickRecord] = []
    for i in range(program.seed_count, len(steps)):
        step = steps[i]
        kind = type(step)
        if kind is CircleStep:
            records.append(CircleRecord(i, step.center, step.through))
        elif kind is PickStep:
            value = resolved[i]
            if type(value) is not Point:
                raise MalformedTrace(f"step {i}: pick resolved to non-point")
            records.append(PickRecord(i, step.c1, step.c2,
                                      _SELECTOR_NAMES[step.which],
                                      value.x, value.y))
        else:
            raise MalformedTrace(f"step {i}: unknown step kind {step!r}")
    outputs = tuple(
        OutputRecord(output_names[k] if output_names else f"out{k}", node)
        for k, node in enumerate(program.outputs))
    return TraceDocument(VERSION, tuple(seeds), tuple(records), outputs)


def dumps(doc: TraceDocument) -> str:
    """Serialize with fixed key order and 17-significant-digit coordinates."""
    parts = [f'{{"version":{doc.version},"seeds":[']
    parts.append(",".join(
        f'{{"id":{s.id}'
        + (f',"name":{json.dumps(s.name)}' if s.name is not None else "")
        + f',"x":{s.x:.17g},"y":{s.y:.17g}}}'
        for s in doc.seeds))
    parts.append('],"steps":[')
    chunks = []
    for s in doc.steps:
        kind = type(s)
        if kind is CircleRecord:
            chunks.append(f'{{"id":{s.id},"op":"circle","center":{s.center},'
                          f'"through":{s.through}}}')
        elif kind is PickRecord:
            chunks.append(f'{{"id":{s.id},"op":"pick","c1":{s.c1},"c2":{s.c2},'
                          f'"selector":"{s.selector}","x":{s.x:.17g},"y":{s.y:.17g}}}')
        else:
            raise MalformedTrace(f"unknown step kind {s!r}")
    parts.append(",".join(chunks))
    parts.append('],"outputs":[')
    parts.append(",".join(f'{{"name":{json.dumps(o.name)},"id":{o.id}}}'
                          for o in doc.outputs))
    parts.append("]}")
    return "".join(parts) + "\n"


def _not_int(owner: str, index: int, key: str) -> MalformedTrace:
    return MalformedTrace(f"{owner} {index}: {key!r} must be an integer")


def _coordinate(value, owner: str, index: int, key: str) -> float:
    """A JSON coordinate as a finite float, or MalformedTrace.

    ``json`` yields exact ``int``, ``float`` and ``bool``, so ``type(value)
    is int`` accepts integers and rejects booleans.
    """
    if type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    elif type(value) is not float:
        raise MalformedTrace(f"{owner} {index}: {key!r} must be a number")
    if not math.isfinite(value):
        raise MalformedTrace(f"{owner} {index}: {key!r} must be finite")
    return value


def loads(text: str) -> TraceDocument:
    """Parse and validate a document; MalformedTrace on anything off-schema."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError: JSONDecodeError, or an integer past the digit limit;
        # RecursionError: arrays or objects nested past the parser's depth
        raise MalformedTrace(f"not valid JSON: {err}") from err
    if type(data) is not dict:
        raise MalformedTrace("document must be a JSON object")
    version = data.get("version")
    if version != VERSION:
        raise MalformedTrace(f"unsupported version {version!r}")
    raw_seeds = data.get("seeds")
    raw_steps = data.get("steps")
    raw_outputs = data.get("outputs")
    if not (type(raw_seeds) is list and type(raw_steps) is list
            and type(raw_outputs) is list):
        raise MalformedTrace("seeds, steps, and outputs must be arrays")
    if not raw_seeds:
        raise MalformedTrace("a trace needs at least one seed")

    kinds: list[str] = []
    seeds = []
    for i, obj in enumerate(raw_seeds):
        if type(obj) is not dict:
            raise MalformedTrace(f"seed {i}: must be an object")
        ident = obj.get("id")
        if type(ident) is not int:
            raise _not_int("seed", i, "id")
        if ident != i:
            raise MalformedTrace(f"seed {i}: ids must be dense and in order")
        name = obj.get("name")
        if name is not None and type(name) is not str:
            raise MalformedTrace(f"seed {i}: name must be a string")
        seeds.append(SeedRecord(i, name, _coordinate(obj.get("x"), "seed", i, "x"),
                                _coordinate(obj.get("y"), "seed", i, "y")))
        kinds.append(POINT)

    steps: list[CircleRecord | PickRecord] = []
    for k, obj in enumerate(raw_steps):
        if type(obj) is not dict:
            raise MalformedTrace(f"step {k}: must be an object")
        ident = obj.get("id")
        if type(ident) is not int:
            raise _not_int("step", k, "id")
        if ident != len(kinds):
            raise MalformedTrace(f"step {k}: ids must be dense and in order")
        op = obj.get("op")
        if op == "circle":
            center = obj.get("center")
            through = obj.get("through")
            if type(center) is not int:
                raise _not_int("step", k, "center")
            if type(through) is not int:
                raise _not_int("step", k, "through")
            if not (0 <= center < ident and kinds[center] is POINT):
                raise MalformedTrace(f"step {k}: bad point reference {center}")
            if not (0 <= through < ident and kinds[through] is POINT):
                raise MalformedTrace(f"step {k}: bad point reference {through}")
            steps.append(CircleRecord(ident, center, through))
            kinds.append(CIRCLE)
        elif op == "pick":
            c1 = obj.get("c1")
            c2 = obj.get("c2")
            if type(c1) is not int:
                raise _not_int("step", k, "c1")
            if type(c2) is not int:
                raise _not_int("step", k, "c2")
            if not (0 <= c1 < ident and kinds[c1] is CIRCLE):
                raise MalformedTrace(f"step {k}: bad circle reference {c1}")
            if not (0 <= c2 < ident and kinds[c2] is CIRCLE):
                raise MalformedTrace(f"step {k}: bad circle reference {c2}")
            selector = obj.get("selector")
            if selector not in ("left", "right"):
                raise MalformedTrace(f"step {k}: bad selector {selector!r}")
            steps.append(PickRecord(ident, c1, c2, selector,
                                    _coordinate(obj.get("x"), "step", k, "x"),
                                    _coordinate(obj.get("y"), "step", k, "y")))
            kinds.append(POINT)
        else:
            raise MalformedTrace(f"step {k}: unknown step kind {op!r}")

    outputs = []
    for k, obj in enumerate(raw_outputs):
        if type(obj) is not dict or type(obj.get("name")) is not str:
            raise MalformedTrace(f"output {k}: must be an object with a name")
        ident = obj.get("id")
        if type(ident) is not int:
            raise _not_int("output", k, "id")
        if not (0 <= ident < len(kinds) and kinds[ident] is POINT):
            raise MalformedTrace(f"output {k}: id {ident} is not a point node")
        outputs.append(OutputRecord(obj["name"], ident))

    return TraceDocument(VERSION, tuple(seeds), tuple(steps), tuple(outputs))


def trace_from_document(doc: TraceDocument,
                        tol: Tolerance = DEFAULT_TOL) -> Trace:
    """Rebuild an in-memory trace, checking the document while building it.

    Raises MalformedTrace, naming the step, on non-dense ids, a reference
    that is not to an earlier node of the right kind, an unknown step kind
    or selector, a non-finite coordinate, a degenerate circle, or an output
    that is not a point node.
    """
    if not doc.seeds:
        raise MalformedTrace("a trace needs at least one seed")
    eps = tol.eps_degenerate
    steps: list = []
    resolved: list[Point | ResolvedCircle] = []
    for i, record in enumerate(doc.seeds):
        if record.id != i:
            raise MalformedTrace(f"step {i}: ids must be dense and in order")
        if not (math.isfinite(record.x) and math.isfinite(record.y)):
            raise MalformedTrace(f"step {i}: seed coordinates must be finite")
        steps.append(Seed(i))
        resolved.append(Point(record.x, record.y))
    i = len(resolved)
    circles = 0
    for record in doc.steps:
        kind = type(record)
        if kind is not CircleRecord and kind is not PickRecord:
            raise MalformedTrace(f"step {i}: unknown step kind {record!r}")
        if record.id != i:
            raise MalformedTrace(f"step {i}: ids must be dense and in order")
        if kind is CircleRecord:
            c = record.center
            t = record.through
            center = resolved[c] if 0 <= c < i else None
            through = resolved[t] if 0 <= t < i else None
            if type(center) is not Point:
                raise MalformedTrace(f"step {i}: bad point reference {c}")
            if type(through) is not Point:
                raise MalformedTrace(f"step {i}: bad point reference {t}")
            radius = math.hypot(through.x - center.x, through.y - center.y)
            if radius <= eps:
                raise MalformedTrace(f"step {i}: degenerate circle")
            steps.append(CircleStep(c, t))
            resolved.append(ResolvedCircle(center, radius))
            circles += 1
        else:
            c1 = record.c1
            c2 = record.c2
            if not (0 <= c1 < i and type(resolved[c1]) is ResolvedCircle):
                raise MalformedTrace(f"step {i}: bad circle reference {c1}")
            if not (0 <= c2 < i and type(resolved[c2]) is ResolvedCircle):
                raise MalformedTrace(f"step {i}: bad circle reference {c2}")
            selector = record.selector
            which = _SELECTORS.get(selector) if type(selector) is str else None
            if which is None:
                raise MalformedTrace(f"step {i}: bad selector {selector!r}")
            if not (math.isfinite(record.x) and math.isfinite(record.y)):
                raise MalformedTrace(f"step {i}: pick coordinates must be finite")
            steps.append(PickStep(c1, c2, which))
            resolved.append(Point(record.x, record.y))
        i += 1
    outputs = tuple(o.id for o in doc.outputs)
    for k, node in enumerate(outputs):
        if not (0 <= node < i and type(resolved[node]) is Point):
            raise MalformedTrace(f"output {k}: id {node} is not a point node")
    seed_count = len(doc.seeds)
    return Trace(Program(seed_count, tuple(steps), outputs),
                 tuple(resolved[:seed_count]), tuple(resolved), circles)
