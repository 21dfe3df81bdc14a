"""JSON serialization of traces.

The document stores seeds with their coordinates, every circle and pick
step (picks carry their resolved point), and the named outputs. Node ids
are dense and reference strictly earlier ids. Coordinates are written with
17 significant digits so a parse/re-serialize round trip is byte-identical
and loses nothing of the doubles.

A ``TraceDocument`` is a ``Trace`` paired with the names of its seeds and
outputs; there is no second representation of the steps.

Where each check lives:

- ``loads`` is the one walk over a document read from text. It checks the
  schema (field types, dense ids, known step kinds and selectors), the
  references (each to an earlier node of the right kind, outputs on point
  nodes), the finiteness of every coordinate and the radius of every
  circle, while it builds the trace's steps and resolved values. Every
  error about a node names it (``step <id>: ...``).
- ``dumps`` checks the kind of each resolved value it walks, so a
  hand-built ``Trace`` whose values disagree with its steps raises
  MalformedTrace, with or without ``-O``. ``svg.render_trace`` checks the
  values it draws the same way.
- ``document_from_trace`` checks only that the output names match the
  outputs, and ``trace_from_document`` checks nothing: the trace it
  returns was built by ``loads`` or given by the caller.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import MalformedTrace
from .geom import DEFAULT_TOL, Point, ResolvedCircle
# purity_audit stays importable from this module: perfbench's tracer wraps it
# here.
from .program import (  # noqa: F401
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
class TraceDocument:
    """A trace with one name (or None) per seed and one name per output."""

    trace: Trace
    seed_names: tuple[str | None, ...]
    output_names: tuple[str, ...]


def document_from_trace(trace: Trace,
                        seed_names: tuple[str | None, ...] = (),
                        output_names: tuple[str, ...] = ()) -> TraceDocument:
    """Pair a trace with its names. Seeds past ``seed_names`` are unnamed;
    without ``output_names`` the outputs are named ``out0``, ``out1``, ..."""
    seed_count = trace.program.seed_count
    output_count = len(trace.program.outputs)
    if output_names and len(output_names) != output_count:
        raise MalformedTrace("output names do not match program outputs")
    seed_names = tuple(seed_names[:seed_count])
    seed_names += (None,) * (seed_count - len(seed_names))
    if not output_names:
        output_names = tuple(f"out{k}" for k in range(output_count))
    return TraceDocument(trace, seed_names, tuple(output_names))


def dumps(doc: TraceDocument) -> str:
    """Serialize with fixed key order and 17-significant-digit coordinates.

    Raises MalformedTrace, naming the step, when a resolved value is not of
    its step's kind.
    """
    program = doc.trace.program
    steps = program.steps
    resolved = doc.trace.resolved
    if len(resolved) != len(steps):
        raise MalformedTrace("resolved values do not cover the steps")
    seed_count = program.seed_count
    chunks = []
    for i in range(seed_count):
        value = resolved[i]
        if type(value) is not Point:
            raise MalformedTrace(f"step {i}: seed resolved to non-point")
        name = doc.seed_names[i]
        named = f',"name":{json.dumps(name)}' if name is not None else ""
        chunks.append(f'{{"id":{i}{named},"x":{value.x:.17g},"y":{value.y:.17g}}}')
    parts = [f'{{"version":{VERSION},"seeds":[', ",".join(chunks), '],"steps":[']
    chunks = []
    for i in range(seed_count, len(steps)):
        step = steps[i]
        kind = type(step)
        value = resolved[i]
        if kind is CircleStep:
            if type(value) is not ResolvedCircle:
                raise MalformedTrace(f"step {i}: circle resolved to non-circle")
            chunks.append(f'{{"id":{i},"op":"circle","center":{step.center},'
                          f'"through":{step.through}}}')
        elif kind is PickStep:
            if type(value) is not Point:
                raise MalformedTrace(f"step {i}: pick resolved to non-point")
            chunks.append(f'{{"id":{i},"op":"pick","c1":{step.c1},"c2":{step.c2},'
                          f'"selector":"{_SELECTOR_NAMES[step.which]}",'
                          f'"x":{value.x:.17g},"y":{value.y:.17g}}}')
        else:
            raise MalformedTrace(f"step {i}: unknown step kind {step!r}")
    parts.append(",".join(chunks))
    parts.append('],"outputs":[')
    parts.append(",".join(f'{{"name":{json.dumps(name)},"id":{node}}}'
                          for name, node in zip(doc.output_names, program.outputs)))
    parts.append("]}")
    return "".join(parts) + "\n"


def _coordinate(obj: dict, key: str, at: int) -> float:
    """Field ``key`` of node ``at`` as a finite float, or MalformedTrace.

    ``json`` yields exact ``int``, ``float`` and ``bool``, so ``type(value)
    is int`` accepts integers and rejects booleans.
    """
    value = obj.get(key)
    if type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    elif type(value) is not float:
        raise MalformedTrace(f"step {at}: {key!r} must be a number")
    if not math.isfinite(value):
        raise MalformedTrace(f"step {at}: {key!r} must be finite")
    return value


def _reference(obj: dict, key: str, at: int, resolved: list, kind: type) -> int:
    """Field ``key`` of node ``at`` as the id of an earlier node whose
    resolved value is a ``kind``, or MalformedTrace."""
    ref = obj.get(key)
    if type(ref) is not int:
        raise MalformedTrace(f"step {at}: {key!r} must be an integer")
    if not (0 <= ref < at and type(resolved[ref]) is kind):
        noun = "point" if kind is Point else "circle"
        raise MalformedTrace(f"step {at}: bad {noun} reference {ref}")
    return ref


def _check_node(obj, at: int) -> None:
    """Check that node ``at`` is a JSON object whose id is ``at``."""
    if type(obj) is not dict:
        raise MalformedTrace(f"step {at}: must be an object")
    ident = obj.get("id")
    if type(ident) is not int:
        raise MalformedTrace(f"step {at}: 'id' must be an integer")
    if ident != at:
        raise MalformedTrace(f"step {at}: ids must be dense and in order")


def loads(text: str) -> TraceDocument:
    """Parse a document and rebuild its trace in one checked walk.

    Raises MalformedTrace on anything off-schema: a field of the wrong type,
    non-dense ids, a reference that is not to an earlier node of the right
    kind, an unknown step kind or selector, a non-finite coordinate, a
    degenerate circle, or an output that is not a point node.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError: JSONDecodeError, or an integer past the digit limit;
        # RecursionError: arrays or objects nested past the parser's depth
        raise MalformedTrace(f"not valid JSON: {err}") from err
    if type(data) is not dict:
        raise MalformedTrace("document must be a JSON object")
    version = data.get("version")
    # True == 1.0 == 1, so the type is checked before the value
    if type(version) is not int or version != VERSION:
        raise MalformedTrace(f"unsupported version {version!r}")
    raw_seeds = data.get("seeds")
    raw_steps = data.get("steps")
    raw_outputs = data.get("outputs")
    if not (type(raw_seeds) is list and type(raw_steps) is list
            and type(raw_outputs) is list):
        raise MalformedTrace("seeds, steps, and outputs must be arrays")
    if not raw_seeds:
        raise MalformedTrace("a trace needs at least one seed")

    steps: list = []
    resolved: list[Point | ResolvedCircle] = []
    seed_names = []
    for i, obj in enumerate(raw_seeds):
        _check_node(obj, i)
        name = obj.get("name")
        if name is not None and type(name) is not str:
            raise MalformedTrace(f"step {i}: name must be a string")
        seed_names.append(name)
        steps.append(Seed(i))
        resolved.append(Point(_coordinate(obj, "x", i), _coordinate(obj, "y", i)))

    eps = DEFAULT_TOL.eps_degenerate
    circles = 0
    for at, obj in enumerate(raw_steps, len(raw_seeds)):
        _check_node(obj, at)
        op = obj.get("op")
        if op == "circle":
            c = _reference(obj, "center", at, resolved, Point)
            t = _reference(obj, "through", at, resolved, Point)
            center = resolved[c]
            through = resolved[t]
            radius = math.hypot(through.x - center.x, through.y - center.y)
            if radius <= eps:
                raise MalformedTrace(f"step {at}: degenerate circle")
            steps.append(CircleStep(c, t))
            resolved.append(ResolvedCircle(center, radius))
            circles += 1
        elif op == "pick":
            c1 = _reference(obj, "c1", at, resolved, ResolvedCircle)
            c2 = _reference(obj, "c2", at, resolved, ResolvedCircle)
            selector = obj.get("selector")
            which = _SELECTORS.get(selector) if type(selector) is str else None
            if which is None:
                raise MalformedTrace(f"step {at}: bad selector {selector!r}")
            steps.append(PickStep(c1, c2, which))
            resolved.append(Point(_coordinate(obj, "x", at), _coordinate(obj, "y", at)))
        else:
            raise MalformedTrace(f"step {at}: unknown step kind {op!r}")

    outputs = []
    output_names = []
    for k, obj in enumerate(raw_outputs):
        if type(obj) is not dict or type(obj.get("name")) is not str:
            raise MalformedTrace(f"output {k}: must be an object with a name")
        ident = obj.get("id")
        if type(ident) is not int:
            raise MalformedTrace(f"output {k}: 'id' must be an integer")
        if not (0 <= ident < len(resolved) and type(resolved[ident]) is Point):
            raise MalformedTrace(f"output {k}: id {ident} is not a point node")
        outputs.append(ident)
        output_names.append(obj["name"])

    seed_count = len(raw_seeds)
    trace = Trace(Program(seed_count, tuple(steps), tuple(outputs)),
                  tuple(resolved[:seed_count]), tuple(resolved), circles)
    return TraceDocument(trace, tuple(seed_names), tuple(output_names))


def trace_from_document(doc: TraceDocument) -> Trace:
    """The document's trace, as ``loads`` built and checked it."""
    return doc.trace
