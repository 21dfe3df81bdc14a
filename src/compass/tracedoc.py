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
  circle, while it builds the trace's columns. Every error about a node
  names it (``step <id>: ...``).
- ``dumps``, like ``svg.render_trace``, runs ``program.check_kinds`` on the
  columns first, so a hand-built ``Trace`` whose values disagree with its
  steps raises MalformedTrace, with or without ``-O``.
- ``document_from_trace`` checks only that the output names match the
  outputs, and ``trace_from_document`` checks nothing: the trace it
  returns was built by ``loads`` or given by the caller.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DegenerateCircle, MalformedTrace
from .geom import DEFAULT_TOL, Point, radius
# purity_audit stays importable from this module: perfbench's tracer wraps it
# here.
from .program import (  # noqa: F401
    OP_CIRCLE,
    OP_SEED,
    SELECTOR_OF_OP,
    Program,
    Resolved,
    Trace,
    check_kinds,
    purity_audit,
)

VERSION = 1

_SELECTOR_NAMES = {op: s.value for op, s in SELECTOR_OF_OP.items()}
_SELECTORS = {s.value: op for op, s in SELECTOR_OF_OP.items()}


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
    trace = doc.trace
    check_kinds(trace)
    program = trace.program
    ops, first, second = program.ops, program.first, program.second
    xs, ys = trace.resolved.xs, trace.resolved.ys
    seed_count = program.seed_count
    chunks = []
    for i in range(seed_count):
        name = doc.seed_names[i]
        named = f',"name":{json.dumps(name)}' if name is not None else ""
        chunks.append(f'{{"id":{i}{named},"x":{xs[i]:.17g},"y":{ys[i]:.17g}}}')
    parts = [f'{{"version":{VERSION},"seeds":[', ",".join(chunks), '],"steps":[']
    chunks = []
    for i in range(seed_count, len(ops)):
        op = ops[i]
        if op == OP_CIRCLE:
            chunks.append(f'{{"id":{i},"op":"circle","center":{first[i]},'
                          f'"through":{second[i]}}}')
        elif op == OP_SEED:
            raise MalformedTrace(f"step {i}: misplaced seed")
        else:
            chunks.append(f'{{"id":{i},"op":"pick","c1":{first[i]},"c2":{second[i]},'
                          f'"selector":"{_SELECTOR_NAMES[op]}",'
                          f'"x":{xs[i]:.17g},"y":{ys[i]:.17g}}}')
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


def _reference(obj: dict, key: str, at: int, rows: list, circle: bool) -> int:
    """Field ``key`` of node ``at`` as the id of an earlier node, a circle
    node if ``circle`` else a point node, or MalformedTrace."""
    ref = obj.get(key)
    if type(ref) is not int:
        raise MalformedTrace(f"step {at}: {key!r} must be an integer")
    if not (0 <= ref < at and (rows[ref][5] is None) is not circle):
        noun = "circle" if circle else "point"
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

    rows: list[tuple] = []  # (op, first, second, x, y, r) of every node
    seed_names = []
    for i, obj in enumerate(raw_seeds):
        _check_node(obj, i)
        name = obj.get("name")
        if name is not None and type(name) is not str:
            raise MalformedTrace(f"step {i}: name must be a string")
        seed_names.append(name)
        rows.append((OP_SEED, i, -1, _coordinate(obj, "x", i), _coordinate(obj, "y", i), None))

    eps = DEFAULT_TOL.eps_degenerate
    for at, obj in enumerate(raw_steps, len(raw_seeds)):
        _check_node(obj, at)
        op = obj.get("op")
        if op == "circle":
            u = _reference(obj, "center", at, rows, False)
            v = _reference(obj, "through", at, rows, False)
            x, y = rows[u][3:5]
            try:
                r = radius(x, y, *rows[v][3:5], eps)
            except DegenerateCircle:
                raise MalformedTrace(f"step {at}: degenerate circle") from None
            rows.append((OP_CIRCLE, u, v, x, y, r))
        elif op == "pick":
            u = _reference(obj, "c1", at, rows, True)
            v = _reference(obj, "c2", at, rows, True)
            selector = obj.get("selector")
            op = _SELECTORS.get(selector) if type(selector) is str else None
            if op is None:
                raise MalformedTrace(f"step {at}: bad selector {selector!r}")
            rows.append((op, u, v, _coordinate(obj, "x", at), _coordinate(obj, "y", at), None))
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
        if not (0 <= ident < len(rows) and rows[ident][5] is None):
            raise MalformedTrace(f"output {k}: id {ident} is not a point node")
        outputs.append(ident)
        output_names.append(obj["name"])

    seed_count = len(raw_seeds)
    ops, first, second, xs, ys, rs = zip(*rows)
    program = Program.of_columns(seed_count, ops, first, second, tuple(outputs))
    seed_values = tuple(Point(row[3], row[4]) for row in rows[:seed_count])
    trace = Trace(program, seed_values, Resolved(xs, ys, rs), program.circle_count())
    return TraceDocument(trace, tuple(seed_names), tuple(output_names))


def trace_from_document(doc: TraceDocument) -> Trace:
    """The document's trace, as ``loads`` built and checked it."""
    return doc.trace
