"""JSON serialization of traces.

The document stores seeds with their coordinates, every circle and pick
step (picks carry their resolved point), and the named outputs. Node ids
are dense and reference strictly earlier ids. Coordinates are written with
17 significant digits so a parse/re-serialize round trip is byte-identical
and loses nothing of the doubles.

A ``TraceDocument`` is a ``Trace`` paired with the names of its seeds and
outputs; there is no second representation of the steps.

Where each check lives:

- ``Program.check`` holds every structural rule; nothing here repeats one.
- ``loads`` checks the format only (JSON types, dense ids, step-kind and
  selector names, finite coordinates), builds the program's columns, runs
  ``Program.check`` on them, and then resolves each circle's radius,
  rejecting a degenerate one. Every error is a MalformedTrace, and every
  error about a node names it (``step <id>: ...`` or ``output <k>: ...``).
- ``dumps``, like ``svg.render_trace`` and ``purity_audit``, runs
  ``Trace.check`` first, so each refuses what ``loads`` refuses.
- ``document_from_trace`` checks only that the output names match the
  outputs, and ``trace_from_document`` checks nothing: the trace it
  returns was built by ``loads`` or given by the caller.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DegenerateCircle, MalformedProgram, MalformedTrace
from .geom import DEFAULT_TOL, radius
# purity_audit stays importable from this module: perfbench's tracer wraps it
# here.
from .program import (  # noqa: F401
    OP_CIRCLE,
    OP_SEED,
    SELECTOR_OF_OP,
    Program,
    Resolved,
    Trace,
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

    Raises what ``Trace.check`` raises: MalformedProgram for a malformed
    program, MalformedTrace, naming the step, when a resolved value is not of
    its step's kind.
    """
    trace = doc.trace
    trace.check()
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


def _integer(obj: dict, key: str, at: int, noun: str = "step") -> int:
    """Field ``key`` of node (or output) ``at`` as an integer, or
    MalformedTrace; a boolean is not an integer."""
    value = obj.get(key)
    if type(value) is not int:
        raise MalformedTrace(f"{noun} {at}: {key!r} must be an integer")
    return value


def _check_node(obj, at: int) -> None:
    """Check that node ``at`` is a JSON object whose id is ``at``."""
    if type(obj) is not dict:
        raise MalformedTrace(f"step {at}: must be an object")
    if _integer(obj, "id", at) != at:
        raise MalformedTrace(f"step {at}: ids must be dense and in order")


def loads(text: str) -> TraceDocument:
    """Parse a document and rebuild its trace, checked.

    Raises MalformedTrace on anything off-schema: a field of the wrong type,
    non-dense ids, an unknown step kind or selector, a non-finite coordinate,
    a program that ``Program.check`` rejects, or a degenerate circle.
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

    rows: list[tuple] = []  # (op, first, second, x, y) of every node
    seed_names = []
    for i, obj in enumerate(raw_seeds):
        _check_node(obj, i)
        name = obj.get("name")
        if name is not None and type(name) is not str:
            raise MalformedTrace(f"step {i}: name must be a string")
        seed_names.append(name)
        rows.append((OP_SEED, i, -1, _coordinate(obj, "x", i), _coordinate(obj, "y", i)))

    for at, obj in enumerate(raw_steps, len(raw_seeds)):
        _check_node(obj, at)
        kind = obj.get("op")
        if kind == "circle":
            # x and y are the center's, read once the program is checked
            rows.append((OP_CIRCLE, _integer(obj, "center", at), _integer(obj, "through", at),
                         None, None))
        elif kind == "pick":
            u, v = _integer(obj, "c1", at), _integer(obj, "c2", at)
            selector = obj.get("selector")
            op = _SELECTORS.get(selector) if type(selector) is str else None
            if op is None:
                raise MalformedTrace(f"step {at}: bad selector {selector!r}")
            rows.append((op, u, v, _coordinate(obj, "x", at), _coordinate(obj, "y", at)))
        else:
            raise MalformedTrace(f"step {at}: unknown step kind {kind!r}")

    outputs, output_names = [], []
    for k, obj in enumerate(raw_outputs):
        if type(obj) is not dict or type(obj.get("name")) is not str:
            raise MalformedTrace(f"output {k}: must be an object with a name")
        outputs.append(_integer(obj, "id", k, "output"))
        output_names.append(obj["name"])

    ops, first, second, xs, ys = zip(*rows)
    program = Program(len(raw_seeds), ops, first, second, tuple(outputs))
    try:
        program.check()
    except MalformedProgram as err:
        raise MalformedTrace(str(err)) from None

    xs, ys, rs = list(xs), list(ys), [None] * len(ops)
    eps = DEFAULT_TOL.eps_degenerate
    for at in range(program.seed_count, len(ops)):
        if ops[at] == OP_CIRCLE:
            u, v = first[at], second[at]
            xs[at], ys[at] = xs[u], ys[u]
            try:
                rs[at] = radius(xs[u], ys[u], xs[v], ys[v], eps)
            except DegenerateCircle:
                raise MalformedTrace(f"step {at}: degenerate circle") from None
    trace = Trace(program, Resolved(tuple(xs), tuple(ys), tuple(rs)))
    return TraceDocument(trace, tuple(seed_names), tuple(output_names))


def trace_from_document(doc: TraceDocument) -> Trace:
    """The document's trace, as ``loads`` built and checked it."""
    return doc.trace
