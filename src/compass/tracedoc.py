"""JSON serialization of traces.

The document stores seeds with their coordinates, every circle and pick
step (picks carry their resolved point), and the named outputs. Node ids
are dense and reference strictly earlier ids. Coordinates are written with
17 significant digits so a parse/re-serialize round trip is byte-identical
and loses nothing of the doubles.

A ``TraceDocument`` is a named tuple: a ``Trace`` paired with the names of
its seeds and outputs; there is no second representation of the steps.

Where each check lives:

- ``Program.check`` holds every structural rule; nothing here repeats one
  or adds one, so a trace with no seeds (a script without ``given``) loads.
- ``loads`` checks the format only (JSON types, dense ids, step-kind and
  selector names, finite coordinates), builds the program's columns, runs
  ``Program.check`` on them, and then resolves each circle's radius,
  rejecting what ``radius`` refuses. Every error is a MalformedTrace, and every
  error about a node names it (``step <id>: ...`` or ``output <k>: ...``).
- ``dumps`` holds every writer check. Like ``svg.render_trace`` and
  ``purity_audit``, it runs ``Trace.check`` first; then it checks that
  every coordinate is finite (a JSON number cannot be ``inf`` or ``nan``)
  and the names it writes: one per seed and one per output, a seed name
  ``None`` or a string, an output name a string, each error named as
  ``loads`` names it. So a ``TraceDocument`` built by hand is checked as
  one from ``document_from_trace``.
- ``document_from_trace`` and ``trace_from_document`` check nothing: the
  first only pairs a trace with its names, and the trace the second
  returns was built by ``loads`` or given by the caller.

What a writer still accepts, and ``loads`` rewrites or takes on trust:

- a circle value that is not its center and radius (a document keeps
  only the circle's two nodes, and ``loads`` resolves it again);
- a pick whose point does not lie on its two circles (``loads`` keeps the
  written point; nothing replays the cut).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .errors import DegenerateCircle, MalformedProgram, MalformedTrace, NonFiniteInput
from .geom import radius
# purity_audit stays importable from this module: perfbench's tracer wraps it
# here.
from .program import (  # noqa: F401
    OP_CIRCLE,
    OP_SEED,
    SELECTOR_NAMES,
    Program,
    Resolved,
    Trace,
    purity_audit,
)

VERSION = 1

_SELECTORS = {name: op for op, name in SELECTOR_NAMES.items()}


TraceDocument = namedtuple("TraceDocument", "trace seed_names output_names")
TraceDocument.__doc__ = "A trace with one name (or None) per seed and one name per output."


def document_from_trace(trace: Trace,
                        seed_names: tuple[str | None, ...] = (),
                        output_names: tuple[str, ...] = ()) -> TraceDocument:
    """Pair a trace with its names; ``dumps`` checks them. Seeds past
    ``seed_names`` are unnamed; without ``output_names`` the outputs are
    named ``out0``, ``out1``, ...
    """
    program = trace.program
    seed_names = tuple(seed_names) + (None,) * (program.seed_count - len(seed_names))
    if not output_names:
        output_names = tuple(f"out{k}" for k in range(len(program.outputs)))
    return TraceDocument(trace, seed_names, tuple(output_names))


def dumps(doc: TraceDocument) -> str:
    """Serialize with fixed key order and 17-significant-digit coordinates.

    Raises what ``Trace.check`` raises: MalformedProgram for a malformed
    program, MalformedTrace, naming the step, when a resolved value is not of
    its step's kind. Raises MalformedTrace, naming the step, for a coordinate
    that is not finite, and for a name ``loads`` would refuse: a seed or
    output name count unlike the program's, a seed name neither None nor a
    string (naming the step), an output name not a string (naming the output).
    """
    trace = doc.trace
    trace.check()
    program = trace.program
    ops, first, second = program.ops, program.first, program.second
    xs, ys = trace.resolved.xs, trace.resolved.ys
    if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        i = next(i for i, xy in enumerate(zip(xs, ys)) if not all(map(math.isfinite, xy)))
        raise MalformedTrace(f"step {i}: coordinate ({xs[i]}, {ys[i]}) is not finite")
    seed_count = program.seed_count
    if len(doc.seed_names) != seed_count:
        raise MalformedTrace("seed names do not match program seeds")
    if len(doc.output_names) != len(program.outputs):
        raise MalformedTrace("output names do not match program outputs")
    chunks = []
    for i, name in enumerate(doc.seed_names):
        if name is not None and not isinstance(name, str):
            raise MalformedTrace(f"step {i}: name must be a string")
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
                          f'"selector":"{SELECTOR_NAMES[op]}",'
                          f'"x":{xs[i]:.17g},"y":{ys[i]:.17g}}}')
    parts.append(",".join(chunks))
    parts.append('],"outputs":[')
    chunks = []
    for k, (name, node) in enumerate(zip(doc.output_names, program.outputs)):
        if not isinstance(name, str):
            raise MalformedTrace(f"output {k}: name must be a string")
        chunks.append(f'{{"name":{json.dumps(name)},"id":{node}}}')
    parts.append(",".join(chunks))
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
    a program that ``Program.check`` rejects, or a circle ``radius`` refuses.
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

    ops, first, second, xs, ys = zip(*rows) if rows else ((),) * 5
    program = Program(len(raw_seeds), ops, first, second, tuple(outputs))
    try:
        program.check()
    except MalformedProgram as err:
        raise MalformedTrace(str(err)) from None

    xs, ys, rs = list(xs), list(ys), [None] * len(ops)
    for at in range(program.seed_count, len(ops)):
        if ops[at] == OP_CIRCLE:
            u, v = first[at], second[at]
            xs[at], ys[at] = xs[u], ys[u]
            try:
                rs[at] = radius(xs[u], ys[u], xs[v], ys[v])
            except DegenerateCircle:
                raise MalformedTrace(f"step {at}: degenerate circle") from None
            except NonFiniteInput:
                raise MalformedTrace(f"step {at}: circle radius is not finite") from None
    trace = Trace(program, Resolved(tuple(xs), tuple(ys), tuple(rs)))
    return TraceDocument(trace, tuple(seed_names), tuple(output_names))


def trace_from_document(doc: TraceDocument) -> Trace:
    """The document's trace, as ``loads`` built and checked it."""
    return doc.trace
