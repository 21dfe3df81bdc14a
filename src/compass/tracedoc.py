"""JSON serialization of traces.

A document (``VERSION`` 2) holds the program's own columns, in this order:
``{"version":2,"seed_names":[...],"op":[...],"first":[...],"second":[...],
"x":[...],"y":[...],"outputs":[...],"output_names":[...]}``. Step ``i`` is
``(op[i], first[i], second[i])``: ``("seed", slot, -1)``, ``("circle",
center, through)`` or ``("left" or "right", c1, c2)``. ``x`` and ``y`` hold
the coordinates of each point step (seed or pick) in step order; a circle
carries none, and ``loads`` resolves it from its two nodes. There is one
seed name (or null) per seed and one output name per output. Coordinates
are written with 17 significant digits so a parse/re-serialize round trip
is byte-identical and loses nothing of the doubles; a negative zero is
written ``-0.0``, as JSON reads ``-0`` as the integer 0. ``loads`` reads
this version only. A ``TraceDocument`` is a named tuple: a ``Trace`` paired
with the names of its seeds and outputs.

Where each check lives:

- The ``Program`` and ``Trace`` constructors hold every structural rule,
  integer columns included, every number finite, and each circle its
  center and radius: a record is valid by construction. Nothing here
  repeats a rule or adds one, so a trace with no seeds (a script without
  ``given``) loads.
- ``loads`` checks the version and the columns, one pass each: arrays,
  op names, name types, finite coordinates (``_nonfinite``, as the
  constructor), and each column's length (``x`` and ``y`` one entry per
  point step). It builds the program with the ``Program`` constructor,
  resolves each circle's radius, rejecting what ``radius`` refuses, and
  builds the trace through ``_built``. Every error is a MalformedTrace,
  and every error about a node names it (``step <id>: ...`` or ``output
  <k>: ...``; past a column's last step, the step count stands for the id).
- ``dumps`` holds every writer check: one name per seed and one per
  output, a seed name ``None`` or a string, an output name a string, each
  error naming the step or output as ``loads`` does; a ``Trace`` is finite,
  as a JSON number must be. So a ``TraceDocument`` built by hand is checked
  as one from ``document_from_trace``, which, like ``trace_from_document``,
  checks nothing.

What a writer still accepts, and ``loads`` takes on trust: a pick whose
point does not lie on its two circles (``loads`` keeps the written point;
nothing replays the cut). A circle is its center and radius in every
``Trace``, so the document keeps only its two nodes and loses nothing.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import compress

from .errors import DegenerateCircle, MalformedProgram, MalformedTrace, NonFiniteInput
from .geom import radius
# purity_audit stays importable from this module: perfbench's tracer wraps it
# here.
from .program import (  # noqa: F401
    OP_CIRCLE,
    SELECTOR_NAMES,
    Program,
    Trace,
    _built,
    _mistyped,
    _nonfinite,
    purity_audit,
)

VERSION = 2

OP_NAMES = ("seed", "circle", *SELECTOR_NAMES.values())  # the op column, by op code
_OP_CODES = {name: op for op, name in enumerate(OP_NAMES)}
_OP_JSON = tuple(json.dumps(name) for name in OP_NAMES)
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_COLUMNS = ("seed_names", "op", "first", "second", "x", "y", "outputs", "output_names")


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


def _ints(column) -> str:
    """The integers of ``column``, comma-separated, in one formatting call."""
    column = tuple(column)
    return ("%d," * len(column))[:-1] % column


def _coordinates(column, point) -> str:
    """The point steps' entries of ``column``, comma-separated, at 17
    significant digits; a negative zero as ``-0.0``, which keeps its sign
    where ``-0`` would read back as the integer 0."""
    text = ",".join(map("%.17g".__mod__, compress(column, point)))
    if "-0," in text or text.endswith("-0"):  # only a whole entry ends so
        text = ",".join("-0.0" if entry == "-0" else entry for entry in text.split(","))
    return text


def dumps(doc: TraceDocument) -> str:
    """Serialize with fixed key order and 17-significant-digit coordinates.

    Raises MalformedTrace for a name ``loads`` would refuse: a seed or
    output name count unlike the program's, a seed name neither None nor a
    string (naming the step), an output name not a string (naming the output).
    """
    program, resolved = doc.trace.program, doc.trace.resolved
    if len(doc.seed_names) != program.seed_count:
        raise MalformedTrace("seed names do not match program seeds")
    if len(doc.output_names) != len(program.outputs):
        raise MalformedTrace("output names do not match program outputs")
    for i, name in enumerate(doc.seed_names):
        if name is not None and not isinstance(name, str):
            raise MalformedTrace(f"step {i}: name must be a string")
    for k, name in enumerate(doc.output_names):
        if not isinstance(name, str):
            raise MalformedTrace(f"output {k}: name must be a string")
    point = list(map(OP_CIRCLE.__ne__, program.ops))
    x, y = _coordinates(resolved.xs, point), _coordinates(resolved.ys, point)
    return (f'{{"version":{VERSION},"seed_names":{_ENCODE(list(doc.seed_names))},'
            f'"op":[{",".join(map(_OP_JSON.__getitem__, program.ops))}],'
            f'"first":[{_ints(program.first)}],"second":[{_ints(program.second)}],'
            f'"x":[{x}],"y":[{y}],"outputs":[{_ints(program.outputs)}],'
            f'"output_names":{_ENCODE(list(doc.output_names))}}}\n')


def loads(text: str) -> TraceDocument:
    """Parse a document and rebuild its trace, checked.

    Raises MalformedTrace on anything off-schema: a version other than
    ``VERSION``, a field of the wrong type, a column of the wrong length, an
    unknown op, a non-finite coordinate, a program that the ``Program``
    constructor refuses, or a circle ``radius`` refuses.
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
    # 2.0 == 2, so the type is checked before the value
    if type(version) is not int or version != VERSION:
        raise MalformedTrace(f"unsupported version {version!r}")
    columns = [data.get(key) for key in _COLUMNS]
    if not all(type(column) is list for column in columns):
        raise MalformedTrace(f"{', '.join(_COLUMNS)} must be arrays")
    seed_names, names, first, second, x, y, outputs, output_names = columns
    try:
        ops = tuple(map(_OP_CODES.__getitem__, names))
    except (KeyError, TypeError):
        at = next(i for i, op in enumerate(names) if type(op) is not str or op not in _OP_CODES)
        raise MalformedTrace(f"step {at}: unknown op {names[at]!r}") from None
    points = len(ops) - ops.count(OP_CIRCLE)

    def node(key: str, k: int) -> str:  # entry k's step or output; past the last, the count
        steps = [*compress(range(len(ops)), map(OP_CIRCLE.__ne__, ops)), len(ops)]
        return f"output {k}" if "out" in key else f"step {steps[k] if key in 'xy' else k}"

    for key, column, want, types, what in (
            ("seed_names", seed_names, len(seed_names), {str, type(None)}, "a string or null"),
            ("first", first, len(ops), None, None),  # the Program constructor
            ("second", second, len(ops), None, None),  # checks their types
            ("x", x, points, {int, float}, "a number"),
            ("y", y, points, {int, float}, "a number"),
            ("output_names", output_names, len(outputs), {str}, "a string")):
        if len(column) != want:
            raise MalformedTrace(f"{node(key, min(len(column), want))}: {key!r} holds "
                                 f"{len(column)} entries, not {want}")
        at = types and _mistyped(column, types)
        if at is None and key in "xy":  # numbers, so the finiteness test reads them
            at, what = _nonfinite(column), "finite"
        if at is not None:
            raise MalformedTrace(f"{node(key, at)}: {key!r} must be {what}")
    try:
        program = Program(len(seed_names), ops, tuple(first), tuple(second), tuple(outputs))
    except MalformedProgram as err:
        raise MalformedTrace(str(err)) from None
    xs, ys, rs = [], [], []
    next_x, next_y = map(float, x).__next__, map(float, y).__next__  # the point steps', in order
    for op, u, v in zip(ops, program.first, program.second):
        if op == OP_CIRCLE:  # at its center
            try:
                rs.append(radius(xs[u], ys[u], xs[v], ys[v]))
            except DegenerateCircle:
                raise MalformedTrace(f"step {len(xs)}: degenerate circle") from None
            except NonFiniteInput:
                raise MalformedTrace(f"step {len(xs)}: circle radius is not finite") from None
            xs.append(xs[u])
            ys.append(ys[u])
        else:
            xs.append(next_x())
            ys.append(next_y())
            rs.append(None)
    return TraceDocument(_built(program, tuple(xs), tuple(ys), tuple(rs)),
                         tuple(seed_names), tuple(output_names))


def trace_from_document(doc: TraceDocument) -> Trace:
    """The document's trace, as ``loads`` built and checked it."""
    return doc.trace
