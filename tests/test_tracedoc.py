import importlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from compass import tracedoc
from compass.constructions import midpoint_program
from compass.dsl import run_source
from compass.errors import MalformedProgram, MalformedTrace, NonFiniteInput
from compass.geom import Point
from compass.program import (
    OP_CIRCLE,
    OP_LEFT,
    OP_RIGHT,
    OP_SEED,
    Program,
    Resolved,
    Trace,
    execute,
    purity_audit,
)


def sample_doc():
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    return tracedoc.document_from_trace(trace, ("A", "B"), ("M",))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_round_trip_is_byte_identical():
    text = tracedoc.dumps(sample_doc())
    doc = tracedoc.loads(text)
    assert tracedoc.dumps(doc) == text
    # and once more through a rebuilt trace
    trace = tracedoc.trace_from_document(doc)
    again = tracedoc.document_from_trace(trace, doc.seed_names, doc.output_names)
    assert tracedoc.dumps(again) == text


def test_document_from_trace_refuses_the_wrong_number_of_output_names():
    """The document pairs the names as given, and ``dumps`` refuses it."""
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    doc = tracedoc.document_from_trace(trace, ("A", "B"), ("M", "N"))
    with pytest.raises(MalformedTrace, match="output names do not match"):
        tracedoc.dumps(doc)


@pytest.mark.parametrize("seed_names, output_names, message", [
    ((5, "B"), ("M",), "^step 0: name must be a string$"),
    (("A", b"B"), ("M",), "^step 1: name must be a string$"),
    (("A", "B"), (7,), "^output 0: name must be a string$"),
    (("A", "B"), (None,), "^output 0: name must be a string$"),
], ids=["seed-int", "seed-bytes", "output-int", "output-none"])
def test_document_from_trace_refuses_a_name_loads_refuses(seed_names, output_names, message):
    """The document pairs the names as given, and ``dumps`` refuses it."""
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    doc = tracedoc.document_from_trace(trace, seed_names, output_names)
    with pytest.raises(MalformedTrace, match=message):
        tracedoc.dumps(doc)


@pytest.mark.parametrize("seed_names, output_names, message", [
    (("A", "B"), (), "^output names do not match program outputs$"),
    (("A",), ("M",), "^seed names do not match program seeds$"),
    ((), (), "^seed names do not match program seeds$"),
], ids=["no-outputs", "short-seeds", "no-names"])
def test_dumps_refuses_a_hand_built_document_with_bad_names(seed_names, output_names,
                                                            message):
    """A ``TraceDocument`` built without ``document_from_trace``, which would
    pad the seed names and name the outputs, is checked where it is written."""
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    with pytest.raises(MalformedTrace, match=message):
        tracedoc.dumps(tracedoc.TraceDocument(trace, seed_names, output_names))


def test_document_from_trace_only_pairs():
    """It pads the seed names with None, names unnamed outputs out0, out1,
    ..., keeps extra seed names for ``dumps`` to refuse, and raises nothing."""
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    assert tracedoc.document_from_trace(trace) == (trace, (None, None), ("out0",))
    assert tracedoc.document_from_trace(trace, ("A",)).seed_names == ("A", None)
    extra = tracedoc.document_from_trace(trace, ("A", "B", "C"), ("M",))
    assert extra.seed_names == ("A", "B", "C")
    with pytest.raises(MalformedTrace, match="^seed names do not match program seeds$"):
        tracedoc.dumps(extra)
    odd = tracedoc.document_from_trace(trace, (5, b"B"), (7,))
    assert odd.seed_names == (5, b"B") and odd.output_names == (7,)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["seed", "last-pick"])
def test_dumps_refuses_a_non_finite_coordinate(where, bad):
    """JSON has no inf or nan, so no trace dumps is handed may hold one: the
    Trace constructor refuses it, naming the step, and dumps scans nothing."""
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    at = 1 if where == "seed" else len(trace.program.ops) - 1
    resolved = list(trace.resolved)
    resolved[at] = Point(bad, 0.0)
    with pytest.raises(MalformedTrace, match=rf"^step {at}: 'x' must be finite$"):
        Trace(trace.program, tuple(resolved))


def test_seventeen_digit_coordinates():
    text = tracedoc.dumps(sample_doc())
    # a pick coordinate that needs all the digits survives exactly
    value = -0.8660254037844386
    assert f"{value:.17g}" in text
    parsed = json.loads(text)
    assert any(abs(y - value) == 0.0 for y in parsed["y"])


def test_rebuilt_trace_passes_purity_audit():
    doc = tracedoc.loads(tracedoc.dumps(sample_doc()))
    trace = tracedoc.trace_from_document(doc)
    report = purity_audit(trace)
    assert report.circles == 6 and report.picks == 6 and report.seeds == 2
    m = trace.output_points()[0]
    assert math.hypot(m.x - 0.5, m.y) <= 1e-9


def test_script_result_serializes():
    result = run_source("given A = (1, 0)\ngiven B = (2, 0)\n"
                        "let M = midpoint(A, B)\n")
    doc = tracedoc.document_from_trace(result.trace, result.seed_names, ("M",))
    text = tracedoc.dumps(doc)
    rebuilt = tracedoc.trace_from_document(tracedoc.loads(text))
    assert rebuilt.output_points()[0].x == pytest.approx(1.5, abs=1e-9)


def _mutate(text, **changes):
    data = json.loads(text)
    data.update(changes)
    return json.dumps(data)


def _entry(field, index, edit):
    """An edit of the document's data that replaces data[field][index] by
    ``edit`` of it."""
    def apply(data):
        data[field][index] = edit(data[field][index])
        return data
    return apply


def test_document_rejects_resolved_kind_mismatch():
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    pick = next(i for i, (op, _, _) in enumerate(trace.program.steps)
                if op in (OP_LEFT, OP_RIGHT))
    resolved = list(trace.resolved)
    resolved[pick] = resolved[pick - 1]  # a circle where a point belongs
    with pytest.raises(MalformedTrace, match=rf"^step {pick}:"):
        Trace(trace.program, tuple(resolved))


# op and second columns of the apex program on (0, 0), (1, 0), made malformed
S, C, L = OP_SEED, OP_CIRCLE, OP_LEFT
MALFORMED_PROGRAMS = {
    "forward-reference": ((S, S, C, C, L), (-1, -1, 3, 0, 3), "^step 2:"),
    "unknown-op": ((S, S, C, C, 7), (-1, -1, 1, 0, 3), "^step 4: unknown op"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PROGRAMS))
def test_consumers_refuse_what_loads_refuses(name):
    """A program that loads refuses cannot be built by hand either, so no
    consumer (the audit, dumps, the SVG) is ever handed one."""
    ops, second, error = MALFORMED_PROGRAMS[name]
    with pytest.raises(MalformedProgram, match=error):
        Program(2, ops, (0, 1, 0, 1, 2), second, (4,))


def _program_case(seed_count=2, ops=(S, S, C), first=(0, 1, 0), outputs=(), error=""):
    """A program of two seeds and a circle, one column entry not an int: its
    build, the MalformedProgram it raises, and no seeds to execute."""
    return (lambda: Program(seed_count, ops, first, (-1, -1, 1), outputs),
            MalformedProgram, error, None)


def _value_case(key, at, value, error):
    """The midpoint sample's trace with entry ``at`` of its ``key`` column
    replaced: its build, the MalformedTrace it raises, and its seeds."""
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    columns = {"x": trace.resolved.xs, "y": trace.resolved.ys, "radius": trace.resolved.rs}
    columns[key] = columns[key][:at] + (value,) + columns[key][at + 1:]
    seeds = tuple(map(Point, columns["x"][:2], columns["y"][:2]))
    return (lambda: Trace(trace.program, Resolved(*columns.values())),
            MalformedTrace, error, seeds)


# name: (build, the error type and message it raises, the seeds of a trace
# case); the sample has seeds at steps 0 and 1, a circle at step 2 and a
# pick at step 4
NON_NUMBER_COLUMNS = {
    "float-first": _program_case(first=(0, 1, 0.0), error="^step 2: 'first' must be an integer$"),
    "float-output": _program_case(outputs=(1.0,),
                                  error="^output 0: 'outputs' must be an integer$"),
    "string-output": _program_case(outputs=("1",),
                                   error="^output 0: 'outputs' must be an integer$"),
    "float-op": _program_case(ops=(S, S, 1.0), error="^step 2: unknown op 1.0$"),
    "bool-op": _program_case(ops=(S, S, True), error="^step 2: unknown op True$"),
    "float-seed-count": _program_case(seed_count=2.0,
                                      error="^'seed_count' must be an integer$"),
    "string-x-pick": _value_case("x", 4, "a", "^step 4: 'x' must be a number$"),
    "null-x-pick": _value_case("x", 4, None, "^step 4: 'x' must be a number$"),
    "string-x-seed": _value_case("x", 1, "a", "^step 1: 'x' must be a number$"),
    "null-y-seed": _value_case("y", 0, None, "^step 0: 'y' must be a number$"),
    "string-radius": _value_case("radius", 2, "1", "^step 2: 'radius' must be a number$"),
}


@pytest.mark.parametrize("name", sorted(NON_NUMBER_COLUMNS))
def test_non_number_columns_raise_typed_errors(name):
    """A column entry that is not an int (in a program) or not a number (in a
    trace) is a typed error where the record is built, so no consumer is
    handed one. ``execute`` on a trace case's seeds refuses a seed that is
    not a number, and otherwise gives a trace the audit passes."""
    build, error, message, seeds = NON_NUMBER_COLUMNS[name]
    with pytest.raises(error, match=message):
        build()
    if seeds is None:
        return
    if not set(map(type, (*seeds[0], *seeds[1]))) <= {int, float}:
        with pytest.raises(NonFiniteInput, match="is not a pair of numbers$"):
            execute(midpoint_program(), seeds)
    else:
        purity_audit(execute(midpoint_program(), seeds))


# --- the columnar document -----------------------------------------------------

# The sample's columns: seeds 0 and 1, circles at steps 2, 3, 6, 8, 11 and 12,
# and picks at steps 4, 5, 7, 9, 10 and 13, so its eight point steps, whose
# coordinates x and y hold, are 0, 1, 4, 5, 7, 9, 10 and 13.

def sample_data():
    return json.loads(tracedoc.dumps(sample_doc()))


def test_sample_columns():
    assert sample_data() == {
        "version": 2, "seed_names": ["A", "B"],
        "op": ["seed", "seed", "circle", "circle", "left", "right", "circle", "left",
               "circle", "left", "right", "circle", "circle", "right"],
        "first": [0, 1, 0, 1, 3, 3, 4, 6, 7, 8, 8, 9, 10, 11],
        "second": [-1, -1, 1, 0, 2, 2, 5, 2, 1, 3, 3, 1, 1, 12],
        "x": [0, 1, 0.5, 0.5, -0.99999999999999978, 0.75, 0.75, 0.49999999999999978],
        "y": [0, 0, -0.8660254037844386, 0.8660254037844386, -1.1102230246251565e-16,
              0.96824583655185426, -0.96824583655185426, 1.1102230246251565e-16],
        "outputs": [13], "output_names": ["M"]}


def test_malformed_v2_documents_rejected():
    """Text that is not JSON, a version other than the integer 2 (version 1
    included), and edits that refer to the wrong node, name an unknown op or
    hold a non-finite coordinate."""
    text = tracedoc.dumps(sample_doc())

    with pytest.raises(MalformedTrace, match="^not valid JSON: "):
        tracedoc.loads("not json at all {")
    for version in (1, 3, 99, True, 2.0, None):
        with pytest.raises(MalformedTrace, match=rf"^unsupported version {version!r}$"):
            tracedoc.loads(_mutate(text, version=version))
    with pytest.raises(MalformedTrace, match="^step 0: misplaced seed$"):
        tracedoc.loads(_mutate(text, seed_names=[]))
    for edit, message in [
            (_entry("op", 2, lambda op: "ruler"), "^step 2: unknown op 'ruler'$"),
            (_entry("first", 2, lambda u: 40), "^step 2: reference outside"),
            (_entry("first", 4, lambda u: 0), "^step 4: pick over non-circle nodes$"),
            (_entry("op", 4, lambda op: "upper"), "^step 4: unknown op 'upper'$"),
            (_entry("outputs", 0, lambda k: 2), "^output 0: id 2 is not a point node$")]:
        with pytest.raises(MalformedTrace, match=message):
            tracedoc.loads(json.dumps(edit(sample_data())))
    with pytest.raises(MalformedTrace, match="^step 0: 'x' must be finite$"):
        tracedoc.loads(text.replace('"x":[0,', '"x":[1e999,', 1))


# name: (edit of the sample's data, the error loads raises): a document or
# column of the wrong JSON type, or an entry of one
LOADS_ERRORS_V2 = {
    "document-array": (lambda d: [d], "^document must be a JSON object$"),
    "column-object": (lambda d: {**d, "x": {}}, "^seed_names, op, first, second, x, y, "
                      "outputs, output_names must be arrays$"),
    "column-missing": (lambda d: {k: v for k, v in d.items() if k != "outputs"},
                       "must be arrays$"),
    "string-x": (_entry("x", 0, lambda x: "0"), "^step 0: 'x' must be a number$"),
    "string-id": (_entry("first", 0, lambda u: "0"), "^step 0: 'first' must be an integer$"),
    "seed-name-not-string": (_entry("seed_names", 0, lambda name: 3),
                             "^step 0: 'seed_names' must be a string or null$"),
    "output-without-name": (lambda d: {**d, "output_names": []},
                            "^output 0: 'output_names' holds 0 entries, not 1$"),
    "output-id-bool": (_entry("outputs", 0, lambda k: True),
                       "^output 0: 'outputs' must be an integer$"),
}


@pytest.mark.parametrize("name", sorted(LOADS_ERRORS_V2))
def test_v2_loads_names_what_is_wrong(name):
    edit, message = LOADS_ERRORS_V2[name]
    with pytest.raises(MalformedTrace, match=message):
        tracedoc.loads(json.dumps(edit(sample_data())))


# name: (column, index, value, step named in the error): hand edits of the
# sample that loads refuses, naming the step
HAND_BUILT_V2 = {
    "circle-over-circle": ("first", 3, 2, 3),
    "forward-reference": ("first", 2, 5, 2),
    "negative-reference": ("first", 3, -1, 3),
    "pick-over-point": ("second", 4, 0, 4),
    "unknown-selector": ("op", 4, "up", 4),
    "nan-pick": ("x", 2, math.nan, 4),
    "nan-seed": ("y", 1, math.nan, 1),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_V2))
def test_hand_built_v2_document_is_checked(name):
    key, index, value, node = HAND_BUILT_V2[name]
    data = sample_data()
    data[key][index] = value
    with pytest.raises(MalformedTrace, match=rf"^step {node}:"):
        tracedoc.loads(json.dumps(data))


def _set(key, index, value):
    """An edit of the sample's data: data[key][index] = value."""
    return _entry(key, index, lambda old: value)


# name: (edit of the sample's data, the error loads raises): what the column
# checks and the Program constructor refuse, each named by its step or output
V2_READER = {
    "nan-x": (_set("x", 3, math.nan), "^step 5: 'x' must be finite$"),
    "infinity-x": (_set("x", 0, math.inf), "^step 0: 'x' must be finite$"),
    "minus-infinity-y": (_set("y", 7, -math.inf), "^step 13: 'y' must be finite$"),
    "integer-past-floats-x": (_set("x", 1, 10 ** 400), "^step 1: 'x' must be finite$"),
    "bool-x": (_set("x", 2, False), "^step 4: 'x' must be a number$"),
    "true-first": (_set("first", 6, True), "^step 6: 'first' must be an integer$"),
    "true-second": (_set("second", 0, True), "^step 0: 'second' must be an integer$"),
    "float-first": (_set("first", 6, 4.0), "^step 6: 'first' must be an integer$"),
    "true-output": (_set("outputs", 0, True), "^output 0: 'outputs' must be an integer$"),
    "list-op": (_set("op", 3, ["circle"]), r"^step 3: unknown op \['circle'\]$"),
    "number-op": (_set("op", 3, 1), "^step 3: unknown op 1$"),
    "null-op": (_set("op", 0, None), "^step 0: unknown op None$"),
    "short-second": (lambda d: {**d, "second": d["second"][:-1]},
                     "^step 13: 'second' holds 13 entries, not 14$"),
    "long-first": (lambda d: {**d, "first": d["first"] + [0]},
                   "^step 14: 'first' holds 15 entries, not 14$"),
    "short-x": (lambda d: {**d, "x": d["x"][:-1]}, "^step 13: 'x' holds 7 entries, not 8$"),
    "long-y": (lambda d: {**d, "y": d["y"] + [0.5]}, "^step 14: 'y' holds 9 entries, not 8$"),
    "pick-made-circle": (_set("op", 4, "circle"), "^step 14: 'x' holds 8 entries, not 7$"),
    "circle-made-pick": (_set("op", 2, "left"), "^step 13: 'x' holds 8 entries, not 9$"),
    "output-name-int": (_set("output_names", 0, 7),
                        "^output 0: 'output_names' must be a string$"),
    "output-name-null": (_set("output_names", 0, None),
                         "^output 0: 'output_names' must be a string$"),
    "extra-output-name": (lambda d: {**d, "output_names": ["M", "N"]},
                          "^output 1: 'output_names' holds 2 entries, not 1$"),
    "misplaced-seed": (_set("op", 5, "seed"), "^step 5: misplaced seed$"),
    "seed-slot": (_set("first", 1, 0), r"^step 1: expected Seed\(slot=1\)"),
    "circle-through-its-center": (_set("second", 2, 0),
                                  "^step 2: circle through its own center$"),
    "pick-of-itself": (_set("second", 4, 3), "^step 4: pick of a circle with itself$"),
}


@pytest.mark.parametrize("name", sorted(V2_READER))
def test_v2_reader_names_the_step_or_output(name):
    edit, message = V2_READER[name]
    with pytest.raises(MalformedTrace, match=message):
        tracedoc.loads(json.dumps(edit(sample_data())))


_JSON_VALUE = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=3), st.sampled_from(tracedoc.OP_NAMES),
                        st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@given(st.lists(st.tuples(st.sampled_from(sorted(sample_data())), st.integers(0, 20),
                          _JSON_VALUE), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_v2_reader_raises_only_malformed_trace(edits):
    """Any entry of any column replaced by any JSON value: loads returns a
    document that dumps writes back, or raises MalformedTrace, nothing else."""
    data = sample_data()
    for key, index, value in edits:
        if type(data[key]) is list and data[key]:
            data[key][index % len(data[key])] = value
        else:
            data[key] = value
    try:
        doc = tracedoc.loads(json.dumps(data))
    except MalformedTrace:
        return
    text = tracedoc.dumps(doc)
    assert tracedoc.dumps(tracedoc.loads(text)) == text


def test_a_negative_zero_keeps_its_sign():
    # "%.17g" writes -0.0 as -0, which JSON reads as the integer 0
    trace = execute(midpoint_program(), (Point(-0.0, 0.0), Point(1.0, -0.0)))
    text = tracedoc.dumps(tracedoc.document_from_trace(trace))
    assert '"x":[-0.0,1,' in text and '"y":[0,-0.0,' in text
    again = tracedoc.loads(text)
    assert math.copysign(1.0, again.trace.resolved.xs[0]) == -1.0
    assert math.copysign(1.0, again.trace.resolved.ys[1]) == -1.0
    assert tracedoc.dumps(again) == text


def test_a_float_seed_count_is_refused_when_built():
    # document_from_trace padded the seed names by multiplying a tuple by
    # 2.0, a bare TypeError; no trace of such a program can be built now
    with pytest.raises(MalformedProgram, match="^'seed_count' must be an integer$"):
        Program(2.0, (S, S), (0, 1), (-1, -1), (0,))


def test_degenerate_circle_in_v2_document():
    doc_text = ('{"version":2,"seed_names":[null,null],"op":["seed","seed","circle"],'
                '"first":[0,1,0],"second":[-1,-1,1],"x":[0,0],"y":[0,0],'
                '"outputs":[],"output_names":[]}')
    with pytest.raises(MalformedTrace, match="^step 2: degenerate circle"):
        tracedoc.loads(doc_text)


def test_overflowing_circle_in_v2_document():
    doc_text = ('{"version":2,"seed_names":[null,null],"op":["seed","seed","circle"],'
                '"first":[0,1,0],"second":[-1,-1,1],"x":[1e308,-1e308],"y":[1e308,-1e308],'
                '"outputs":[],"output_names":[]}')
    with pytest.raises(MalformedTrace, match="^step 2: circle radius is not finite"):
        tracedoc.loads(doc_text)


@pytest.mark.parametrize("digits", [400, 5000],
                         ids=["integer-beyond-float-range", "integer-beyond-digit-limit"])
def test_v2_loads_rejects_what_python_cannot_hold(digits):
    with pytest.raises(MalformedTrace):
        tracedoc.loads('{"version":2,"seed_names":[null],"op":["seed"],"first":[0],'
                       '"second":[-1],"x":[1' + "0" * digits + '],"y":[0],'
                       '"outputs":[],"output_names":[]}')


@pytest.mark.parametrize("text", ["[" * 200000], ids=["nested-too-deep"])
def test_loads_rejects_what_python_cannot_hold(text):
    with pytest.raises(MalformedTrace, match="^not valid JSON: "):
        tracedoc.loads(text)


def test_script_mix_pool_round_trips(monkeypatch):
    """Every valid script of the benchmark's script-mix pool at its default
    seed, as ``perfbench/run.py --seconds 1`` builds it, writes a trace that
    loads to its own trace and writes back byte for byte."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    pool = importlib.import_module("workloads").ScriptMix().make_pool(20141011, 0.2)
    valid = [item for item in pool if item.error is None]
    assert len(valid) > 30
    for item in valid:
        result = run_source(item.source)
        text = tracedoc.dumps(tracedoc.document_from_trace(
            result.trace, result.seed_names, tuple(name for name, _ in result.named_points)))
        doc = tracedoc.loads(text)
        assert doc.trace == result.trace
        assert tracedoc.dumps(doc) == text
