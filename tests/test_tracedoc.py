import dataclasses
import json
import math

import pytest

from compass import svg, tracedoc
from compass.constructions import midpoint_program
from compass.dsl import run_source
from compass.errors import MalformedProgram, MalformedTrace
from compass.geom import Point, ResolvedCircle
from compass.program import (
    OP_CIRCLE,
    OP_LEFT,
    OP_SEED,
    PickStep,
    Program,
    Trace,
    execute,
    purity_audit,
)


def sample_doc():
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    return tracedoc.document_from_trace(trace, ("A", "B"), ("M",))


def test_round_trip_is_byte_identical():
    text = tracedoc.dumps(sample_doc())
    doc = tracedoc.loads(text)
    assert tracedoc.dumps(doc) == text
    # and once more through a rebuilt trace
    trace = tracedoc.trace_from_document(doc)
    again = tracedoc.document_from_trace(trace, doc.seed_names, doc.output_names)
    assert tracedoc.dumps(again) == text


def test_seventeen_digit_coordinates():
    text = tracedoc.dumps(sample_doc())
    # a pick coordinate that needs all the digits survives exactly
    value = -0.8660254037844386
    assert f"{value:.17g}" in text
    parsed = json.loads(text)
    ys = [s["y"] for s in parsed["steps"] if s["op"] == "pick"]
    assert any(abs(y - value) == 0.0 for y in ys)


def test_rebuilt_trace_passes_purity_audit():
    doc = tracedoc.loads(tracedoc.dumps(sample_doc()))
    trace = tracedoc.trace_from_document(doc)
    report = purity_audit(trace)
    assert report.circles == 7 and report.picks == 6 and report.seeds == 2
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


def test_malformed_documents_rejected():
    text = tracedoc.dumps(sample_doc())
    data = json.loads(text)

    with pytest.raises(MalformedTrace):
        tracedoc.loads("not json at all {")
    with pytest.raises(MalformedTrace):
        tracedoc.loads(_mutate(text, version=99))
    # equal to 1 under ==, but not the integer 1
    for version in (True, 1.0):
        with pytest.raises(MalformedTrace, match="unsupported version"):
            tracedoc.loads(_mutate(text, version=version))
    with pytest.raises(MalformedTrace):
        tracedoc.loads(_mutate(text, seeds=[]))

    # unknown step kind
    bad = json.loads(text)
    bad["steps"][0]["op"] = "ruler"
    with pytest.raises(MalformedTrace, match="unknown step kind"):
        tracedoc.loads(json.dumps(bad))

    # non-dense ids
    bad = json.loads(text)
    bad["steps"][0]["id"] = 17
    with pytest.raises(MalformedTrace, match="dense"):
        tracedoc.loads(json.dumps(bad))

    # forward reference
    bad = json.loads(text)
    bad["steps"][0]["center"] = 40
    with pytest.raises(MalformedTrace):
        tracedoc.loads(json.dumps(bad))

    # pick referencing a point node
    bad = json.loads(text)
    for step in bad["steps"]:
        if step["op"] == "pick":
            step["c1"] = 0
            break
    with pytest.raises(MalformedTrace):
        tracedoc.loads(json.dumps(bad))

    # bad selector
    bad = json.loads(text)
    for step in bad["steps"]:
        if step["op"] == "pick":
            step["selector"] = "upper"
            break
    with pytest.raises(MalformedTrace):
        tracedoc.loads(json.dumps(bad))

    # non-finite coordinate
    bad_text = text.replace('"x":0,', '"x":1e999,', 1)
    with pytest.raises(MalformedTrace):
        tracedoc.loads(bad_text)

    # output pointing at a circle node
    bad = json.loads(text)
    circle_id = next(s["id"] for s in bad["steps"] if s["op"] == "circle")
    bad["outputs"][0]["id"] = circle_id
    with pytest.raises(MalformedTrace):
        tracedoc.loads(json.dumps(bad))


def test_degenerate_circle_in_document():
    doc_text = ('{"version":1,"seeds":[{"id":0,"x":0,"y":0},'
                '{"id":1,"x":0,"y":0}],'
                '"steps":[{"id":2,"op":"circle","center":0,"through":1}],'
                '"outputs":[]}')
    with pytest.raises(MalformedTrace, match="^step 2: degenerate circle"):
        tracedoc.loads(doc_text)


@pytest.mark.parametrize("text", [
    '{"version":1,"seeds":[{"id":0,"x":1' + "0" * 400 + ',"y":0}],'
    '"steps":[],"outputs":[]}',
    '{"version":1,"seeds":[{"id":0,"x":1' + "0" * 5000 + ',"y":0}],'
    '"steps":[],"outputs":[]}',
    "[" * 200000,
], ids=["integer-beyond-float-range", "integer-beyond-digit-limit",
        "nested-too-deep"])
def test_loads_rejects_what_python_cannot_hold(text):
    with pytest.raises(MalformedTrace):
        tracedoc.loads(text)


# (array, index, changes, node named in the error). The midpoint sample's
# steps array holds circles at nodes 2 and 3, then a pick at node 4; json
# writes and reads a float NaN as a bare NaN.
HAND_BUILT = {
    "circle-over-circle": ("steps", 1, {"center": 2}, 3),
    "forward-reference": ("steps", 0, {"center": 5}, 2),
    "negative-reference": ("steps", 1, {"center": -1}, 3),
    "pick-over-point": ("steps", 2, {"c2": 0}, 4),
    "unknown-selector": ("steps", 2, {"selector": "up"}, 4),
    "nan-pick": ("steps", 2, {"x": math.nan}, 4),
    "nan-seed": ("seeds", 1, {"y": math.nan}, 1),
    "non-dense-id": ("steps", 2, {"id": 40}, 4),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_document_is_checked(name):
    """loads checks a hand-edited document and names the offending node."""
    field, index, changes, node = HAND_BUILT[name]
    data = json.loads(tracedoc.dumps(sample_doc()))
    assert [s["op"] for s in data["steps"][:3]] == ["circle", "circle", "pick"]
    data[field][index].update(changes)
    with pytest.raises(MalformedTrace, match=rf"^step {node}:"):
        tracedoc.loads(json.dumps(data))


def test_document_rejects_resolved_kind_mismatch():
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    pick = next(i for i, s in enumerate(trace.program.steps)
                if isinstance(s, PickStep))
    resolved = list(trace.resolved)
    resolved[pick] = resolved[pick - 1]  # a circle where a point belongs
    bad = dataclasses.replace(trace, resolved=tuple(resolved))
    with pytest.raises(MalformedTrace, match=rf"^step {pick}:"):
        tracedoc.dumps(tracedoc.document_from_trace(bad))


# op and second columns of the apex program on (0, 0), (1, 0), made malformed
S, C, L = OP_SEED, OP_CIRCLE, OP_LEFT
MALFORMED_PROGRAMS = {
    "forward-reference": ((S, S, C, C, L), (-1, -1, 3, 0, 3), "^step 2:"),
    "unknown-op": ((S, S, C, C, 7), (-1, -1, 1, 0, 3), "^step 4: unknown op"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PROGRAMS))
def test_consumers_refuse_what_loads_refuses(name):
    """A hand-built trace whose values fit its steps' kinds but whose
    program is malformed is refused by the audit, dumps and the SVG."""
    ops, second, error = MALFORMED_PROGRAMS[name]
    program = Program(2, ops, (0, 1, 0, 1, 2), second, (4,))
    o, u = Point(0.0, 0.0), Point(1.0, 0.0)
    trace = Trace(program, (o, u, ResolvedCircle(o, 1.0), ResolvedCircle(u, 1.0),
                            Point(0.5, math.sqrt(3) / 2)))
    for consume in (purity_audit, svg.render_trace,
                    lambda t: tracedoc.dumps(tracedoc.document_from_trace(t))):
        with pytest.raises(MalformedProgram, match=error):
            consume(trace)
