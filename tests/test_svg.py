import pytest
from hypothesis import example, given, strategies as st

from compass import svg
from compass.constructions import midpoint_program
from compass.dsl import run_source
from compass.errors import MalformedTrace, NonFiniteInput
from compass.geom import Point
from compass.program import OP_CIRCLE, OP_LEFT, OP_RIGHT, Trace, execute
from compass.svg import render_trace


def midpoint_result():
    return run_source("given A = (1, 0)\ngiven B = (2, 0)\n"
                      "let M = midpoint(A, B)\n")


def test_one_circle_element_per_circle_step():
    result = midpoint_result()
    text = render_trace(result.trace)
    assert text.count("<circle ") == result.trace.circle_count == 6


def test_dots_are_paths_not_circles():
    result = midpoint_result()
    text = render_trace(result.trace)
    # seeds + picks each get a dot path; none of them adds a circle element
    dots = text.count('<path class="dot"')
    assert dots == 2 + 6


def test_given_black_constructed_red():
    result = midpoint_result()
    names = {0: "A", 1: "B", **{n: nm for nm, n in result.named_points}}
    text = render_trace(result.trace, names)
    # one black dot per given point (labels reuse the color)
    assert text.count('fill="#000000"><title>') == 2
    assert 'stroke="#cc0000"' in text
    assert ">A</text>" in text and ">M</text>" in text


def test_titles_carry_step_indices():
    result = midpoint_result()
    text = render_trace(result.trace)
    assert "<title>step 2: circle(center n0, through n1)</title>" in text
    assert "step 4: pick(" in text


def test_render_is_deterministic():
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    assert render_trace(trace) == render_trace(trace)


def test_svg_is_well_formed_enough():
    import xml.etree.ElementTree as ET
    result = midpoint_result()
    root = ET.fromstring(render_trace(result.trace,
                                      {0: "A", 1: "B"}))
    assert root.tag.endswith("svg")
    assert root.get("viewBox")
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    assert len(circles) == 6
    for c in circles:
        assert float(c.get("r")) > 0


def test_labels_are_escaped():
    import xml.etree.ElementTree as ET
    root = ET.fromstring(render_trace(midpoint_result().trace, {0: "a<b&c"}))
    text = root.find("{http://www.w3.org/2000/svg}text")
    assert text.text == "a<b&c"


PICK, CIRCLE = (OP_LEFT, OP_RIGHT), (OP_CIRCLE,)


@pytest.mark.parametrize("kind, stand_in", [(PICK, CIRCLE), (CIRCLE, PICK)],
                         ids=["pick-as-circle", "circle-as-pick"])
def test_resolved_kind_mismatch_raises(kind, stand_in):
    """A value of the wrong kind is a MalformedTrace, also under -O."""
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    ops = trace.program.ops
    at = next(i for i, op in enumerate(ops) if op in kind)
    source = next(i for i, op in enumerate(ops) if op in stand_in)
    resolved = list(trace.resolved)
    resolved[at] = resolved[source]
    with pytest.raises(MalformedTrace, match=rf"^step {at}:"):
        Trace(trace.program, tuple(resolved))


@pytest.mark.parametrize("label", [3, b"A", ["A"]])
def test_a_label_that_is_not_a_string_raises(label):
    # label.replace raised a bare AttributeError here
    with pytest.raises(MalformedTrace, match="^step 1: name must be a string$"):
        render_trace(midpoint_result().trace, {1: label})


def test_overflowing_view_box_raises():
    # both points are finite, the figure's width is not
    result = run_source("given A = (1e308, 0)\ngiven B = (-1e308, 0)\n")
    with pytest.raises(NonFiniteInput, match="view box"):
        render_trace(result.trace)


def _two_formats(x):
    """The number format before the SVG had one: 10 digits, "-0" as "0"."""
    s = f"{x:.10g}"
    return "0" if s == "-0" else s


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(-1e-320)
@example(-1e-300)
def test_one_number_format(x):
    assert svg._n(x) == _two_formats(x)
