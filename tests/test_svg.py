import dataclasses

import pytest

from compass.constructions import midpoint_program
from compass.dsl import run_source
from compass.errors import MalformedTrace
from compass.geom import Point
from compass.program import CircleStep, PickStep, execute
from compass.svg import render_trace


def midpoint_result():
    return run_source("given A = (1, 0)\ngiven B = (2, 0)\n"
                      "let M = midpoint(A, B)\n")


def test_one_circle_element_per_circle_step():
    result = midpoint_result()
    text = render_trace(result.trace)
    assert text.count("<circle ") == result.trace.circle_count == 7


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
    assert len(circles) == 7
    for c in circles:
        assert float(c.get("r")) > 0


@pytest.mark.parametrize("kind, stand_in", [(PickStep, CircleStep),
                                             (CircleStep, PickStep)])
def test_resolved_kind_mismatch_raises(kind, stand_in):
    """A value of the wrong kind is a MalformedTrace, also under -O."""
    trace = execute(midpoint_program(), (Point(0, 0), Point(1, 0)))
    steps = trace.program.steps
    at = next(i for i, s in enumerate(steps) if type(s) is kind)
    source = next(i for i, s in enumerate(steps) if type(s) is stand_in)
    resolved = list(trace.resolved)
    resolved[at] = resolved[source]
    bad = dataclasses.replace(trace, resolved=tuple(resolved))
    with pytest.raises(MalformedTrace, match=rf"^step {at}:"):
        render_trace(bad)
