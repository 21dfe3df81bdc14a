"""Deterministic SVG 1.1 rendering of traces.

Drawing convention mirrors the source figures: given points are black,
everything constructed is red. Each <circle> element corresponds to exactly
one circle step of the trace (point markers are filled paths, not circle
elements, to keep that one-to-one mapping checkable). Output contains no
timestamps and uses fixed number formatting, so identical traces render to
identical bytes.

Numbers are written with 10 significant digits and "-0" is written as "0".
The per-step loop formats ``v + 0.0`` in place of calling ``_n``: adding
zero turns -0.0 into 0.0 and leaves every other double as it is.
"""

from __future__ import annotations

from .errors import MalformedTrace
from .geom import Point, ResolvedCircle
from .program import CircleStep, PickStep, Seed, Selector, Trace

_GIVEN_COLOR = "#000000"
_BUILT_COLOR = "#cc0000"
_SELECTOR_NAMES = {s: s.value for s in Selector}


def _n(x: float) -> str:
    s = f"{x:.10g}"
    return "0" if s == "-0" else s


def render_trace(trace: Trace, names: dict[int, str] | None = None) -> str:
    """Render a trace: every circle step, every picked point, every seed.

    Raises MalformedTrace when a resolved value's kind disagrees with its
    step, so a hand-built trace fails the same way with or without ``-O``.
    """
    names = names or {}
    steps = trace.program.steps
    resolved = trace.resolved
    if len(resolved) != len(steps):
        raise MalformedTrace("resolved values do not cover the steps")

    # bounding box of every point and every circle, in step order
    xs: list[float] = []
    ys: list[float] = []
    for i, step in enumerate(steps):
        value = resolved[i]
        kind = type(step)
        if kind is CircleStep:
            if type(value) is not ResolvedCircle:
                raise MalformedTrace(f"step {i}: circle resolved to non-circle")
            c = value.center
            r = value.radius
            xs += (c.x - r, c.x + r)
            ys += (c.y - r, c.y + r)
        elif kind is PickStep or kind is Seed:
            if type(value) is not Point:
                raise MalformedTrace(f"step {i}: point step resolved to non-point")
            xs.append(value.x)
            ys.append(value.y)
        else:
            raise MalformedTrace(f"step {i}: unknown step kind {step!r}")
    if not xs:
        xs = ys = [0.0]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    margin = 0.1 * span
    x0 = min(xs) - margin
    width = (max(xs) - min(xs)) + 2 * margin
    height = (max(ys) - min(ys)) + 2 * margin
    dot_r = 0.009 * span
    font = _n(0.035 * span)
    # everything of a dot's path after its start point is the same for all dots
    r = _n(dot_r)
    arcs = f" a {r} {r} 0 1 0 {_n(2 * dot_r)} 0 a {r} {r} 0 1 0 {_n(-2 * dot_r)} 0 Z"
    circle_tail = (f'" fill="none" stroke="{_BUILT_COLOR}" '
                   f'stroke-width="{_n(0.004 * span)}"><title>step ')

    # SVG y grows downward; y is mirrored so the figure reads the usual way up
    circles: list[str] = []
    dots: list[str] = []
    for i, step in enumerate(steps):
        value = resolved[i]
        kind = type(step)
        if kind is CircleStep:
            c = value.center
            circles.append(
                f'  <circle cx="{c.x + 0.0:.10g}" cy="{-c.y + 0.0:.10g}" '
                f'r="{value.radius + 0.0:.10g}{circle_tail}{i}: circle(center '
                f'n{step.center}, through n{step.through})</title></circle>\n')
            continue
        if kind is Seed:
            color = _GIVEN_COLOR
            title = f"step {i}: seed {step.slot}"
        else:
            color = _BUILT_COLOR
            title = (f"step {i}: pick({_SELECTOR_NAMES[step.which]} of "
                     f"n{step.c1}, n{step.c2})")
        x = value.x
        y = -value.y
        dots.append(f'  <path class="dot" d="M {x - dot_r + 0.0:.10g} {y + 0.0:.10g}'
                    f'{arcs}" fill="{color}"><title>{title}</title></path>\n')
        label = names.get(i)
        if label:
            dots.append(f'  <text x="{_n(x + 1.6 * dot_r)}" y="{_n(y - 1.6 * dot_r)}" '
                        f'font-size="{font}" fill="{color}">{label}</text>\n')

    view = f"{_n(x0)} {_n(-(max(ys) + margin))} {_n(width)} {_n(height)}"
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">\n'
        + "".join(circles) + "".join(dots)
        + "</svg>\n")
