"""Deterministic SVG 1.1 rendering of traces.

Drawing convention mirrors the source figures: given points are black,
everything constructed is red. Each <circle> element corresponds to exactly
one circle step of the trace (point markers are filled paths, not circle
elements, to keep that one-to-one mapping checkable). Output contains no
timestamps and uses fixed number formatting, so identical traces render to
identical bytes. A ``Trace`` is valid by construction: nothing here checks it.

Every number is written one way, ``f"{v + 0.0:.10g}"``: 10 significant
digits, where adding zero turns -0.0 into 0.0 and leaves every other double
as it is. ``_n`` is that format; the per-step loop writes it inline.

The view box comes from four C-level passes over the columns, with each
point's None radius read as 0.0; each circle and each dot is then one
f-string around a head or tail built once per figure.
"""

from __future__ import annotations

import math
import operator

from .errors import MalformedTrace, NonFiniteInput
from .program import OP_CIRCLE, OP_SEED, SELECTOR_NAMES, Trace

_GIVEN_COLOR = "#000000"
_BUILT_COLOR = "#cc0000"


def _n(x: float) -> str:
    return f"{x + 0.0:.10g}"


def render_trace(trace: Trace, names: dict[int, str] | None = None) -> str:
    """Render a trace: every circle step, every picked point, every seed.

    ``names`` labels point steps. Raises MalformedTrace, naming the step,
    for a label that is not a string, as ``tracedoc.dumps`` does. Raises
    NonFiniteInput where the view box overflows: the figure spans more than
    a float holds, though every coordinate in it is finite.
    """
    names = names or {}
    program = trace.program
    ops, first, second = program.ops, program.first, program.second
    xs, ys, rs = trace.resolved.xs, trace.resolved.ys, trace.resolved.rs

    # bounding box of every point and every circle (a point's r is None)
    rs0 = [0.0 if r is None else r for r in rs]
    left = min(map(operator.sub, xs, rs0), default=0.0)
    right = max(map(operator.add, xs, rs0), default=0.0)
    bottom = min(map(operator.sub, ys, rs0), default=0.0)
    top = max(map(operator.add, ys, rs0), default=0.0)
    span = max(right - left, top - bottom, 1e-6)
    margin = 0.1 * span
    x0 = left - margin
    y0 = -(top + margin)
    width = (right - left) + 2 * margin
    height = (top - bottom) + 2 * margin
    if not all(map(math.isfinite, (x0, y0, width, height))):
        raise NonFiniteInput(f"view box {x0} {y0} {width} {height} is not finite")
    dot_r = 0.009 * span
    font = _n(0.035 * span)
    # everything of a dot's path after its start point, up to its title's
    # step number, is the same for all seeds and for all picks
    r = _n(dot_r)
    arcs = f" a {r} {r} 0 1 0 {_n(2 * dot_r)} 0 a {r} {r} 0 1 0 {_n(-2 * dot_r)} 0 Z"
    seed_head = f'{arcs}" fill="{_GIVEN_COLOR}"><title>step '
    pick_head = f'{arcs}" fill="{_BUILT_COLOR}"><title>step '
    circle_tail = (f'" fill="none" stroke="{_BUILT_COLOR}" '
                   f'stroke-width="{_n(0.004 * span)}"><title>step ')

    # SVG y grows downward; y is mirrored so the figure reads the usual way up
    circles: list[str] = []
    dots: list[str] = []
    for i, op in enumerate(ops):
        x = xs[i]
        y = -ys[i]
        if op == OP_CIRCLE:
            circles.append(
                f'  <circle cx="{x + 0.0:.10g}" cy="{y + 0.0:.10g}" '
                f'r="{rs[i] + 0.0:.10g}{circle_tail}{i}: circle(center '
                f'n{first[i]}, through n{second[i]})</title></circle>\n')
            continue
        if op == OP_SEED:
            dots.append(f'  <path class="dot" d="M {x - dot_r + 0.0:.10g} {y + 0.0:.10g}'
                        f'{seed_head}{i}: seed {first[i]}</title></path>\n')
        else:
            dots.append(f'  <path class="dot" d="M {x - dot_r + 0.0:.10g} {y + 0.0:.10g}'
                        f'{pick_head}{i}: pick({SELECTOR_NAMES[op]} of '
                        f'n{first[i]}, n{second[i]})</title></path>\n')
        label = names.get(i)
        if label is not None and not isinstance(label, str):
            raise MalformedTrace(f"step {i}: name must be a string")
        if label:
            color = _GIVEN_COLOR if op == OP_SEED else _BUILT_COLOR
            label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            dots.append(f'  <text x="{_n(x + 1.6 * dot_r)}" y="{_n(y - 1.6 * dot_r)}" '
                        f'font-size="{font}" fill="{color}">{label}</text>\n')

    view = f"{_n(x0)} {_n(y0)} {_n(width)} {_n(height)}"
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">\n'
        + "".join(circles) + "".join(dots)
        + "</svg>\n")
