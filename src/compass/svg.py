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

import math

from .errors import NonFiniteInput
from .program import OP_CIRCLE, OP_SEED, SELECTOR_NAMES, Trace

_GIVEN_COLOR = "#000000"
_BUILT_COLOR = "#cc0000"


def _n(x: float) -> str:
    s = f"{x:.10g}"
    return "0" if s == "-0" else s


def render_trace(trace: Trace, names: dict[int, str] | None = None) -> str:
    """Render a trace: every circle step, every picked point, every seed.

    Runs ``Trace.check`` first, so a hand-built trace that ``tracedoc.loads``
    would refuse raises a typed error, with or without ``-O``. Raises
    NonFiniteInput where the view box overflows: the figure spans more than
    a float holds, though every coordinate in it is finite.
    """
    names = names or {}
    trace.check()
    program = trace.program
    ops, first, second = program.ops, program.first, program.second
    xs, ys, rs = trace.resolved.xs, trace.resolved.ys, trace.resolved.rs

    # bounding box of every point and every circle, in step order
    box_x: list[float] = []
    box_y: list[float] = []
    for x, y, r in zip(xs, ys, rs):
        if r is None:
            box_x.append(x)
            box_y.append(y)
        else:
            box_x += (x - r, x + r)
            box_y += (y - r, y + r)
    if not box_x:
        box_x = box_y = [0.0]
    span = max(max(box_x) - min(box_x), max(box_y) - min(box_y), 1e-6)
    margin = 0.1 * span
    x0 = min(box_x) - margin
    y0 = -(max(box_y) + margin)
    width = (max(box_x) - min(box_x)) + 2 * margin
    height = (max(box_y) - min(box_y)) + 2 * margin
    if not all(map(math.isfinite, (x0, y0, width, height))):
        raise NonFiniteInput(f"view box {x0} {y0} {width} {height} is not finite")
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
            color = _GIVEN_COLOR
            title = f"step {i}: seed {first[i]}"
        else:
            color = _BUILT_COLOR
            title = (f"step {i}: pick({SELECTOR_NAMES[op]} of "
                     f"n{first[i]}, n{second[i]})")
        dots.append(f'  <path class="dot" d="M {x - dot_r + 0.0:.10g} {y + 0.0:.10g}'
                    f'{arcs}" fill="{color}"><title>{title}</title></path>\n')
        label = names.get(i)
        if label:
            label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            dots.append(f'  <text x="{_n(x + 1.6 * dot_r)}" y="{_n(y - 1.6 * dot_r)}" '
                        f'font-size="{font}" fill="{color}">{label}</text>\n')

    view = f"{_n(x0)} {_n(y0)} {_n(width)} {_n(height)}"
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">\n'
        + "".join(circles) + "".join(dots)
        + "</svg>\n")
