"""A mutation gate for trace files: what ``tracedoc.loads`` accepts is what
its program gives.

The inputs are the trace of every demo and good corpus script, as ``compass
run --trace`` writes it, and its frozen version 1 twin under ``traces_v1/``.
Each mutation edits one step (or output) of the document, in 20 draws per
script from ``random.Random(1410)``, and is applied to both formats alike.

- The contract: ``loads`` raises MalformedTrace, or every stored point (each
  seed and pick) equals a replay of the loaded program on its stored seeds
  within 1e-9 times the seeds' scale. The five point mutations break it
  today, because nothing replays a loaded trace; those rows are strict
  xfails, and flip when the exact replay lands (ROADMAP item 3). The
  structural mutations, which ``Program.check`` refuses, hold it and must
  keep holding it.
- One reader: each mutated version 1 twin gets the verdict of its version 2
  text. Both raise MalformedTrace, or both load to equal documents.
"""

import functools
import json
import math
import random
from pathlib import Path

import pytest

from compass import cli, dsl, tracedoc
from compass.demos import DEMOS
from compass.errors import CompassError, MalformedTrace
from compass.program import OP_CIRCLE, OP_LEFT, OP_RIGHT, OP_SEED, execute

HERE = Path(__file__).parent
DRAWS = 20
TOLERANCE = 1e-9


@functools.cache
def _traces() -> tuple:
    """(frozen v1 file name, v2 text, v1 text) of every demo and good corpus
    script, the v2 text as ``compass run --trace`` writes it."""
    sources = {f"demo-{name}.json": source for name, source in DEMOS.items()}
    sources.update({f"{path.stem}.json": path.read_text(encoding="utf-8")
                    for path in (HERE / "corpus" / "good").glob("*.compass")})
    return tuple((name, cli._RENDERERS["trace"](dsl.run_source(source)),
                  (HERE / "traces_v1" / name).read_text(encoding="utf-8"))
                 for name, source in sorted(sources.items()))


# A mutation takes a loaded trace and the draws' random.Random and gives its
# edits, each (step or output, index, field, value), the fields named as the
# version 2 columns are.

def _steps(trace, *ops):
    return [i for i, op in enumerate(trace.program.ops) if op in ops]


def _nudge_x(steps, delta):
    def mutate(trace, rng):
        i = rng.choice(steps(trace))
        return [("step", i, "x", trace.resolved.xs[i] + delta)]
    return mutate


def _flip_selector(trace, rng):
    i = rng.choice(_steps(trace, OP_LEFT, OP_RIGHT))
    return [("step", i, "op", "right" if trace.program.ops[i] == OP_LEFT else "left")]


def _swap_circle(trace, rng):
    i = rng.choice(_steps(trace, OP_CIRCLE))
    p = trace.program
    return [("step", i, "first", p.second[i]), ("step", i, "second", p.first[i])]


def _pick_over_point(trace, rng):
    i = rng.choice(_steps(trace, OP_LEFT, OP_RIGHT))
    points = [j for j in _steps(trace, OP_SEED, OP_LEFT, OP_RIGHT) if j < i]
    return [("step", i, "first", rng.choice(points))]


def _self_reference(trace, rng):
    i = rng.choice(_steps(trace, OP_CIRCLE, OP_LEFT, OP_RIGHT))
    return [("step", i, rng.choice(("first", "second")), i)]


def _circle_over_circle(trace, rng):
    circles = _steps(trace, OP_CIRCLE)
    i = rng.choice(circles[1:])
    return [("step", i, "first", rng.choice([j for j in circles if j < i]))]


def _output_on_circle(trace, rng):
    return [("output", rng.randrange(len(trace.program.outputs)), "outputs",
             rng.choice(_steps(trace, OP_CIRCLE)))]


def _item_3(name):
    return pytest.param(name, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True, reason="ROADMAP item 3"))


# the rows ROADMAP item 28 measured: loads accepts them, and most hold
# points their program does not give
POINT_MUTATIONS = {
    "pick-x-plus-1e-3": _nudge_x(lambda t: _steps(t, OP_LEFT, OP_RIGHT), 1e-3),
    "last-pick-x-plus-123": _nudge_x(lambda t: _steps(t, OP_LEFT, OP_RIGHT)[-1:], 123.0),
    "flipped-selector": _flip_selector,
    "swapped-circle-operands": _swap_circle,
    "seed-x-plus-1e-3": _nudge_x(lambda t: _steps(t, OP_SEED), 1e-3),
}
# what Program.check refuses, in either format
STRUCTURAL_MUTATIONS = {
    "pick-over-point": _pick_over_point,
    "self-reference": _self_reference,
    "circle-over-circle": _circle_over_circle,
    "output-on-circle": _output_on_circle,
}
MUTATIONS = {**POINT_MUTATIONS, **STRUCTURAL_MUTATIONS}


def _edit_v2(text, edits):
    data = json.loads(text)
    points = [i for i, op in enumerate(data["op"]) if op != "circle"]
    for _, i, field, value in edits:  # an output edit names its column, "outputs"
        if field == "x":
            i = points.index(i)
        data[field][i] = value
    return json.dumps(data)


# a version 2 field, by the op of the step it edits: its version 1 name
_V1_FIELDS = {("circle", "first"): "center", ("circle", "second"): "through",
              ("pick", "first"): "c1", ("pick", "second"): "c2", ("pick", "op"): "selector",
              ("seed", "x"): "x", ("pick", "x"): "x"}


def _edit_v1(text, edits):
    data = json.loads(text)
    nodes = data["seeds"] + data["steps"]
    for where, i, field, value in edits:
        if where == "output":
            data["outputs"][i]["id"] = value
        else:
            node = nodes[i]
            node[_V1_FIELDS[node.get("op", "seed"), field]] = value
    return json.dumps(data)


@functools.cache
def _mutated(name: str) -> tuple:
    """(script, draw, v2 text, v1 text) of every draw of a mutation, one
    random.Random(1410) per mutation."""
    rng, mutate, out = random.Random(1410), MUTATIONS[name], []
    for script, v2, v1 in _traces():
        trace = tracedoc.loads(v2).trace
        for draw in range(DRAWS):
            edits = mutate(trace, rng)
            out.append((script, draw, _edit_v2(v2, edits), _edit_v1(v1, edits)))
    return tuple(out)


def _replays(text: str) -> bool:
    """The contract: loads refuses the text, or every stored point is the
    replay's within TOLERANCE times the seeds' scale."""
    try:
        trace = tracedoc.loads(text).trace
    except MalformedTrace:
        return True
    try:
        replay = execute(trace.program, trace.seed_values)
    except CompassError:  # loaded, but its program does not replay
        return False
    n = trace.program.seed_count
    r, s = trace.resolved, replay.resolved
    scale = max([1.0, *map(abs, r.xs[:n]), *map(abs, r.ys[:n])])
    return all(math.hypot(r.xs[i] - s.xs[i], r.ys[i] - s.ys[i]) <= TOLERANCE * scale
               for i, radius in enumerate(r.rs) if radius is None)


def test_the_gate_covers_every_frozen_v1_trace():
    names = {name for name, _, _ in _traces()}
    assert names == {path.name for path in (HERE / "traces_v1").glob("*.json")}
    assert len(names) == 23


@pytest.mark.parametrize("name", [*map(_item_3, POINT_MUTATIONS), *STRUCTURAL_MUTATIONS])
def test_loads_refuses_or_the_points_replay(name):
    broken = [(script, draw) for script, draw, v2, _ in _mutated(name) if not _replays(v2)]
    assert not broken, f"{len(broken)} mutated traces load and do not replay: {broken[:3]}"


def _verdict(text: str):
    try:
        return tracedoc.loads(text)
    except MalformedTrace:
        return MalformedTrace


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_v1_twin_gets_the_same_verdict(name):
    for script, draw, v2, v1 in _mutated(name):
        assert _verdict(v1) == _verdict(v2), (script, draw)
