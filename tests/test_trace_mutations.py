"""A mutation gate for trace files: what ``tracedoc.loads`` accepts is what
its program gives.

The inputs are the trace of every demo and good corpus script, as ``compass
run --trace`` writes it. Each mutation edits one step (or output) of the
document, in 20 draws per script from ``random.Random(1410)``.

- The contract: ``loads`` raises MalformedTrace, or every stored point (each
  seed and pick) equals a replay of the loaded program on its stored seeds
  within 1e-9 times the seeds' scale. The five point mutations break it
  today, because nothing replays a loaded trace; those rows are strict
  xfails, and flip when the exact replay lands (ROADMAP item 3). The
  structural mutations, which the ``Program`` constructor refuses, hold it
  and must keep holding it.
- The hypothesis half draws edits of the JSON instead: numbers
  (non-finite ones included), node ids, op names, and whole steps dropped,
  duplicated or moved. See its section below.
"""

import copy
import functools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from compass import cli, dsl, tracedoc
from compass.demos import DEMOS
from compass.errors import CompassError, MalformedProgram, MalformedTrace
from compass.program import OP_CIRCLE, OP_LEFT, OP_RIGHT, OP_SEED, Program, execute

HERE = Path(__file__).parent
GOOD = HERE / "corpus" / "good"
DRAWS = 20
TOLERANCE = 1e-9


@functools.cache
def _traces() -> tuple:
    """(trace file name, text) of every demo and good corpus script, in name
    order, the text as ``compass run --trace`` writes it."""
    sources = {f"demo-{name}.json": source for name, source in DEMOS.items()}
    sources.update({f"{path.stem}.json": path.read_text(encoding="utf-8")
                    for path in GOOD.glob("*.compass")})
    return tuple((name, cli._RENDERERS["trace"](dsl.run_source(source)))
                 for name, source in sorted(sources.items()))


# A mutation takes a loaded trace and the draws' random.Random and gives its
# edits, each (index, column, value): the index is a step's, or for the
# outputs column an output's.

def _steps(trace, *ops):
    return [i for i, op in enumerate(trace.program.ops) if op in ops]


def _nudge_x(steps, delta):
    def mutate(trace, rng):
        i = rng.choice(steps(trace))
        return [(i, "x", trace.resolved.xs[i] + delta)]
    return mutate


def _flip_selector(trace, rng):
    i = rng.choice(_steps(trace, OP_LEFT, OP_RIGHT))
    return [(i, "op", "right" if trace.program.ops[i] == OP_LEFT else "left")]


def _swap_circle(trace, rng):
    i = rng.choice(_steps(trace, OP_CIRCLE))
    p = trace.program
    return [(i, "first", p.second[i]), (i, "second", p.first[i])]


def _pick_over_point(trace, rng):
    i = rng.choice(_steps(trace, OP_LEFT, OP_RIGHT))
    points = [j for j in _steps(trace, OP_SEED, OP_LEFT, OP_RIGHT) if j < i]
    return [(i, "first", rng.choice(points))]


def _self_reference(trace, rng):
    i = rng.choice(_steps(trace, OP_CIRCLE, OP_LEFT, OP_RIGHT))
    return [(i, rng.choice(("first", "second")), i)]


def _circle_over_circle(trace, rng):
    circles = _steps(trace, OP_CIRCLE)
    i = rng.choice(circles[1:])
    return [(i, "first", rng.choice([j for j in circles if j < i]))]


def _output_on_circle(trace, rng):
    return [(rng.randrange(len(trace.program.outputs)), "outputs",
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
# what the Program constructor refuses
STRUCTURAL_MUTATIONS = {
    "pick-over-point": _pick_over_point,
    "self-reference": _self_reference,
    "circle-over-circle": _circle_over_circle,
    "output-on-circle": _output_on_circle,
}
MUTATIONS = {**POINT_MUTATIONS, **STRUCTURAL_MUTATIONS}


def _edit(text, edits):
    data = json.loads(text)
    points = [i for i, op in enumerate(data["op"]) if op != "circle"]
    for i, column, value in edits:
        if column == "x":
            i = points.index(i)
        data[column][i] = value
    return json.dumps(data)


def _mutated(name: str) -> list:
    """(script, draw, text) of every draw of a mutation, one
    random.Random(1410) per mutation."""
    rng, mutate, out = random.Random(1410), MUTATIONS[name], []
    for script, text in _traces():
        trace = tracedoc.loads(text).trace
        for draw in range(DRAWS):
            out.append((script, draw, _edit(text, mutate(trace, rng))))
    return out


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


def test_the_gate_covers_every_demo_and_good_script():
    assert len(_traces()) == len(DEMOS) + len(list(GOOD.glob("*.compass"))) == 23


@pytest.mark.parametrize("name", [*map(_item_3, POINT_MUTATIONS), *STRUCTURAL_MUTATIONS])
def test_loads_refuses_or_the_points_replay(name):
    broken = [(script, draw) for script, draw, text in _mutated(name) if not _replays(text)]
    assert not broken, f"{len(broken)} mutated traces load and do not replay: {broken[:3]}"


# --- the hypothesis half: edits drawn over the JSON -------------------------
#
# An edit is drawn by its kind and applied to the parsed document of one of
# the traces above, and the edited document is written back as JSON, which
# json.loads reads however odd its numbers are (NaN, Infinity, 1e400 and
# 400-digit integers included). The draws are the same on every run.
#
# - Every kind: loads raises MalformedTrace and never another exception; it
#   refuses every non-finite number and every program the Program
#   constructor refuses, and what it loads is the program that constructor
#   builds. These rows pass, and must keep passing.
# - The contract above, of refusing or replaying: the non-finite row passes.
#   The point rows, edits that keep the program well formed and move its
#   points, are strict xfails until the replay lands (ROADMAP item 3).

@functools.cache
def _documents() -> tuple:
    return tuple(json.loads(text) for _, text in _traces())


# non-finite numbers as json.loads reads them; a string here is written
# unquoted, as the number literal it is
NON_FINITE = [math.nan, math.inf, -math.inf, "1e400", "-1e400", 10 ** 400, -(10 ** 400)]
LITERALS = ("1e400", "-1e400")
OP_RENAMES = ["seed", "circle", "left", "right", "pick", "Left", "", None, 2]
NODE_IDS = st.integers(-2, 200) | st.sampled_from([1.0, True, "1", None])


def _rows(data):
    """The steps as rows (op, first, second, (x, y) or None for a circle)."""
    points = iter(zip(data["x"], data["y"]))
    return [[op, u, v, None if op == "circle" else next(points)]
            for op, u, v in zip(data["op"], data["first"], data["second"])]


def _set_rows(data, rows):
    data["op"], data["first"], data["second"] = ([row[k] for row in rows] for k in range(3))
    points = [row[3] for row in rows if row[3] is not None]
    data["x"], data["y"] = [p[0] for p in points], [p[1] for p in points]


@st.composite
def _edits(draw, kind):
    """The text of a document with one edit of ``kind``:

    - "non-finite": an x or y entry becomes one of NON_FINITE;
    - "node-id": a first, second or outputs entry becomes any of NODE_IDS;
    - "rename": an op becomes any of OP_RENAMES;
    - "steps": a step (its x and y with it) is dropped, duplicated or moved;
    - "number", "selector" and "operand", the point rows: an x or y entry
      moves by 1e-3 or more; a pick's selector flips; a circle or pick takes
      another earlier node of the kind it had as an operand.
    """
    data = copy.deepcopy(draw(st.sampled_from(_documents())))
    rows = _rows(data)
    n, pick = len(rows), lambda items: items[draw(st.integers(0, len(items) - 1))]
    if kind in ("non-finite", "number"):
        key = draw(st.sampled_from(["x", "y"]))
        i = draw(st.integers(0, len(data[key]) - 1))
        if kind == "non-finite":
            data[key][i] = draw(st.sampled_from(NON_FINITE))
        else:
            data[key][i] += draw(st.sampled_from([1e-3, -0.5, 123.0]))
    elif kind == "node-id":
        key = draw(st.sampled_from(["first", "second", "outputs"]))
        data[key][draw(st.integers(0, len(data[key]) - 1))] = draw(NODE_IDS)
    elif kind == "rename":
        data["op"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(OP_RENAMES))
    elif kind == "selector":
        picks = [row for row in rows if row[0] in ("left", "right")]
        assume(picks)
        row = pick(picks)
        row[0] = "right" if row[0] == "left" else "left"
        _set_rows(data, rows)
    elif kind == "operand":
        def others(i):  # the earlier nodes of the kind step i reads, but its own
            circles = rows[i][0] != "circle"
            return [j for j in range(i)
                    if (rows[j][0] == "circle") == circles and j not in rows[i][1:3]]

        steps = [i for i, row in enumerate(rows) if row[0] != "seed" and others(i)]
        assume(steps)
        i = pick(steps)
        rows[i][draw(st.sampled_from([1, 2]))] = pick(others(i))
        _set_rows(data, rows)
    else:  # "steps"
        how, i = draw(st.sampled_from(["drop", "duplicate", "move"])), draw(st.integers(0, n - 1))
        row = rows[i] if how == "duplicate" else rows.pop(i)
        if how != "drop":
            rows.insert(draw(st.integers(0, len(rows))), row)
        _set_rows(data, rows)
    text = json.dumps(data)
    for literal in LITERALS:
        text = text.replace(f'"{literal}"', literal)
    return text


def _program_of(text):
    """The Program the document's columns name, built by the public
    constructor (an op name the format does not have is a MalformedProgram)."""
    data = json.loads(text)
    if not all(type(op) is str and op in tracedoc.OP_NAMES for op in data["op"]):
        raise MalformedProgram("unknown op")
    ops = tuple(map(tracedoc.OP_NAMES.index, data["op"]))
    return Program(len(data["seed_names"]), ops, tuple(data["first"]), tuple(data["second"]),
                   tuple(data["outputs"]))


EDIT_KINDS = ("non-finite", "node-id", "rename", "steps")
POINT_EDIT_KINDS = ("number", "selector", "operand")
EDIT_DRAWS = 25


@pytest.mark.parametrize("kind", EDIT_KINDS + POINT_EDIT_KINDS)
def test_loads_refuses_what_the_constructors_refuse(kind):
    @given(text=_edits(kind))
    @settings(max_examples=EDIT_DRAWS, derandomize=True, database=None, deadline=None)
    def check(text):
        try:
            loaded = tracedoc.loads(text).trace
        except MalformedTrace as err:
            if kind == "non-finite":
                assert str(err).endswith("must be finite"), err
            return
        assert kind != "non-finite", "a non-finite number loaded"
        assert loaded.program == _program_of(text)

    check()


def _broken_edits(kind: str) -> list:
    """The edited texts, of EDIT_DRAWS edits of ``kind``, that load and do
    not replay. Hypothesis reports nothing itself: the test counts."""
    broken = []

    @given(text=_edits(kind))
    @settings(max_examples=EDIT_DRAWS, derandomize=True, database=None, deadline=None)
    def run(text):
        if not _replays(text):
            broken.append(text)

    run()
    return broken


@pytest.mark.parametrize("kind", ["non-finite", *map(_item_3, POINT_EDIT_KINDS)])
def test_an_edit_loads_refuses_or_its_points_replay(kind):
    broken = _broken_edits(kind)
    assert not broken, f"{len(broken)} of {EDIT_DRAWS} edits load and do not replay"
