"""A deterministic call profile per layer (ROADMAP item 32).

Each row runs once to warm the per-process caches, then again under
``sys.setprofile``. The script-path row puts every demo and good corpus
script through ``tokenize``, ``parse``, ``interpret``, ``dumps``, ``loads``
and ``render_trace``; the ring-operation row runs ``fuzz.run_op(op, 40,
42)`` for mul, add and conj, the operations whose witnesses the builder's
hash-consing rules reshape; the construction-core row runs ``fuzz.run_op(op,
10, 42)`` for the nine other ops. The profile counts
the calls of each engine function (each code object), named by file and
``co_name`` (Python 3.10 has no ``co_qualname``); where a file has several
called functions of one name, the name ends ``#k``, the k-th of them by first
line. So a line added or removed above a function leaves its name as it is.
Comprehension and generator expression frames are left out, as Python 3.12
inlines comprehensions, and a generator counts once, when it starts: Pythons
before 3.13 also report its close as a call. Beside them the profile counts
the kernel: ``geom.cut``, ``geom.radius``, ``math.hypot`` and ``math.sqrt``.

The counts are the same on every Python of the CI matrix and under any hash
seed, so they are pinned. A change that moves one re-pins it and says why; a
count that should fall, falls here. The test imports nothing outside the
standard library and ``compass``, so it also runs where pytest is not
installed: ``PYTHONPATH=src python tests/test_profile.py`` prints the
profile to re-pin from: per row, its kernel counts and its total of engine
calls on one line, then one engine function a line.
"""

import inspect
import math
import sys
from collections import Counter
from pathlib import Path

from compass import dsl, fuzz, geom, svg, tracedoc
from compass.demos import DEMOS

CORPUS = Path(__file__).parent / "corpus"
ENGINE = Path(dsl.__file__).resolve().parent

SCRIPTS = ([DEMOS[name] for name in sorted(DEMOS)]
           + [path.read_text(encoding="utf-8")
              for path in sorted((CORPUS / "good").glob("*.compass"))])
RING_OPS = ("mul", "add", "conj")
CORE_OPS = tuple(op for op in fuzz.OPS if op not in RING_OPS)

_SKIPPED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})
_KERNEL = {geom.cut.__code__: "geom.cut", geom.radius.__code__: "geom.radius"}
_MATH = {id(math.hypot): "math.hypot", id(math.sqrt): "math.sqrt"}


def run_scripts():
    """Each script through the layers of ``compass run --trace --svg``."""
    for source in SCRIPTS:
        result = dsl.interpret(dsl.parse(dsl.tokenize(source)))
        doc = tracedoc.document_from_trace(
            result.trace, result.seed_names, tuple(name for name, _ in result.named_points))
        tracedoc.loads(tracedoc.dumps(doc))
        names = dict(enumerate(result.seed_names))
        names.update({node: name for name, node in result.named_points})
        svg.render_trace(result.trace, names)


def run_ring_ops():
    """The ring operations' fuzz cases, as ``compass fuzz`` runs them."""
    for op in RING_OPS:
        assert fuzz.run_op(op, 40, 42).failures == 0, op


def run_core_ops():
    """The construction cores' fuzz cases, as ``compass fuzz`` runs them."""
    for op in CORE_OPS:
        assert fuzz.run_op(op, 10, 42).failures == 0, op


def _names(codes):
    """Each code object's name: "file:co_name", with "#k" after it for the
    k-th by first line where a file has several of that name."""
    groups = {}
    for code in sorted(codes, key=lambda code: code.co_firstlineno):
        groups.setdefault(f"{Path(code.co_filename).name}:{code.co_name}", []).append(code)
    return {code: name if len(group) == 1 else f"{name}#{k}"
            for name, group in groups.items() for k, code in enumerate(group, 1)}


def profile(run=run_scripts):
    """(calls per engine function as {"file:co_name": n}, or "file:co_name#k"
    for the k-th called function of that name in the file, and kernel calls as
    {name: n}) over one warm call of ``run``."""
    run()  # fills the per-process caches, whatever ran before
    engine = str(ENGINE)
    calls, kernel = Counter(), Counter()
    generators = set()  # the frames of the generators started

    def hook(frame, event, arg):
        if event == "c_call":
            if id(arg) in _MATH:
                kernel[_MATH[id(arg)]] += 1
            return
        code = frame.f_code
        if (event != "call" or code.co_name in _SKIPPED
                or not code.co_filename.startswith(engine)):
            return
        if code.co_flags & inspect.CO_GENERATOR:
            if frame in generators:  # a resume, or the close
                return
            generators.add(frame)
        calls[code] += 1
        if code in _KERNEL:
            kernel[_KERNEL[code]] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    names = _names(calls)
    return {names[code]: n for code, n in calls.items()}, dict(kernel)


def moved(got, pinned):
    """The names whose counts differ from the pins, with both counts."""
    return [f"{name}: {pinned.get(name, 0)} -> {got.get(name, 0)}"
            for name in sorted(set(got) | set(pinned)) if got.get(name) != pinned.get(name)]


# radius and hypot read 418 and 647, and _append 173, until a circle about
# a pick's circle's center through that pick was taken as that circle: the
# scripts draw 10 fewer circles (the line-line, conjugate and half demos,
# 08-linexline, 11-conjugate and 12-field), each a radius once as built and
# once as loads reads it back; 6 of them were ``Builder.circle`` calls.
# _drawn's 395 calls are one per hash-cons miss of a builder that keeps a
# table: 387 steps it then appends and 8 circles the circle rule finds drawn.
# While each miss path kept its own inline copy of the rules, only the
# point rule's tail was a call: 5 calls, and 3,092 engine calls in all.
# cut, hypot and sqrt read 136, 627 and 136, and _keep 60 (3,482 engine
# calls), until the builder kept its last cut for every method: a ``pick``
# became ``_cut`` then ``_keep``, one cheap call more per pick (_keep +14),
# and one cut of the pair just cut is read again (cut -1): 3,495 in all.
# cut, radius, hypot and sqrt read 135, 398, 626 and 135 until half() drew
# the 6-circle midpoint of the first two givens in place of the paper's
# 18-circle chase, which the half demo now writes out in seven statements
# (3,546 engine calls, from 3,495: each statement is a let, bind and
# check_args, and each ring op a witness walk, where half() was one inline).
# _append, _keep and _resolve read 171, 76 and 30 (3,546 engine calls) until
# two duplicate step paths were merged into ``_step``, the one code that
# resolves and appends a step: one call per circle (108), per pick a method
# takes (76) and per inlined row (221), and ``_cut_at``, the last-cut read,
# once per ``_cut`` (59) and once per pick that misses the table (176):
# 3,909 in all, and no kernel count moved
KERNEL_CALLS = {"geom.cut": 126, "geom.radius": 372, "math.hypot": 598, "math.sqrt": 126}

ENGINE_CALLS = {
    "constructions.py:<lambda>#1": 6,
    "constructions.py:<lambda>#2": 4,
    "constructions.py:<lambda>#3": 4,
    "constructions.py:_apex_xy": 22,
    "constructions.py:_arc_bisection": 2,
    "constructions.py:_clear_of_line": 2,
    "constructions.py:_doublings": 41,
    "constructions.py:_invert_core": 9,
    "constructions.py:_mirror_cut": 2,
    "constructions.py:_point_line_distance": 8,
    "constructions.py:build_apex": 6,
    "constructions.py:build_diameter_circle": 1,
    "constructions.py:build_extend": 13,
    "constructions.py:build_invert_general": 9,
    "constructions.py:build_line_circle_off_center": 4,
    "constructions.py:build_line_line": 2,
    "constructions.py:build_midpoint": 6,
    "constructions.py:build_nth_point": 3,
    "constructions.py:build_perp_foot": 1,
    "constructions.py:build_reflect": 19,
    "constructions.py:doublings": 10,
    "constructions.py:ranked": 2,
    "constructions.py:slant": 6,
    "dsl.py:<lambda>": 24,
    "dsl.py:__init__": 23,
    "dsl.py:_add": 5,
    "dsl.py:_half": 1,
    "dsl.py:_intersect": 3,
    "dsl.py:_invert": 3,
    "dsl.py:_mul": 3,
    "dsl.py:bind": 111,
    "dsl.py:check_args": 44,
    "dsl.py:interpret": 23,
    "dsl.py:let": 44,
    "dsl.py:parse": 23,
    "dsl.py:run": 23,
    "dsl.py:tokenize": 23,
    "field_ops.py:_at_zero": 4,
    "field_ops.py:_size": 14,
    "field_ops.py:build_add": 5,
    "field_ops.py:build_conj": 3,
    "field_ops.py:build_mul": 3,
    "field_ops.py:build_neg": 1,
    "field_ops.py:relative": 17,
    "geom.py:cut": 126,
    "geom.py:radius": 372,
    "program.py:__init__#1": 59,
    "program.py:__init__#2": 23,
    "program.py:__init__#3": 23,
    "program.py:_built": 59,
    "program.py:_check_outputs": 59,
    "program.py:_cut": 59,
    "program.py:_cut_at": 235,
    "program.py:_drawn": 372,
    "program.py:_grown": 36,
    "program.py:_live": 20,
    "program.py:_mistyped": 161,
    "program.py:_node": 185,
    "program.py:_nonfinite": 69,
    "program.py:_seed_columns": 23,
    "program.py:_step": 405,
    "program.py:both": 13,
    "program.py:circle": 108,
    "program.py:circle_count": 4,
    "program.py:finish": 31,
    "program.py:inline": 30,
    "program.py:mark": 21,
    "program.py:meet": 4,
    "program.py:pair_based": 7,
    "program.py:pick": 15,
    "program.py:pick_other": 27,
    "program.py:point": 98,
    "program.py:witness": 13,
    "record.py:__init__": 46,
    "svg.py:_n": 417,
    "svg.py:render_trace": 23,
    "tracedoc.py:_coordinates": 46,
    "tracedoc.py:_ints": 69,
    "tracedoc.py:document_from_trace": 23,
    "tracedoc.py:dumps": 23,
    "tracedoc.py:loads": 23,
}


# the same over ``run_ring_ops``. Until a point reflected twice through one
# center was taken as that point, cut, radius, hypot and sqrt read 838, 880,
# 2151 and 794: the witness replays of ``inline`` resolved 157 more cuts and
# 134 more circles, where the rule now ends a replay on nodes already drawn.
# _drawn is called once per hash-cons miss, as on the script path. Until the
# builder kept its last cut for every method, cut and hypot read 681 and
# 1854, _cut 86 and _keep 60 (13,042 engine calls): each ``pick`` then called
# ``_cut`` and ``_keep`` (+14 and +20: no pick called ``_keep``, and one the
# table or ``_drawn`` held called neither), and 6 cuts of the pair just cut
# are read again. _append, _keep and _resolve read 104, 80 and 239 (13,070
# engine calls) until the step paths were merged into ``_step`` (2,093 calls,
# nearly all inlined witness rows) and ``_cut_at`` (999): 15,739. cut, hypot
# and sqrt read 675, 1848 and 637 until a witness that hands its builder's
# columns over kept the builder's last cut with its table: a builder resumed
# from it reads that cut again, mostly in conj's involution check, which cut
# its result's own two circles anew (41 cuts fewer, 15,698 engine calls).
# The three fuzz.py lambdas are the rows of ``fuzz._RING_ROWS`` (mul, add and
# conj by first line), one call per case since ``_field_cases`` took each
# operation from its row in place of its own op-name branches: 15,818, a
# rise from merging duplicate paths, and no kernel count moved
RING_KERNEL_CALLS = {"geom.cut": 634, "geom.radius": 746, "math.hypot": 1807,
                     "math.sqrt": 610}

RING_ENGINE_CALLS = {
    "constructions.py:build_extend": 76,
    "constructions.py:build_midpoint": 3,
    "field_ops.py:_at_zero": 86,
    "field_ops.py:_grow": 254,
    "field_ops.py:_size": 307,
    "field_ops.py:add": 60,
    "field_ops.py:build_add": 60,
    "field_ops.py:build_conj": 108,
    "field_ops.py:build_mul": 64,
    "field_ops.py:build_neg": 22,
    "field_ops.py:conj": 108,
    "field_ops.py:mul": 64,
    "field_ops.py:neg": 22,
    "field_ops.py:primary_output": 508,
    "field_ops.py:program": 184,
    "field_ops.py:relative": 254,
    "field_ops.py:value": 400,
    "fuzz.py:<lambda>#1": 40,
    "fuzz.py:<lambda>#2": 40,
    "fuzz.py:<lambda>#3": 40,
    "fuzz.py:__init__#1": 3,
    "fuzz.py:__init__#2": 3,
    "fuzz.py:__init__#3": 3,
    "fuzz.py:_field_cases": 3,
    "fuzz.py:_pair_err": 120,
    "fuzz.py:draw": 601,
    "fuzz.py:next64": 1002,
    "fuzz.py:randint": 601,
    "fuzz.py:record": 120,
    "fuzz.py:rng_for": 3,
    "fuzz.py:run_op": 3,
    "fuzz.py:uniform": 401,
    "geom.py:cut": 634,
    "geom.py:radius": 746,
    "oracle.py:oracle_complex_add": 40,
    "oracle.py:oracle_complex_conj": 40,
    "oracle.py:oracle_complex_mul": 40,
    "program.py:__init__": 195,
    "program.py:_at": 120,
    "program.py:_built": 195,
    "program.py:_check_outputs": 195,
    "program.py:_cut": 100,
    "program.py:_cut_at": 999,
    "program.py:_drawn": 1910,
    "program.py:_grown": 195,
    "program.py:_live": 195,
    "program.py:_node": 812,
    "program.py:_step": 2093,
    "program.py:circle": 160,
    "program.py:circle_count": 175,
    "program.py:finish": 126,
    "program.py:inline": 239,
    "program.py:output_points": 120,
    "program.py:pick": 20,
    "program.py:pick_other": 80,
    "program.py:point": 254,
    "program.py:purity_audit": 120,
    "program.py:resume": 254,
    "program.py:witness": 195,
    "record.py:__init__": 3,
}


def test_kernel_calls_of_the_script_path():
    _, kernel = profile()
    assert kernel == KERNEL_CALLS, "moved: " + "; ".join(moved(kernel, KERNEL_CALLS))


def test_engine_calls_of_the_script_path():
    calls, _ = profile()
    assert calls == ENGINE_CALLS, "moved:\n" + "\n".join(moved(calls, ENGINE_CALLS))


def test_kernel_calls_of_the_ring_operations():
    _, kernel = profile(run_ring_ops)
    assert kernel == RING_KERNEL_CALLS, "moved: " + "; ".join(moved(kernel, RING_KERNEL_CALLS))


def test_engine_calls_of_the_ring_operations():
    calls, _ = profile(run_ring_ops)
    assert calls == RING_ENGINE_CALLS, "moved:\n" + "\n".join(moved(calls, RING_ENGINE_CALLS))


# the same over ``run_core_ops``: the line routines' cuts and circles, and the
# canonical programs of apex, extend, nth and midpoint replayed compiled.
# Until the builder kept its last cut for every method, cut, hypot and sqrt
# read 450, 1546 and 465, and _keep 255 (8,496 engine calls): each ``pick``
# then called ``_keep`` (+58), and 9 cuts of the pair just cut are read again.
# _append, _keep and _resolve read 713, 313 and 21 (8,545 engine calls) until
# the step paths were merged into ``_step`` (995 calls) and ``_cut_at`` (675):
# 9,168, and no kernel count moved. math.sqrt read 457, and the engine calls
# 9,168, until apex, extend, nth and midpoint became rows of one generator,
# ``_replayed_cases``: apex's 60-degree turn is computed once per process, no
# longer once per call (sqrt -1); each replayed case makes one row call
# (``_apex_row``, ``_nth_row`` and the fuzz.py lambdas, extend's and
# midpoint's rows by first line) and one ``replay.compile`` call, which
# returns at once for a compiled program, in place of 12 compiles up front:
# 9,236, a rise from merging duplicate paths. Foot, invert, line-line and the
# two line-circle ops became rows of one generator, ``_built_cases`` (5
# calls), in place of ``_built`` (40) and five per-op generators (1 each):
# each case makes one row call (``_foot_row``, ``_invert_row``, ...), and
# invert, which built on its own builder and called no helper, now makes one
# too: 9,246, and no kernel count moved
CORE_KERNEL_CALLS = {"geom.cut": 441, "geom.radius": 702, "math.hypot": 1537,
                     "math.sqrt": 456}

CORE_ENGINE_CALLS = {
    "constructions.py:<lambda>#1": 24,
    "constructions.py:<lambda>#2": 16,
    "constructions.py:<lambda>#3": 16,
    "constructions.py:_apex_xy": 69,
    "constructions.py:_arc_bisection": 8,
    "constructions.py:_clear_of_line": 10,
    "constructions.py:_doublings": 103,
    "constructions.py:_invert_core": 44,
    "constructions.py:_mirror_cut": 10,
    "constructions.py:_point_line_distance": 44,
    "constructions.py:build_apex": 25,
    "constructions.py:build_extend": 2,
    "constructions.py:build_invert_general": 50,
    "constructions.py:build_line_circle_center_on_line": 10,
    "constructions.py:build_line_circle_off_center": 20,
    "constructions.py:build_line_line": 10,
    "constructions.py:build_midpoint": 9,
    "constructions.py:build_nth_point": 10,
    "constructions.py:build_perp_foot": 10,
    "constructions.py:build_reflect": 92,
    "constructions.py:doublings": 17,
    "constructions.py:ranked": 10,
    "constructions.py:slant": 24,
    "fuzz.py:<lambda>#1": 10,
    "fuzz.py:<lambda>#2": 10,
    "fuzz.py:__init__#1": 9,
    "fuzz.py:__init__#2": 9,
    "fuzz.py:_apex_row": 10,
    "fuzz.py:_built_cases": 5,
    "fuzz.py:_diameter_row": 10,
    "fuzz.py:_direction": 48,
    "fuzz.py:_foot_row": 10,
    "fuzz.py:_invert_row": 10,
    "fuzz.py:_line_circle_row": 10,
    "fuzz.py:_line_line_row": 10,
    "fuzz.py:_nth_row": 10,
    "fuzz.py:_pair_err": 88,
    "fuzz.py:_point": 189,
    "fuzz.py:_point_away": 99,
    "fuzz.py:_replayed_cases": 4,
    "fuzz.py:_sample_line_at_distance": 10,
    "fuzz.py:next64": 504,
    "fuzz.py:randint": 10,
    "fuzz.py:record": 88,
    "fuzz.py:rng_for": 9,
    "fuzz.py:run_op": 9,
    "fuzz.py:uniform": 494,
    "geom.py:cut": 441,
    "geom.py:radius": 702,
    "oracle.py:oracle_foot": 30,
    "oracle.py:oracle_invert": 10,
    "oracle.py:oracle_line_circle": 20,
    "oracle.py:oracle_line_line": 10,
    "oracle.py:oracle_midpoint": 10,
    "program.py:__init__#1": 88,
    "program.py:__init__#2": 50,
    "program.py:_at": 106,
    "program.py:_built": 88,
    "program.py:_check_outputs": 48,
    "program.py:_cut": 248,
    "program.py:_cut_at": 675,
    "program.py:_drawn": 961,
    "program.py:_grown": 48,
    "program.py:_no_point": 2,
    "program.py:_node": 586,
    "program.py:_nonfinite": 90,
    "program.py:_seed_columns": 90,
    "program.py:_step": 995,
    "program.py:both": 60,
    "program.py:circle": 454,
    "program.py:circle_count": 88,
    "program.py:execute": 40,
    "program.py:finish": 48,
    "program.py:inline": 21,
    "program.py:mark": 102,
    "program.py:meet": 10,
    "program.py:output_points": 88,
    "program.py:pick": 58,
    "program.py:pick_other": 120,
    "program.py:point": 424,
    "program.py:purity_audit": 88,
    "record.py:__init__": 9,
    "replay.py:compile": 40,
}


def test_kernel_calls_of_the_construction_cores():
    _, kernel = profile(run_core_ops)
    assert kernel == CORE_KERNEL_CALLS, "moved: " + "; ".join(moved(kernel, CORE_KERNEL_CALLS))


def test_engine_calls_of_the_construction_cores():
    calls, _ = profile(run_core_ops)
    assert calls == CORE_ENGINE_CALLS, "moved:\n" + "\n".join(moved(calls, CORE_ENGINE_CALLS))


if __name__ == "__main__":
    for run in (run_scripts, run_ring_ops, run_core_ops):
        calls, kernel = profile(run)
        print(run.__name__, kernel, "engine calls:", sum(calls.values()))
        for name in sorted(calls):
            print(f"{name} {calls[name]}")
