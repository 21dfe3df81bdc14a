"""A deterministic call profile of the script path (ROADMAP item 32).

Every demo and good corpus script goes through ``tokenize``, ``parse``,
``interpret``, ``dumps``, ``loads`` and ``render_trace`` under
``sys.setprofile``, once the per-process caches are warm. The profile counts
the calls of each engine function, keyed by file, ``co_name`` and first line
(Python 3.10 has no ``co_qualname``). Comprehension and generator expression
frames are left out, as Python 3.12 inlines comprehensions, and a generator
counts once, when it starts: Pythons before 3.13 also report its close as a
call. Beside them the profile counts the kernel: ``geom.cut``,
``geom.radius``, ``math.hypot`` and ``math.sqrt``.

The counts are the same on every Python of the CI matrix and under any hash
seed, so they are pinned. A change that moves one re-pins it and says why; a
count that should fall, falls here. The test imports nothing outside the
standard library and ``compass``, so it also runs where pytest is not
installed: ``PYTHONPATH=src python tests/test_profile.py`` prints the
profile, one engine function a line, to re-pin from.
"""

import inspect
import math
import sys
from collections import Counter
from pathlib import Path

from compass import dsl, geom, svg, tracedoc
from compass.demos import DEMOS

CORPUS = Path(__file__).parent / "corpus"
ENGINE = Path(dsl.__file__).resolve().parent

SCRIPTS = ([DEMOS[name] for name in sorted(DEMOS)]
           + [path.read_text(encoding="utf-8")
              for path in sorted((CORPUS / "good").glob("*.compass"))])

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


def profile():
    """(calls per engine function as {"file:co_name:line": n}, kernel calls
    as {name: n}) over one warm run of ``run_scripts``."""
    run_scripts()  # fills the per-process caches, whatever ran before
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
        calls[f"{Path(code.co_filename).name}:{code.co_name}:{code.co_firstlineno}"] += 1
        if code in _KERNEL:
            kernel[_KERNEL[code]] += 1

    sys.setprofile(hook)
    try:
        run_scripts()
    finally:
        sys.setprofile(None)
    return dict(calls), dict(kernel)


def moved(got, pinned):
    """The names whose counts differ from the pins, with both counts."""
    return [f"{name}: {pinned.get(name, 0)} -> {got.get(name, 0)}"
            for name in sorted(set(got) | set(pinned)) if got.get(name) != pinned.get(name)]


KERNEL_CALLS = {"geom.cut": 136, "geom.radius": 418, "math.hypot": 647, "math.sqrt": 136}

ENGINE_CALLS = {
    "constructions.py:<lambda>:479": 6,
    "constructions.py:<lambda>:491": 4,
    "constructions.py:<lambda>:494": 4,
    "constructions.py:_apex_xy:46": 22,
    "constructions.py:_arc_bisection:441": 2,
    "constructions.py:_clear_of_line:355": 2,
    "constructions.py:_doublings:225": 41,
    "constructions.py:_invert_core:195": 9,
    "constructions.py:_mirror_cut:428": 2,
    "constructions.py:_point_line_distance:40": 8,
    "constructions.py:build_apex:55": 6,
    "constructions.py:build_diameter_circle:154": 1,
    "constructions.py:build_extend:98": 11,
    "constructions.py:build_invert_general:240": 9,
    "constructions.py:build_line_circle_off_center:371": 4,
    "constructions.py:build_line_line:270": 2,
    "constructions.py:build_midpoint:150": 4,
    "constructions.py:build_nth_point:117": 3,
    "constructions.py:build_perp_foot:176": 1,
    "constructions.py:build_reflect:160": 19,
    "constructions.py:doublings:318": 10,
    "constructions.py:ranked:326": 2,
    "constructions.py:slant:474": 6,
    "dsl.py:<lambda>:328": 22,
    "dsl.py:__init__:395": 23,
    "dsl.py:_add:345": 4,
    "dsl.py:_half:350": 2,
    "dsl.py:_intersect:331": 2,
    "dsl.py:_invert:336": 3,
    "dsl.py:_mul:341": 2,
    "dsl.py:bind:419": 105,
    "dsl.py:check_args:450": 38,
    "dsl.py:interpret:492": 23,
    "dsl.py:let:424": 38,
    "dsl.py:parse:229": 23,
    "dsl.py:run:405": 23,
    "dsl.py:tokenize:146": 23,
    "field_ops.py:_at_zero:78": 3,
    "field_ops.py:_size:73": 9,
    "field_ops.py:build_add:96": 4,
    "field_ops.py:build_conj:126": 2,
    "field_ops.py:build_mul:83": 2,
    "field_ops.py:build_neg:89": 1,
    "field_ops.py:program:150": 2,
    "field_ops.py:relative:57": 13,
    "geom.py:cut:93": 136,
    "geom.py:radius:69": 418,
    "program.py:__init__:130": 56,
    "program.py:__init__:212": 23,
    "program.py:__init__:539": 23,
    "program.py:_append:595": 173,
    "program.py:_built:364": 56,
    "program.py:_check_outputs:274": 56,
    "program.py:_cut:623": 57,
    "program.py:_grown:258": 33,
    "program.py:_keep:589": 60,
    "program.py:_live:453": 15,
    "program.py:_mistyped:101": 161,
    "program.py:_node:572": 172,
    "program.py:_nonfinite:109": 69,
    "program.py:_resolve:691": 26,
    "program.py:_seed_columns:397": 23,
    "program.py:both:652": 13,
    "program.py:circle:606": 104,
    "program.py:circle_count:291": 2,
    "program.py:finish:797": 30,
    "program.py:inline:678": 26,
    "program.py:mark:749": 21,
    "program.py:meet:657": 4,
    "program.py:pair_based:761": 5,
    "program.py:pick:636": 14,
    "program.py:pick_other:666": 26,
    "program.py:point:581": 94,
    "program.py:witness:767": 10,
    "record.py:__init__:36": 46,
    "svg.py:_n:31": 409,
    "svg.py:render_trace:35": 23,
    "tracedoc.py:_coordinates:105": 46,
    "tracedoc.py:_ints:99": 69,
    "tracedoc.py:document_from_trace:85": 23,
    "tracedoc.py:dumps:115": 23,
    "tracedoc.py:loads:191": 23,
}


def test_kernel_calls_of_the_script_path():
    _, kernel = profile()
    assert kernel == KERNEL_CALLS, "moved: " + "; ".join(moved(kernel, KERNEL_CALLS))


def test_engine_calls_of_the_script_path():
    calls, _ = profile()
    assert calls == ENGINE_CALLS, "moved:\n" + "\n".join(moved(calls, ENGINE_CALLS))


if __name__ == "__main__":
    calls, kernel = profile()
    print(kernel)
    for name in sorted(calls):
        print(f"{name} {calls[name]}")
