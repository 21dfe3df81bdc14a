"""The engine names the benchmark's tracer patches.

``perfbench/tracing.py`` replaces engine names by ``getattr`` for a traced
run, which the default benchmark run never installs. Installing it here, and
running every demo and one case of every fuzz op under it, fails as soon as
one of those names is renamed or dropped. Each fuzz op must also reach its
names through its module's attributes when it runs, so that a patch of one
is seen by the op's cases. The same run loads one written trace, and pins
the set of traced names that it never calls.
"""

import importlib
from pathlib import Path

import pytest

from compass import constructions as cons
from compass import field_ops, fuzz, tracedoc
from compass.cli import main
from compass.demos import DEMOS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_demos_and_fuzz_ops_run(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("setup_probe").warm()
    tracer = importlib.import_module("tracing").Tracer()
    with tracer.installed():
        tracer.begin_item()
        for name in DEMOS:
            assert main(["demo", name, "--svg", str(tmp_path / "figure.svg"),
                         "--trace", str(tmp_path / "trace.json")]) == 0
        for op in fuzz.OPS:
            assert fuzz.run_op(op, 1, 42).failures == 0
        tracedoc.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
        tracer.end_item()
    capsys.readouterr()
    assert tracer.calls("dsl.interpret") == len(DEMOS)
    assert all(tracer.calls(f"fuzz.{op}") == 1 for op in fuzz.OPS)
    assert tracer.calls("constructions.midpoint") > 0
    assert {name for name in tracer.stats if not tracer.calls(name)} == UNCALLED


# The tracer's stat names that no call reaches in the run above; each is a
# benchmark metric that reads 0. A change that takes another name off the
# hot path fails here: it keeps the name on the path, or adds it below and
# says so. A name that comes back leaves the set.
UNCALLED = {
    "constructions.diameter_circle",
    "constructions.invert_exterior",
    "geom.circle_from",
    "geom.intersect",
    "program.rebase",
    "program.rollback",
}


# op -> the names its cases must reach, each as an attribute of its module
# read at call time: the canonical-program getter or ``build_*`` routine, the
# ``oracle_*`` name in ``fuzz``, and for a ring operation its ``field_ops``
# function, whose values must be the traces audited
_SEAMS = {
    "apex": [(cons, "apex_program")],
    "extend": [(cons, "extend_program")],
    "nth": [(cons, "nth_point_program")],
    "midpoint": [(cons, "midpoint_program"), (fuzz, "oracle_midpoint")],
    "foot": [(cons, "build_perp_foot"), (fuzz, "oracle_foot")],
    "invert": [(cons, "build_invert_general"), (fuzz, "oracle_invert")],
    "line-line": [(cons, "build_line_line"), (fuzz, "oracle_line_line")],
    "line-circle": [(cons, "build_line_circle_off_center"), (fuzz, "oracle_line_circle")],
    "line-circle-diameter": [(cons, "build_line_circle_center_on_line"),
                             (fuzz, "oracle_line_circle")],
    "mul": [(field_ops, "mul"), (fuzz, "oracle_complex_mul")],
    "add": [(field_ops, "add"), (fuzz, "oracle_complex_add")],
    "conj": [(field_ops, "conj"), (fuzz, "oracle_complex_conj")],
}


@pytest.mark.parametrize("op", fuzz.OPS)
def test_each_fuzz_op_reads_its_names_at_call_time(op, monkeypatch):
    # a case table holding a function object taken at import would call the
    # original, and miss the wrapper patched in here
    cases, made, audited = 6, {}, []
    for owner, name in _SEAMS[op]:
        def wrapper(*args, real=getattr(owner, name), name=name):
            got = real(*args)
            made.setdefault(name, []).append(got)
            return got
        monkeypatch.setattr(owner, name, wrapper)
    audit = fuzz.purity_audit
    monkeypatch.setattr(fuzz, "purity_audit", lambda trace: audited.append(trace) or audit(trace))
    assert fuzz.run_op(op, cases, 42).failures == 0
    for owner, name in _SEAMS[op]:
        assert len(made.get(name, ())) >= (cases if name.startswith("oracle_") else 1), name
        if owner is field_ops:  # each trace audited is a value the wrapper returned
            assert len(audited) == cases
            assert all(any(trace is value.trace for value in made[name]) for trace in audited)
