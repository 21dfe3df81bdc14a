"""The engine names the benchmark's tracer patches.

``perfbench/tracing.py`` replaces engine names by ``getattr`` for a traced
run, which the default benchmark run never installs. Installing it here, and
running every demo and one case of every fuzz op under it, fails as soon as
one of those names is renamed or dropped.
"""

import importlib
from pathlib import Path

from compass import fuzz
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
        tracer.end_item()
    capsys.readouterr()
    assert tracer.calls("dsl.interpret") == len(DEMOS)
    assert all(tracer.calls(f"fuzz.{op}") == 1 for op in fuzz.OPS)
    assert tracer.calls("constructions.midpoint") > 0
