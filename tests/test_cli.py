import pytest

from compass import tracedoc
from compass.cli import main
from compass.demos import DEMOS


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_writes_figure_and_trace(name, tmp_path, capsys):
    svg_path, trace_path = tmp_path / "figure.svg", tmp_path / "trace.json"
    assert main(["demo", name, "--svg", str(svg_path), "--trace", str(trace_path)]) == 0
    assert "<svg" in svg_path.read_text()
    tracedoc.loads(trace_path.read_text())
    capsys.readouterr()


def test_run_reports_a_coincident_basis_by_line(tmp_path, capsys):
    script = tmp_path / "degenerate.compass"
    script.write_text("# seeds 0 and 1 coincide\ngiven Z = (1, 1)\n"
                      "given U = (1, 1)\nlet W = conj(U)\n")
    assert main(["run", str(script)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "DegenerateCircle" in err
    assert "Traceback" not in err
