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


MIDPOINT = "given A = (0, 0)\ngiven B = (3, 0)\nlet M = midpoint(A, B)\n"


def test_points_flag_prints_what_emit_points_prints(tmp_path, capsys):
    flagged, emitting = tmp_path / "flagged.compass", tmp_path / "emitting.compass"
    flagged.write_text(MIDPOINT)
    emitting.write_text(MIDPOINT + 'emit points "-"\n')
    assert main(["run", str(flagged), "--points"]) == 0
    by_flag = capsys.readouterr().out
    assert main(["run", str(emitting)]) == 0
    assert capsys.readouterr().out == by_flag
    assert by_flag.startswith("M 1.5") and by_flag.count("\n") == 1


def test_emit_request_writes_its_file(tmp_path, capsys):
    script = tmp_path / "emit.compass"
    script.write_text(MIDPOINT + f'emit points "{tmp_path / "points.txt"}"\n')
    assert main(["run", str(script)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["run", str(script), "--points"]) == 0
    assert (tmp_path / "points.txt").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("how", ["flag", "emit"])
def test_unwritable_path_exits_1(how, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "figure.svg"
    script = tmp_path / "write.compass"
    script.write_text(MIDPOINT + (f'emit svg "{target}"\n' if how == "emit" else ""))
    argv = ["run", str(script)] + (["--svg", str(target)] if how == "flag" else [])
    assert main(argv) == 1
    assert f"cannot write {target}" in capsys.readouterr().err


def test_unreadable_script_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.compass")]) == 1
    assert "cannot read" in capsys.readouterr().err
