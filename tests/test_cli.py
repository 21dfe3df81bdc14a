import pytest

from compass import tracedoc
from compass.cli import main
from compass.demos import DEMOS
from compass.geom import Tolerance


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "0", "-1e-9"])
def test_tolerance_flag_rejects_non_positive_or_non_finite(text, capsys):
    assert main(["fuzz", "--op", "apex", "--cases", "1", f"--tol={text}"]) == 2
    assert "invalid tolerance" in capsys.readouterr().err


def test_tolerance_env_rejects_infinity(monkeypatch, capsys):
    monkeypatch.setenv("COMPASS_TOL", "inf")
    assert main(["fuzz", "--op", "apex", "--cases", "1"]) == 2
    assert "invalid tolerance" in capsys.readouterr().err


def test_finite_tolerance_runs(monkeypatch, capsys):
    monkeypatch.setenv("COMPASS_TOL", "1e-8")
    assert main(["fuzz", "--op", "apex", "--cases", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("field", ["eps_abs", "eps_degenerate"])
def test_tolerance_rejects_infinity(field):
    with pytest.raises(ValueError):
        Tolerance(**{field: float("inf")})


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
