import pytest

from compass.cli import main
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
