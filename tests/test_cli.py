import math
import re

import pytest

from compass import constructions as cons
from compass import fuzz, tracedoc
from compass.cli import main
from compass.demos import DEMOS
from compass.errors import DegenerateCircle, NoSuchIntersection
from compass.geom import Point


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_writes_figure_and_trace(name, tmp_path, capsys):
    svg_path, trace_path = tmp_path / "figure.svg", tmp_path / "trace.json"
    assert main(["demo", name, "--svg", str(svg_path), "--trace", str(trace_path)]) == 0
    assert "<svg" in svg_path.read_text()
    tracedoc.loads(trace_path.read_text())
    capsys.readouterr()


def test_unknown_demo_exits_2_and_lists_the_demos(capsys):
    assert main(["demo", "nope"]) == 2
    captured = capsys.readouterr()
    assert f"unknown demo 'nope'; available: {', '.join(sorted(DEMOS))}" in captured.err
    assert captured.out == ""


def test_run_reports_a_coincident_basis_by_line(tmp_path, capsys):
    script = tmp_path / "degenerate.compass"
    script.write_text("# seeds 0 and 1 coincide\ngiven Z = (1, 1)\n"
                      "given U = (1, 1)\nlet W = conj(U)\n")
    assert main(["run", str(script)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "DegenerateCircle" in err
    assert "Traceback" not in err



def test_run_reports_touching_arc_bisection_circles_by_line(tmp_path, capsys):
    # at a scale of 1e-12 the tangency band calls two of the arc bisection's
    # circles tangent, though they cross by a wide margin: refused
    script = tmp_path / "tiny.compass"
    script.write_text("given O = (-3.115044388549565e-12, -3.9656388606993e-12)\n"
                      "given A = (-1.895765423894632e-12, -4.345296123760764e-12)\n"
                      "given D = (-3.5454637362861075e-12, -1.948851337458773e-12)\n"
                      "let X, Y = linexcircle(O, A, O, D)\n")
    assert main(["run", str(script)]) == 2
    err = capsys.readouterr().err
    assert "line 4:" in err and "BelowResolution" in err
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


def test_script_without_given_writes_a_trace_that_loads(tmp_path, capsys):
    """No seed is no rule of ``Program.check``, so ``loads`` takes the trace
    and ``dumps`` writes its bytes back; the figure is of no point at all."""
    script, svg_path = tmp_path / "empty.compass", tmp_path / "empty.svg"
    script.write_text('emit trace "-"\n')
    assert main(["run", str(script), "--svg", str(svg_path)]) == 0
    text = capsys.readouterr().out
    assert text == ('{"version":2,"seed_names":[],"op":[],"first":[],"second":[],'
                    '"x":[],"y":[],"outputs":[],"output_names":[]}\n')
    assert tracedoc.dumps(tracedoc.loads(text)) == text
    assert "<svg" in svg_path.read_text()


def test_svg_labels_a_node_with_every_name_bound_to_it(tmp_path, capsys):
    # nth(Z, U, 1) is U itself, and both extends are one node
    script, svg_path = tmp_path / "aliases.compass", tmp_path / "aliases.svg"
    script.write_text("given Z = (0, 0)\ngiven U = (1, 0)\nlet X = nth(Z, U, 1)\n"
                      "let P = extend(Z, U)\nlet Q = extend(Z, U)\n")
    assert main(["run", str(script), "--svg", str(svg_path)]) == 0
    labels = re.findall(r"<text [^>]*>([^<]*)</text>", svg_path.read_text())
    assert labels == ["Z", "U, X", "P, Q"]
    capsys.readouterr()


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


def test_script_that_is_not_utf8_exits_1(tmp_path, capsys):
    script = tmp_path / "latin1.compass"
    script.write_bytes("given \u00c5 = (0, 0)\n".encode("latin-1"))
    assert main(["run", str(script)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"compass: cannot read {script}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_overflowing_circle_exits_2_by_line(tmp_path, capsys):
    script = tmp_path / "overflow.compass"
    script.write_text("given A = (1e308, 1e308)\ngiven B = (-1e308, -1e308)\n"
                      "let c = circle(A, B)\n")
    svg_path = tmp_path / "figure.svg"
    assert main(["run", str(script), "--svg", str(svg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("compass: line 3:") and "NonFiniteInput" in err
    assert err.count("\n") == 1 and not svg_path.exists()


def test_overflowing_view_box_exits_2(tmp_path, capsys):
    script = tmp_path / "wide.compass"
    script.write_text("given A = (1e308, 0)\ngiven B = (-1e308, 0)\n")
    svg_path = tmp_path / "figure.svg"
    assert main(["run", str(script), "--svg", str(svg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("compass: cannot render svg: NonFiniteInput:")
    assert captured.err.count("\n") == 1 and not svg_path.exists()


# --- compass fuzz ------------------------------------------------------------------

def test_fuzz_prints_a_table_and_passes(capsys):
    assert main(["fuzz", "--op", "midpoint", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("compass fuzz: seed 42, 3 case(s) per construction\n")
    assert "\nmidpoint " in out
    assert "result: PASS (1 construction(s), 0 failure(s)" in out


def test_fuzz_runs_every_op_by_default(capsys):
    assert main(["fuzz", "--cases", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(fuzz.OPS) == 12 and [line.split()[0] for line in lines[2:-1]] == list(fuzz.OPS)
    assert lines[-1].startswith("result: PASS (12 construction(s), 0 failure(s)")


@pytest.mark.parametrize("seed", [42, 1410])
@pytest.mark.parametrize("op", fuzz.OPS)
def test_a_shorter_fuzz_run_is_a_prefix_of_a_longer_one(op, seed, monkeypatch):
    """``run_op(op, n, seed)`` audits the same traces, records the same
    errors and fails the same cases as the first n cases of a longer run at
    that seed, so its report line is the one of that prefix: a shorter run
    fails only where the longer one fails, and CI's oracle fuzz runs only
    2,000 cases at each seed."""
    events = []
    record, fail = fuzz.OpReport.record, fuzz.OpReport.fail

    def logged_record(run, err, detail):
        events.append(("record", err.hex()))
        record(run, err, detail)

    def logged_fail(run, detail):
        events.append(("fail", detail))
        fail(run, detail)

    monkeypatch.setattr(fuzz, "purity_audit", lambda trace: events.append(repr(trace)))
    monkeypatch.setattr(fuzz.OpReport, "record", logged_record)
    monkeypatch.setattr(fuzz.OpReport, "fail", logged_fail)
    runs = []
    for cases in (20, 60):
        del events[:]
        report = fuzz.run_op(op, cases, seed)
        runs.append((report.audited, list(events)))
    (audited, short), (_, long) = runs
    assert 0 < audited and len(short) < len(long) and short == long[:len(short)]


def test_a_point_count_unlike_the_oracles_fails_the_case():
    one, two = (Point(0.0, 0.0),), [Point(0.0, 0.0), Point(1.0, 0.0)]
    assert fuzz._pair_err(one, two) == fuzz._pair_err((*two, *one), two) == math.inf
    report = fuzz.OpReport("midpoint", 1)
    report.record(fuzz._pair_err(one, two), lambda: "case 0")
    assert (report.failures, report.max_err, report.details) == (1, math.inf, ("case 0",))


def test_a_nan_error_fails_the_case_and_shows(monkeypatch, capsys):
    report = fuzz.OpReport("midpoint", 3)
    for err in (1e-9, math.nan, 2e-9):  # a later finite error does not hide it
        report.record(err, lambda: "case")
    assert report.failures == 1 and math.isnan(report.max_err)
    monkeypatch.setattr(fuzz, "oracle_midpoint", lambda a, b: Point(math.nan, 0.0))
    report = fuzz.run_op("midpoint", 3, 42)
    assert report.failures == 3 and math.isnan(report.max_err)
    assert main(["fuzz", "--op", "midpoint", "--cases", "3"]) == 3
    out = capsys.readouterr().out
    assert "\nmidpoint                      3         3          nan\n" in out
    assert "result: FAIL (1 construction(s), 3 failure(s)" in out


@pytest.mark.parametrize("argv, message", [
    (["--op", "nope"], "unknown construction 'nope'"),
    (["--cases", "-1"], "--cases must be nonnegative"),
])
def test_fuzz_rejects_bad_arguments(argv, message, capsys):
    assert main(["fuzz", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_run_op_refuses_an_unknown_op():
    with pytest.raises(ValueError, match="unknown construction 'nope'"):
        fuzz.run_op("nope", 1, 42)


def test_run_op_refuses_a_negative_case_count():
    # it once returned a report of -3 cases, which format_reports printed as a PASS
    with pytest.raises(ValueError, match="^cases must be nonnegative, got -3$"):
        fuzz.run_op("apex", -3, 42)


@pytest.mark.parametrize("op, cases, seed", [
    ("apex", 2.5, 42),  # once a bare TypeError from range
    ("mul", True, 42),  # once a report of True cases
    ("apex", 1, 1.5),  # once a bare TypeError from SplitMix64
    ("apex", 1, False),
])
def test_run_op_refuses_a_case_count_or_seed_that_is_not_an_int(op, cases, seed):
    with pytest.raises(ValueError, match=re.escape(
            f"cases and seed must be ints, got {cases!r} and {seed!r}")):
        fuzz.run_op(op, cases, seed)


def test_fuzz_warns_on_zero_cases(capsys):
    assert main(["fuzz", "--op", "apex", "--cases", "0"]) == 0
    assert "warning: 0 cases requested; vacuous pass" in capsys.readouterr().out


def test_fuzz_mismatch_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(fuzz, "FUZZ_TOL", -1.0)
    assert main(["fuzz", "--op", "midpoint", "--cases", "2"]) == 3
    out = capsys.readouterr().out
    assert "  FAIL " in out and "result: FAIL (1 construction(s), 2 failure(s)" in out


# each op of ``fuzz._BUILT``: the routine its row builds with, and the start
# of its case's detail
BUILT_OPS = {
    "foot": ("build_perp_foot", "foot("),
    "invert": ("build_invert_general", "invert o=("),
    "line-line": ("build_line_line", "linexline("),
    "line-circle": ("build_line_circle_off_center", "linexcircle("),
    "line-circle-diameter": ("build_line_circle_center_on_line", "diameter o=("),
}


@pytest.mark.parametrize("error", [NoSuchIntersection, DegenerateCircle],
                         ids=lambda error: error.__name__)
@pytest.mark.parametrize("op", BUILT_OPS)
def test_a_typed_error_from_a_build_fails_its_case(op, error, monkeypatch, capsys):
    """A build that raises a CompassError fails its case without a trace, and
    the run goes on. Only a NoSuchIntersection where the oracle wants no point
    (line-circle's cases where the line misses) passes: the right answer."""
    routine, prefix = BUILT_OPS[op]

    def fail(*args):
        raise error("the build fails")

    monkeypatch.setattr(cons, routine, fail)
    report = fuzz.run_op(op, 40, 42)
    failures = 30 if (op, error) == ("line-circle", NoSuchIntersection) else 40
    assert (report.failures, report.audited) == (failures, 0)
    assert len(report.details) == 5
    assert all(detail.startswith(f"{error.__name__}: {prefix}") for detail in report.details)
    assert main(["fuzz", "--op", "all", "--cases", "40", "--seed", "42"]) == 3
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:-1] if not line.startswith("  FAIL ")]
    assert [row[0] for row in rows] == list(fuzz.OPS)  # the ops after it ran too
    assert {row[0]: int(row[2]) for row in rows}[op] == failures
    assert lines[-1].startswith("result: FAIL (12 construction(s), ")


def test_an_error_in_the_involution_check_fails_its_case(monkeypatch):
    """invert's check builds the image back on the case's builder after the
    case is audited; a typed error there fails the case too, and the run
    goes on."""
    invert, calls = cons.build_invert_general, []

    def back_fails(b, o, d, p):
        calls.append(p)
        if len(calls) % 2 == 0:
            raise NoSuchIntersection("the way back fails")
        return invert(b, o, d, p)

    monkeypatch.setattr(cons, "build_invert_general", back_fails)
    report = fuzz.run_op("invert", 6, 42)
    assert (report.failures, report.audited, report.max_err < 1e-9, len(calls)) == (6, 6, True, 12)
    assert all(detail.startswith("NoSuchIntersection: invert o=(") for detail in report.details)
