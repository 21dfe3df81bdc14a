"""Self-tests of the benchmark itself (not of the engine).

    python3 perfbench/selftest.py

* strata: every case-index branch of the fuzz samplers is reached by one
  ``run_op`` call at the benchmark's case count, and a one-case call is
  seen to miss some (so the observation can fail);
* ledger: two fresh runs with the same seed write identical count ledgers,
  whose output digests cover every coordinate bit for bit;
* checks: each script-mix check rejects a deliberately wrong output;
* names: the metric names the benchmark prints are exactly those listed in
  ``BENCHMARK.json``.

Exit code 0 when every self-test passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from compass import constructions as cons  # noqa: E402
from compass import fuzz  # noqa: E402
from compass.errors import NoSuchIntersection  # noqa: E402
from compass.geom import Point  # noqa: E402
from compass.program import Selector  # noqa: E402

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import OracleFuzz, ScriptMix  # noqa: E402

# op -> every branch its sampler takes by case index
BRANCHES = {
    "apex": {"left", "right"},
    "foot": {"off-line", "on-line"},
    "invert": {"exterior", "on-circle", "interior"},
    "line-circle": {"hit", "miss"},
    "line-circle-diameter": {"off-line", "on-line-near", "on-line-far"},
}


def _collinear(a: Point, b: Point, c: Point) -> bool:
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return abs(cross) <= 1e-9 * max(1.0, math.hypot(b.x - a.x, b.y - a.y)
                                    * math.hypot(c.x - a.x, c.y - a.y))


def branches_hit(op: str, cases: int, seed: int) -> set[str]:
    """Run one fuzz call and classify the inputs its samplers produced."""
    seen: set[str] = set()
    execute, foot = fuzz.execute, cons.build_perp_foot
    invert = cons.build_invert_general
    off_center, on_line = cons.build_line_circle_off_center, cons.build_line_circle_center_on_line

    def see_execute(program, seeds, *rest):
        for side in Selector:
            if program is cons.apex_program(side):
                seen.add(side.value)
        return execute(program, seeds, *rest)

    def see_foot(b, a, bn, c):
        seen.add("on-line" if _collinear(b.point(a), b.point(bn), b.point(c)) else "off-line")
        return foot(b, a, bn, c)

    def see_invert(b, o, d, p):
        po, pd, pp = b.point(o), b.point(d), b.point(p)
        r, dist = math.dist((po.x, po.y), (pd.x, pd.y)), math.dist((po.x, po.y), (pp.x, pp.y))
        seen.add("on-circle" if abs(dist - r) <= 1e-9 * r
                 else "exterior" if dist > r else "interior")
        return invert(b, o, d, p)

    def see_off_center(*args):
        try:
            result = off_center(*args)
        except NoSuchIntersection:
            seen.add("miss")
            raise
        seen.add("hit")
        return result

    def see_on_line(b, o, a, d):
        po, pa, pd = b.point(o), b.point(a), b.point(d)
        if not _collinear(po, pa, pd):
            seen.add("off-line")
        else:
            same = (pd.x - po.x) * (pa.x - po.x) + (pd.y - po.y) * (pa.y - po.y) > 0
            seen.add("on-line-near" if same else "on-line-far")
        return on_line(b, o, a, d)

    with tracing.patched([
        (fuzz, "execute", see_execute),
        (cons, "build_perp_foot", see_foot),
        (cons, "build_invert_general", see_invert),
        (cons, "build_line_circle_off_center", see_off_center),
        (cons, "build_line_circle_center_on_line", see_on_line),
    ]):
        report = fuzz.run_op(op, cases, seed)
    if report.failures:
        raise AssertionError(f"{op}: fuzz failures {report.details}")
    return seen & BRANCHES[op]


def test_strata() -> None:
    cases = OracleFuzz.CASES
    for op, want in BRANCHES.items():
        for seed in (bench.DEFAULT_SEED, bench.HELDOUT_SEED):
            got = branches_hit(op, cases, seed)
            assert got == want, f"{op} at {cases} cases misses {sorted(want - got)}"
        assert branches_hit(op, 1, bench.DEFAULT_SEED) != want, \
            f"{op}: a one-case call should miss a branch"


def _ledger(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, f"{workload}: run failed\n{proc.stdout}{proc.stderr}"
    return json.loads((bench.OUT / f"ledger-{workload}-{seed}.json").read_text())


def test_ledger_determinism() -> None:
    for workload in bench.WORKLOAD_NAMES:
        first = _ledger(workload, bench.HELDOUT_SEED)
        second = _ledger(workload, bench.HELDOUT_SEED)
        assert first == second, f"{workload}: ledgers of two same-seed runs differ"
        assert first["circles"] > 0 and first["output_digest"]


def test_checks_reject_wrong_outputs() -> None:
    wl = ScriptMix()
    pool = wl.make_pool(bench.DEFAULT_SEED, 1)
    good = next(item for item in pool if item.error is None and item.expects)
    raw = wl.run(good)
    assert wl.check(good, raw).ok

    first = next(e for e in good.expects if e[0] == "point")
    moved = tuple(Point(w.x + 1e-3, w.y) for w in first[2])
    shifted = dataclasses.replace(good, expects=(first[:2] + (moved,) + first[3:],))
    assert not wl.check(shifted, raw).ok, "an oracle miss went unnoticed"

    result, text, loaded, picture, error = raw
    last = len(loaded.resolved) - 1
    tampered = dataclasses.replace(
        loaded, resolved=loaded.resolved[:last] + (Point(123.0, 0.0),))
    assert not wl.check(good, (result, text, tampered, picture, error)).ok, \
        "a changed trace round trip went unnoticed"
    assert not wl.check(good, (result, text, loaded, "", error)).ok, \
        "an SVG without its circles went unnoticed"

    bad = next(item for item in pool if item.error is not None)
    assert wl.check(bad, wl.run(bad)).ok
    wrong_line = dataclasses.replace(bad, error_line=bad.error_line + 1)
    assert not wl.check(wrong_line, wl.run(wrong_line)).ok, \
        "a diagnostic on the wrong line went unnoticed"


def test_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END_UNITS)
    layers = tracing.per_layer(tracing.Tracer(), tracing.Finished(), 1.0, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for entry in spec["end_to_end"]:
        assert entry["unit"] == bench.END_TO_END_UNITS[entry["name"]], entry
    for entry in spec["per_layer"]:
        assert entry["unit"] == layers[entry["name"]][1], entry
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)


def main() -> int:
    failed = 0
    for test in (test_metric_names, test_checks_reject_wrong_outputs, test_strata,
                 test_ledger_determinism):
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as err:
            failed += 1
            print(f"FAIL {test.__name__}: {err}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
