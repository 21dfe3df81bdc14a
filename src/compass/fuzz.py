"""Randomized verification of every construction against the analytic oracles.

The generator is a 64-bit SplitMix sequence mapped to uniform reals (53
mantissa bits per draw), so runs are reproducible bit-for-bit from the seed
alone, on any platform, and a single-construction run replays exactly the
cases it would see inside a full run. Inputs are sampled in [-5, 5]^2 with
non-degeneracy margins: pairwise distances >= 0.1, line angles >= 0.1 rad,
and |center-to-line distance - r| >= 0.05 where classification matters.

Each op is a case generator ``(run, rng)`` that yields one ``(trace, want,
detail)`` per case: the trace to audit, whose outputs are the answer; the
oracle's points; and a callable that formats the case, called only when it
fails. ``run_op`` alone audits each trace, compares it with ``want`` and
records the error on its ``OpReport``. A check that follows the comparison
(an involution, a missed intersection) stays in its generator and calls
``run.fail`` when the generator resumes, so failure details keep their order.

``perfbench/`` and the tests patch module names that are read at call time:
``purity_audit`` (called once per audited case), ``execute`` (apex, extend,
nth and midpoint), the ``oracle_*`` names, ``_fmt_pt``, ``FUZZ_TOL`` and
``INVOLUTION_TOL``, and the ``cons.build_*`` routines.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

from . import constructions as cons
from . import field_ops
from .errors import NoSuchIntersection
from .geom import Point, ResolvedCircle
from .oracle import (
    oracle_complex_add,
    oracle_complex_conj,
    oracle_complex_mul,
    oracle_foot,
    oracle_invert,
    oracle_line_circle,
    oracle_line_line,
    oracle_midpoint,
)
from .program import Builder, Selector, Trace, execute, purity_audit

FUZZ_TOL = 1e-6
INVOLUTION_TOL = 1e-5

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The standard SplitMix64 sequence; uniform() uses the top 53 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.next64() >> 11) * 2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]; modulo bias is irrelevant here."""
        return lo + self.next64() % (hi - lo + 1)


def rng_for(seed: int, op: str) -> SplitMix64:
    """Per-construction stream, independent of which ops run together."""
    return SplitMix64(seed + (OPS.index(op) + 1) * _GOLDEN)


@dataclass(slots=True)
class OpReport:
    name: str
    cases: int
    failures: int = 0
    max_err: float = 0.0
    audited: int = 0
    details: tuple[str, ...] = ()  # first few failing instances, for reproduction

    def record(self, err: float, detail: Callable[[], str]):
        """Record a case's error; ``detail`` describes the case, and is
        formatted only when the case fails."""
        self.max_err = max(self.max_err, err)
        if err > FUZZ_TOL:
            self.fail(detail())

    def fail(self, detail: str):
        self.failures += 1
        if len(self.details) < 5:
            self.details += (detail,)


def _fmt_pt(p: Point) -> str:
    return f"({p.x:.17g}, {p.y:.17g})"


def _err(got: Point, want: Point) -> float:
    return math.hypot(got.x - want.x, got.y - want.y)


def _pair_err(got: tuple[Point, ...], want: Sequence[Point]) -> float:
    if len(got) != len(want):
        return math.inf
    if len(got) == 1:
        return _err(got[0], want[0])
    straight = max(_err(got[0], want[0]), _err(got[1], want[1]))
    crossed = max(_err(got[0], want[1]), _err(got[1], want[0]))
    return min(straight, crossed)


def _point(rng: SplitMix64, lo: float = -5.0, hi: float = 5.0) -> Point:
    return Point(rng.uniform(lo, hi), rng.uniform(lo, hi))


def _point_away(rng: SplitMix64, others: list[Point],
                margin: float = 0.1) -> Point:
    while True:
        p = _point(rng)
        if all(math.hypot(p.x - q.x, p.y - q.y) >= margin for q in others):
            return p


def _direction(rng: SplitMix64) -> tuple[float, float]:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return math.cos(t), math.sin(t)


def _built(build: Callable, seeds: list[Point]) -> Trace:
    """``build(b, 0, 1, ...)`` on a fresh builder over ``seeds``, finished
    with the node or nodes it returns as the outputs."""
    b = Builder(seeds)
    nodes = build(b, *range(len(seeds)))
    return b.finish((nodes,) if isinstance(nodes, int) else nodes)[1]


def _apex_cases(run: OpReport, rng: SplitMix64):
    w = complex(0.5, math.sqrt(3.0) / 2.0)
    for i in range(run.cases):
        a = _point(rng)
        b = _point_away(rng, [a])
        side = Selector.LEFT if i % 2 == 0 else Selector.RIGHT
        factor = w if side is Selector.LEFT else w.conjugate()
        z = complex(a.x, a.y) + (complex(b.x, b.y) - complex(a.x, a.y)) * factor
        yield (execute(cons.apex_program(side), (a, b)), (Point(z.real, z.imag),),
               lambda: f"apex{_fmt_pt(a)}{_fmt_pt(b)} {side.value}")


def _extend_cases(run: OpReport, rng: SplitMix64):
    program = cons.extend_program()
    for _ in range(run.cases):
        x = _point(rng)
        y = _point_away(rng, [x])
        yield (execute(program, (x, y)), (Point(2 * y.x - x.x, 2 * y.y - x.y),),
               lambda: f"extend{_fmt_pt(x)}{_fmt_pt(y)}")


def _nth_cases(run: OpReport, rng: SplitMix64):
    for _ in range(run.cases):
        o = _point(rng)
        p = _point_away(rng, [o])
        n = rng.randint(1, 8)
        yield (execute(cons.nth_point_program(n), (o, p)),
               (Point(o.x + n * (p.x - o.x), o.y + n * (p.y - o.y)),),
               lambda: f"nth{_fmt_pt(o)}{_fmt_pt(p)} n={n}")


def _midpoint_cases(run: OpReport, rng: SplitMix64):
    program = cons.midpoint_program()
    for _ in range(run.cases):
        a = _point(rng)
        b = _point_away(rng, [a])
        yield (execute(program, (a, b)), (oracle_midpoint(a, b),),
               lambda: f"midpoint{_fmt_pt(a)}{_fmt_pt(b)}")


def _foot_cases(run: OpReport, rng: SplitMix64):
    for i in range(run.cases):
        a = _point(rng)
        b = _point_away(rng, [a])
        if i % 8 == 7:
            # exercise the tangency path: c on the line, beyond b
            t = rng.uniform(1.2, 2.0)
            c = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        else:
            c = _point_away(rng, [a, b])
        yield (_built(cons.build_perp_foot, [a, b, c]), (oracle_foot(a, b, c),),
               lambda: f"foot{_fmt_pt(a)}{_fmt_pt(b)}{_fmt_pt(c)}")


def _invert_cases(run: OpReport, rng: SplitMix64):
    for i in range(run.cases):
        o = _point(rng)
        r = rng.uniform(0.5, 3.0)
        dx, dy = _direction(rng)
        d = Point(o.x + r * dx, o.y + r * dy)
        px, py = _direction(rng)
        stratum = i % 3
        if stratum == 0:
            dist = r + rng.uniform(0.05, 4.0)
        elif stratum == 1:
            dist = r
        else:
            dist = rng.uniform(0.05 * r, 0.95 * r)
        p = Point(o.x + dist * px, o.y + dist * py)
        builder = Builder([o, d, p])
        image = cons.build_invert_general(builder, 0, 1, 2)
        back = cons.build_invert_general(builder, 0, 1, image)

        def detail():
            return f"invert o={_fmt_pt(o)} r={r:.17g} p={_fmt_pt(p)}"
        yield (builder.finish([image])[1], (oracle_invert(ResolvedCircle(o, r), p),),
               detail)
        if _err(builder.point(back), p) > INVOLUTION_TOL:
            run.fail("involution " + detail())


def _line_line_cases(run: OpReport, rng: SplitMix64):
    min_sin = math.sin(0.1)
    for _ in range(run.cases):
        while True:
            a = _point(rng)
            b = _point_away(rng, [a])
            c = _point_away(rng, [a, b])
            d = _point_away(rng, [a, b, c])
            ux, uy = b.x - a.x, b.y - a.y
            vx, vy = d.x - c.x, d.y - c.y
            sin = abs(ux * vy - uy * vx) / (math.hypot(ux, uy) * math.hypot(vx, vy))
            if sin >= min_sin:
                break
        yield (_built(cons.build_line_line, [a, b, c, d]),
               (oracle_line_line(a, b, c, d),),
               lambda: f"linexline{_fmt_pt(a)}{_fmt_pt(b)}{_fmt_pt(c)}{_fmt_pt(d)}")


def _sample_line_at_distance(rng: SplitMix64, o: Point,
                             dist: float) -> tuple[Point, Point]:
    nx, ny = _direction(rng)
    foot = Point(o.x + dist * nx, o.y + dist * ny)
    t1 = rng.uniform(-3.0, -0.5)
    t2 = rng.uniform(0.5, 3.0)
    return (Point(foot.x - ny * t1, foot.y + nx * t1),
            Point(foot.x - ny * t2, foot.y + nx * t2))


def _line_circle_cases(run: OpReport, rng: SplitMix64):
    for i in range(run.cases):
        o = _point(rng)
        r = rng.uniform(0.5, 3.0)
        dx, dy = _direction(rng)
        d = Point(o.x + r * dx, o.y + r * dy)
        if i % 4 == 3:
            dist = r + rng.uniform(0.05, 2.0)
        else:
            dist = rng.uniform(0.05, r - 0.05)
        a, b = _sample_line_at_distance(rng, o, dist)

        def detail():
            return f"linexcircle{_fmt_pt(a)}{_fmt_pt(b)} o={_fmt_pt(o)} r={r:.17g}"
        want = oracle_line_circle(a, b, ResolvedCircle(o, r))
        try:
            trace = _built(cons.build_line_circle_off_center, [a, b, o, d])
        except NoSuchIntersection:
            if want:
                run.fail("missed existing intersection: " + detail())
            continue
        yield trace, want, detail


def _line_circle_diameter_cases(run: OpReport, rng: SplitMix64):
    for i in range(run.cases):
        o = _point(rng)
        a = _point_away(rng, [o])
        r = rng.uniform(0.5, 3.0)
        norm = math.hypot(a.x - o.x, a.y - o.y)
        ux, uy = (a.x - o.x) / norm, (a.y - o.y) / norm
        if i % 5 == 0:
            sign = 1.0 if i % 10 == 0 else -1.0
            d = Point(o.x + sign * r * ux, o.y + sign * r * uy)  # on the line
        else:
            while True:
                dx, dy = _direction(rng)
                if abs(dx * uy - dy * ux) * r >= 0.05:
                    break
            d = Point(o.x + r * dx, o.y + r * dy)
        yield (_built(cons.build_line_circle_center_on_line, [o, a, d]),
               oracle_line_circle(o, a, ResolvedCircle(o, r)),
               lambda: f"diameter o={_fmt_pt(o)} a={_fmt_pt(a)} d={_fmt_pt(d)}")


class _ValuePool:
    """Random constructible values composed from a fixed atom set."""

    def __init__(self):
        one = field_ops.one()
        self.atoms = (
            one,
            field_ops.minus_one(),
            field_ops.add(one, one),
            field_ops.alpha(),
            field_ops.value_from_program(cons.apex_program(Selector.LEFT)),
        )

    def draw(self, rng: SplitMix64, depth: int) -> field_ops.ConstructibleValue:
        if depth <= 0 or rng.uniform(0.0, 1.0) < 0.35:
            return self.atoms[rng.randint(0, len(self.atoms) - 1)]
        k = rng.randint(0, 3)
        if k == 0:
            return field_ops.add(self.draw(rng, depth - 1),
                                 self.draw(rng, depth - 1))
        if k == 1:
            return field_ops.mul(self.draw(rng, depth - 1),
                                 self.draw(rng, depth - 1))
        if k == 2:
            return field_ops.conj(self.draw(rng, depth - 1))
        return field_ops.neg(self.draw(rng, depth - 1))


_pool = lru_cache(maxsize=None)(_ValuePool)  # one pool, so one set of atoms


def _field_cases(run: OpReport, rng: SplitMix64, op: str):
    pool = _pool()
    for _ in range(run.cases):
        a = pool.draw(rng, 2)
        b = None
        if op == "conj":
            result = field_ops.conj(a)
            want = oracle_complex_conj(a.value)
        else:
            b = pool.draw(rng, 2)
            if op == "mul":
                result = field_ops.mul(a, b)
                want = oracle_complex_mul(a.value, b.value)
            else:
                result = field_ops.add(a, b)
                want = oracle_complex_add(a.value, b.value)

        def detail():
            if b is None:
                return f"conj a={_fmt_pt(a.value)}"
            return f"{op} a={_fmt_pt(a.value)} b={_fmt_pt(b.value)}"
        yield result.trace, (want,), detail
        if op == "conj" and _err(field_ops.conj(result).value, a.value) > FUZZ_TOL:
            run.fail("involution " + detail())


_CASES = {
    "apex": _apex_cases,
    "extend": _extend_cases,
    "nth": _nth_cases,
    "midpoint": _midpoint_cases,
    "foot": _foot_cases,
    "invert": _invert_cases,
    "line-line": _line_line_cases,
    "line-circle": _line_circle_cases,
    "line-circle-diameter": _line_circle_diameter_cases,
    "mul": partial(_field_cases, op="mul"),
    "add": partial(_field_cases, op="add"),
    "conj": partial(_field_cases, op="conj"),
}
OPS = tuple(_CASES)  # in this order: rng_for streams and the golden pins depend on it


def run_op(name: str, cases: int, seed: int) -> OpReport:
    """Audit, check and record every case the op's generator yields."""
    if name not in OPS:
        raise ValueError(f"unknown construction {name!r}")
    run = OpReport(name, cases)
    for trace, want, detail in _CASES[name](run, rng_for(seed, name)):
        purity_audit(trace)
        run.audited += 1
        run.record(_pair_err(trace.output_points(), want), detail)
    return run


def format_reports(reports: list[OpReport], cases: int, seed: int) -> str:
    lines = [f"compass fuzz: seed {seed}, {cases} case(s) per construction"]
    if cases == 0:
        lines.append("warning: 0 cases requested; vacuous pass")
    lines.append(f"{'construction':<24} {'cases':>6} {'failures':>9} "
                 f"{'max_abs_err':>12}")
    for rep in reports:
        lines.append(f"{rep.name:<24} {rep.cases:>6} {rep.failures:>9} "
                     f"{rep.max_err:>12.3e}")
        for detail in rep.details:
            lines.append(f"  FAIL {detail}")
    total = sum(r.failures for r in reports)
    audited = sum(r.audited for r in reports)
    verdict = "PASS" if total == 0 else "FAIL"
    lines.append(f"result: {verdict} ({len(reports)} construction(s), "
                 f"{total} failure(s), {audited} trace(s) audited)")
    return "\n".join(lines) + "\n"
