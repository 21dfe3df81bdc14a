"""Randomized verification of every construction against the analytic oracles.

The generator is a 64-bit SplitMix sequence mapped to uniform reals (53
mantissa bits per draw), so runs are reproducible bit-for-bit from the seed
alone, on any platform, and a single-construction run replays exactly the
cases it would see inside a full run. Inputs are sampled in [-5, 5]^2 with
non-degeneracy margins: pairwise distances >= 0.1, line angles >= 0.1 rad,
and |center-to-line distance - r| >= 0.05 where classification matters.
"""

from __future__ import annotations

import math
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
from .program import Builder, Selector, execute, purity_audit

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
    failures: int
    max_err: float
    audited: int
    details: tuple[str, ...]  # first few failing instances, for reproduction


def _fmt_pt(p: Point) -> str:
    return f"({p.x:.17g}, {p.y:.17g})"


def _err(got: Point, want: Point) -> float:
    return math.hypot(got.x - want.x, got.y - want.y)


def _pair_err(got: tuple[Point, ...], want: list[Point]) -> float:
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


class _Run:
    def __init__(self, name: str, cases: int):
        self.name = name
        self.cases = cases
        self.failures = 0
        self.max_err = 0.0
        self.audited = 0
        self.details: list[str] = []

    def record(self, err: float, detail: str):
        self.max_err = max(self.max_err, err)
        if err > FUZZ_TOL:
            self.failures += 1
            if len(self.details) < 5:
                self.details.append(detail)

    def fail(self, detail: str):
        self.failures += 1
        if len(self.details) < 5:
            self.details.append(detail)

    def audit(self, trace):
        purity_audit(trace)
        self.audited += 1

    def report(self) -> OpReport:
        return OpReport(self.name, self.cases, self.failures, self.max_err,
                        self.audited, tuple(self.details))


def _run_apex(run: _Run, rng: SplitMix64):
    w = complex(0.5, math.sqrt(3.0) / 2.0)
    for i in range(run.cases):
        a = _point(rng)
        b = _point_away(rng, [a])
        side = Selector.LEFT if i % 2 == 0 else Selector.RIGHT
        trace = execute(cons.apex_program(side), (a, b))
        run.audit(trace)
        out = trace.output_points()[0]
        factor = w if side is Selector.LEFT else w.conjugate()
        z = complex(a.x, a.y) + (complex(b.x, b.y) - complex(a.x, a.y)) * factor
        run.record(_err(out, Point(z.real, z.imag)),
                   f"apex{_fmt_pt(a)}{_fmt_pt(b)} {side.value}")


def _run_extend(run: _Run, rng: SplitMix64):
    program = cons.extend_program()
    for _ in range(run.cases):
        x = _point(rng)
        y = _point_away(rng, [x])
        trace = execute(program, (x, y))
        run.audit(trace)
        want = Point(2 * y.x - x.x, 2 * y.y - x.y)
        run.record(_err(trace.output_points()[0], want),
                   f"extend{_fmt_pt(x)}{_fmt_pt(y)}")


def _run_nth(run: _Run, rng: SplitMix64):
    for _ in range(run.cases):
        o = _point(rng)
        p = _point_away(rng, [o])
        n = rng.randint(1, 8)
        trace = execute(cons.nth_point_program(n), (o, p))
        run.audit(trace)
        want = Point(o.x + n * (p.x - o.x), o.y + n * (p.y - o.y))
        run.record(_err(trace.output_points()[0], want),
                   f"nth{_fmt_pt(o)}{_fmt_pt(p)} n={n}")


def _run_midpoint(run: _Run, rng: SplitMix64):
    program = cons.midpoint_program()
    for _ in range(run.cases):
        a = _point(rng)
        b = _point_away(rng, [a])
        trace = execute(program, (a, b))
        run.audit(trace)
        run.record(_err(trace.output_points()[0], oracle_midpoint(a, b)),
                   f"midpoint{_fmt_pt(a)}{_fmt_pt(b)}")


def _run_foot(run: _Run, rng: SplitMix64):
    for i in range(run.cases):
        a = _point(rng)
        b = _point_away(rng, [a])
        if i % 8 == 7:
            # exercise the tangency path: c on the line, beyond b
            t = rng.uniform(1.2, 2.0)
            c = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        else:
            c = _point_away(rng, [a, b])
        builder = Builder([a, b, c])
        node = cons.build_perp_foot(builder, 0, 1, 2)
        _, trace = builder.finish([node])
        run.audit(trace)
        run.record(_err(builder.point(node), oracle_foot(a, b, c)),
                   f"foot{_fmt_pt(a)}{_fmt_pt(b)}{_fmt_pt(c)}")


def _run_invert(run: _Run, rng: SplitMix64):
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
        node = cons.build_invert_general(builder, 0, 1, 2)
        back = cons.build_invert_general(builder, 0, 1, node)
        _, trace = builder.finish([node, back])
        run.audit(trace)
        got = builder.point(node)
        want = oracle_invert(ResolvedCircle(o, r), p)
        detail = f"invert o={_fmt_pt(o)} r={r:.17g} p={_fmt_pt(p)}"
        run.record(_err(got, want), detail)
        if _err(builder.point(back), p) > INVOLUTION_TOL:
            run.fail("involution " + detail)


def _run_line_line(run: _Run, rng: SplitMix64):
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
        want = oracle_line_line(a, b, c, d)
        builder = Builder([a, b, c, d])
        node = cons.build_line_line(builder, 0, 1, 2, 3)
        _, trace = builder.finish([node])
        run.audit(trace)
        run.record(_err(builder.point(node), want),
                   f"linexline{_fmt_pt(a)}{_fmt_pt(b)}{_fmt_pt(c)}{_fmt_pt(d)}")


def _sample_line_at_distance(rng: SplitMix64, o: Point,
                             dist: float) -> tuple[Point, Point]:
    nx, ny = _direction(rng)
    foot = Point(o.x + dist * nx, o.y + dist * ny)
    t1 = rng.uniform(-3.0, -0.5)
    t2 = rng.uniform(0.5, 3.0)
    return (Point(foot.x - ny * t1, foot.y + nx * t1),
            Point(foot.x - ny * t2, foot.y + nx * t2))


def _run_line_circle(run: _Run, rng: SplitMix64):
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
        detail = f"linexcircle{_fmt_pt(a)}{_fmt_pt(b)} o={_fmt_pt(o)} r={r:.17g}"
        want = oracle_line_circle(a, b, ResolvedCircle(o, r))
        builder = Builder([a, b, o, d])
        try:
            nodes = cons.build_line_circle_off_center(builder, 0, 1, 2, 3)
        except NoSuchIntersection:
            if want:
                run.fail("missed existing intersection: " + detail)
            continue
        _, trace = builder.finish(nodes)
        run.audit(trace)
        got = tuple(builder.point(n) for n in nodes)
        run.record(_pair_err(got, want), detail)


def _run_line_circle_diameter(run: _Run, rng: SplitMix64):
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
        builder = Builder([o, a, d])
        n1, n2 = cons.build_line_circle_center_on_line(builder, 0, 1, 2)
        _, trace = builder.finish([n1, n2])
        run.audit(trace)
        got = (builder.point(n1), builder.point(n2))
        want = oracle_line_circle(o, a, ResolvedCircle(o, r))
        run.record(_pair_err(got, want),
                   f"diameter o={_fmt_pt(o)} a={_fmt_pt(a)} d={_fmt_pt(d)}")


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


def _run_field(run: _Run, rng: SplitMix64, op: str):
    pool = _pool()
    for _ in range(run.cases):
        a = pool.draw(rng, 2)
        if op == "conj":
            result = field_ops.conj(a)
            want = oracle_complex_conj(a.value)
            detail = f"conj a={_fmt_pt(a.value)}"
        else:
            b = pool.draw(rng, 2)
            if op == "mul":
                result = field_ops.mul(a, b)
                want = oracle_complex_mul(a.value, b.value)
            else:
                result = field_ops.add(a, b)
                want = oracle_complex_add(a.value, b.value)
            detail = f"{op} a={_fmt_pt(a.value)} b={_fmt_pt(b.value)}"
        trace = execute(result.program, field_ops.CANONICAL_SEEDS)
        run.audit(trace)
        run.record(_err(trace.output_points()[0], want), detail)
        if op == "conj":
            twice = field_ops.conj(result)
            if _err(twice.value, a.value) > FUZZ_TOL:
                run.fail("involution " + detail)


_RUNNERS = {
    "apex": _run_apex,
    "extend": _run_extend,
    "nth": _run_nth,
    "midpoint": _run_midpoint,
    "foot": _run_foot,
    "invert": _run_invert,
    "line-line": _run_line_line,
    "line-circle": _run_line_circle,
    "line-circle-diameter": _run_line_circle_diameter,
    "mul": partial(_run_field, op="mul"),
    "add": partial(_run_field, op="add"),
    "conj": partial(_run_field, op="conj"),
}
OPS = tuple(_RUNNERS)  # in this order: rng_for streams and the golden pins depend on it


def run_op(name: str, cases: int, seed: int) -> OpReport:
    if name not in OPS:
        raise ValueError(f"unknown construction {name!r}")
    run = _Run(name, cases)
    rng = rng_for(seed, name)
    _RUNNERS[name](run, rng)
    return run.report()


def run_fuzz(ops: list[str], cases: int, seed: int) -> list[OpReport]:
    return [run_op(name, cases, seed) for name in ops]


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
