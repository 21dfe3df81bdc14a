"""Randomized verification of every construction against the analytic oracles.

The generator is a 64-bit SplitMix sequence mapped to uniform reals (53
mantissa bits per draw), so runs are reproducible bit-for-bit from the seed
alone, on any platform, and a single-construction run replays exactly the
cases it would see inside a full run. Inputs are sampled in [-5, 5]^2 with
non-degeneracy margins: pairwise distances >= 0.1, line angles >= 0.1 rad,
and |center-to-line distance - r| >= 0.05 where classification matters.

Each op is a row of one of three tables, and each table's generator ``(run,
rng, op)`` yields one ``(trace, want, detail)`` per case: the trace to audit,
whose outputs are the answer; the oracle's points; and a callable that
formats the case, called only when it fails. ``run_op`` alone audits each
trace, compares it with ``want`` and records the error on its ``OpReport``.
An involution check follows the comparison in its generator and calls
``run.fail`` when the generator resumes, so failure details keep their order.

``_replayed_cases`` executes one shared canonical program per case for
apex, extend, nth and midpoint (``_REPLAYED``: case index, stream and the
two points drawn -> program, oracle point, detail tail). ``_built_cases``
runs a ``build_*`` routine on a fresh ``Builder`` for foot, invert and the
three line ops (``_BUILT``: case index and stream -> routine, seeds, oracle
points, detail). A ``CompassError`` from a build fails its case as
``"<error class>: <case>"``, except a ``NoSuchIntersection`` where the
oracle wants no point, which is the right answer. ``_field_cases`` serves mul, add and conj, one
``_RING_ROWS`` row each.

The ring operations (mul, add, conj) draw their operands from a
``_ValuePool``: values at most two operations deep over five atoms.
``_field_cases`` makes a fresh pool per ``run_op`` call. Only the atoms
(``_atoms``) and their one-operation layer (``_layer``, every value one
ring operation over the atoms) carry over from call to call, each built
once per process; a pool starts from that layer and builds each deeper
operand value at most once. The operation under test is built fresh on
every case, and a kept value is drawn from the stream exactly as a fresh
one.

``perfbench/`` and the tests patch module names that are read at call time:
``purity_audit`` (called once per audited case), ``execute`` (apex, extend,
nth and midpoint), the ``oracle_*`` names, ``_fmt_pt``, ``FUZZ_TOL``, the
``cons`` program getters and ``build_*`` routines, and ``field_ops.add``,
``mul``, ``conj`` and ``neg``: a row reads each of them when it runs.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import lru_cache, partial
from itertools import product

from . import constructions as cons
from . import field_ops
from .errors import CompassError, NoSuchIntersection
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
from .record import MutableRecord

FUZZ_TOL = 1e-6

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BOX = 5.0  # points are drawn in [-_BOX, _BOX]^2
_MARGIN = 0.1  # least distance of a point drawn away from others
_TURN = complex(0.5, math.sqrt(3.0) / 2.0)  # apex's turn by 60 degrees to the left
_MIN_SIN = math.sin(0.1)  # least sine of the angle between two lines drawn


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


class OpReport(MutableRecord):
    """One op's run of ``cases`` cases: its failures, largest error and
    audited traces, and ``details``, the first few failing instances, for
    reproduction."""

    __slots__ = _fields = ("name", "cases", "failures", "max_err", "audited", "details")

    def __init__(self, name: str, cases: int, failures: int = 0, max_err: float = 0.0,
                 audited: int = 0, details: tuple[str, ...] = ()):
        MutableRecord.__init__(self, name, cases, failures, max_err, audited, details)

    def record(self, err: float, detail: Callable[[], str]):
        """Record a case's error; ``detail`` describes the case, and is
        formatted only when the case fails. A NaN error fails the case, and
        ``max_err`` shows it from then on."""
        if math.isnan(err) or err > self.max_err:
            self.max_err = err
        if not err <= FUZZ_TOL:
            self.fail(detail())

    def fail(self, detail: str):
        self.failures += 1
        if len(self.details) < 5:
            self.details += (detail,)


def _fmt_pt(p: Point) -> str:
    return f"({p.x:.17g}, {p.y:.17g})"


def _pair_err(got: tuple[Point, ...], want: Sequence[Point]) -> float:
    """The largest distance between each point and the oracle's, in order."""
    if len(got) != len(want):
        return math.inf
    return max(map(math.dist, got, want))


def _point(rng: SplitMix64) -> Point:
    return Point(rng.uniform(-_BOX, _BOX), rng.uniform(-_BOX, _BOX))


def _point_away(rng: SplitMix64, others: list[Point]) -> Point:
    while True:
        p = _point(rng)
        if all(math.dist(p, q) >= _MARGIN for q in others):
            return p


def _direction(rng: SplitMix64) -> tuple[float, float]:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return math.cos(t), math.sin(t)


def _apex_row(i: int, rng: SplitMix64, a: Point, b: Point):
    side, factor = (Selector.LEFT, _TURN) if i % 2 == 0 else (Selector.RIGHT, _TURN.conjugate())
    z = complex(a.x, a.y) + (complex(b.x, b.y) - complex(a.x, a.y)) * factor
    return cons.apex_program(side), Point(z.real, z.imag), f" {side.value}"


def _nth_row(i: int, rng: SplitMix64, o: Point, p: Point):
    n = rng.randint(1, 8)
    return (cons.nth_point_program(n), Point(o.x + n * (p.x - o.x), o.y + n * (p.y - o.y)),
            f" n={n}")


# op -> its row: (case index, stream, a, b) -> (canonical program, oracle
# point, detail tail), every engine and oracle name read at call time
_REPLAYED = {
    "apex": _apex_row,
    "extend": lambda i, rng, x, y: (cons.extend_program(),
                                    Point(2 * y.x - x.x, 2 * y.y - x.y), ""),
    "nth": _nth_row,
    "midpoint": lambda i, rng, a, b: (cons.midpoint_program(), oracle_midpoint(a, b), ""),
}


def _replayed_cases(run: OpReport, rng: SplitMix64, op: str):
    row = _REPLAYED[op]
    for i in range(run.cases):
        a = _point(rng)
        b = _point_away(rng, [a])
        program, want, tail = row(i, rng, a, b)
        yield (execute(program, (a, b)), (want,),
               lambda: f"{op}{_fmt_pt(a)}{_fmt_pt(b)}{tail}")


def _foot_row(i: int, rng: SplitMix64):
    a = _point(rng)
    b = _point_away(rng, [a])
    if i % 8 == 7:
        # exercise the tangency path: c on the line, beyond b
        t = rng.uniform(1.2, 2.0)
        c = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    else:
        c = _point_away(rng, [a, b])
    return (cons.build_perp_foot, [a, b, c], (oracle_foot(a, b, c),),
            lambda: f"foot{_fmt_pt(a)}{_fmt_pt(b)}{_fmt_pt(c)}")


def _invert_row(i: int, rng: SplitMix64):
    o = _point(rng)
    r = rng.uniform(0.5, 3.0)
    dx, dy = _direction(rng)
    d = Point(o.x + r * dx, o.y + r * dy)
    px, py = _direction(rng)
    if i % 3 == 0:
        dist = r + rng.uniform(0.05, 4.0)
    elif i % 3 == 1:
        dist = r
    else:
        dist = rng.uniform(0.05 * r, 0.95 * r)
    p = Point(o.x + dist * px, o.y + dist * py)
    return (cons.build_invert_general, [o, d, p], (oracle_invert(ResolvedCircle(o, r), p),),
            lambda: f"invert o={_fmt_pt(o)} r={r:.17g} p={_fmt_pt(p)}")


def _line_line_row(i: int, rng: SplitMix64):
    while True:
        a = _point(rng)
        b = _point_away(rng, [a])
        c = _point_away(rng, [a, b])
        d = _point_away(rng, [a, b, c])
        ux, uy = b.x - a.x, b.y - a.y
        vx, vy = d.x - c.x, d.y - c.y
        if abs(ux * vy - uy * vx) / (math.dist(a, b) * math.dist(c, d)) >= _MIN_SIN:
            break
    return (cons.build_line_line, [a, b, c, d], (oracle_line_line(a, b, c, d),),
            lambda: f"linexline{_fmt_pt(a)}{_fmt_pt(b)}{_fmt_pt(c)}{_fmt_pt(d)}")


def _sample_line_at_distance(rng: SplitMix64, o: Point, dist: float) -> tuple[Point, Point]:
    nx, ny = _direction(rng)
    foot = Point(o.x + dist * nx, o.y + dist * ny)
    t1 = rng.uniform(-3.0, -0.5)
    t2 = rng.uniform(0.5, 3.0)
    return (Point(foot.x - ny * t1, foot.y + nx * t1),
            Point(foot.x - ny * t2, foot.y + nx * t2))


def _line_circle_row(i: int, rng: SplitMix64):
    o = _point(rng)
    r = rng.uniform(0.5, 3.0)
    dx, dy = _direction(rng)
    d = Point(o.x + r * dx, o.y + r * dy)
    if i % 4 == 3:
        dist = r + rng.uniform(0.05, 2.0)  # the line misses: the oracle wants no point
    else:
        dist = rng.uniform(0.05, r - 0.05)
    a, b = _sample_line_at_distance(rng, o, dist)
    return (cons.build_line_circle_off_center, [a, b, o, d],
            oracle_line_circle(a, b, ResolvedCircle(o, r)),
            lambda: f"linexcircle{_fmt_pt(a)}{_fmt_pt(b)} o={_fmt_pt(o)} r={r:.17g}")


def _diameter_row(i: int, rng: SplitMix64):
    o = _point(rng)
    a = _point_away(rng, [o])
    r = rng.uniform(0.5, 3.0)
    norm = math.dist(a, o)
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
    return (cons.build_line_circle_center_on_line, [o, a, d],
            oracle_line_circle(o, a, ResolvedCircle(o, r)),
            lambda: f"diameter o={_fmt_pt(o)} a={_fmt_pt(a)} d={_fmt_pt(d)}")


# op -> its row: (case index, stream) -> (build routine, seeds, oracle points,
# detail), every engine and oracle name read at call time
_BUILT = {
    "foot": _foot_row,
    "invert": _invert_row,
    "line-line": _line_line_row,
    "line-circle": _line_circle_row,
    "line-circle-diameter": _diameter_row,
}


def _built_cases(run: OpReport, rng: SplitMix64, op: str):
    """Each case's ``build(b, 0, 1, ...)`` on a fresh builder over its
    seeds, finished with the node or nodes it returns as the outputs."""
    row = _BUILT[op]
    for i in range(run.cases):
        build, seeds, want, detail = row(i, rng)
        b = Builder(seeds)
        try:  # the involution check's build, after the yield, too
            nodes = build(b, *range(len(seeds)))
            yield b.finish((nodes,) if isinstance(nodes, int) else nodes)[1], want, detail
            if op == "invert" and math.dist(
                    b.point(cons.build_invert_general(b, 0, 1, nodes)), seeds[2]) > FUZZ_TOL:
                run.fail("involution " + detail())
        except CompassError as err:
            if want or not isinstance(err, NoSuchIntersection):
                run.fail(f"{type(err).__name__}: {detail()}")


@lru_cache(maxsize=None)
def _atoms() -> tuple[field_ops.ConstructibleValue, ...]:
    """The atoms of every ``_ValuePool``, built once per process."""
    one = field_ops.one()
    b = Builder(field_ops.CANONICAL_SEEDS)
    return (one, field_ops.minus_one(), field_ops.add(one, one), field_ops.alpha(),
            field_ops.ConstructibleValue(b.witness(cons.build_apex(b, 0, 1, Selector.LEFT))))


_RING_OPS = ("add", "mul", "conj", "neg")  # by draw's k; each read from field_ops per call


@lru_cache(maxsize=None)
def _layer() -> dict[tuple, field_ops.ConstructibleValue]:
    """Every value one ring operation over the atoms, keyed as
    ``_ValuePool.draw`` keys what it builds: add and mul over the 25
    ordered atom pairs, conj and neg over the 5 atoms, 60 values. Built
    once per process, each through the ``field_ops`` function read at call
    time; a pool copies it and never changes it."""
    atoms = _atoms()
    return {(k, *map(id, operands)): getattr(field_ops, name)(*operands)
            for k, name in enumerate(_RING_OPS)
            for operands in product(atoms, repeat=2 if k < 2 else 1)}


class _ValuePool:
    """Random constructible values composed from a fixed atom set. Every
    operation value a pool holds is kept in ``_built`` for the pool's life,
    keyed on the operation and its operands' ids: an operand is an atom or a
    value the pool keeps, so its id names it, and no value is built twice.
    A pool starts from the one-operation layer (``_layer``), so it builds
    only values two operations deep."""

    def __init__(self):
        self.atoms = _atoms()
        self._built: dict[tuple, field_ops.ConstructibleValue] = dict(_layer())

    def draw(self, rng: SplitMix64, depth: int) -> field_ops.ConstructibleValue:
        if depth <= 0 or rng.uniform(0.0, 1.0) < 0.35:
            return self.atoms[rng.randint(0, len(self.atoms) - 1)]
        k = rng.randint(0, 3)
        # the operands first, left to right, then the operation
        operands = [self.draw(rng, depth - 1) for _ in range(2 if k < 2 else 1)]
        key = (k, *map(id, operands))
        value = self._built.get(key)
        if value is None:
            value = self._built[key] = getattr(field_ops, _RING_OPS[k])(*operands)
        return value


# op -> (operand count, operands -> (value built, oracle point))
_RING_ROWS = {
    "mul": (2, lambda a, b: (field_ops.mul(a, b), oracle_complex_mul(a.value, b.value))),
    "add": (2, lambda a, b: (field_ops.add(a, b), oracle_complex_add(a.value, b.value))),
    "conj": (1, lambda a: (field_ops.conj(a), oracle_complex_conj(a.value))),
}


def _field_cases(run: OpReport, rng: SplitMix64, op: str):
    arity, row = _RING_ROWS[op]
    pool = _ValuePool()
    for _ in range(run.cases):
        operands = [pool.draw(rng, 2) for _ in range(arity)]
        result, want = row(*operands)

        def detail():
            return f"{op} " + " ".join(f"{name}={_fmt_pt(v.value)}"
                                       for name, v in zip("ab", operands))
        yield result.trace, (want,), detail
        if op == "conj" and math.dist(field_ops.conj(result).value,
                                      operands[0].value) > FUZZ_TOL:
            run.fail("involution " + detail())


_CASES = {
    **{op: partial(_replayed_cases, op=op) for op in _REPLAYED},
    **{op: partial(_built_cases, op=op) for op in _BUILT},
    **{op: partial(_field_cases, op=op) for op in _RING_ROWS},
}
OPS = tuple(_CASES)  # in this order: rng_for streams and the golden pins depend on it


def run_op(name: str, cases: int, seed: int) -> OpReport:
    """Audit, check and record every case the op's generator yields."""
    if name not in OPS:
        raise ValueError(f"unknown construction {name!r}")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (cases, seed)):
        raise ValueError(f"cases and seed must be ints, got {cases!r} and {seed!r}")
    if cases < 0:
        raise ValueError(f"cases must be nonnegative, got {cases}")
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
