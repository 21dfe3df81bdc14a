"""The three benchmark workloads: seeded input pools, the timed call into the
engine, and the untimed check of each output against ``compass.oracle``.

Every workload is a closed loop with one client: the next item starts when
the previous one has returned. An item's pool is generated from the seed
alone; the engine only ever sees the generated inputs. Expected values are
derived from the inputs with the oracle formulas (or, where the oracle has
none, the closed form the fuzzer uses), never from the engine's outputs.

Pools are stratified so that a different seed changes the inputs but not
the mix of work: every script pool holds each DSL op and each script length
equally often and one malformed script in 20, every deep-witness pool covers
the d/r range in equal log-width strata and every chain shape equally often,
and fuzz calls use a case count that is a multiple of the fuzzer's strata
period.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from compass import constructions as cons
from compass import dsl, field_ops, fuzz, svg, tracedoc
from compass.fuzz import FUZZ_TOL, SplitMix64
from compass.geom import Point, ResolvedCircle
from compass.oracle import (
    oracle_circle_circle,
    oracle_complex_add,
    oracle_complex_conj,
    oracle_complex_mul,
    oracle_foot,
    oracle_invert,
    oracle_line_circle,
    oracle_line_line,
    oracle_midpoint,
)
from compass.program import Builder, Program, purity_audit

from tracing import patched

# Fuzz margins (see compass.fuzz): pairwise point distance, line angle, and
# the clearance kept between a configuration and its nearest degeneracy.
MARGIN = 0.1
MIN_SIN = math.sin(0.1)
BAND = 0.05
# Every script op that inverts a point inside a circle keeps the point at
# least this share of the radius from the center, as ``invert`` does (d >= 0.05 r):
# the construction's cost grows as r/d, and its heavy tail belongs to the
# deep-witness workload, not to the text and I/O layers script-mix measures.
MIN_RATIO = 0.05
BOX = 5.0  # operands are drawn from points inside [-BOX, BOX]^2


def rel_err(got: Point, want: Point) -> float:
    """|got - want| / max(1, |want|)."""
    return math.hypot(got.x - want.x, got.y - want.y) / max(1.0, math.hypot(want.x, want.y))


def _point(rng: SplitMix64) -> Point:
    return Point(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX))


def _direction(rng: SplitMix64) -> complex:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(t), math.sin(t))


def _pt(z: complex) -> Point:
    return Point(z.real, z.imag)


def _cx(p: Point) -> complex:
    return complex(p.x, p.y)


def _dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def _line_dist(p: Point, a: Point, b: Point) -> float:
    ux, uy = b.x - a.x, b.y - a.y
    return abs(ux * (p.y - a.y) - uy * (p.x - a.x)) / math.hypot(ux, uy)


@dataclass(slots=True)
class Outcome:
    """The checked result of one item."""

    ok: bool
    err: float = 0.0
    circles: int = 0   # circles of the finished construction(s)
    steps: int = 0
    picks: int = 0
    coords: tuple = ()  # output coordinates, for the bit-identity check
    problem: str = ""


def _failure(problem: str) -> Outcome:
    return Outcome(False, math.inf, problem=problem)


def _counts(programs) -> tuple[int, int, int]:
    return (sum(p.circle_count() for p in programs),
            sum(len(p.steps) for p in programs),
            sum(p.pick_count() for p in programs))


# --- script-mix -------------------------------------------------------------------

APEX_W = complex(0.5, math.sqrt(3.0) / 2.0)

# The corpus's malformations (tests/corpus/bad): how to break one line, and
# the ScriptError subclass the front end must raise for it.
MALFORMATIONS = (
    ("given-missing-equals", "given", dsl.ParseError),    # bad01
    ("call-missing-comma", "call2", dsl.ParseError),      # bad02
    ("call-semicolon", "call2", dsl.LexError),            # bad03
    ("unterminated-string", "insert", dsl.LexError),      # bad04
    ("double-dot-number", "given", dsl.ParseError),       # bad05
    ("let-missing-name", "let", dsl.ParseError),          # bad06
    ("emit-missing-path", "insert", dsl.ParseError),      # bad07
    ("trailing-token", "given", dsl.ParseError),          # bad08
    ("unknown-keyword", "given", dsl.ParseError),         # bad09
    ("call-missing-paren", "let", dsl.ParseError),        # bad10
    ("emit-bad-target", "insert", dsl.ParseError),        # bad11
    ("let-trailing-comma", "let", dsl.ParseError),        # bad12
)


@dataclass(slots=True)
class _Named:
    name: str
    p: Point
    rel: complex | None  # value relative to the first two givens, if built from them


@dataclass(slots=True)
class ScriptItem:
    source: str
    expects: tuple  # ("point", names, wants, ordered) | ("circle", name, center, r)
    error: type | None = None
    error_line: int = 0


class _ScriptWriter:
    """Builds one valid script while tracking the oracle value of every name."""

    def __init__(self, rng: SplitMix64, givens: int):
        self.rng = rng
        self.lines: list[str] = []
        self.expects: list[tuple] = []
        self.points: list[_Named] = []
        self.circles: list[tuple[str, Point, float]] = []
        self.counter = 0
        for k, name in enumerate("ZUAB"[:givens]):
            while True:
                p = _point(rng)
                if all(_dist(p, q.p) >= MARGIN for q in self.points):
                    break
            rel = complex(k, 0) if k < 2 else None
            self.points.append(_Named(name, p, rel))
            self.lines.append(f"given {name} = ({p.x!r}, {p.y!r})")
        self.basis = (_cx(self.points[0].p), _cx(self.points[1].p))

    # -- helpers --
    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def choose(self, pool, k: int, ok, tries: int = 24):
        """Draw k distinct members of ``pool`` satisfying ``ok``."""
        if len(pool) < k:
            return None
        for _ in range(tries):
            picked = []
            while len(picked) < k:
                cand = pool[self.rng.randint(0, len(pool) - 1)]
                if cand not in picked:
                    picked.append(cand)
            if ok(*picked):
                return picked
        return None

    def operands(self):
        return [q for q in self.points if abs(q.p.x) <= BOX and abs(q.p.y) <= BOX]

    def field_operands(self):
        return [q for q in self.operands() if q.rel is not None and abs(q.rel) <= 4.0]

    def absolute(self, rel: complex) -> Point:
        z0, z1 = self.basis
        return _pt(z0 + (z1 - z0) * rel)

    def bind_point(self, name: str, p: Point, rel: complex | None = None):
        self.points.append(_Named(name, p, rel))

    def let_point(self, op: str, args: str, want: Point, rel=None):
        name = self.fresh("p")
        self.lines.append(f"let {name} = {op}({args})")
        self.expects.append(("point", (name,), (want,), True))
        self.bind_point(name, want, rel)

    def let_circle(self, op: str, args: str, center: Point, r: float):
        name = self.fresh("c")
        self.lines.append(f"let {name} = {op}({args})")
        self.expects.append(("circle", name, center, r))
        self.circles.append((name, center, r))
        return name

    @staticmethod
    def apart(*pts) -> bool:
        return all(_dist(p.p, q.p) >= MARGIN for i, p in enumerate(pts) for q in pts[i + 1:])

    # -- one op; returns the number of statements written, 0 if not possible --
    def write(self, op: str, budget: int) -> int:
        return getattr(self, "op_" + op)(budget)

    def op_circle(self, budget):
        got = self.choose(self.operands(), 2, self.apart)
        if not got:
            return 0
        p, q = got
        self.let_circle("circle", f"{p.name}, {q.name}", p.p, _dist(p.p, q.p))
        return 1

    def op_diam(self, budget):
        got = self.choose(self.operands(), 2, self.apart)
        if not got:
            return 0
        p, q = got
        self.let_circle("diam", f"{p.name}, {q.name}", oracle_midpoint(p.p, q.p),
                        _dist(p.p, q.p) / 2.0)
        return 1

    def op_intersect(self, budget):
        def cut(c1, c2):
            d = _dist(c1[1], c2[1])
            return (d >= MARGIN and c1[2] + c2[2] - d >= BAND
                    and d - abs(c1[2] - c2[2]) >= BAND)

        written = 0
        pair = self.choose(self.circles, 2, cut)
        if not pair:
            if budget < 3:
                return 0
            got = self.choose(self.operands(), 2, self.apart)
            if not got:
                return 0
            p, q = got
            r = _dist(p.p, q.p)
            pair = [(self.let_circle("circle", f"{p.name}, {q.name}", p.p, r), p.p, r),
                    (self.let_circle("circle", f"{q.name}, {p.name}", q.p, r), q.p, r)]
            written = 2
        (n1, o1, r1), (n2, o2, r2) = pair
        cuts = oracle_circle_circle(ResolvedCircle(o1, r1), ResolvedCircle(o2, r2))
        ax, ay = o2.x - o1.x, o2.y - o1.y
        left, right = sorted(cuts, key=lambda p: -(ax * (p.y - o1.y) - ay * (p.x - o1.x)))
        form = self.rng.randint(0, 2)
        if form == 0:
            x, y = self.fresh("p"), self.fresh("p")
            self.lines.append(f"let {x}, {y} = intersect({n1}, {n2})")
            self.expects.append(("point", (x, y), (left, right), True))
            self.bind_point(x, left)
            self.bind_point(y, right)
        else:
            side, want = ("left", left) if form == 1 else ("right", right)
            self.let_point("intersect", f"{n1}, {n2}, {side}", want)
        return written + 1

    def _basis_rel(self, *named):
        return all(q.rel is not None for q in named)

    def op_apex(self, budget):
        got = self.choose(self.operands(), 2, self.apart)
        if not got:
            return 0
        p, q = got
        right = self.rng.randint(0, 1) == 1
        w = APEX_W.conjugate() if right else APEX_W
        want = _pt(_cx(p.p) + (_cx(q.p) - _cx(p.p)) * w)
        rel = p.rel + (q.rel - p.rel) * w if self._basis_rel(p, q) else None
        self.let_point("apex", f"{p.name}, {q.name}" + (", right" if right else ""),
                       want, rel)
        return 1

    def op_extend(self, budget):
        got = self.choose(self.operands(), 2, self.apart)
        if not got:
            return 0
        p, q = got
        rel = 2 * q.rel - p.rel if self._basis_rel(p, q) else None
        self.let_point("extend", f"{p.name}, {q.name}", _pt(2 * _cx(q.p) - _cx(p.p)), rel)
        return 1

    def op_nth(self, budget):
        got = self.choose(self.operands(), 2, self.apart)
        if not got:
            return 0
        p, q = got
        n = self.rng.randint(1, 8)
        rel = p.rel + n * (q.rel - p.rel) if self._basis_rel(p, q) else None
        self.let_point("nth", f"{p.name}, {q.name}, {n}",
                       _pt(_cx(p.p) + n * (_cx(q.p) - _cx(p.p))), rel)
        return 1

    def op_midpoint(self, budget):
        got = self.choose(self.operands(), 2, self.apart)
        if not got:
            return 0
        p, q = got
        rel = (p.rel + q.rel) / 2 if self._basis_rel(p, q) else None
        self.let_point("midpoint", f"{p.name}, {q.name}", oracle_midpoint(p.p, q.p), rel)
        return 1

    def op_foot(self, budget):
        got = self.choose(self.operands(), 3,
                          lambda a, b, c: self.apart(a, b, c)
                          and _line_dist(c.p, a.p, b.p) >= BAND)
        if not got:
            return 0
        a, b, c = got
        self.let_point("foot", f"{a.name}, {b.name}, {c.name}", oracle_foot(a.p, b.p, c.p))
        return 1

    def op_invert(self, budget):
        def ok(p, o, d):
            r = _dist(o.p, d.p)
            t = _dist(o.p, p.p) / r if r >= MARGIN else 0.0
            return r >= MARGIN and t >= 0.05 and abs(t - 1.0) >= 0.05
        got = self.choose(self.operands(), 3, ok)
        if not got:
            return 0
        p, o, d = got
        want = oracle_invert(ResolvedCircle(o.p, _dist(o.p, d.p)), p.p)
        self.let_point("invert", f"{p.name}, {o.name}, {d.name}", want)
        return 1

    def op_linexline(self, budget):
        def ok(a, b, c, d):
            if not self.apart(a, b, c, d):
                return False
            ux, uy = b.p.x - a.p.x, b.p.y - a.p.y
            vx, vy = d.p.x - c.p.x, d.p.y - c.p.y
            if abs(ux * vy - uy * vx) < MIN_SIN * math.hypot(ux, uy) * math.hypot(vx, vy):
                return False
            # The construction's first pole is the apex over AB; it inverts the
            # foot on CD and the crossing in a circle of radius |AB| about it.
            pole = _pt(_cx(a.p) + (_cx(b.p) - _cx(a.p)) * APEX_W)
            cross = oracle_line_line(a.p, b.p, c.p, d.p)
            r = _dist(a.p, b.p)
            return (_line_dist(pole, c.p, d.p) >= MIN_RATIO * r
                    and _dist(pole, cross) <= r / MIN_RATIO)
        got = self.choose(self.operands(), 4, ok)
        if not got:
            return 0
        a, b, c, d = got
        want = oracle_line_line(a.p, b.p, c.p, d.p)
        self.let_point("linexline", f"{a.name}, {b.name}, {c.name}, {d.name}", want)
        return 1

    def op_linexcircle(self, budget):
        x, y = self.fresh("p"), self.fresh("p")
        if self.rng.randint(0, 2) == 0:
            # the line runs through the center: the diameter route
            got = self.choose(self.operands(), 3,
                              lambda o, a, d: self.apart(o, a, d)
                              and _line_dist(d.p, o.p, a.p) >= MIN_RATIO * _dist(o.p, d.p))
            if not got:
                return 0
            o, a, d = got
            r = _dist(o.p, d.p)
            u = (_cx(a.p) - _cx(o.p)) / _dist(a.p, o.p)
            wants = (_pt(_cx(o.p) + r * u), _pt(_cx(o.p) - r * u))
            ordered = True
            args = f"{o.name}, {a.name}, {o.name}, {d.name}"
        else:
            def ok(a, b, o, d):
                if not self.apart(a, b, o) or _dist(o.p, d.p) < MARGIN:
                    return False
                h = _line_dist(o.p, a.p, b.p)
                r = _dist(o.p, d.p)
                return MIN_RATIO * r <= h <= r - MIN_RATIO * r
            got = self.choose(self.operands(), 4, ok)
            if not got:
                return 0
            a, b, o, d = got
            wants = tuple(oracle_line_circle(a.p, b.p, ResolvedCircle(o.p, _dist(o.p, d.p))))
            ordered = False
            args = f"{a.name}, {b.name}, {o.name}, {d.name}"
        self.lines.append(f"let {x}, {y} = linexcircle({args})")
        self.expects.append(("point", (x, y), wants, ordered))
        if ordered:  # the off-center route does not document its order: no reuse
            self.bind_point(x, wants[0])
            self.bind_point(y, wants[1])
        return 1

    def _field(self, op, k, combine, ok=lambda *q: True):
        got = self.choose(self.field_operands(), k, ok)
        if not got:
            return 0
        rel = combine(*(_pt(q.rel) for q in got))
        if abs(rel) > 8.0:
            return 0
        self.let_point(op, ", ".join(q.name for q in got), self.absolute(rel), rel)
        return 1

    def op_mul(self, budget):
        return self._field("mul", 2, lambda a, b: _cx(oracle_complex_mul(a, b)),
                           ok=lambda a, b: abs(a.rel) >= MARGIN)

    def op_add(self, budget):
        return self._field("add", 2, lambda a, b: _cx(oracle_complex_add(a, b)))

    def op_neg(self, budget):
        return self._field("neg", 1, lambda a: _cx(oracle_complex_mul(Point(-1.0, 0.0), a)))

    def op_conj(self, budget):
        return self._field("conj", 1, lambda a: _cx(oracle_complex_conj(a)))

    def op_half(self, budget):
        self.let_point("half", "", self.absolute(0.5), complex(0.5, 0.0))
        return 1


def _malform(lines: list[str], rng: SplitMix64, kind: int):
    """Break one line of a valid script the way corpus file bad<kind+1> is
    broken. Returns (lines, expected error class, 1-based line number)."""
    name, site, error = MALFORMATIONS[kind]
    lines = list(lines)
    givens = [i for i, s in enumerate(lines) if s.startswith("given ")]
    lets = [i for i, s in enumerate(lines) if s.startswith("let ")]
    calls2 = [i for i in lets if ", " in lines[i].split("(", 1)[1]]
    if site == "insert":
        at = rng.randint(0, len(lines))
        text = {"unterminated-string": 'emit points "out.txt',
                "emit-missing-path": "emit svg",
                "emit-bad-target": 'emit pdf "x.svg"'}[name]
        lines.insert(at, text)
        return lines, error, at + 1
    candidates = {"given": givens, "let": lets, "call2": calls2}[site]
    if not candidates:  # no such line: fall back to bad01's defect
        return _malform(lines, rng, 0)
    at = candidates[rng.randint(0, len(candidates) - 1)]
    s = lines[at]
    if name == "given-missing-equals":
        s = s.replace(" = ", " ", 1)
    elif name == "double-dot-number":
        s = s.split("(", 1)[0] + "(0..5, 1)"
    elif name == "trailing-token":
        s = s + " extra"
    elif name == "unknown-keyword":
        s = "foo" + s[len("given"):]
    elif name == "call-missing-comma":
        head, call = s.split("(", 1)
        s = head + "(" + call.replace(", ", " ", 1)
    elif name == "call-semicolon":
        head, call = s.split("(", 1)
        s = head + "(" + call.replace(", ", "; ", 1)
    elif name == "let-missing-name":
        s = "let =" + s.split("=", 1)[1]
    elif name == "call-missing-paren":
        s = s[:-1]
    elif name == "let-trailing-comma":
        s = "let " + s[len("let "):].split(" =", 1)[0].split(",")[0] + ", =" + s.split("=", 1)[1]
    lines[at] = s
    return lines, error, at + 1


SCRIPT_LENGTHS = range(4, 13)  # statements per script, givens included
HEAVY_OPS = frozenset({"linexline", "linexcircle"})


def _shuffled(rng: SplitMix64, items: list) -> list:
    for i in range(len(items) - 1, 0, -1):  # Fisher-Yates
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]
    return items


class ScriptMix:
    """A generated DSL script taken through lex, parse, interpret, trace
    dump and load, and SVG rendering: ``compass run --trace --svg`` without
    the file writes."""

    name = "script-mix"
    units_per_item = 1
    BAD_EVERY = 20        # one malformed script per block of 20
    BLOCKS_PER_SECOND = 9  # blocks per second of work on a 2-core x86-64 VM

    def make_pool(self, seed: int, seconds: float) -> list[ScriptItem]:
        rng = SplitMix64(seed ^ 0x5C819700)
        deck: deque[str] = deque()
        lengths: list[int] = []
        pool = []
        for block in range(max(1, round(seconds * self.BLOCKS_PER_SECOND))):
            bad_at = rng.randint(0, self.BAD_EVERY - 1)
            for k in range(self.BAD_EVERY):
                index = block * self.BAD_EVERY + k
                if not lengths:
                    lengths = _shuffled(rng, list(SCRIPT_LENGTHS))
                item = self._script(rng, deck, lengths.pop(), index)
                if k == bad_at:
                    kind = rng.randint(0, len(MALFORMATIONS) - 1)
                    lines = item.source.splitlines()
                    broken, error, line = _malform(lines, rng, kind)
                    item = ScriptItem("\n".join(broken) + "\n", (), error, line)
                pool.append(item)
        return pool

    def _script(self, rng: SplitMix64, deck: deque, length: int, index: int) -> ScriptItem:
        givens = 3 if length <= 5 else 4
        writer = _ScriptWriter(rng, givens)
        writer.lines.insert(0, f"# script-mix item {index}")
        left = length - givens
        ops = []
        while left > 0:
            if len(deck) < 2 * len(dsl.OP_NAMES):
                deck.extend(_shuffled(rng, sorted(dsl.OP_NAMES)))
            for attempt in range(len(deck)):
                op = deck[attempt]
                if op in HEAVY_OPS and HEAVY_OPS & set(ops):
                    continue  # one heavy op per script keeps the cost tail light
                written = writer.write(op, left)
                if written:
                    del deck[attempt]
                    ops.append(op)
                    left -= written
                    break
            else:
                raise RuntimeError("no DSL op fits the script state")
        return ScriptItem("\n".join(writer.lines) + "\n", tuple(writer.expects))

    def run(self, item: ScriptItem):
        """The timed pipeline. Returns (result, text, loaded, picture, error)."""
        try:
            statements = dsl.parse(dsl.tokenize(item.source))
            if item.error is not None:
                return None, None, None, None, None
            result = dsl.interpret(statements)
            doc = tracedoc.document_from_trace(
                result.trace, result.seed_names,
                tuple(name for name, _ in result.named_points))
            text = tracedoc.dumps(doc)
            loaded = tracedoc.trace_from_document(tracedoc.loads(text))
            names = dict(enumerate(result.seed_names))
            names.update({node: name for name, node in result.named_points})
            picture = svg.render_trace(result.trace, names)
            return result, text, loaded, picture, None
        except Exception as err:  # any failure is an outcome to classify
            return None, None, None, None, err

    def finished(self, raw) -> list[Program]:
        result = raw[0]
        return [] if result is None else [result.trace.program]

    def check(self, item: ScriptItem, raw) -> Outcome:
        result, text, loaded, picture, error = raw
        if item.error is not None:
            if type(error) is not item.error or error.line != item.error_line:
                return _failure(f"expected {item.error.__name__} on line "
                                f"{item.error_line}, got {error!r}")
            return Outcome(True, coords=(type(error).__name__, error.line, error.column))
        if error is not None:
            return _failure(f"unexpected {type(error).__name__}: {error}")
        trace = result.trace
        prog = trace.program
        points = dict(result.named_points)
        circles = dict(result.named_circles)
        worst = 0.0
        coords = []
        for expect in item.expects:
            if expect[0] == "circle":
                _, name, center, r = expect
                got = trace.resolved[circles[name]]
                scale = max(1.0, math.hypot(center.x, center.y), r)
                err = max(_dist(got.center, center), abs(got.radius - r)) / scale
                coords.append((got.center.x, got.center.y, got.radius))
            else:
                _, names, wants, ordered = expect
                got = [trace.resolved[points[n]] for n in names]
                err = max(rel_err(g, w) for g, w in zip(got, wants))
                if not ordered:
                    err = min(err, max(rel_err(got[0], wants[1]), rel_err(got[1], wants[0])))
                coords.extend((g.x, g.y) for g in got)
            worst = max(worst, err)
        circles_n, steps, picks = _counts([prog])
        out = Outcome(worst <= FUZZ_TOL, worst, circles_n, steps, picks, tuple(coords))
        if not out.ok:
            out.problem = f"oracle miss {worst:.3e}"
        elif loaded.program != prog or loaded.resolved != trace.resolved:
            out.ok, out.problem = False, "trace round trip changed the trace"
        else:
            audit = purity_audit(loaded)
            if (audit.circles, audit.picks) != (prog.circle_count(), prog.pick_count()):
                out.ok, out.problem = False, "purity_audit counts disagree with the program"
            elif picture.count("<circle ") != prog.circle_count():
                out.ok, out.problem = False, "svg circle elements disagree with the program"
        return out


# --- oracle-fuzz --------------------------------------------------------------------

# lcm of the fuzzer's case-index strata: i % 2 (apex), i % 8 (foot), i % 3
# (invert), i % 4 (line-circle), i % 5 and i % 10 (line-circle-diameter).
FUZZ_STRATA_PERIOD = 120


@dataclass(frozen=True, slots=True)
class FuzzItem:
    op: str
    seed: int


class OracleFuzz:
    """One ``fuzz.run_op`` call: ``compass fuzz`` for one construction."""

    name = "oracle-fuzz"
    CASES = 120
    units_per_item = CASES  # items_per_s counts fuzz cases
    ROUNDS_PER_SECOND = 1.3  # rounds over fuzz.OPS, as for BLOCKS_PER_SECOND

    def __init__(self):
        if self.CASES % FUZZ_STRATA_PERIOD:
            raise ValueError(f"fuzz cases must be a multiple of {FUZZ_STRATA_PERIOD}")

    def make_pool(self, seed: int, seconds: float) -> list[FuzzItem]:
        rounds = max(1, round(seconds * self.ROUNDS_PER_SECOND))
        return [FuzzItem(op, seed * 100_003 + r) for r in range(rounds) for op in fuzz.OPS]

    def run(self, item: FuzzItem):
        """Returns (report, audited counts, error). run_op hands no program
        back, so the circle and step counts of every trace it audits are
        noted on the way (three stored fields read per case)."""
        audited = []
        audit = fuzz.purity_audit

        def note(trace):
            audited.append((trace.circle_count, len(trace.program.steps),
                            trace.program.seed_count))
            return audit(trace)

        try:
            with patched([(fuzz, "purity_audit", note)]):
                return fuzz.run_op(item.op, self.CASES, item.seed), audited, None
        except Exception as err:  # any failure is an outcome to classify
            return None, audited, err

    def finished(self, raw) -> list[Program]:
        return []  # counted from the audits instead

    def check(self, item: FuzzItem, raw) -> Outcome:
        report, audited, error = raw
        if error is not None:
            return _failure(f"{item.op}: unexpected {type(error).__name__}: {error}")
        circles_n = sum(c for c, _, _ in audited)
        steps = sum(s for _, s, _ in audited)
        picks = steps - circles_n - sum(seeds for _, _, seeds in audited)
        out = Outcome(report.failures == 0 and report.max_err <= FUZZ_TOL
                      and report.audited == len(audited) > 0 and report.cases == self.CASES,
                      report.max_err, circles_n, steps, picks,
                      coords=(report.failures, report.max_err, report.audited,
                              report.details))
        if not out.ok:
            out.problem = f"{item.op}: {report.failures} failure(s), max_err {report.max_err:.3e}"
        return out


# --- deep-witness --------------------------------------------------------------------

ATOMS = {
    "one": complex(1.0, 0.0),
    "minus_one": complex(-1.0, 0.0),
    "alpha": complex(0.75, math.sqrt(15.0) / 4.0),
}
ALPHA = ATOMS["alpha"]
CHAIN_SHAPES = tuple([("add1", n) for n in range(3, 10)] + [("double", n) for n in range(3, 7)])
FINALS = ("conj", "neg")
INVERT_RANGE = (1e-3, 0.5)  # d / r


@dataclass(frozen=True, slots=True)
class InvertItem:
    o: Point
    d: Point
    p: Point


@dataclass(frozen=True, slots=True)
class ChainItem:
    start: str
    shape: str
    length: int
    final: str


class DeepWitness:
    """A library call whose cost grows with its input: interior inversion
    over a wide d/r range, or a field_ops chain whose witness doubles."""

    name = "deep-witness"
    units_per_item = 1
    SETS_PER_SECOND = 0.3  # as for ScriptMix.BLOCKS_PER_SECOND

    def make_pool(self, seed: int, seconds: float) -> list:
        """Per set: every (start, shape, final) chain once, and as many
        inversions, one per equal log-width d/r stratum of the whole pool."""
        rng = SplitMix64(seed ^ 0xD33B0000)
        sets = max(1, round(seconds * self.SETS_PER_SECOND))
        chains = [ChainItem(start, shape, n, final)
                  for _ in range(sets) for start in sorted(ATOMS)
                  for shape, n in CHAIN_SHAPES for final in FINALS]
        lo, hi = (math.log(x) for x in INVERT_RANGE)
        strata = len(chains)
        inverts = []
        for k in range(strata):
            ratio = math.exp(lo + (hi - lo) * (k + rng.uniform(0.0, 1.0)) / strata)
            o = _point(rng)
            r = rng.uniform(0.5, 3.0)
            through, toward = _direction(rng), _direction(rng)
            inverts.append(InvertItem(o, _pt(_cx(o) + r * through),
                                      _pt(_cx(o) + ratio * r * toward)))
        pool = inverts + chains
        return _shuffled(rng, pool)

    def run(self, item):
        try:
            if isinstance(item, InvertItem):
                b = Builder([item.o, item.d, item.p])
                node = cons.build_invert_general(b, 0, 1, 2)
                prog, _ = b.finish([node])
                return prog, (b.point(node),), None
            one = field_ops.one()
            v = getattr(field_ops, item.start)()
            values = []
            for _ in range(item.length):
                v = field_ops.add(v, one if item.shape == "add1" else v)
                values.append(v.value)
            v = field_ops.mul(v, field_ops.alpha())
            values.append(v.value)
            v = getattr(field_ops, item.final)(v)
            values.append(v.value)
            return v.program, tuple(values), None
        except Exception as err:  # any failure is an outcome to classify
            return None, (), err

    def finished(self, raw) -> list[Program]:
        return [] if raw[0] is None else [raw[0]]

    @staticmethod
    def expected(item) -> tuple[Point, ...]:
        if isinstance(item, InvertItem):
            return (oracle_invert(ResolvedCircle(item.o, _dist(item.o, item.d)), item.p),)
        v = _pt(ATOMS[item.start])
        one = Point(1.0, 0.0)
        wants = []
        for _ in range(item.length):
            v = oracle_complex_add(v, one if item.shape == "add1" else v)
            wants.append(v)
        v = oracle_complex_mul(v, _pt(ALPHA))
        wants.append(v)
        v = (oracle_complex_conj(v) if item.final == "conj"
             else oracle_complex_mul(Point(-1.0, 0.0), v))
        wants.append(v)
        return tuple(wants)

    def check(self, item, raw) -> Outcome:
        prog, values, error = raw
        if error is not None:
            return _failure(f"unexpected {type(error).__name__}: {error}")
        wants = self.expected(item)
        if len(values) != len(wants):
            return _failure("chain produced the wrong number of values")
        worst = max(rel_err(g, w) for g, w in zip(values, wants))
        circles_n, steps, picks = _counts([prog])
        out = Outcome(worst <= FUZZ_TOL, worst, circles_n, steps, picks,
                      tuple((g.x, g.y) for g in values))
        if not out.ok:
            out.problem = f"oracle miss {worst:.3e} on {item}"
        return out


WORKLOADS = {w.name: w for w in (ScriptMix, OracleFuzz, DeepWitness)}
