"""The construction script language.

Line-oriented on purpose: every intermediate value must be named, so traces
map one-to-one onto script lines and diagnostics can always say where.

    # cut two circles
    given A = (-1, 0)
    given B = (1, 0)
    let c1 = circle(A, B)
    let c2 = circle(B, A)
    let X, Y = intersect(c1, c2)
    emit points "-"

Grammar (EBNF):

    script  := { line } ;
    line    := ( given | let | emit | e ) NEWLINE ;
    given   := "given" IDENT "=" "(" NUMBER "," NUMBER ")" ;
    let     := "let" IDENT [ "," IDENT ] "=" call ;
    call    := OPNAME "(" [ arg { "," arg } ] ")" ;
    arg     := IDENT | NUMBER | "left" | "right" ;
    emit    := "emit" ("svg" | "trace" | "points") STRING ;

`#` comments run to end of line. The interpreter performs no I/O: emit
statements come back as requests for the caller to act on.

Each operation is one row of ``_OPS``: its parameter kinds and the routine
that builds it on the script's one builder. The kinds are P a point, C a
circle, N a positive integer, F a field operand, W a field operand whose
witness the routine takes, S an optional last selector (left when absent)
and B one that, absent from a two-name let, binds both points. The field
operations (mul, add, neg, conj, half) act relative to the first two given
points, which play the roles of 0 and 1 and must lie apart; an F or W
operand is a point constructed from those two alone, which
``Builder.witness`` checks of a W operand in the walk that takes its witness.
``linexcircle`` takes any line, through the center or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import constructions as cons
from . import field_ops
from .errors import CompassError, InvalidNodeId
from .geom import Point
from .program import Builder, Selector, Trace

KEYWORDS = frozenset({"given", "let", "emit", "svg", "trace", "points",
                      "left", "right"})

# --- errors -------------------------------------------------------------------

class ScriptError(Exception):
    """Base for script-level failures; always knows its line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}:{column}: {message}")


class LexError(ScriptError):
    pass


class ParseError(ScriptError):
    def __init__(self, line: int, column: int, expected: str, found: str):
        self.expected = expected
        self.found = found
        super().__init__(line, column, f"expected {expected}, found {found}")


class ScriptNameError(ScriptError):
    pass


class ScriptArityError(ScriptError):
    pass


class ScriptTypeError(ScriptError):
    pass


class ScriptRuntimeError(ScriptError):
    """A construction failed while executing a statement."""


# --- tokens -------------------------------------------------------------------

IDENT = "Ident"
NUMBER = "Number"
KEYWORD = "Keyword"
PUNCT = "Punct"
STRING = "String"
NEWLINE = "Newline"
EOF = "Eof"


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    lexeme: str
    line: int
    column: int


_PUNCT = "=(),"


def tokenize(source: str) -> list[Token]:
    """Lex a script into tokens with 1-based line/column positions."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\r":
            i += 1
            col += 1
        elif ch == "\n":
            tokens.append(Token(NEWLINE, "\n", line, col))
            i += 1
            line += 1
            col = 1
        elif ch in " \t":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
        elif ch in _PUNCT:
            tokens.append(Token(PUNCT, ch, line, col))
            i += 1
            col += 1
        elif ch == '"':
            start_col = col
            i += 1
            begin = i
            while i < n and source[i] not in '"\n':
                i += 1
            if i >= n or source[i] != '"':
                raise LexError(line, start_col, "unterminated string")
            tokens.append(Token(STRING, source[begin:i], line, start_col))
            i += 1
            col = start_col + (i - begin) + 1
        elif ch.isalpha() or ch == "_":
            start_col = col
            begin = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[begin:i]
            kind = KEYWORD if word in KEYWORDS else IDENT
            tokens.append(Token(kind, word, line, start_col))
            col = start_col + (i - begin)
        elif ch.isdigit() or ch == "." or (
                ch in "+-" and i + 1 < n
                and (source[i + 1].isdigit() or source[i + 1] == ".")):
            start_col = col
            begin = i
            if ch in "+-":
                i += 1
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j + 1
                    while i < n and source[i].isdigit():
                        i += 1
            lexeme = source[begin:i]
            col = start_col + (i - begin)
            try:
                value = float(lexeme)
            except ValueError:
                raise LexError(line, start_col, f"bad number {lexeme!r}") from None
            if not math.isfinite(value):
                raise LexError(line, start_col, f"number {lexeme!r} overflows")
            tokens.append(Token(NUMBER, lexeme, line, start_col))
        else:
            raise LexError(line, col, f"unexpected character {ch!r}")
    tokens.append(Token(EOF, "", line, col))
    return tokens


# --- AST ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class NameArg:
    name: str


@dataclass(frozen=True, slots=True)
class NumberArg:
    value: float


@dataclass(frozen=True, slots=True)
class SelectorArg:
    which: Selector


Arg = NameArg | NumberArg | SelectorArg


@dataclass(frozen=True, slots=True)
class CallExpr:
    op: str
    args: tuple[Arg, ...]


@dataclass(frozen=True, slots=True)
class Given:
    name: str
    x: float
    y: float
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class Let:
    names: tuple[str, ...]
    call: CallExpr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class Emit:
    target: str
    path: str
    line: int = field(default=0, compare=False)


Statement = Given | Let | Emit


# --- parser -------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind is not EOF:
            self.i += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        found = tok.lexeme if tok.lexeme.strip() else tok.kind.lower()
        raise ParseError(tok.line, tok.column, expected, repr(found))

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind is not PUNCT or tok.lexeme != ch:
            self.fail(f"'{ch}'")
        return self.advance()

    def expect_kind(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            self.fail(what)
        return self.advance()

    def end_of_line(self):
        tok = self.peek()
        if tok.kind is NEWLINE:
            self.advance()
        elif tok.kind is not EOF:
            self.fail("end of line")

    def number(self) -> float:
        return float(self.expect_kind(NUMBER, "a number").lexeme)

    def given(self) -> Given:
        kw = self.advance()
        name = self.expect_kind(IDENT, "a point name").lexeme
        self.expect_punct("=")
        self.expect_punct("(")
        x = self.number()
        self.expect_punct(",")
        y = self.number()
        self.expect_punct(")")
        self.end_of_line()
        return Given(name, x, y, line=kw.line)

    def let(self) -> Let:
        kw = self.advance()
        names = [self.expect_kind(IDENT, "a name").lexeme]
        if self.peek().kind is PUNCT and self.peek().lexeme == ",":
            self.advance()
            names.append(self.expect_kind(IDENT, "a name").lexeme)
        self.expect_punct("=")
        call = self.call()
        self.end_of_line()
        return Let(tuple(names), call, line=kw.line)

    def call(self) -> CallExpr:
        op = self.expect_kind(IDENT, "an operation name").lexeme
        self.expect_punct("(")
        args: list[Arg] = []
        if not (self.peek().kind is PUNCT and self.peek().lexeme == ")"):
            args.append(self.arg())
            while True:
                tok = self.peek()
                if tok.kind is PUNCT and tok.lexeme == ",":
                    self.advance()
                    args.append(self.arg())
                elif tok.kind is PUNCT and tok.lexeme == ")":
                    break
                else:
                    self.fail("',' or ')'")
        self.expect_punct(")")
        return CallExpr(op, tuple(args))

    def arg(self) -> Arg:
        tok = self.peek()
        if tok.kind is IDENT:
            return NameArg(self.advance().lexeme)
        if tok.kind is NUMBER:
            return NumberArg(float(self.advance().lexeme))
        if tok.kind is KEYWORD and tok.lexeme in ("left", "right"):
            self.advance()
            return SelectorArg(Selector.LEFT if tok.lexeme == "left"
                               else Selector.RIGHT)
        self.fail("an argument (name, number, 'left', or 'right')")

    def emit(self) -> Emit:
        kw = self.advance()
        tok = self.peek()
        if tok.kind is not KEYWORD or tok.lexeme not in ("svg", "trace", "points"):
            self.fail("'svg', 'trace', or 'points'")
        target = self.advance().lexeme
        path = self.expect_kind(STRING, "a quoted path").lexeme
        self.end_of_line()
        return Emit(target, path, line=kw.line)

    def script(self) -> list[Statement]:
        statements: list[Statement] = []
        while True:
            tok = self.peek()
            if tok.kind is EOF:
                return statements
            if tok.kind is NEWLINE:
                self.advance()
                continue
            if tok.kind is KEYWORD and tok.lexeme == "given":
                statements.append(self.given())
            elif tok.kind is KEYWORD and tok.lexeme == "let":
                statements.append(self.let())
            elif tok.kind is KEYWORD and tok.lexeme == "emit":
                statements.append(self.emit())
            else:
                self.fail("'given', 'let', or 'emit'")


def parse(tokens: list[Token]) -> list[Statement]:
    return _Parser(tokens).script()


def parse_source(source: str) -> list[Statement]:
    return parse(tokenize(source))


# --- pretty printer -------------------------------------------------------------

def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, Given):
        return f"given {stmt.name} = ({stmt.x!r}, {stmt.y!r})"
    if isinstance(stmt, Let):
        args = []
        for arg in stmt.call.args:
            if isinstance(arg, NameArg):
                args.append(arg.name)
            elif isinstance(arg, NumberArg):
                args.append(repr(arg.value))
            else:
                args.append(arg.which.value)
        return (f"let {', '.join(stmt.names)} = "
                f"{stmt.call.op}({', '.join(args)})")
    return f'emit {stmt.target} "{stmt.path}"'


def format_script(statements: list[Statement]) -> str:
    return "".join(format_statement(s) + "\n" for s in statements)


# --- interpreter ----------------------------------------------------------------

_PAIR_BASIS = ("field operations need two given points, and operands "
               "constructed from those two alone")


def _late(module, name: str):
    """``module.<name>``, looked up at each call, so a wrapper set on the
    module at run time (perfbench's tracer) sees the script's calls too."""
    return lambda b, *args: getattr(module, name)(b, *args)


def _intersect(b: Builder, c1: int, c2: int, which: Selector | None) -> int | tuple[int, ...]:
    """The selected pick, or with None the points where the circles meet."""
    return b.meet(c1, c2) if which is None else b.pick(c1, c2, which)


def _invert(b: Builder, p: int, o: int, d: int) -> int:
    """invert(P, O, D): P inverted in the circle centered O through D."""
    return cons.build_invert_general(b, o, d, p)


def _mul(b: Builder, a: int, c: int) -> int:
    return field_ops.build_mul(b, a, b.witness(c).program)


def _add(b: Builder, a: int, c: int) -> int:
    return field_ops.build_add(b, a, b.witness(a).program, b.witness(c).program,
                               field_ops.relative(b, c))


def _half(b: Builder) -> int:
    """1/2 (``field_ops.demo_half``) on the first two givens."""
    return b.inline(field_ops.demo_half().program, (0, 1))[0]


# op -> (parameter kinds, routine); the routine takes the builder and the
# checked arguments and returns a node, or a tuple of nodes (see ``let``).
_OPS = {
    "circle": ("PP", Builder.circle),
    "intersect": ("CCB", _intersect),
    "apex": ("PPS", _late(cons, "build_apex")),
    "extend": ("PP", _late(cons, "build_extend")),
    "nth": ("PPN", _late(cons, "build_nth_point")),
    "midpoint": ("PP", _late(cons, "build_midpoint")),
    "diam": ("PP", _late(cons, "build_diameter_circle")),
    "foot": ("PPP", _late(cons, "build_perp_foot")),
    "invert": ("PPP", _invert),
    "linexline": ("PPPP", _late(cons, "build_line_line")),
    "linexcircle": ("PPPP", _late(cons, "build_line_circle_off_center")),
    "mul": ("FW", _mul),
    "add": ("WW", _add),
    "neg": ("F", _late(field_ops, "build_neg")),
    "conj": ("F", _late(field_ops, "build_conj")),
    "half": ("", _half),
}

OP_NAMES = frozenset(_OPS)


@dataclass(slots=True)
class ScriptResult:
    """Everything a caller needs to print, draw, or serialize a run."""

    trace: Trace
    seed_names: tuple[str, ...]
    named_points: tuple[tuple[str, int], ...]  # let-bound points, bind order
    named_circles: tuple[tuple[str, int], ...]
    emits: tuple[Emit, ...]  # the emit statements, for the caller to act on

    def point(self, name: str) -> Point:
        for n, node in self.named_points:
            if n == name:
                value = self.trace.resolved[node]
                assert isinstance(value, Point)
                return value
        raise KeyError(name)


class _Interpreter:
    """Binds each name to its builder node; a node's kind is the builder's
    (``rs[node]`` is None for a point)."""

    def __init__(self, statements: list[Statement]):
        self.statements = statements
        givens = [s for s in statements if isinstance(s, Given)]
        self.builder = Builder([Point(g.x, g.y) for g in givens])
        self.env: dict[str, int] = {}
        self.points: list[tuple[str, int]] = []
        self.circles: list[tuple[str, int]] = []
        self.seed_names = tuple(g.name for g in givens)
        self.emits: list[Emit] = []

    def run(self) -> ScriptResult:
        seeds = iter(range(self.builder.seed_count))
        for stmt in self.statements:
            if isinstance(stmt, Given):
                # a seed is bound, but not listed among the constructed points
                self.bind(stmt.name, next(seeds), stmt.line)
            elif isinstance(stmt, Let):
                self.let(stmt)
            else:
                self.emits.append(stmt)
        _, trace = self.builder.finish([node for _, node in self.points])
        return ScriptResult(trace, self.seed_names, tuple(self.points),
                            tuple(self.circles), tuple(self.emits))

    def bind(self, name: str, node: int, line: int):
        if name in self.env:
            raise ScriptNameError(line, 1, f"name {name!r} is already bound")
        self.env[name] = node

    def let(self, stmt: Let):
        call, line, names = stmt.call, stmt.line, stmt.names
        if call.op not in _OPS:
            raise ScriptNameError(line, 1, f"unknown operation {call.op!r}")
        params, routine = _OPS[call.op]
        args = self.check_args(call, params, len(names), line)
        try:
            result = routine(self.builder, *args)
        except InvalidNodeId:  # a W operand, or half(), without the pair basis
            raise ScriptTypeError(line, 1, _PAIR_BASIS) from None
        except CompassError as err:
            raise ScriptRuntimeError(
                line, 1, f"{call.op}: {type(err).__name__}: {err}") from err
        if type(result) is int:
            nodes = (result,)
        elif len(result) < len(names):
            nodes = result * 2  # tangency satisfies both names
        else:
            nodes = result[:len(names)]
        if len(names) != len(nodes):
            raise ScriptArityError(
                line, 1, f"{call.op} binds {len(nodes)} name(s), got {len(names)}")
        for name, node in zip(names, nodes):
            self.bind(name, node, line)
            (self.points if self.builder.rs[node] is None else self.circles).append((name, node))

    def check_args(self, call: CallExpr, params: str, names: int, line: int) -> list:
        """The arguments as the routine takes them, checked against the
        parameter kinds (see the module docstring); an absent B is None."""
        optional = params.endswith(("S", "B"))
        required = len(params) - optional
        if not required <= len(call.args) <= len(params):
            wanted = f"{required} to {len(params)}" if optional else str(required)
            raise ScriptArityError(
                line, 1, f"{call.op} takes {wanted} argument(s), got {len(call.args)}")
        out = []
        for arg, kind in zip(call.args, params):
            if kind in "PCFW":
                if not isinstance(arg, NameArg):
                    raise ScriptTypeError(line, 1, f"{call.op} expects a bound name here")
                if arg.name not in self.env:
                    raise ScriptNameError(line, 1, f"name {arg.name!r} is not bound")
                node = self.env[arg.name]
                want = "circle" if kind == "C" else "point"
                got = "point" if self.builder.rs[node] is None else "circle"
                if got != want:
                    raise ScriptTypeError(
                        line, 1, f"{call.op} expects a {want}, but {arg.name!r} is a {got}")
                out.append(node)
            elif kind == "N":
                if not isinstance(arg, NumberArg):
                    raise ScriptTypeError(line, 1, f"{call.op} expects a number")
                if arg.value != int(arg.value) or arg.value < 1:
                    raise ScriptTypeError(
                        line, 1, f"{call.op} needs a positive integer ratio")
                out.append(int(arg.value))
            else:
                if not isinstance(arg, SelectorArg):
                    raise ScriptTypeError(line, 1, f"{call.op} expects 'left' or 'right'")
                out.append(arg.which)
        if len(out) < len(params):
            out.append(None if params[-1] == "B" and names == 2 else Selector.LEFT)
        if any(kind == "F" and not self.builder.pair_based(node)
               for node, kind in zip(out, params)):
            raise ScriptTypeError(line, 1, _PAIR_BASIS)
        return out


def interpret(statements: list[Statement]) -> ScriptResult:
    """Execute a parsed script; pure apart from the returned emit requests."""
    return _Interpreter(statements).run()


def run_source(source: str) -> ScriptResult:
    return interpret(parse_source(source))
