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

The field operations (mul, add, neg, conj, half) are constructions like the
others, grown on the script's one builder (``field_ops.build_*``). They act
relative to the first two given points, which play the roles of 0 and 1 and
must lie apart; their operands must have been constructed from those two
points alone. ``linexcircle`` takes any line, through the center or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import constructions as cons
from . import field_ops
from .errors import CompassError, InvalidNodeId
from .geom import DEFAULT_TOL, Point, Tolerance
from .program import Builder, Selector, Trace

KEYWORDS = frozenset({"given", "let", "emit", "svg", "trace", "points",
                      "left", "right"})

OP_NAMES = frozenset({"circle", "intersect", "apex", "extend", "nth",
                      "midpoint", "diam", "foot", "invert", "linexline",
                      "linexcircle", "mul", "add", "neg", "conj", "half"})


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

POINT_KIND = "point"
CIRCLE_KIND = "circle"

# op -> (parameter kinds, result shape); "S?" is an optional trailing
# selector; shapes: "P" one point, "C" one circle, "P2" up to two points.
_SIGNATURES = {
    "circle": ("PP", "C"),
    "intersect": ("CCS?", "P2"),
    "apex": ("PPS?", "P"),
    "extend": ("PP", "P"),
    "nth": ("PPN", "P"),
    "midpoint": ("PP", "P"),
    "diam": ("PP", "C"),
    "foot": ("PPP", "P"),
    "invert": ("PPP", "P"),
    "linexline": ("PPPP", "P"),
    "linexcircle": ("PPPP", "P2"),
    "mul": ("PP", "P"),
    "add": ("PP", "P"),
    "neg": ("P", "P"),
    "conj": ("P", "P"),
    "half": ("", "P"),
}


@dataclass(frozen=True, slots=True)
class EmitRequest:
    target: str
    path: str
    line: int


@dataclass(slots=True)
class ScriptResult:
    """Everything a caller needs to print, draw, or serialize a run."""

    trace: Trace
    seed_names: tuple[str, ...]
    named_points: tuple[tuple[str, int], ...]  # let-bound points, bind order
    named_circles: tuple[tuple[str, int], ...]
    emits: tuple[EmitRequest, ...]

    def point(self, name: str) -> Point:
        for n, node in self.named_points:
            if n == name:
                value = self.trace.resolved[node]
                assert isinstance(value, Point)
                return value
        raise KeyError(name)


class _Interpreter:
    def __init__(self, statements: list[Statement], tol: Tolerance):
        self.statements = statements
        self.tol = tol
        givens = [s for s in statements if isinstance(s, Given)]
        self.builder = Builder([Point(g.x, g.y) for g in givens], tol)
        self.seed_slot = {id(g): i for i, g in enumerate(givens)}
        self.env: dict[str, tuple[str, int]] = {}
        self.point_order: list[tuple[str, int]] = []
        self.circle_order: list[tuple[str, int]] = []
        self.seed_names = tuple(g.name for g in givens)
        self.emits: list[EmitRequest] = []

    def run(self) -> ScriptResult:
        for stmt in self.statements:
            if isinstance(stmt, Given):
                # seeds go to the env but not to the constructed-point order
                if stmt.name in self.env:
                    raise ScriptNameError(
                        stmt.line, 1, f"name {stmt.name!r} is already bound")
                self.env[stmt.name] = (POINT_KIND, self.seed_slot[id(stmt)])
            elif isinstance(stmt, Let):
                self.let(stmt)
            else:
                self.emits.append(EmitRequest(stmt.target, stmt.path, stmt.line))
        _, trace = self.builder.finish([node for _, node in self.point_order])
        return ScriptResult(trace, self.seed_names, tuple(self.point_order),
                            tuple(self.circle_order), tuple(self.emits))

    def bind(self, name: str, kind: str, node: int, line: int):
        if name in self.env:
            raise ScriptNameError(line, 1, f"name {name!r} is already bound")
        self.env[name] = (kind, node)
        if kind == POINT_KIND:
            self.point_order.append((name, node))
        else:
            self.circle_order.append((name, node))

    def lookup(self, name: str, line: int) -> tuple[str, int]:
        try:
            return self.env[name]
        except KeyError:
            raise ScriptNameError(line, 1, f"name {name!r} is not bound") from None

    def let(self, stmt: Let):
        call, line = stmt.call, stmt.line
        if call.op not in _SIGNATURES:
            raise ScriptNameError(line, 1, f"unknown operation {call.op!r}")
        params, shape = _SIGNATURES[call.op]
        args = self.check_args(call, params, line)
        try:
            nodes = self.apply(call.op, args, stmt)
        except CompassError as err:
            raise ScriptRuntimeError(
                line, 1, f"{call.op}: {type(err).__name__}: {err}") from err
        if shape == "P2":
            if len(stmt.names) == 2 and len(nodes) == 1:
                nodes = (nodes[0], nodes[0])  # tangency satisfies both names
            elif len(stmt.names) == 1 and len(nodes) == 2:
                nodes = nodes[:1]
        if len(stmt.names) != len(nodes):
            raise ScriptArityError(
                line, 1,
                f"{call.op} binds {len(nodes)} name(s), got {len(stmt.names)}")
        kind = CIRCLE_KIND if shape == "C" else POINT_KIND
        for name, node in zip(stmt.names, nodes):
            self.bind(name, kind, node, line)

    def check_args(self, call: CallExpr, params: str, line: int) -> list:
        kinds: list[str] = []
        k = 0
        while k < len(params):
            if k + 1 < len(params) and params[k + 1] == "?":
                kinds.append(params[k] + "?")
                k += 2
            else:
                kinds.append(params[k])
                k += 1
        required = sum(1 for kk in kinds if not kk.endswith("?"))
        if not required <= len(call.args) <= len(kinds):
            wanted = (str(required) if required == len(kinds)
                      else f"{required} to {len(kinds)}")
            raise ScriptArityError(
                line, 1,
                f"{call.op} takes {wanted} argument(s), got {len(call.args)}")
        out = []
        for arg, kind in zip(call.args, kinds):
            want = kind[0]
            if want in ("P", "C"):
                if not isinstance(arg, NameArg):
                    raise ScriptTypeError(
                        line, 1, f"{call.op} expects a bound name here")
                bound_kind, node = self.lookup(arg.name, line)
                want_kind = POINT_KIND if want == "P" else CIRCLE_KIND
                if bound_kind != want_kind:
                    raise ScriptTypeError(
                        line, 1, f"{call.op} expects a {want_kind}, but "
                        f"{arg.name!r} is a {bound_kind}")
                out.append(node)
            elif want == "N":
                if not isinstance(arg, NumberArg):
                    raise ScriptTypeError(line, 1, f"{call.op} expects a number")
                out.append(arg.value)
            else:
                if not isinstance(arg, SelectorArg):
                    raise ScriptTypeError(
                        line, 1, f"{call.op} expects 'left' or 'right'")
                out.append(arg.which)
        return out

    def apply(self, op: str, args: list, stmt: Let) -> tuple[int, ...]:
        b = self.builder
        line = stmt.line
        if op == "circle":
            return (b.circle(args[0], args[1]),)
        if op == "intersect":
            if len(args) == 3:
                return (b.pick(args[0], args[1], args[2]),)
            if len(stmt.names) == 2:
                return b.both(args[0], args[1])
            return (b.pick(args[0], args[1], Selector.LEFT),)
        if op == "apex":
            side = args[2] if len(args) == 3 else Selector.LEFT
            return (cons.build_apex(b, args[0], args[1], side),)
        if op == "extend":
            return (cons.build_extend(b, args[0], args[1]),)
        if op == "nth":
            n = args[2]
            if n != int(n) or int(n) < 1:
                raise ScriptTypeError(line, 1, "nth needs a positive integer ratio")
            return (cons.build_nth_point(b, args[0], args[1], int(n)),)
        if op == "midpoint":
            return (cons.build_midpoint(b, args[0], args[1]),)
        if op == "diam":
            return (cons.build_diameter_circle(b, args[0], args[1]),)
        if op == "foot":
            return (cons.build_perp_foot(b, args[0], args[1], args[2]),)
        if op == "invert":
            # invert(P, O, D): the circle as center + through point
            return (cons.build_invert_general(b, args[1], args[2], args[0]),)
        if op == "linexline":
            return (cons.build_line_line(b, args[0], args[1], args[2], args[3]),)
        if op == "linexcircle":
            return cons.build_line_circle_off_center(b, *args)
        return (self.field_op(op, args, line),)

    def field_op(self, op: str, args: list, line: int) -> int:
        b = self.builder
        try:
            witnesses = [b.witness(node) for node in args]
            if op == "half":
                return b.inline(field_ops.demo_half(self.tol).program, (0, 1))[0]
        except InvalidNodeId:
            raise ScriptTypeError(
                line, 1, "field operations need two given points, and operands "
                "constructed from those two alone") from None
        if op == "neg":
            return field_ops.build_neg(b, args[0])
        if op == "conj":
            return field_ops.build_conj(b, args[0])
        if op == "mul":
            return field_ops.build_mul(b, args[0], witnesses[1])
        return field_ops.build_add(b, args[0], *witnesses,
                                   field_ops.relative(b, args[1]))


def interpret(statements: list[Statement],
              tol: Tolerance = DEFAULT_TOL) -> ScriptResult:
    """Execute a parsed script; pure apart from the returned emit requests."""
    return _Interpreter(statements, tol).run()


def run_source(source: str, tol: Tolerance = DEFAULT_TOL) -> ScriptResult:
    return interpret(parse_source(source), tol)
