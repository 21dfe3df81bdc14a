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

where ``e`` is nothing: a line may be empty. Tokens (``_TOKEN``):

- IDENT is a letter or ``_``, then word characters, and is no keyword.
- NUMBER uses decimal digits only, with an optional sign, fraction and
  exponent (``-1.5e-3``, ``+.25``), and ``float`` must read it as finite.
- STRING is the text between two double quotes; it does not span lines.
- ``#`` starts a comment that runs to the end of the line. Spaces, tabs
  and carriage returns separate tokens; a newline is a token.

The interpreter performs no I/O: emit statements come back as requests for
the caller to act on.

The AST is named tuples, equal to their field tuples: the statements
``Given``, ``Let`` and ``Emit``, each with its ``line`` last, and a let's
``CallExpr``, whose arguments are the values they denote: a name as a
``str``, a number as a ``float`` and a selector as a ``Selector``.

Each operation is one row of ``_OPS``: its parameter kinds and the routine
that builds it on the script's one builder. The kinds are P a point, C a
circle, N a positive integer, F a field operand, W a field operand whose
witness the routine takes, S an optional last selector (left when absent)
and B one that, absent from a two-name let, binds both points. The field
operations (mul, add, neg, conj, half) act relative to the first two given
points, which play the roles of 0 and 1 and must lie apart; an F or W
operand is a point constructed from those two alone, which
``Builder.witness`` checks of a W operand in the walk that takes its witness.
``linexcircle`` takes any line, through the center or not, and binds its
points in the line's order: ``let X, Y = linexcircle(A, B, O, D)`` puts X
on B's side, as one walks from A to B, on every route.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from . import constructions as cons
from . import field_ops
from .errors import CompassError, InvalidNodeId
from .geom import Point
from .program import Builder, Selector
from .record import MutableRecord

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


Token = namedtuple("Token", "kind lexeme line column")


# One alternative per token kind, tried in this order over one line; blanks
# and comments, and any other character, are groups of their own, so every
# character is matched. ``odd`` is what follows an 'e' that starts no
# decimal exponent, nested in Number: it never closes a match last.
_TOKEN = re.compile(r"""
    (?P<blank> [ \t\r]+ | \#.* )
  | (?P<Punct> [=(),] )
  | (?P<String> "[^"]*" )
  | (?P<Number> [+-]? (?=[\d.]) \d* (?:\.\d*)?
                (?: [eE][+-]?\d+ | (?=(?P<odd>[eE][+-]?\w)) )? )
  | (?P<word> \w+ )
  | (?P<other> . )
""", re.VERBOSE)
# kind by the number of the last group a match closes; EOF: the scan stops there
_KINDS = (None, None, PUNCT, STRING, NUMBER, None, IDENT, EOF)


def tokenize(source: str) -> list[Token]:
    """Lex a script into tokens with 1-based line/column positions, one line
    at a time; the EOF token stands where the last line ends."""
    tokens: list[Token] = []
    new = tuple.__new__  # a Token without a call of the Python-level Token.__new__
    for line, text_line in enumerate(source.split("\n"), 1):
        for m in _TOKEN.finditer(text_line):
            kind = _KINDS[m.lastindex]
            if kind is None:
                continue
            text = m.group()
            column = m.start() + 1
            if kind is IDENT:
                if not (text[0].isalpha() or text[0] == "_"):
                    raise LexError(line, column, f"unexpected character {text[0]!r}")
                if text in KEYWORDS:
                    kind = KEYWORD
            elif kind is NUMBER:
                odd = m.group("odd")
                if odd and odd[-1].isdigit():  # '1e²': a bad number, not 1 and a name
                    text += odd
                try:
                    value = float(text)
                except ValueError:
                    raise LexError(line, column, f"bad number {text!r}") from None
                if not math.isfinite(value):
                    raise LexError(line, column, f"number {text!r} overflows")
            elif kind is STRING:
                text = text[1:-1]
            elif kind is EOF:
                raise LexError(line, column, "unterminated string" if text == '"'
                               else f"unexpected character {text!r}")
            tokens.append(new(Token, (kind, text, line, column)))
        tokens.append(new(Token, (NEWLINE, "\n", line, len(text_line) + 1)))
    tokens[-1] = Token(EOF, "", line, len(text_line) + 1)
    return tokens


# --- AST ----------------------------------------------------------------------

# args: a tuple of names (str), numbers (float) and selectors (Selector)
CallExpr = namedtuple("CallExpr", "op args")
Given = namedtuple("Given", "name x y line")
Let = namedtuple("Let", "names call line")
Emit = namedtuple("Emit", "target path line")

Statement = Given | Let | Emit


# --- parser -------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def at(self, kind: str, lexeme: str | None = None) -> bool:
        tok = self.tokens[self.i]
        return tok.kind is kind and (lexeme is None or tok.lexeme == lexeme)

    def take(self, kind: str, what: str, lexemes=None) -> Token:
        """Consume the next token, which must be of ``kind`` and, given
        ``lexemes``, one of them; else a ParseError expecting ``what``."""
        tok = self.tokens[self.i]
        if tok.kind is not kind or (lexemes is not None and tok.lexeme not in lexemes):
            found = tok.lexeme if tok.lexeme.strip() else tok.kind.lower()
            raise ParseError(tok.line, tok.column, what, repr(found))
        self.i += 1
        return tok

    def script(self) -> list[Statement]:
        statements: list[Statement] = []
        while not self.at(EOF):
            if self.at(NEWLINE):
                self.i += 1
            else:
                statements.append(self.statement())
        return statements

    def statement(self) -> Statement:
        kw = self.take(KEYWORD, "'given', 'let', or 'emit'", ("given", "let", "emit"))
        if kw.lexeme == "given":
            name = self.take(IDENT, "a point name").lexeme
            self.take(PUNCT, "'='", "=")
            self.take(PUNCT, "'('", "(")
            x = float(self.take(NUMBER, "a number").lexeme)
            self.take(PUNCT, "','", ",")
            y = float(self.take(NUMBER, "a number").lexeme)
            self.take(PUNCT, "')'", ")")
            stmt = Given(name, x, y, kw.line)
        elif kw.lexeme == "let":
            names = [self.take(IDENT, "a name").lexeme]
            if self.at(PUNCT, ","):
                self.i += 1
                names.append(self.take(IDENT, "a name").lexeme)
            self.take(PUNCT, "'='", "=")
            stmt = Let(tuple(names), self.call(), kw.line)
        else:
            target = self.take(KEYWORD, "'svg', 'trace', or 'points'",
                               ("svg", "trace", "points")).lexeme
            stmt = Emit(target, self.take(STRING, "a quoted path").lexeme, kw.line)
        if not self.at(EOF):
            self.take(NEWLINE, "end of line")
        return stmt

    def call(self) -> CallExpr:
        op = self.take(IDENT, "an operation name").lexeme
        self.take(PUNCT, "'('", "(")
        args: list[str | float | Selector] = []
        while not self.at(PUNCT, ")"):
            if args:
                self.take(PUNCT, "',' or ')'", ",")
            args.append(self.arg())
        self.i += 1
        return CallExpr(op, tuple(args))

    def arg(self) -> str | float | Selector:
        if self.at(IDENT):
            return self.take(IDENT, "a name").lexeme
        if self.at(NUMBER):
            return float(self.take(NUMBER, "a number").lexeme)
        return Selector(self.take(KEYWORD, "an argument (name, number, 'left', or 'right')",
                                  ("left", "right")).lexeme)


def parse(tokens: list[Token]) -> list[Statement]:
    return _Parser(tokens).script()


def parse_source(source: str) -> list[Statement]:
    return parse(tokenize(source))


# --- pretty printer -------------------------------------------------------------

def format_statement(stmt: Statement) -> str:
    if isinstance(stmt, Given):
        return f"given {stmt.name} = ({stmt.x!r}, {stmt.y!r})"
    if isinstance(stmt, Let):
        args = [arg if type(arg) is str else repr(arg) if type(arg) is float
                else arg.value for arg in stmt.call.args]
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


class ScriptResult(MutableRecord):
    """Everything a caller needs to print, draw, or serialize a run: the
    ``trace``, the ``seed_names``, the let-bound ``named_points`` and
    ``named_circles`` as (name, node) pairs in bind order, and the emit
    statements, ``emits``, for the caller to act on."""

    __slots__ = _fields = ("trace", "seed_names", "named_points", "named_circles", "emits")

    def point(self, name: str) -> Point:
        return self.trace.resolved[dict(self.named_points)[name]]


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
                if type(arg) is not str:
                    raise ScriptTypeError(line, 1, f"{call.op} expects a bound name here")
                if arg not in self.env:
                    raise ScriptNameError(line, 1, f"name {arg!r} is not bound")
                node = self.env[arg]
                want = "circle" if kind == "C" else "point"
                got = "point" if self.builder.rs[node] is None else "circle"
                if got != want:
                    raise ScriptTypeError(
                        line, 1, f"{call.op} expects a {want}, but {arg!r} is a {got}")
                out.append(node)
            elif kind == "N":
                if type(arg) is not float:
                    raise ScriptTypeError(line, 1, f"{call.op} expects a number")
                if arg != int(arg) or arg < 1:
                    raise ScriptTypeError(
                        line, 1, f"{call.op} needs a positive integer ratio")
                out.append(int(arg))
            else:
                if type(arg) is not Selector:
                    raise ScriptTypeError(line, 1, f"{call.op} expects 'left' or 'right'")
                out.append(arg)
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
