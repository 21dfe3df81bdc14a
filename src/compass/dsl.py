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

``tokenize`` cuts each line into abutting pieces with one ``findall`` of
``_TOKEN`` and reads each piece's kind off its first character; a Unicode
decimal starts a NUMBER, as it does in the pattern. ``parse`` reads the
token list in place, with one index.

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
import string
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


# Every piece of a line, in this order: blanks or a comment, a Punct, a
# String, a Number, a word, or any other character. Pieces abut, so a
# column is the sum of the lengths before it, and a piece's first character
# tells its kind: ``_KIND_OF`` for ASCII (None for a blank), else EOF.
_TOKEN = re.compile(r"""
    [ \t\r]+ | \#.* | [=(),] | "[^"]*"
  | [+-]? (?=[\d.]) \d* (?:\.\d*)? (?:[eE][+-]?\d+)?
  | \w+ | .
""", re.VERBOSE)
_ODD = re.compile(r"[eE][+-]?\w")  # what follows an 'e' that starts no exponent
_KIND_OF = {" ": None, "\t": None, "\r": None, "#": None, "=": PUNCT, "(": PUNCT,
            ")": PUNCT, ",": PUNCT, '"': STRING, "+": NUMBER, "-": NUMBER, ".": NUMBER,
            **dict.fromkeys(string.digits, NUMBER),
            **dict.fromkeys(string.ascii_letters + "_", IDENT)}


def tokenize(source: str) -> list[Token]:
    """Lex a script into tokens with 1-based line/column positions: one
    ``findall`` a line, each piece's kind read off its first character; the
    EOF token stands where the last line ends."""
    tokens: list[Token] = []
    new = tuple.__new__  # a Token without a call of the Python-level Token.__new__
    for line, text_line in enumerate(source.split("\n"), 1):
        end = 1
        for text in _TOKEN.findall(text_line):
            kind = _KIND_OF.get(text[0], EOF)
            if kind is None:
                end += len(text)
                continue
            column = end
            end += len(text)
            if kind is IDENT:
                if text in KEYWORDS:
                    kind = KEYWORD
            elif kind is not PUNCT:
                if kind is EOF:  # a letter, a Unicode decimal (as \d) or no token
                    first = text[0]
                    if first.isalpha():
                        kind = IDENT
                    elif first.isdecimal():
                        kind = NUMBER
                    else:
                        raise LexError(line, column, f"unexpected character {first!r}")
                if kind is STRING:
                    if text == '"':
                        raise LexError(line, column, "unterminated string")
                    text = text[1:-1]
                elif kind is NUMBER:
                    if text == "+" or text == "-":
                        raise LexError(line, column, f"unexpected character {text!r}")
                    if "e" not in text and "E" not in text:
                        odd = _ODD.match(text_line, end - 1)
                        if odd and odd[0][-1].isdigit():  # '1e²': a bad number, not 1 and a name
                            text += odd[0]
                    try:
                        value = float(text)
                    except ValueError:
                        raise LexError(line, column, f"bad number {text!r}") from None
                    if not math.isfinite(value):
                        raise LexError(line, column, f"number {text!r} overflows")
            tokens.append(new(Token, (kind, text, line, column)))
        tokens.append(new(Token, (NEWLINE, "\n", line, end)))
    tokens[-1] = Token(EOF, "", line, end)
    return tokens


# --- AST ----------------------------------------------------------------------

# args: a tuple of names (str), numbers (float) and selectors (Selector)
CallExpr = namedtuple("CallExpr", "op args")
Given = namedtuple("Given", "name x y line")
Let = namedtuple("Let", "names call line")
Emit = namedtuple("Emit", "target path line")

Statement = Given | Let | Emit


# --- parser -------------------------------------------------------------------

def _expected(tok: Token, what: str) -> ParseError:
    """The error at ``tok``, where the grammar expects ``what``."""
    found = tok.lexeme if tok.lexeme.strip() else tok.kind.lower()
    return ParseError(tok.line, tok.column, what, repr(found))


# The fixed tokens of a statement after its keyword, and of a let after its
# names, up to its arguments: (kind, lexemes or None for any, what a
# ParseError expects); a Punct lexeme is one character, so ``in`` is ==.
_SHAPES = {
    "given": ((IDENT, None, "a point name"), (PUNCT, "=", "'='"), (PUNCT, "(", "'('"),
              (NUMBER, None, "a number"), (PUNCT, ",", "','"), (NUMBER, None, "a number"),
              (PUNCT, ")", "')'")),
    "let": ((PUNCT, "=", "'='"), (IDENT, None, "an operation name"), (PUNCT, "(", "'('")),
    "emit": ((KEYWORD, ("svg", "trace", "points"), "'svg', 'trace', or 'points'"),
             (STRING, None, "a quoted path")),
}
_SELECTORS = {s.value: s for s in Selector}


def parse(tokens: list[Token]) -> list[Statement]:
    """Parse ``tokenize``'s tokens: one pass with an index, each token
    checked in place against the grammar; a ParseError names what was
    expected at the first token that does not fit."""
    statements: list[Statement] = []
    i = 0
    while True:
        tok = tokens[i]
        kind, word, line = tok[0], tok[1], tok[2]
        if kind is NEWLINE:
            i += 1
            continue
        if kind is EOF:
            return statements
        if kind is not KEYWORD or word not in _SHAPES:
            raise _expected(tok, "'given', 'let', or 'emit'")
        if word == "let":
            tok = tokens[i + 1]
            if tok[0] is not IDENT:
                raise _expected(tok, "a name")
            names = (tok[1],)
            i += 1
            if tokens[i + 1][1] == "," and tokens[i + 1][0] is PUNCT:
                tok = tokens[i + 2]
                if tok[0] is not IDENT:
                    raise _expected(tok, "a name")
                names += (tok[1],)
                i += 2
        for want, lexemes, what in _SHAPES[word]:
            i += 1
            tok = tokens[i]
            if tok[0] is not want or lexemes and tok[1] not in lexemes:
                raise _expected(tok, what)
        if word == "given":  # its name is 6 tokens back, x 3 and y 1
            statements.append(Given(tokens[i - 6][1], float(tokens[i - 3][1]),
                                    float(tokens[i - 1][1]), line))
        elif word == "emit":
            statements.append(Emit(tokens[i - 1][1], tok[1], line))
        else:
            op = tokens[i - 1][1]
            i += 1
            tok = tokens[i]
            args: list[str | float | Selector] = []
            while tok[0] is not PUNCT or tok[1] != ")":
                if args:
                    if tok[0] is not PUNCT or tok[1] != ",":
                        raise _expected(tok, "',' or ')'")
                    i += 1
                    tok = tokens[i]
                kind, text = tok[0], tok[1]
                if kind is IDENT:
                    args.append(text)
                elif kind is NUMBER:
                    args.append(float(text))
                elif kind is KEYWORD and text in _SELECTORS:
                    args.append(_SELECTORS[text])
                else:
                    raise _expected(tok, "an argument (name, number, 'left', or 'right')")
                i += 1
                tok = tokens[i]
            statements.append(Let(names, CallExpr(op, tuple(args)), line))
        i += 1  # past the statement's last token, to its end of line
        kind = tokens[i][0]
        if kind is NEWLINE:
            i += 1
        elif kind is not EOF:
            raise _expected(tokens[i], "end of line")


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
    """1/2 in the frame of the first two givens: their midpoint, 6 circles
    (``midpoint_program``). The ``half`` demo draws the paper's chase to the
    same point, |alpha|^2 - 1, in script ops."""
    return cons.build_midpoint(b, 0, 1)


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
        env, rs = self.env, self.builder.rs
        for arg, kind in zip(call.args, params):
            if kind in "PCFW":
                if type(arg) is not str:
                    raise ScriptTypeError(line, 1, f"{call.op} expects a bound name here")
                node = env.get(arg)
                if node is None:
                    raise ScriptNameError(line, 1, f"name {arg!r} is not bound")
                if (rs[node] is None) is (kind == "C"):  # a point for C, or a circle
                    want, got = ("circle", "point") if kind == "C" else ("point", "circle")
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
        if "F" in params and not all(self.builder.pair_based(node)
                                     for node, kind in zip(out, params) if kind == "F"):
            raise ScriptTypeError(line, 1, _PAIR_BASIS)
        return out


def interpret(statements: list[Statement]) -> ScriptResult:
    """Execute a parsed script; pure apart from the returned emit requests."""
    return _Interpreter(statements).run()


def run_source(source: str) -> ScriptResult:
    return interpret(parse_source(source))
