import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from compass import dsl, program, tracedoc
from compass.dsl import (
    CallExpr,
    Emit,
    Given,
    Let,
    LexError,
    ParseError,
    ScriptArityError,
    ScriptNameError,
    ScriptRuntimeError,
    ScriptTypeError,
    format_script,
    interpret,
    parse_source,
    run_source,
    tokenize,
)
from compass.geom import Point, ResolvedCircle
from compass.oracle import oracle_line_circle
from compass.program import Builder, Selector, purity_audit

CORPUS = Path(__file__).parent / "corpus"

SQRT3_2 = math.sqrt(3.0) / 2.0
SQRT15_4 = math.sqrt(15.0) / 4.0
SQRT075 = math.sqrt(0.75)

# expected "name -> (x, y)" per good corpus script, at 1e-6 unless noted
GOOD_EXPECTED = {
    "01-apex.compass": {"C": (0.5, SQRT3_2)},
    "02-extend.compass": {"minus_one": (-1.0, 0.0), "two": (2.0, 0.0)},
    "03-midpoint.compass": {"M": (1.5, 0.0)},
    "04-diameter.compass": {"X": (0.0, 0.0), "Y": (2.0, 0.0)},
    "05-foot.compass": {"H": (1.0, 0.0)},
    "06-invert-exterior.compass": {"I": (0.75, 0.75)},
    "07-invert-interior.compass": {"J": (2.0, 0.0)},
    "08-linexline.compass": {"S": (1.0, 1.0)},
    "09-linexcircle.compass": {"X": (SQRT075, 0.5), "Y": (-SQRT075, 0.5)},
    "10-linexcircle-diameter.compass": {"X": (1.0, 0.0), "Y": (-1.0, 0.0)},
    "11-conjugate.compass": {"M1": (-1.0, 0.0), "Al": (0.75, SQRT15_4),
                             "Ar": (0.75, -SQRT15_4), "Astar": (0.75, -SQRT15_4)},
    "12-field.compass": {"T": (2.0, 0.0), "F": (4.0, 0.0), "N1": (-1.0, 0.0),
                         "H": (0.5, 0.0), "S": (3.0, 0.0)},
    "13-nth.compass": {"Q": (2.0, 1.0)},
}

BAD_EXPECTED = {
    "bad01.compass": (1, 9),
    "bad02.compass": (3, 20),
    "bad03.compass": (2, 19),
    "bad04.compass": (2, 13),
    "bad05.compass": (1, 14),
    "bad06.compass": (2, 5),
    "bad07.compass": (2, 9),
    "bad08.compass": (1, 18),
    "bad09.compass": (1, 1),
    "bad10.compass": (3, 22),
    "bad11.compass": (2, 6),
    "bad12.compass": (2, 8),
}


# --- lexer ----------------------------------------------------------------------

def kinds_of(source):
    return [t.kind for t in tokenize(source)]


def test_tokenize_given():
    toks = tokenize("given A = (0, 1)")
    assert [t.kind for t in toks] == ["Keyword", "Ident", "Punct", "Punct",
                                      "Number", "Punct", "Number", "Punct",
                                      "Eof"]
    assert toks[0].lexeme == "given"
    assert toks[0].line == 1 and toks[0].column == 1


def test_tokenize_comment_only_line():
    assert kinds_of("# comment only\n") == ["Newline", "Eof"]


def test_tokenize_let_token_count():
    assert len(tokenize("let M = midpoint(A, B)")) == 10


def test_tokenize_numbers():
    toks = tokenize("given A = (-1.5e-3, +.25)")
    numbers = [t.lexeme for t in toks if t.kind == "Number"]
    assert numbers == ["-1.5e-3", "+.25"]
    assert float(numbers[0]) == -0.0015


def test_tokenize_rejects_overflow():
    with pytest.raises(LexError):
        tokenize("given A = (1e999, 0)")


def test_tokenize_crlf():
    toks = tokenize("given A = (0, 0)\r\ngiven B = (1, 0)\r\n")
    assert sum(1 for t in toks if t.kind == "Newline") == 2
    assert toks[-1].kind == "Eof"


def test_positions_are_monotone():
    toks = tokenize("given A = (0, 1)\nlet M = midpoint(A, A)\n")
    seen = [(t.line, t.column) for t in toks]
    assert seen == sorted(seen)


@pytest.mark.parametrize("source, bad, message", [
    # a digit that is no decimal digit starts no token
    ("given A = (5², 0)", "²", "unexpected character '²'"),
    # but as an exponent's first digit it makes the number bad
    ("given A = (1e², 0)", "1", "bad number '1e²'"),
], ids=["digit", "exponent"])
def test_non_decimal_digit_is_a_lex_error(source, bad, message):
    with pytest.raises(LexError) as err:
        tokenize(source)
    assert (err.value.line, err.value.column) == (1, source.index(bad) + 1)
    assert err.value.message == message


_fragment = st.sampled_from(sorted(dsl.KEYWORDS) + [
    "A", "b_2", "_x", "e", "émile", "midpoint", "0", "-1.5e-3", "+.25", "1E5",
    "٣", ".", "+", "-", "=", "(", ")", ",", '"', '"p.svg"', "#", "# note",
    " ", "\t", "\r", "\n"])


@given(st.lists(_fragment, max_size=24).map("".join))
@settings(max_examples=300, deadline=None)
def test_tokens_and_parse_errors_point_into_the_source(source):
    rows = [row + "\n" for row in source.split("\n")]
    try:
        toks = tokenize(source)
    except LexError as err:
        assert err.column <= len(rows[err.line - 1])
        return
    for tok in toks:
        at = rows[tok.line - 1][tok.column - 1:]
        assert at.startswith(f'"{tok.lexeme}"' if tok.kind == "String" else tok.lexeme)
    try:
        dsl.parse(toks)
    except ParseError as err:
        assert any((t.line, t.column) == (err.line, err.column) for t in toks)


# --- parser ---------------------------------------------------------------------

def test_parse_midpoint_demo_script():
    src = ("# demo\n"
           "given A = (0, 0)\n"
           "given B = (1, 0)\n"
           "let M = midpoint(A, B)\n"
           "emit points \"-\"\n"
           "emit svg \"m.svg\"\n")
    ast = parse_source(src)
    assert len(ast) == 5
    assert isinstance(ast[2], Let) and ast[2].call.op == "midpoint"
    assert ast[3] == Emit("points", "-", 5)


def test_parse_two_name_let():
    (stmt,) = parse_source("let X, Y = intersect(c1, c2)\n")
    assert stmt.names == ("X", "Y")
    assert stmt.call == CallExpr("intersect", ("c1", "c2"))


def test_parse_selector_and_number_args():
    (stmt,) = parse_source("let P = apex(A, B, right)\n")
    assert stmt.call.args[2] is Selector.RIGHT
    (stmt,) = parse_source("let Q = nth(A, B, 12)\n")
    assert stmt.call.args[2] == 12.0 and type(stmt.call.args[2]) is float


def test_parse_missing_comma():
    with pytest.raises(ParseError) as err:
        parse_source("let M = midpoint(A B)")
    assert err.value.line == 1 and err.value.column == 20


@pytest.mark.parametrize("name", sorted(BAD_EXPECTED))
def test_malformed_corpus_positions(name):
    source = (CORPUS / "bad" / name).read_text()
    with pytest.raises((LexError, ParseError)) as err:
        parse_source(source)
    assert (err.value.line, err.value.column) == BAD_EXPECTED[name]
    assert f"line {err.value.line}:" in str(err.value)


# --- pretty printer round trip ---------------------------------------------------

def _numbered(statements):
    """The statements renumbered 1..n: their lines once printed one a line."""
    return [stmt._replace(line=line) for line, stmt in enumerate(statements, 1)]


@pytest.mark.parametrize("name", sorted(GOOD_EXPECTED))
def test_corpus_round_trip(name):
    ast = parse_source((CORPUS / "good" / name).read_text())
    assert parse_source(format_script(ast)) == _numbered(ast)


# names as the lexer reads them: a letter or '_', then word characters, and
# no keyword; any finite number, as ``format_statement`` writes it with repr;
# any path without a quote or a newline
_ident = st.from_regex(r"[^\W\d]\w{0,8}", fullmatch=True).filter(
    lambda s: (s[0].isalpha() or s[0] == "_") and s not in dsl.KEYWORDS)
_number = st.floats(allow_nan=False, allow_infinity=False)
_arg = st.one_of(_ident, _number, st.sampled_from(list(Selector)))
_line = st.integers(min_value=1, max_value=10**6)
_stmt = st.one_of(
    st.builds(Given, _ident, _number, _number, _line),
    st.builds(Let,
              st.lists(_ident, min_size=1, max_size=2).map(tuple),
              st.builds(CallExpr, st.one_of(st.sampled_from(sorted(dsl.OP_NAMES)), _ident),
                        st.lists(_arg, max_size=4).map(tuple)),
              _line),
    st.builds(Emit, st.sampled_from(["svg", "trace", "points"]),
              st.text(st.characters(blacklist_characters='"\n'), max_size=12), _line))


@given(st.lists(_stmt, max_size=8))
@example([Given("A", -0.0, 5e-324, 7), Given("é_٣", 1e+308, -1.7976931348623157e+308, 1),
          Let(("P", "Q"), CallExpr("nth", (-0.0, 1e-300, 123456789.0, Selector.RIGHT)), 3),
          Emit("svg", "", 2), Emit("points", "a\rb # c\u2028", 4)])
@settings(max_examples=120, deadline=None)
def test_random_ast_round_trip(statements):
    printed = format_script(statements)
    assert parse_source(printed) == _numbered(statements)
    # equal as floats is not enough: -0.0 == 0.0
    assert list(map(repr, parse_source(printed))) == list(map(repr, _numbered(statements)))


# --- interpreter ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GOOD_EXPECTED))
def test_good_corpus_runs_green(name):
    result = run_source((CORPUS / "good" / name).read_text())
    for point_name, (x, y) in GOOD_EXPECTED[name].items():
        got = result.point(point_name)
        assert math.hypot(got.x - x, got.y - y) <= 1e-6, (name, point_name, got)
    purity_audit(result.trace)
    # what the writer writes, the reader reads back to the same trace and bytes
    doc = tracedoc.document_from_trace(result.trace, result.seed_names,
                                       tuple(name for name, _ in result.named_points))
    text = tracedoc.dumps(doc)
    again = tracedoc.loads(text)
    assert again.trace == result.trace
    assert tracedoc.dumps(again) == text


def test_interpret_is_pure_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_source("given A = (0, 0)\n"
                        "given B = (1, 0)\n"
                        "let M = midpoint(A, B)\n"
                        "emit svg \"figure.svg\"\n")
    assert result.emits[0].target == "svg"
    assert list(tmp_path.iterdir()) == []  # interpretation wrote nothing


def test_unbound_name():
    with pytest.raises(ScriptNameError) as err:
        run_source("given A = (0, 0)\n"
                   "given B = (1, 0)\n"
                   "let M = midpoint(A, Q)\n")
    assert err.value.line == 3


def test_result_has_no_point_under_an_unbound_or_circle_name():
    result = run_source("given A = (0, 0)\ngiven B = (1, 0)\nlet c = circle(A, B)\n")
    for name in ("Q", "c"):
        with pytest.raises(KeyError):
            result.point(name)


def test_duplicate_binding():
    with pytest.raises(ScriptNameError) as err:
        run_source("given A = (0, 0)\ngiven B = (1, 0)\n"
                   "let A = extend(B, A)\n")
    assert err.value.line == 3


def test_arity_mismatch():
    with pytest.raises(ScriptArityError) as err:
        run_source("given A = (0, 0)\ngiven B = (1, 0)\n"
                   "let M = midpoint(A)\n")
    assert err.value.line == 3
    with pytest.raises(ScriptArityError):
        run_source("given A = (0, 0)\ngiven B = (1, 0)\n"
                   "let M, N = midpoint(A, B)\n")
    with pytest.raises(ScriptArityError) as err:  # the left apex, one point
        run_source("given A = (0, 0)\ngiven B = (1, 0)\n"
                   "let M, N = apex(A, B)\n")
    assert err.value.message == "apex binds 1 name(s), got 2"


def test_type_mismatch_point_vs_circle():
    with pytest.raises(ScriptTypeError) as err:
        run_source("given A = (0, 0)\ngiven B = (1, 0)\n"
                   "let c = circle(A, B)\nlet M = midpoint(A, c)\n")
    assert err.value.line == 4


def test_unknown_operation():
    with pytest.raises(ScriptNameError) as err:
        run_source("given A = (0, 0)\nlet M = trisect(A, A)\n")
    assert err.value.line == 2


def test_construction_error_carries_line():
    with pytest.raises(ScriptRuntimeError) as err:
        run_source("given A = (0, 0)\ngiven B = (0, 0)\n"
                   "let M = midpoint(A, B)\n")
    assert err.value.line == 3
    assert "DegenerateCircle" in str(err.value)


def test_intersect_selector_defaults():
    src = ("given A = (-1, 0)\ngiven B = (1, 0)\n"
           "let c1 = circle(A, B)\nlet c2 = circle(B, A)\n")
    left_only = run_source(src + "let X = intersect(c1, c2)\n")
    explicit = run_source(src + "let X = intersect(c1, c2, left)\n")
    assert left_only.point("X") == explicit.point("X")
    assert left_only.point("X").y > 0


def test_a_selector_pick_binds_one_name():
    # the unit-apex circles cross twice: a selected pick is one point, so a
    # second name is an arity error, as for midpoint
    src = ("given A = (-1, 0)\ngiven B = (1, 0)\n"
           "let c1 = circle(A, B)\nlet c2 = circle(B, A)\n")
    with pytest.raises(ScriptArityError) as err:
        run_source(src + "let X, Y = intersect(c1, c2, right)\n")
    assert err.value.line == 5
    assert err.value.message == "intersect binds 1 name(s), got 2"
    both = run_source(src + "let X, Y = intersect(c1, c2)\n")
    assert both.point("X") != both.point("Y")


# a valid call of every op over these names; W is built with the third given
TABLE_SCRIPT = ("given Z = (0, 0)\ngiven U = (1, 0)\ngiven V = (0.25, 1.5)\n"
                "given T = (1.5, 2)\nlet c = circle(Z, U)\nlet k = circle(U, Z)\n"
                "let W = extend(V, U)\n")
TABLE_CALLS = {
    "circle": ["Z", "U"], "intersect": ["c", "k", "left"], "apex": ["Z", "U", "right"],
    "extend": ["Z", "U"], "nth": ["Z", "U", "3"], "midpoint": ["Z", "U"],
    "diam": ["Z", "U"], "foot": ["Z", "U", "V"], "invert": ["V", "Z", "U"],
    "linexline": ["Z", "U", "V", "T"], "linexcircle": ["Z", "V", "Z", "U"],
    "mul": ["U", "U"], "add": ["U", "Z"], "neg": ["U"], "conj": ["U"], "half": [],
}
FIELD_OPS = ("mul", "add", "neg", "conj")


def _table_call(op, args):
    return TABLE_SCRIPT + f"let X = {op}({', '.join(args)})\n"


@pytest.mark.parametrize("op", sorted(dsl.OP_NAMES))
def test_every_op_checks_its_arguments(op):
    assert set(TABLE_CALLS) == dsl.OP_NAMES
    args = TABLE_CALLS[op]
    run_source(_table_call(op, args))
    with pytest.raises(ScriptArityError) as err:
        run_source(_table_call(op, args + ["Z"]))
    assert err.value.line == 8
    assert err.value.message.startswith(f"{op} takes ")
    assert err.value.message.endswith(f" argument(s), got {len(args) + 1}")
    # a circle where a point is wanted, or for intersect a point for a circle
    if args:
        wrong = ["Z" if args[0] == "c" else "c"] + args[1:]
        with pytest.raises(ScriptTypeError) as err:
            run_source(_table_call(op, wrong))
        assert err.value.line == 8 and "expects a" in err.value.message
    # every field operand must be built from the first two givens alone
    if op in FIELD_OPS:
        for at in range(len(args)):
            third = args[:at] + ["W"] + args[at + 1:]
            with pytest.raises(ScriptTypeError) as err:
                run_source(_table_call(op, third))
            assert err.value.line == 8
            assert err.value.message.startswith("field operations need two given points")


def test_field_op_needs_pair_basis():
    with pytest.raises(ScriptTypeError) as err:
        run_source("given A = (0, 0)\ngiven B = (1, 0)\ngiven C = (0, 1)\n"
                   "let W = extend(C, B)\nlet M = mul(W, B)\n")
    assert err.value.line == 5
    for givens in ("", "given A = (0, 0)\n"):  # half() too needs two givens
        with pytest.raises(ScriptTypeError) as err:
            run_source(givens + "let H = half()\n")
        assert err.value.message.startswith("field operations need two given points")


def test_nth_rejects_non_integer():
    with pytest.raises(ScriptTypeError):
        run_source("given A = (0, 0)\ngiven B = (1, 0)\n"
                   "let Q = nth(A, B, 2.5)\n")


# a line after three givens: (error, its position, its message)
SCRIPT_ERRORS = {
    "given D = (., 0)": (LexError, (4, 12), "bad number '.'"),
    "let M = midpoint(A, 1)": (ScriptTypeError, (4, 1), "midpoint expects a bound name here"),
    "let Q = nth(A, B, C)": (ScriptTypeError, (4, 1), "nth expects a number"),
    "let X = apex(A, B, 2)": (ScriptTypeError, (4, 1), "apex expects 'left' or 'right'"),
    "let M = midpoint(A, emit)": (
        ParseError, (4, 21), "expected an argument (name, number, 'left', or 'right'), "
                             "found 'emit'"),
}


@pytest.mark.parametrize("line", sorted(SCRIPT_ERRORS))
def test_script_errors_name_the_fault(line):
    kind, position, message = SCRIPT_ERRORS[line]
    with pytest.raises(kind) as err:
        run_source("given A = (0, 0)\ngiven B = (1, 0)\ngiven C = (0, 1)\n"
                   + line + "\n")
    assert (err.value.line, err.value.column) == position
    assert err.value.message == message


def test_emit_requests_in_order():
    result = run_source("given A = (0, 0)\ngiven B = (1, 0)\n"
                        "emit points \"a.txt\"\n"
                        "let M = midpoint(A, B)\n"
                        "emit trace \"b.json\"\n")
    assert [(e.target, e.path) for e in result.emits] == [
        ("points", "a.txt"), ("trace", "b.json")]


@pytest.mark.parametrize("height", [1e-6, 1e-9, 1e-13])
def test_linexcircle_with_the_center_near_the_line(height):
    # 1e-6 and 1e-9 lie inside the tangency band of o's mirror circles, so
    # the line-circle routine inverts instead; 1e-13 is on the line to within
    # geom.EPS, and it inverts on line AB itself, not on line OA
    given = (f"given A = (-2, {height!r})\ngiven B = (3, {height!r})\n"
             "given O = (0, 0)\ngiven D = (0.6, 0.8)\n")
    result = run_source(given + "let X, Y = linexcircle(A, B, O, D)\n")
    want = oracle_line_circle(Point(-2, height), Point(3, height),
                              ResolvedCircle(Point(0, 0), 1.0))
    got = sorted((result.point("X"), result.point("Y")), key=lambda p: p.x)
    for p, w in zip(got, sorted(want, key=lambda p: p.x)):
        assert math.hypot(p.x - w.x, p.y - w.y) <= 1e-12, (p, w)
    through_o = run_source(given + "let X, Y = linexcircle(O, A, O, D)\n")
    a, b = result.trace.program, through_o.trace.program
    assert (a.ops, a.first, a.second) != (b.ops, b.first, b.second)


def test_linexcircle_tangency_binds_both_names_to_the_touch_point():
    result = run_source("given A = (-2, 1)\ngiven B = (2, 1)\ngiven O = (0, 0)\n"
                        "given D = (1, 0)\nlet X, Y = linexcircle(A, B, O, D)\n")
    assert result.named_points[0][1] == result.named_points[1][1]
    x = result.point("X")
    assert math.hypot(x.x, x.y - 1.0) <= 1e-6


def test_intersect_tangency_binds_both_names_to_one_pick():
    # the circles centered (0, 0) and (4, 0) through (2, 0) touch there:
    # one pick, bound to both names, as linexcircle binds its touch point
    result = run_source("given O = (0, 0)\ngiven P = (4, 0)\ngiven T = (2, 0)\n"
                        "let c1 = circle(O, T)\nlet c2 = circle(P, T)\n"
                        "let X, Y = intersect(c1, c2)\n")
    assert result.named_points[0][1] == result.named_points[1][1]
    assert result.trace.program.pick_count() == 1
    assert result.point("X") == Point(2.0, 0.0)


def test_linexcircle_dispatches_on_center():
    # same op name covers both cases; the center-on-line variant kicks in
    result = run_source(
        "given O = (0, 0)\ngiven A = (2, 0)\ngiven D = (0, 1)\n"
        "let X, Y = linexcircle(O, A, O, D)\n")
    xs = sorted((result.point("X").x, result.point("Y").x))
    assert xs[0] == pytest.approx(-1.0, abs=1e-6)
    assert xs[1] == pytest.approx(1.0, abs=1e-6)


# --- field operations on the script's own builder ---------------------------------

@pytest.mark.parametrize("gap", [0.0, 1e-13])
@pytest.mark.parametrize("call", ["conj(U)", "add(Z, U)", "mul(U, U)", "add(U, U)",
                                  "neg(Z)", "neg(U)", "half()"])
def test_field_ops_on_a_coincident_basis_raise(call, gap):
    # seeds 0 and 1 within geom.EPS give no frame for field values
    with pytest.raises(ScriptRuntimeError) as err:
        run_source(f"given Z = (1, 1)\ngiven U = (1, {1 + gap!r})\n"
                   f"let W = {call}\n")
    assert err.value.line == 3
    assert "DegenerateCircle" in str(err.value)


@pytest.mark.parametrize("call, same_as", [("neg(Z)", "Z"), ("add(X, Z)", "X"),
                                           ("add(Z, X)", "X")])
def test_field_identities_append_no_step(call, same_as):
    source = "given Z = (0, 0)\ngiven U = (1, 0)\nlet X = apex(Z, U)\n"
    before = run_source(source).trace.program
    result = run_source(source + f"let W = {call}\n")
    assert result.trace.program.ops == before.ops
    nodes = {"Z": 0, **dict(result.named_points)}  # Z is seed node 0
    assert nodes["W"] == nodes[same_as]


def test_half_is_the_midpoint_of_the_first_two_givens():
    """half() draws 1/2 as the 6-circle midpoint of the first two givens, the
    node midpoint(Z, U) binds; a third given does not move it."""
    result = run_source("given Z = (1, 2)\ngiven U = (4, 6)\ngiven C = (0, 5)\n"
                        "let H = half()\nlet M = midpoint(Z, U)\n")
    nodes = dict(result.named_points)
    assert nodes["H"] == nodes["M"]
    assert result.point("H") == pytest.approx(Point(2.5, 4.0), abs=1e-14)
    program = run_source("given Z = (0, 0)\ngiven U = (1, 0)\nlet H = half()\n").trace.program
    assert (len(program.steps), program.circle_count(), program.pick_count()) == (14, 6, 6)


@pytest.mark.parametrize("call, replayed", [("neg(X)", 0), ("conj(X)", 0),
                                            ("mul(X, U)", 1), ("add(X, U)", 2)])
def test_field_op_builds_each_witness_once(call, replayed, monkeypatch):
    # a ring operation builds only the witnesses it replays: neg and conj
    # none, mul its right factor's
    calls = []
    witness = Builder.witness

    def counting(self, node):
        calls.append(node)
        return witness(self, node)

    monkeypatch.setattr(Builder, "witness", counting)
    run_source("given Z = (0, 0)\ngiven U = (1, 0)\nlet X = apex(Z, U)\n"
               f"let W = {call}\n")
    assert len(calls) == replayed


@pytest.mark.parametrize("call", ["neg(X)", "conj(X)", "mul(X, U)", "add(X, U)"])
def test_field_op_walks_each_operand_once(call, monkeypatch):
    # one ancestry walk per operand: the pair-basis check of an operand
    # whose witness is taken is that walk
    walks = []
    live = program._live

    def counting(where, node):
        walks.append(node)
        return live(where, node)

    monkeypatch.setattr(program, "_live", counting)
    run_source("given Z = (0, 0)\ngiven U = (1, 0)\nlet X = apex(Z, U)\n"
               f"let W = {call}\n")
    assert len(walks) == call.count(",") + 1


def test_neg_appends_one_reflection_whatever_its_operand():
    # -P reflects P through O: 3 picks, though P = A^16 took four squarings,
    # each a replay of the witness before; and 2 circles, not 3, as P is a
    # pick on the unit circle about O, which is the reflection's circle about
    # O through P
    source = ("given O = (0, 0)\ngiven U = (1, 0)\nlet A = apex(O, U)\n"
              "let A2 = mul(A, A)\nlet A4 = mul(A2, A2)\nlet A8 = mul(A4, A4)\n"
              "let P = mul(A8, A8)\n")
    before = run_source(source).trace.program
    result = run_source(source + "let N = neg(P)\n")
    after = result.trace.program
    assert after.circle_count() - before.circle_count() == 2
    assert after.pick_count() - before.pick_count() == 3
    p, n = result.point("P"), result.point("N")
    assert (n.x, n.y) == pytest.approx((-p.x, -p.y), abs=1e-9)


def test_field_corpus_off_the_canonical_seeds():
    # the ring operations read the first two givens as 0 and 1: moved by the
    # similarity z -> z0 + w z, the script builds the same steps, on the image
    # points; conj(U) and mul(Z, F) decide on U's and Z's values in that frame
    source = (CORPUS / "good" / "12-field.compass").read_text()
    source += "let C = conj(U)\nlet P = mul(Z, F)\n"
    moved = source.replace("given Z = (0, 0)", "given Z = (2, -1)").replace(
        "given U = (1, 0)", "given U = (2.5, 3)")
    assert moved != source
    base, result = run_source(source).trace, run_source(moved).trace
    p, q = base.program, result.program
    assert (q.ops, q.first, q.second) == (p.ops, p.first, p.second)
    z0, w = complex(2, -1), complex(0.5, 4)
    for v, got in zip(base.resolved, result.resolved):
        if isinstance(v, Point):
            want = z0 + w * complex(v.x, v.y)
            assert abs(complex(got.x, got.y) - want) <= 1e-9 * abs(w), (v, got)
