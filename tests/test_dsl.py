import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from compass import dsl
from compass.dsl import (
    CallExpr,
    Emit,
    Given,
    Let,
    LexError,
    NameArg,
    NumberArg,
    ParseError,
    ScriptArityError,
    ScriptNameError,
    ScriptRuntimeError,
    ScriptTypeError,
    SelectorArg,
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
    assert ast[3] == Emit("points", "-")


def test_parse_two_name_let():
    (stmt,) = parse_source("let X, Y = intersect(c1, c2)\n")
    assert stmt.names == ("X", "Y")
    assert stmt.call == CallExpr("intersect", (NameArg("c1"), NameArg("c2")))


def test_parse_selector_and_number_args():
    (stmt,) = parse_source("let P = apex(A, B, right)\n")
    assert stmt.call.args[2] == SelectorArg(Selector.RIGHT)
    (stmt,) = parse_source("let Q = nth(A, B, 12)\n")
    assert stmt.call.args[2] == NumberArg(12.0)


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

@pytest.mark.parametrize("name", sorted(GOOD_EXPECTED))
def test_corpus_round_trip(name):
    ast = parse_source((CORPUS / "good" / name).read_text())
    assert parse_source(format_script(ast)) == ast


_ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in dsl.KEYWORDS)
_number = st.floats(allow_nan=False, allow_infinity=False,
                    min_value=-1e12, max_value=1e12)
_arg = st.one_of(
    st.builds(NameArg, _ident),
    st.builds(NumberArg, _number),
    st.builds(SelectorArg, st.sampled_from(list(Selector))))
_stmt = st.one_of(
    st.builds(Given, _ident, _number, _number),
    st.builds(Let,
              st.lists(_ident, min_size=1, max_size=2).map(tuple),
              st.builds(CallExpr, st.sampled_from(sorted(dsl.OP_NAMES)),
                        st.lists(_arg, max_size=4).map(tuple))),
    st.builds(Emit, st.sampled_from(["svg", "trace", "points"]),
              st.from_regex(r"[A-Za-z0-9._/-]{1,12}", fullmatch=True)))


@given(st.lists(_stmt, max_size=8))
@settings(max_examples=120, deadline=None)
def test_random_ast_round_trip(statements):
    printed = format_script(statements)
    assert parse_source(printed) == statements


# --- interpreter ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GOOD_EXPECTED))
def test_good_corpus_runs_green(name):
    result = run_source((CORPUS / "good" / name).read_text())
    for point_name, (x, y) in GOOD_EXPECTED[name].items():
        got = result.point(point_name)
        assert math.hypot(got.x - x, got.y - y) <= 1e-6, (name, point_name, got)
    purity_audit(result.trace)


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
    with pytest.raises(ScriptTypeError):
        run_source("given A = (0, 0)\nlet H = half()\n")


def test_nth_rejects_non_integer():
    with pytest.raises(ScriptTypeError):
        run_source("given A = (0, 0)\ngiven B = (1, 0)\n"
                   "let Q = nth(A, B, 2.5)\n")


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
    assert result.trace.program.steps != through_o.trace.program.steps


def test_linexcircle_tangency_binds_both_names_to_the_touch_point():
    result = run_source("given A = (-2, 1)\ngiven B = (2, 1)\ngiven O = (0, 0)\n"
                        "given D = (1, 0)\nlet X, Y = linexcircle(A, B, O, D)\n")
    assert result.named_points[0][1] == result.named_points[1][1]
    x = result.point("X")
    assert math.hypot(x.x, x.y - 1.0) <= 1e-6


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


@pytest.mark.parametrize("call, replayed", [("neg(X)", 1), ("conj(X)", 0),
                                            ("mul(X, U)", 1), ("add(X, U)", 2)])
def test_field_op_builds_each_witness_once(call, replayed, monkeypatch):
    # a ring operation builds only the witnesses it replays: conj none, mul
    # its right factor's
    calls = []
    witness = Builder.witness

    def counting(self, node):
        calls.append(node)
        return witness(self, node)

    monkeypatch.setattr(Builder, "witness", counting)
    run_source("given Z = (0, 0)\ngiven U = (1, 0)\nlet X = apex(Z, U)\n"
               f"let W = {call}\n")
    assert len(calls) == replayed


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
