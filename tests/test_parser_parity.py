"""``dsl.parse`` reads the token list in place; it must give what the
method-per-token parser it replaced gave: the same statements, each value of
the same type, or a ``ParseError`` at the same line and column with the same
``expected`` and ``found`` text.

``reference_parse`` below is a frozen copy of that parser, kept here as
``test_lexer_parity.py`` keeps ``reference_tokenize``.
"""

import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from compass import dsl
from compass.demos import DEMOS
from compass.dsl import (EOF, IDENT, KEYWORD, NEWLINE, NUMBER, PUNCT, STRING, CallExpr,
                         Emit, Given, Let, LexError, ParseError)
from compass.program import Selector

import test_dsl
import test_lexer_parity

CORPUS = Path(__file__).parent / "corpus"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def at(self, kind, lexeme=None):
        tok = self.tokens[self.i]
        return tok.kind is kind and (lexeme is None or tok.lexeme == lexeme)

    def take(self, kind, what, lexemes=None):
        tok = self.tokens[self.i]
        if tok.kind is not kind or (lexemes is not None and tok.lexeme not in lexemes):
            found = tok.lexeme if tok.lexeme.strip() else tok.kind.lower()
            raise ParseError(tok.line, tok.column, what, repr(found))
        self.i += 1
        return tok

    def script(self):
        statements = []
        while not self.at(EOF):
            if self.at(NEWLINE):
                self.i += 1
            else:
                statements.append(self.statement())
        return statements

    def statement(self):
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

    def call(self):
        op = self.take(IDENT, "an operation name").lexeme
        self.take(PUNCT, "'('", "(")
        args = []
        while not self.at(PUNCT, ")"):
            if args:
                self.take(PUNCT, "',' or ')'", ",")
            args.append(self.arg())
        self.i += 1
        return CallExpr(op, tuple(args))

    def arg(self):
        if self.at(IDENT):
            return self.take(IDENT, "a name").lexeme
        if self.at(NUMBER):
            return float(self.take(NUMBER, "a number").lexeme)
        return Selector(self.take(KEYWORD, "an argument (name, number, 'left', or 'right')",
                                  ("left", "right")).lexeme)


def reference_parse(tokens):
    """The parser with one method call per token."""
    return _ReferenceParser(tokens).script()


# every ``expected`` text either parser writes
EXPECTED = {"'given', 'let', or 'emit'", "a point name", "'='", "'('", "a number", "','",
            "')'", "'svg', 'trace', or 'points'", "a quoted path", "a name",
            "an operation name", "',' or ')'",
            "an argument (name, number, 'left', or 'right')", "end of line"}


def _typed(value):
    """A value with the type of every part: a tuple part by part, any other
    value as its type and repr (so -0.0 is not 0.0)."""
    if isinstance(value, tuple):
        return type(value), tuple(map(_typed, value))
    return type(value), repr(value)


def _parse(parse, tokens):
    """The statements, typed, or the ParseError's (line, column, expected,
    found, message)."""
    try:
        return [_typed(stmt) for stmt in parse(tokens)]
    except ParseError as err:
        return (err.line, err.column, err.expected, err.found, err.message)


def assert_parity(tokens):
    """Both parsers agree on ``tokens``; returns the ``expected`` text of
    the error, or None."""
    got = _parse(dsl.parse, tokens)
    assert got == _parse(reference_parse, tokens)
    return got[2] if type(got) is tuple else None


def assert_source_parity(source):
    try:
        tokens = dsl.tokenize(source)
    except LexError:
        return None
    return assert_parity(tokens)


def _mutants(tokens):
    """``tokens`` with one token deleted, duplicated, or swapped with the
    next; the closing EOF stays last."""
    body, eof = tokens[:-1], tokens[-1:]
    for k in range(len(body)):
        yield body[:k] + body[k + 1:] + eof
        yield body[:k + 1] + body[k:] + eof
        if k + 1 < len(body):
            yield body[:k] + [body[k + 1], body[k]] + body[k + 2:] + eof


SCRIPTS = {f"{path.parent.name}/{path.name}": path.read_text(encoding="utf-8")
           for path in sorted(CORPUS.glob("*/*.compass"))}
SCRIPTS.update((f"demo/{name}", DEMOS[name]) for name in sorted(DEMOS))


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.compass")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_corpus_parses_as_the_reference(path):
    source = path.read_text(encoding="utf-8")
    assert_source_parity(source)
    assert_source_parity(source.rstrip("\n"))
    assert_source_parity(source.replace("\n", "\r\n"))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demos_parse_as_the_reference(name):
    assert assert_source_parity(DEMOS[name]) is None


def test_script_mix_malformations_parse_as_the_reference(monkeypatch):
    """Each of the benchmark's twelve malformations, applied to the valid
    scripts of its default pool."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    pool = workloads.ScriptMix().make_pool(20141011, 0.2)
    rng = workloads.SplitMix64(1410)
    errors = set()
    for item in pool:
        if item.error is not None:
            continue
        assert assert_source_parity(item.source) is None
        lines = item.source.splitlines()
        for kind in range(len(workloads.MALFORMATIONS)):
            broken = "\n".join(workloads._malform(lines, rng, kind)[0]) + "\n"
            if assert_source_parity(broken) is not None:
                errors.add(kind)
    # every ParseError kind (a lex-error kind falls back to bad01's defect in
    # a script that lacks its site)
    assert errors >= {kind for kind, (_, _, error) in enumerate(workloads.MALFORMATIONS)
                      if error is ParseError}


def test_every_one_token_edit_parses_as_the_reference():
    """Every deletion, duplication and adjacent swap of one token in every
    corpus script and demo; between them they reach every expected text."""
    reached = set()
    for source in SCRIPTS.values():
        try:
            tokens = dsl.tokenize(source)
        except LexError:
            continue
        for mutant in _mutants(tokens):
            reached.add(assert_parity(mutant))
    assert reached - {None} == EXPECTED


@given(st.lists(st.one_of(test_dsl._fragment, test_lexer_parity._fragment),
                max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_random_text_parses_as_the_reference(source):
    """Texts of the fragments ``test_dsl.py`` and ``test_lexer_parity.py``
    draw; a text that does not lex is skipped."""
    assert_source_parity(source)


@given(st.sampled_from(sorted(SCRIPTS)), st.sampled_from(["delete", "duplicate", "swap"]),
       st.integers(min_value=0), st.integers(min_value=0))
@settings(max_examples=300, deadline=None)
def test_an_edited_token_list_parses_as_the_reference(name, edit, k, j):
    """One token of a corpus script or demo deleted, duplicated, or swapped
    with any other."""
    try:
        tokens = dsl.tokenize(SCRIPTS[name])
    except LexError:
        return
    body = tokens[:-1]
    k %= len(body)
    if edit == "delete":
        del body[k]
    elif edit == "duplicate":
        body.insert(k, body[k])
    else:
        j %= len(body)
        body[k], body[j] = body[j], body[k]
    assert_parity(body + tokens[-1:])
