"""``dsl.tokenize`` lexes one line at a time, with one ``findall`` a line,
and reads each piece's kind off its first character; it must give what the
whole-source scan gave: the same tokens, or a ``LexError`` at the same line
and column with the same message, and the closing EOF token at the same
position.

``reference_tokenize`` below is a frozen copy of that scan, one
``finditer`` over the source with a named group per kind, kept here as
``test_kernel.py`` keeps a copy of ``circle_circle_intersect``.
"""

import importlib
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from compass import dsl
from compass.demos import DEMOS
from compass.dsl import (EOF, IDENT, KEYWORD, KEYWORDS, NEWLINE, NUMBER, PUNCT, STRING,
                         LexError, Token)

CORPUS = Path(__file__).parent / "corpus"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_REFERENCE_TOKEN = re.compile(r"""
    (?P<blank> [ \t\r]+ | \#[^\n]* )
  | (?P<Newline> \n )
  | (?P<Punct> [=(),] )
  | (?P<String> "[^"\n]*" )
  | (?P<Number> [+-]? (?=[\d.]) \d* (?:\.\d*)?
                (?: [eE][+-]?\d+ | (?=(?P<odd>[eE][+-]?\w)) )? )
  | (?P<word> \w+ )
  | (?P<other> . )
""", re.VERBOSE)
_REFERENCE_KIND = {"blank": None, "Newline": NEWLINE, "Punct": PUNCT, "String": STRING,
                   "Number": NUMBER, "word": IDENT, "other": EOF}


def reference_tokenize(source: str) -> list[Token]:
    """The whole-source scan: one ``finditer`` over the source, with the
    line break a token of the pattern."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _REFERENCE_TOKEN.finditer(source):
        kind = _REFERENCE_KIND[m.lastgroup]
        if kind is None:
            continue
        text = m.group()
        column = m.start() - line_start + 1
        if kind is IDENT:
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(line, column, f"unexpected character {text[0]!r}")
            if text in KEYWORDS:
                kind = KEYWORD
        elif kind is NUMBER:
            odd = m.group("odd")
            if odd and odd[-1].isdigit():
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
        tokens.append(Token(kind, text, line, column))
        if kind is NEWLINE:
            line, line_start = line + 1, m.end()
    tokens.append(Token(EOF, "", line, len(source) - line_start + 1))
    return tokens


def _lex(tokenize, source):
    """The tokens, each with its type, or the LexError's (line, column,
    message)."""
    try:
        return [(type(tok), *tok) for tok in tokenize(source)]
    except LexError as err:
        return (err.line, err.column, err.message)


def assert_parity(source):
    assert _lex(dsl.tokenize, source) == _lex(reference_tokenize, source)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.compass")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_corpus_lexes_as_the_reference(path):
    source = path.read_text(encoding="utf-8")
    assert_parity(source)
    assert_parity(source.rstrip("\n"))
    assert_parity(source.replace("\n", "\r\n"))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demos_lex_as_the_reference(name):
    assert_parity(DEMOS[name])


def test_script_mix_malformations_lex_as_the_reference(monkeypatch):
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
        assert_parity(item.source)
        lines = item.source.splitlines()
        for kind in range(len(workloads.MALFORMATIONS)):
            broken = "\n".join(workloads._malform(lines, rng, kind)[0]) + "\n"
            assert_parity(broken)
            if type(_lex(dsl.tokenize, broken)) is tuple:
                errors.add(kind)
    assert errors == {2, 3}  # call-semicolon and unterminated-string are lex errors


_fragment = st.sampled_from([
    "given", "let", "emit", "left", "A", "b_2", "_x", "e", "émile", "0", "-1.5e-3",
    "+.25", "1E5", "1e", "1e²", "1e+x", "2e-", "٣", "²", ".", "..", "+", "-", "=", "(",
    ")", ",", ";", "$", '"', '"p.svg"', '"a\rb"', "#", "# note", '# "quoted', " ",
    "\t", "\r", "\n", "\r\n", "\x0b", "\x0c", "\u2028", "\x85", "1e999", "9" * 400])


@given(st.lists(_fragment, max_size=30).map("".join))
@settings(max_examples=500, deadline=None)
def test_random_text_lexes_as_the_reference(source):
    assert_parity(source)
    assert_parity(source + "\n")


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_any_text_lexes_as_the_reference(source):
    assert_parity(source)
