"""Reference set-expression parser for differential tests.

This is the token-object tokenizer and recursive-descent parser that
``meanlab.setexpr`` used before it scanned with one regular expression. It
builds a ``_Token`` with its line and column for every token, which is slow
but plain to read. ``tests/test_setexpr.py`` checks that ``setexpr.parse``
returns the same tree (positions included) or raises the same
``ParseError`` payload as ``parse`` here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from meanlab.errors import ParseError
from meanlab.setexpr import (
    BinaryOp,
    CallOp,
    IntervalLit,
    PointsLit,
    SeqLit,
    SetExpr,
)

Q = Fraction
_CALL_NAMES = ("translate", "scale", "reflect", "fatten",
               "slice_le", "slice_ge")
_UNION_WORDS = ("u", "∪")


@dataclass(frozen=True)
class _Token:
    kind: str  # punct kinds, INT, IDENT, END
    text: str
    pos: int
    line: int
    col: int


_PUNCT = {"[": "LBRACK", "]": "RBRACK", "(": "LPAREN", ")": "RPAREN",
          "{": "LBRACE", "}": "RBRACE", ",": "COMMA", "/": "SLASH",
          "-": "MINUS", "=": "EQUALS", "\\": "DIFF", "&": "AMP",
          "∪": "UNION"}
_DIGITS = frozenset("0123456789")  # str.isdigit() also takes '²' and '٣'


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            out.append(_Token(_PUNCT[ch], ch, i, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            out.append(_Token("INT", text[i:j], i, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _UNION_WORDS:
                out.append(_Token("UNION", word, i, line, col))
            else:
                out.append(_Token("IDENT", word, i, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, line=line,
                         column=col, expected=("set expression",))
    out.append(_Token("END", "", n, line, col))
    return out


# --------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message: str, expected: tuple[str, ...]) -> ParseError:
        t = self.peek()
        shown = t.text if t.kind != "END" else "end of input"
        return ParseError(f"{message}, found {shown!r}", t.pos, line=t.line,
                          column=t.col, expected=expected)

    def expect(self, kind: str, what: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail(f"expected {what}", (what,))
        return self.advance()

    def expect_word(self, word: str) -> _Token:
        t = self.peek()
        if t.kind != "IDENT" or t.text != word:
            raise self.fail(f"expected {word!r}", (word,))
        return self.advance()

    # rationals and integers

    def parse_int(self) -> int:
        neg = False
        if self.peek().kind == "MINUS":
            self.advance()
            neg = True
        t = self.expect("INT", "integer")
        v = int(t.text)
        return -v if neg else v

    def parse_rat(self) -> Fraction:
        start = self.peek()
        if start.kind not in ("MINUS", "INT"):
            raise self.fail("expected rational", ("rational",))
        num = self.parse_int()
        if self.peek().kind == "SLASH":
            self.advance()
            dtok = self.expect("INT", "denominator")
            den = int(dtok.text)
            if den == 0:
                raise ParseError("zero denominator", dtok.pos,
                                 line=dtok.line, column=dtok.col,
                                 expected=("nonzero integer",))
            return Q(num, den)
        return Q(num)

    # productions

    def parse_set(self) -> SetExpr:
        left = self.parse_term()
        while self.peek().kind in ("UNION", "DIFF", "AMP"):
            t = self.advance()
            op = {"UNION": "u", "DIFF": "\\", "AMP": "&"}[t.kind]
            right = self.parse_term()
            left = BinaryOp(op, left, right, pos=t.pos)
        return left

    def parse_term(self) -> SetExpr:
        t = self.peek()
        if t.kind in ("LBRACK", "LPAREN"):
            return self.parse_interval()
        if t.kind == "LBRACE":
            return self.parse_points()
        if t.kind == "IDENT" and t.text == "seq":
            return self.parse_seq()
        if t.kind == "IDENT" and t.text in _CALL_NAMES:
            return self.parse_call()
        raise self.fail("expected a set term",
                        ("interval", "points", "seq(...)",
                         "transform call"))

    def parse_interval(self) -> IntervalLit:
        t = self.advance()
        closed_lo = t.kind == "LBRACK"
        lo = self.parse_rat()
        self.expect("COMMA", "','")
        hi = self.parse_rat()
        end = self.peek()
        if end.kind not in ("RBRACK", "RPAREN"):
            raise self.fail("expected interval close", ("']'", "')'"))
        self.advance()
        return IntervalLit(lo, hi, closed_lo, end.kind == "RBRACK",
                           pos=t.pos)

    def parse_points(self) -> PointsLit:
        t = self.expect("LBRACE", "'{'")
        pts = [self.parse_rat()]
        while self.peek().kind == "COMMA":
            self.advance()
            pts.append(self.parse_rat())
        self.expect("RBRACE", "'}'")
        return PointsLit(tuple(pts), pos=t.pos)

    def parse_seq(self) -> SeqLit:
        t = self.expect_word("seq")
        self.expect("LPAREN", "'('")
        self.expect_word("limit")
        self.expect("EQUALS", "'='")
        limit = self.parse_rat()
        self.expect("COMMA", "','")
        self.expect_word("rule")
        self.expect("EQUALS", "'='")
        rtok = self.peek()
        if rtok.kind != "IDENT" or rtok.text not in ("harmonic", "geometric"):
            raise self.fail("expected a rule",
                            ("harmonic(c)", "geometric(c,q)"))
        self.advance()
        self.expect("LPAREN", "'('")
        c = self.parse_rat()
        q: Optional[Fraction] = None
        if rtok.text == "geometric":
            self.expect("COMMA", "','")
            q = self.parse_rat()
        self.expect("RPAREN", "')'")
        self.expect("COMMA", "','")
        self.expect_word("from")
        self.expect("EQUALS", "'='")
        start = self.parse_int()
        below = False
        with_limit = False
        while self.peek().kind == "COMMA":
            self.advance()
            opt = self.peek()
            if opt.kind == "IDENT" and opt.text == "side":
                self.advance()
                self.expect("EQUALS", "'='")
                self.expect_word("below")
                below = True
            elif opt.kind == "IDENT" and opt.text == "with_limit":
                self.advance()
                with_limit = True
            else:
                raise self.fail("expected a seq option",
                                ("side=below", "with_limit"))
        self.expect("RPAREN", "')'")
        return SeqLit(limit, rtok.text, c, q, start, below, with_limit,
                      pos=t.pos)

    def parse_call(self) -> CallOp:
        t = self.advance()
        self.expect("LPAREN", "'('")
        arg = self.parse_set()
        self.expect("COMMA", "','")
        value = self.parse_rat()
        self.expect("RPAREN", "')'")
        return CallOp(t.text, arg, value, pos=t.pos)


def parse(text: str) -> SetExpr:
    """Parse a set expression; raises ParseError with source location."""
    p = _Parser(text)
    node = p.parse_set()
    if p.peek().kind != "END":
        raise p.fail("trailing input after expression", ("end of input",))
    return node
