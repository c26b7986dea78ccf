"""Text expressions for exactly-representable sets.

Grammar (whitespace-insensitive, rationals only):

    set      := term (('u' | '∪' | '\\' | '&') term)*
    term     := interval | points | seq | call
    interval := ('[' | '(') rat ',' rat (']' | ')')
    points   := '{' rat (',' rat)* '}'
    seq      := 'seq(' 'limit=' rat ',' 'rule=' rule ',' 'from=' int
                [', side=below'] [', with_limit'] ')'
    rule     := 'harmonic(' rat ')' | 'geometric(' rat ',' rat ')'
    call     := name '(' set ',' rat ')'
                with name in {translate, scale, reflect, fatten,
                              slice_le, slice_ge}
    rat      := ['-'] int ['/' int]

The binary operators (union, difference, intersection) share one precedence
level and associate to the left. Parsing produces a tree with source
positions; printing produces canonical text that reparses to an equal tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import BadParameters, ParseError, UnrepresentableResult
from .exactset import (
    Geometric,
    Harmonic,
    RealSet,
    from_interval,
    from_points,
    geometric_cluster,
    harmonic_cluster,
    realset,
    reflect,
    scale,
    set_diff,
    set_intersect,
    set_union,
    slice_ge,
    slice_le,
    translate,
    union_cluster_free,
)
from .measure import fatten

Q = Fraction


def parse_rational_text(text: str) -> Fraction:
    """Exact rational from 'p/q', integer, decimal, or scientific text."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameters(f"not a rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


# --------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class IntervalLit:
    lo: Fraction
    hi: Fraction
    closed_lo: bool
    closed_hi: bool
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class PointsLit:
    points: tuple[Fraction, ...]
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SeqLit:
    limit: Fraction
    rule_name: str  # "harmonic" | "geometric"
    c: Fraction
    q: Optional[Fraction]
    start: int
    below: bool = False
    with_limit: bool = False
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinaryOp:
    op: str  # "u" | "\\" | "&"
    left: "SetExpr"
    right: "SetExpr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CallOp:
    name: str  # translate | scale | reflect | fatten | slice_le | slice_ge
    arg: "SetExpr"
    value: Fraction
    pos: int = field(default=0, compare=False)


SetExpr = Union[IntervalLit, PointsLit, SeqLit, BinaryOp, CallOp]

_CALL_NAMES = ("translate", "scale", "reflect", "fatten",
               "slice_le", "slice_ge")
_UNION_WORDS = ("u", "∪")


# --------------------------------------------------------------------------
# tokenizer


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


# --------------------------------------------------------------------------
# printing and evaluation


def print_expr(e: SetExpr) -> str:
    """Canonical text; reparsing yields a tree equal to ``e`` (positions
    excluded from equality)."""
    if isinstance(e, IntervalLit):
        lo = "[" if e.closed_lo else "("
        hi = "]" if e.closed_hi else ")"
        return f"{lo}{format_rational(e.lo)},{format_rational(e.hi)}{hi}"
    if isinstance(e, PointsLit):
        return "{" + ",".join(format_rational(p) for p in e.points) + "}"
    if isinstance(e, SeqLit):
        if e.rule_name == "harmonic":
            rule = f"harmonic({format_rational(e.c)})"
        else:
            rule = f"geometric({format_rational(e.c)},{format_rational(e.q)})"
        opts = ""
        if e.below:
            opts += ", side=below"
        if e.with_limit:
            opts += ", with_limit"
        return (f"seq(limit={format_rational(e.limit)}, rule={rule}, "
                f"from={e.start}{opts})")
    if isinstance(e, BinaryOp):
        # a loop down the left spine, so chains of any length print
        tail: list[str] = []
        while isinstance(e, BinaryOp):
            tail.append(f" {e.op} {print_expr(e.right)}")
            e = e.left
        return print_expr(e) + "".join(reversed(tail))
    if isinstance(e, CallOp):
        return f"{e.name}({print_expr(e.arg)}, {format_rational(e.value)})"
    raise BadParameters(f"not a set expression: {e!r}")


def evaluate(e: SetExpr) -> RealSet:
    """Evaluate a syntax tree to a normalized set; engine errors propagate
    as typed errors."""
    if isinstance(e, IntervalLit):
        return from_interval(e.lo, e.hi, e.closed_lo, e.closed_hi)
    if isinstance(e, PointsLit):
        return from_points(*e.points)
    if isinstance(e, SeqLit):
        if e.rule_name == "harmonic":
            return realset(clusters=[harmonic_cluster(
                e.limit, c=e.c, start=e.start, above=not e.below,
                include_limit=e.with_limit)])
        return realset(clusters=[geometric_cluster(
            e.limit, c=e.c, q=e.q, start=e.start, above=not e.below,
            include_limit=e.with_limit)])
    if isinstance(e, BinaryOp):
        return _evaluate_chain(e)
    if isinstance(e, CallOp):
        h = evaluate(e.arg)
        if e.name == "translate":
            return translate(h, e.value)
        if e.name == "scale":
            return scale(h, e.value)
        if e.name == "reflect":
            return reflect(h, e.value)
        if e.name == "fatten":
            return fatten(h, e.value)
        if e.name == "slice_le":
            return slice_le(h, e.value)
        return slice_ge(h, e.value)
    raise BadParameters(f"not a set expression: {e!r}")


def _apply_run(acc: RealSet, op: str, run: list[RealSet]) -> RealSet:
    """acc op run[0] op run[1] ... for cluster-free sets, with one merge."""
    if not run:
        return acc
    if op == "u":
        return union_cluster_free([acc, *run])
    return set_diff(acc, union_cluster_free(run))


def _evaluate_chain(e: BinaryOp) -> RealSet:
    """Left fold of a chain ``t0 op1 t1 op2 ... opk tk``, walked in a loop.

    A run of consecutive ``u`` operands, or of consecutive ``\\`` operands,
    is united once and applied once while the operands and the accumulator
    have no clusters (``A \\ b1 \\ b2 = A \\ (b1 u b2)``). ``&`` and every
    step with a cluster stay pairwise: with clusters the normal form depends
    on grouping. Operations on cluster-free sets cannot fail, so holding
    them back keeps the errors of the pairwise fold.
    """
    steps: list[tuple[str, SetExpr]] = []
    while isinstance(e, BinaryOp):
        steps.append((e.op, e.right))
        e = e.left
    acc = evaluate(e)
    run_op, run = "", []  # cluster-free operands of run_op, not yet applied
    for op, node in reversed(steps):
        rhs = evaluate(node)
        if run and (op != run_op or rhs.clusters):
            acc, run = _apply_run(acc, run_op, run), []
        if op != "&" and not acc.clusters and not rhs.clusters:
            run_op = op
            run.append(rhs)
        elif op == "u":
            acc = set_union(acc, rhs)
        elif op == "\\":
            acc = set_diff(acc, rhs)
        else:
            acc = set_intersect(acc, rhs)
    return _apply_run(acc, run_op, run)


def set_to_expr(h: RealSet) -> SetExpr:
    """Expression whose evaluation reproduces ``h``; used to serialize
    generated witnesses. Raises UnrepresentableResult for sets outside the
    grammar (empty set, nested or transformed sequence rules)."""
    terms: list[SetExpr] = []
    for iv in h.intervals:
        terms.append(IntervalLit(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed))
    if h.points:
        terms.append(PointsLit(tuple(h.points)))
    for c in h.clusters:
        if c.children:
            raise UnrepresentableResult(
                "nested sequence structure has no expression form")
        if isinstance(c.rule, Harmonic):
            terms.append(SeqLit(c.limit, "harmonic", c.rule.c, None,
                                c.start, not c.above, c.include_limit))
        elif isinstance(c.rule, Geometric):
            terms.append(SeqLit(c.limit, "geometric", c.rule.c, c.rule.q,
                                c.start, not c.above, c.include_limit))
        else:
            raise UnrepresentableResult(
                "transformed sequence rule has no expression form")
    if not terms:
        raise UnrepresentableResult("the empty set has no expression form")
    out = terms[0]
    for t in terms[1:]:
        out = BinaryOp("u", out, t)
    return out
