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

Any Unicode whitespace (``str.isspace``) separates tokens. For error
locations only ``\\n`` starts a new line, and columns count code points.
``int`` is ASCII digits, at most ``sys.get_int_max_str_digits()`` of them;
a longer literal is a ParseError at its position. Nesting deeper than the
interpreter's recursion limit allows raises UnsupportedDepth from
``parse``, ``print_expr`` and ``evaluate``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Union

from .errors import (
    BadParameters,
    MeanlabError,
    ParseError,
    UnrepresentableResult,
    UnsupportedDepth,
)
from .exactset import (
    Geometric,
    Harmonic,
    RealSet,
    from_interval,
    from_points,
    make_cluster,
    realset,
    reflect,
    scale,
    set_diff,
    set_intersect,
    set_union,
    slice_ge,
    slice_le,
    translate,
)
from .measure import fatten
from .values import printable

Q = Fraction


def format_rational(x: Fraction) -> str:
    num = printable(x.numerator)
    return str(num) if x.denominator == 1 else \
        f"{num}/{printable(x.denominator)}"


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


# --------------------------------------------------------------------------
# scanner


# A token is an ASCII integer, a word, or any other single character.
# ``split`` returns the whitespace between tokens as well, so token starts
# are running sums of piece lengths. ``\s`` and ``\w`` are exactly
# ``str.isspace`` and ``str.isalnum`` (or '_').
_TOKEN = re.compile(r"([0-9]+|\w+|\S)")
# a token's kind, from its first character: the punctuation itself, INT,
# END (the empty text after the last token), and IDENT for everything else
_KINDS = {**{c: c for c in "[](){},/-=\\&∪"},
          **{d: "INT" for d in "0123456789"}, "": "END"}
_OPS = {"u": "u", "∪": "u", "\\": "\\", "&": "&"}


def _error(text: str, message: str, pos: int,
           expected: tuple[str, ...]) -> ParseError:
    """A ParseError at ``pos``; only '\\n' starts a line and every code
    point is one column."""
    return ParseError(message, pos, line=text.count("\n", 0, pos) + 1,
                      column=pos - text.rfind("\n", 0, pos),
                      expected=expected)


def _scan(text: str) -> tuple[list[str], list[str], list[int]]:
    """Parallel lists of token kinds, texts and start positions, ending
    with an END token at ``len(text)``.

    Characters outside the grammar are not looked for here: the parser
    accepts only the words and punctuation it names, so they surface as a
    parse error, and ``_unexpected`` then reports the first of them.
    """
    pieces = _TOKEN.split(text)  # whitespace, token, ..., token, whitespace
    texts = pieces[1::2]
    texts.append("")
    starts = list(accumulate(map(len, pieces)))[::2]
    kinds = [_KINDS.get(t[:1], "IDENT") for t in texts]
    return kinds, texts, starts


def _unexpected(text: str, texts: list[str],
                starts: list[int]) -> Optional[ParseError]:
    """The error for the first character outside the grammar: a character
    that is not whitespace, punctuation or alphanumeric, or a word that
    starts with a digit or number sign that is not ASCII, such as '²'."""
    for t, pos in zip(texts[:-1], starts):  # the END token has no text
        c = t[0]
        if c not in _KINDS and not (c.isalpha() or c == "_"):
            return _error(text, f"unexpected character {c!r}", pos,
                          ("set expression",))
    return None


# --------------------------------------------------------------------------
# parser


class _Parser:
    """Recursive descent over the scanner's lists; ``i`` indexes the next
    token. A call nested in a call costs one Python frame per level."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts, self.starts = _scan(text)
        self.i = 0

    def fail(self, message: str, expected: tuple[str, ...]) -> ParseError:
        i = self.i
        shown = self.texts[i] if self.kinds[i] != "END" else "end of input"
        return _error(self.text, f"{message}, found {shown!r}",
                      self.starts[i], expected)

    def expect(self, kind: str, what: str) -> None:
        if self.kinds[self.i] != kind:
            raise self.fail(f"expected {what}", (what,))
        self.i += 1

    def expect_word(self, word: str) -> None:
        if self.texts[self.i] != word:
            raise self.fail(f"expected {word!r}", (word,))
        self.i += 1

    # rationals and integers

    def integer(self, what: str) -> int:
        """The unsigned integer at ``i``; ``what`` names it in errors."""
        if self.kinds[self.i] != "INT":
            raise self.fail(f"expected {what}", (what,))
        try:
            v = int(self.texts[self.i])
        except ValueError:  # longer than the interpreter's int-string limit
            limit = sys.get_int_max_str_digits()
            raise _error(self.text,
                         f"integer literal longer than {limit} digits",
                         self.starts[self.i],
                         (f"{what} of at most {limit} digits",)) from None
        self.i += 1
        return v

    def parse_int(self) -> int:
        neg = self.kinds[self.i] == "-"
        if neg:
            self.i += 1
        v = self.integer("integer")
        return -v if neg else v

    def parse_rat(self) -> Fraction:
        kind = self.kinds[self.i]
        if kind != "INT" and kind != "-":
            raise self.fail("expected rational", ("rational",))
        num = self.parse_int()
        if self.kinds[self.i] != "/":
            return Q(num)
        self.i += 1
        den = self.integer("denominator")
        if den == 0:
            raise _error(self.text, "zero denominator",
                         self.starts[self.i - 1], ("nonzero integer",))
        return Q(num, den)

    # productions

    def parse_set(self) -> SetExpr:
        """``term (op term)*``, with the term productions dispatched here
        and a call's argument parsed by recursion."""
        kinds, texts, starts = self.kinds, self.texts, self.starts
        left: Optional[SetExpr] = None
        op, op_pos = "", 0
        while True:
            i = self.i
            kind = kinds[i]
            if kind == "[" or kind == "(":
                node = self.parse_interval()
            elif kind == "{":
                node = self.parse_points()
            elif texts[i] == "seq":
                node = self.parse_seq()
            elif texts[i] in _CALL_NAMES:
                self.i = i + 1
                self.expect("(", "'('")
                arg = self.parse_set()
                self.expect(",", "','")
                value = self.parse_rat()
                self.expect(")", "')'")
                node = CallOp(texts[i], arg, value, pos=starts[i])
            else:
                raise self.fail("expected a set term",
                                ("interval", "points", "seq(...)",
                                 "transform call"))
            left = node if left is None else \
                BinaryOp(op, left, node, pos=op_pos)
            op = _OPS.get(texts[self.i], "")
            if not op:
                return left
            op_pos = starts[self.i]
            self.i += 1

    def parse_interval(self) -> IntervalLit:
        start = self.i
        self.i += 1
        lo = self.parse_rat()
        self.expect(",", "','")
        hi = self.parse_rat()
        end = self.kinds[self.i]
        if end != "]" and end != ")":
            raise self.fail("expected interval close", ("']'", "')'"))
        self.i += 1
        return IntervalLit(lo, hi, self.kinds[start] == "[", end == "]",
                           pos=self.starts[start])

    def parse_points(self) -> PointsLit:
        start = self.i
        self.i += 1
        pts = [self.parse_rat()]
        while self.kinds[self.i] == ",":
            self.i += 1
            pts.append(self.parse_rat())
        self.expect("}", "'}'")
        return PointsLit(tuple(pts), pos=self.starts[start])

    def parse_seq(self) -> SeqLit:
        start = self.i
        self.i += 1
        self.expect("(", "'('")
        self.expect_word("limit")
        self.expect("=", "'='")
        limit = self.parse_rat()
        self.expect(",", "','")
        self.expect_word("rule")
        self.expect("=", "'='")
        rule = self.texts[self.i]
        if rule not in ("harmonic", "geometric"):
            raise self.fail("expected a rule",
                            ("harmonic(c)", "geometric(c,q)"))
        self.i += 1
        self.expect("(", "'('")
        c = self.parse_rat()
        q: Optional[Fraction] = None
        if rule == "geometric":
            self.expect(",", "','")
            q = self.parse_rat()
        self.expect(")", "')'")
        self.expect(",", "','")
        self.expect_word("from")
        self.expect("=", "'='")
        first = self.parse_int()
        below = False
        with_limit = False
        while self.kinds[self.i] == ",":
            self.i += 1
            opt = self.texts[self.i]
            if opt == "side":
                self.i += 1
                self.expect("=", "'='")
                self.expect_word("below")
                below = True
            elif opt == "with_limit":
                self.i += 1
                with_limit = True
            else:
                raise self.fail("expected a seq option",
                                ("side=below", "with_limit"))
        self.expect(")", "')'")
        return SeqLit(limit, rule, c, q, first, below, with_limit,
                      pos=self.starts[start])


def parse(text: str) -> SetExpr:
    """Parse a set expression; raises ParseError with source location, or
    UnsupportedDepth when calls nest deeper than the interpreter's stack."""
    p = _Parser(text)
    try:
        node = p.parse_set()
        if p.kinds[p.i] != "END":
            raise p.fail("trailing input after expression",
                         ("end of input",))
        return node
    except (ParseError, RecursionError) as exc:
        # a character outside the grammar is reported first, wherever it is
        bad = _unexpected(text, p.texts, p.starts)
        if bad is not None:
            raise bad from None
        if isinstance(exc, RecursionError):
            raise UnsupportedDepth("set expression nested too deeply to "
                                 "parse") from None
        raise


# --------------------------------------------------------------------------
# printing and evaluation


def print_expr(e: SetExpr) -> str:
    """Canonical text; reparsing yields a tree equal to ``e`` (positions
    excluded from equality). Raises UnsupportedDepth past the interpreter's
    stack."""
    try:
        return _print(e)
    except RecursionError:
        raise UnsupportedDepth("set expression nested too deeply to "
                             "print") from None


def _print(e: SetExpr) -> str:
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
            tail.append(f" {e.op} {_print(e.right)}")
            e = e.left
        return _print(e) + "".join(reversed(tail))
    if isinstance(e, CallOp):
        # a loop down the argument spine, so nested calls cost no frames
        calls: list[CallOp] = []
        while isinstance(e, CallOp):
            calls.append(e)
            e = e.arg
        out = _print(e)
        for c in reversed(calls):
            out = f"{c.name}({out}, {format_rational(c.value)})"
        return out
    raise BadParameters(f"not a set expression: {e!r}")


_TRANSFORMS = {"translate": translate, "scale": scale, "reflect": reflect,
               "fatten": fatten, "slice_le": slice_le, "slice_ge": slice_ge}


def evaluate(e: SetExpr) -> RealSet:
    """Evaluate a syntax tree to a normalized set; engine errors propagate
    as typed errors, and nesting past the interpreter's stack raises
    UnsupportedDepth."""
    try:
        return _evaluate(e)
    except RecursionError:
        raise UnsupportedDepth("set expression nested too deeply to "
                             "evaluate") from None


def _evaluate(e: SetExpr) -> RealSet:
    calls: list[CallOp] = []
    while isinstance(e, CallOp):  # the argument spine, walked in a loop
        if e.name not in _TRANSFORMS:
            raise BadParameters(f"not a set expression: {e!r}")
        calls.append(e)
        e = e.arg
    if isinstance(e, IntervalLit):
        h = from_interval(e.lo, e.hi, e.closed_lo, e.closed_hi)
    elif isinstance(e, PointsLit):
        h = from_points(*e.points)
    elif isinstance(e, SeqLit):
        rule = Harmonic(e.c) if e.rule_name == "harmonic" else \
            Geometric(e.c, e.q)
        h = realset(clusters=[make_cluster(e.limit, not e.below, rule,
                                           e.start, e.with_limit)])
    elif isinstance(e, BinaryOp):
        h = _evaluate_chain(e)
    else:
        raise BadParameters(f"not a set expression: {e!r}")
    for c in reversed(calls):
        h = _TRANSFORMS[c.name](h, c.value)
    return h


def _apply_run(acc: RealSet, op: str, run: list[RealSet]) -> RealSet:
    """acc op run[0] op run[1] ..., with one union of the run."""
    if not run:
        return acc
    if op == "u":
        return set_union(acc, *run)
    return set_diff(acc, set_union(*run))


def _evaluate_chain(e: BinaryOp) -> RealSet:
    """Left fold of a chain ``t0 op1 t1 op2 ... opk tk``, walked in a loop.

    A run of ``u`` operands joins the accumulator in one ``set_union``. A
    cluster-free run of ``\\`` operands is united and taken away once
    (``A \\ b1 \\ b2 = A \\ (b1 u b2)``); ``&`` and any other ``\\`` stay
    pairwise. A pending run is applied before a failed operand's error.
    """
    steps: list[tuple[str, SetExpr]] = []
    while isinstance(e, BinaryOp):
        steps.append((e.op, e.right))
        e = e.left
    acc = _evaluate(e)
    run_op, run = "", []  # operands of run_op, not yet applied
    for op, node in reversed(steps):
        try:
            rhs = _evaluate(node)
        except MeanlabError:
            _apply_run(acc, run_op, run)
            raise
        if run and (op != run_op or (op == "\\" and rhs.clusters)):
            acc, run = _apply_run(acc, run_op, run), []
        if op == "u" or (op == "\\" and not acc.clusters
                         and not rhs.clusters):
            run_op = op
            run.append(rhs)
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
