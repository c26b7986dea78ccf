"""Expression language: parsing, printing, evaluation, and serialization
of engine sets back into expressions."""

import random
from fractions import Fraction as Q

import pytest
import setexpr_reference as reference
from conftest import brute_member, probe_points, random_mixed_set

from meanlab import setexpr
from meanlab.errors import (
    BadParameters,
    MeanlabError,
    ParseError,
    UnrepresentableResult,
    UnsupportedDepth,
)
from meanlab.exactset import (
    from_interval,
    from_points,
    harmonic_cluster,
    normalize,
    realset,
    set_diff,
    set_intersect,
    set_union,
    slice_ge,
    translate,
)
from meanlab.funcs import SQUARE
from meanlab.means import amean, image_set
from meanlab.measure import fatten
from meanlab.setexpr import (
    BinaryOp,
    CallOp,
    IntervalLit,
    PointsLit,
    SeqLit,
    evaluate,
    format_rational,
    parse,
    print_expr,
    set_to_expr,
)
from meanlab.values import parse_rational_text

CALL_NAMES = ("translate", "scale", "reflect", "fatten",
              "slice_le", "slice_ge")


# ------------------------------------------------------------------ parsing


def test_union_of_interval_literals():
    tree = parse("[0,1] u (2,3]")
    assert tree == BinaryOp("u",
                            IntervalLit(Q(0), Q(1), True, True),
                            IntervalLit(Q(2), Q(3), False, True))
    assert evaluate(tree) == set_union(
        from_interval(Q(0), Q(1)),
        from_interval(Q(2), Q(3), lo_closed=False))


def test_points_with_open_interval():
    h = evaluate(parse("{0,3} u (1,2)"))
    assert h == set_union(from_points(Q(0), Q(3)),
                          from_interval(Q(1), Q(2), False, False))


def test_sequence_literal():
    h = evaluate(parse("seq(limit=0, rule=harmonic(1), from=1)"))
    assert h.member(Q(1)) and h.member(Q(1, 5)) and h.member(Q(1, 100))
    assert not h.member(Q(0)) and not h.member(Q(2, 5))


def test_sequence_options_and_geometric_rule():
    below = evaluate(parse("seq(limit=2, rule=harmonic(3), from=1, "
                           "side=below, with_limit)"))
    assert below.member(Q(2)) and below.member(Q(2) - Q(3, 4))
    assert not below.member(Q(2) + Q(3, 4))
    geo = evaluate(parse("seq(limit=0, rule=geometric(1,1/2), from=1)"))
    assert geo.member(Q(1, 2)) and geo.member(Q(1, 8))
    assert not geo.member(Q(1, 3))


def test_transform_calls_match_engine_operations():
    base = set_union(from_interval(Q(0), Q(1)), from_points(Q(3)))
    assert evaluate(parse("translate([0,1] u {3}, 1/2)")) == \
        translate(base, Q(1, 2))
    assert evaluate(parse("fatten([0,1] u {3}, 1/4)")) == \
        fatten(base, Q(1, 4))
    assert evaluate(parse("slice_ge([0,1] u {3}, 1/2)")) == \
        slice_ge(base, Q(1, 2))
    assert evaluate(parse("reflect(scale({1,2}, 2), 0)")) == \
        from_points(Q(-4), Q(-2))


def test_operators_share_one_level_and_associate_left():
    tree = parse("[0,3] \\ (1,2) & {0}")
    assert tree.op == "&"
    assert tree.left.op == "\\"
    assert evaluate(tree) == from_points(Q(0))
    assert evaluate(parse("[0,2] & [1,3]")) == from_interval(Q(1), Q(2))
    assert parse("[0,1] ∪ {2}") == parse("[0,1] u {2}")


@pytest.mark.parametrize("text,line,col,expected_hint", [
    ("[0,1", 1, 5, "']'"),
    ("[0,1] u", 1, 8, "interval"),
    ("{,}", 1, 2, "rational"),
    ("seq(limit=0)", 1, 12, "','"),
    ("[1/0, 2]", 1, 4, "nonzero integer"),
    ("wibble(0,1)", 1, 1, "interval"),
    ("[0,1] ] ", 1, 7, "end of input"),
    ("", 1, 1, "interval"),
    ("{1²}", 1, 3, "set expression"),  # integers are ASCII digits only
])
def test_parse_errors_carry_location_and_expectations(text, line, col,
                                                      expected_hint):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert err.value.column == col
    assert expected_hint in err.value.expected
    assert f"line {line}, column {col}" in str(err.value)


def test_parse_error_tracks_lines():
    with pytest.raises(ParseError) as err:
        parse("[0,1] u\nwibble(")
    assert err.value.line == 2
    assert err.value.column == 1


def test_rational_text_forms():
    assert parse_rational_text("-7/2") == Q(-7, 2)
    assert parse_rational_text("0.25") == Q(1, 4)
    assert parse_rational_text("1e-3") == Q(1, 1000)
    assert format_rational(Q(-7, 2)) == "-7/2"
    assert format_rational(Q(4, 2)) == "2"
    with pytest.raises(BadParameters):
        parse_rational_text("wat")
    with pytest.raises(BadParameters):
        parse_rational_text("1/0")


# --------------------------------------------------------------- round trip


def _random_rational(rng):
    return Q(rng.randint(-24, 24), rng.randint(1, 12))


def _random_term(rng, depth=0):
    kind = rng.randrange(4 if depth < 2 else 3)
    if kind == 0:
        a, b = sorted((_random_rational(rng), _random_rational(rng)))
        if a == b:
            b = a + 1
        return IntervalLit(a, b, rng.random() < 0.5, rng.random() < 0.5)
    if kind == 1:
        pts = tuple({_random_rational(rng)
                     for _ in range(rng.randint(1, 4))})
        return PointsLit(pts)
    if kind == 2:
        name = rng.choice(("harmonic", "geometric"))
        c = abs(_random_rational(rng)) + Q(1, 7)
        q = Q(1, rng.randint(2, 5)) if name == "geometric" else None
        return SeqLit(_random_rational(rng), name, c, q,
                      rng.randint(1, 6), rng.random() < 0.3,
                      rng.random() < 0.3)
    return CallOp(rng.choice(CALL_NAMES), _random_term(rng, depth + 1),
                  _random_rational(rng))


def _random_expression(rng):
    # The grammar has no grouping, so trees are left-nested chains.
    expr = _random_term(rng)
    for _ in range(rng.randrange(3)):
        expr = BinaryOp(rng.choice(("u", "\\", "&")), expr,
                        _random_term(rng))
    return expr


def test_print_parse_round_trip_on_corpus():
    rng = random.Random(20260816)
    for _ in range(200):
        tree = _random_expression(rng)
        text = print_expr(tree)
        assert parse(text) == tree, text


def test_printed_text_is_canonical():
    assert print_expr(parse("  [ 0 , 1 ]u( 2 , 3]  ")) == "[0,1] u (2,3]"
    assert print_expr(parse("seq(limit = 1/2,rule=geometric(2,1/3),"
                            "from=4,side=below)")) == \
        "seq(limit=1/2, rule=geometric(2,1/3), from=4, side=below)"


# ------------------------------------------------------------ serialization


def test_set_to_expr_round_trips_random_sets():
    rng = random.Random(7)
    done = 0
    while done < 60:
        h = random_mixed_set(rng)
        if h.is_empty:
            continue
        assert evaluate(set_to_expr(h)) == h
        done += 1


def test_set_to_expr_round_trips_every_shape():
    h = set_union(
        set_union(from_interval(Q(0), Q(1), False, True),
                  from_points(Q(-3), Q(5))),
        realset(clusters=[harmonic_cluster(Q(2), c=Q(1), start=3,
                                           above=False,
                                           include_limit=True)]))
    assert evaluate(set_to_expr(h)) == h


def test_set_to_expr_rejects_sets_outside_the_grammar():
    with pytest.raises(UnrepresentableResult):
        set_to_expr(realset())
    mapped = image_set(
        realset(clusters=[harmonic_cluster(Q(0), c=Q(1), start=1)]), SQUARE)
    with pytest.raises(UnrepresentableResult):
        set_to_expr(mapped)


# ------------------------------------------------------------- evaluation


def test_evaluate_propagates_engine_errors():
    with pytest.raises(UnrepresentableResult):
        evaluate(parse("[0,1] \\ seq(limit=0, rule=harmonic(1), from=2)"))
    with pytest.raises(BadParameters):
        evaluate(parse("fatten([0,1], 0)"))


def test_evaluate_normalizes():
    h = evaluate(parse("[0,1] u [1,2] u {3/2}"))
    assert h == from_interval(Q(0), Q(2))


def _union_by_normalize(a, b):
    return normalize(a.intervals + b.intervals, a.points + b.points,
                     a.clusters + b.clusters)


_PAIRWISE_OPS = {"u": _union_by_normalize, "\\": set_diff,
                 "&": set_intersect}


def _pairwise_evaluate(e):
    """Reference fold: recursive, one set operation per operator, and
    every union through normalize."""
    if isinstance(e, BinaryOp):
        lhs, rhs = _pairwise_evaluate(e.left), _pairwise_evaluate(e.right)
        return _PAIRWISE_OPS[e.op](lhs, rhs)
    return evaluate(e)


def _outcome(fn, e):
    try:
        return repr(fn(e))
    except MeanlabError as exc:
        return exc.code


def _chain_term(rng):
    kind = rng.choices(("interval", "points", "harmonic", "geometric"),
                       weights=(5, 4, 1, 1))[0]
    if kind == "interval":
        a = Q(rng.randint(-48, 48), rng.choice((1, 2, 4)))
        b = a + Q(rng.randint(0, 24), rng.choice((1, 2, 4)))
        closed = (True, True) if a == b else \
            (rng.random() < 0.6, rng.random() < 0.6)
        return IntervalLit(a, b, *closed)
    if kind == "points":
        return PointsLit(tuple(Q(rng.randint(-96, 96), rng.choice((1, 2, 4)))
                               for _ in range(rng.randint(1, 5))))
    limit = Q(rng.randint(-12, 12))
    start = rng.randint(1, 4)
    below, with_limit = rng.random() < 0.3, rng.random() < 0.4
    if kind == "harmonic":
        return SeqLit(limit, "harmonic", Q(1, rng.choice((1, 2, 4))), None,
                      start, below, with_limit)
    return SeqLit(limit, "geometric", Q(1, rng.choice((1, 2, 8))),
                  Q(1, rng.choice((2, 3))), start, below, with_limit)


def _random_chain(rng):
    expr = _chain_term(rng)
    op = rng.choice(("u", "\\", "&"))
    for _ in range(rng.randint(1, 12)):
        if rng.random() < 0.4:  # keep runs of one operator common
            op = rng.choices(("u", "\\", "&"), weights=(5, 3, 2))[0]
        expr = BinaryOp(op, expr, _chain_term(rng))
    return expr


def test_chain_evaluation_matches_pairwise_fold():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(400):
        e = _random_chain(rng)
        expected = _outcome(_pairwise_evaluate, e)
        assert _outcome(evaluate, e) == expected, print_expr(e)
        kinds.add("set" if expected.startswith("RealSet") else expected)
    # the corpus reaches both answers and engine errors
    assert "set" in kinds and len(kinds) > 1


def test_a_union_run_answers_where_the_pairwise_fold_refuses():
    # the hulls of the first two terms overlap, so their union alone is
    # refused; in one union of the run, [1/2,1] first cuts the terms 1 and
    # 1/2 off the cluster at 0
    terms = ("seq(limit=0, rule=harmonic(1), from=1)",
             "seq(limit=1, rule=harmonic(1/2), from=1)", "[1/2,1]")
    e = parse(" u ".join(terms))
    assert _outcome(_pairwise_evaluate, e) == "overlapping_cluster_windows"
    h = evaluate(e)
    assert print_expr(set_to_expr(h)) == (
        "[1/2,1] u seq(limit=0, rule=harmonic(1), from=3) u "
        "seq(limit=1, rule=harmonic(1/2), from=1)")
    parts = [evaluate(parse(t)) for t in terms]
    for x in probe_points(h, *parts):
        assert brute_member(h, x) == any(brute_member(p, x) for p in parts)


def test_a_refused_union_run_is_reported_before_a_later_operand():
    run = ("seq(limit=0, rule=harmonic(1), from=1) u "
           "seq(limit=1, rule=harmonic(1/2), from=1)")
    for text, code in ((run, "overlapping_cluster_windows"),
                       (run + " u scale([0,1], 0)",
                        "overlapping_cluster_windows"),
                       ("[0,1] u {3} u scale([0,1], 0)", "zero_scale")):
        e = parse(text)
        assert _outcome(evaluate, e) == code
        assert _outcome(_pairwise_evaluate, e) == code


def test_long_union_chain_evaluates():
    text = " u ".join("{%d}" % i for i in range(1100))
    h = evaluate(parse(text))
    assert h == from_points(*range(1100))
    assert amean(h) == Q(1099, 2)


# ------------------------------------------------- the reference parser


def _parse_outcome(parse_fn, text):
    """The tree's repr (positions included), or the error's payload."""
    try:
        return repr(parse_fn(text))
    except ParseError as exc:
        return exc.payload()


def _bench_shaped_text(rng):
    """A chain like the benchmark's: intervals, point lists written with
    ', ', sequences and transform calls."""
    def rat():
        return format_rational(_random_rational(rng))
    terms = ["{0}"]
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            lo, hi = rng.choice("[("), rng.choice("])")
            terms.append(f"{lo}{rat()},{rat()}{hi}")
        elif kind == 1:
            pts = ", ".join(rat() for _ in range(rng.randint(1, 5)))
            terms.append("{" + pts + "}")
        elif kind == 2:
            terms.append(print_expr(_random_term(rng, depth=2)))
        else:
            terms.append(f"{rng.choice(CALL_NAMES)}({terms[-1]}, {rat()})")
    return rng.choice((" u ", " \\ ", " & ", " ∪ ")).join(terms[1:])


# grammar characters, words and whitespace of every kind, digits and
# letters that are not ASCII, and characters outside the grammar
_MUTATIONS = (list("[](){},/-=\\&u∪ 0123456789_ax#.")
              + ["\n", "\r", "\t", "\r\n", "\xa0", "\u2028", "é", "²",
                 "٣", "½", "😀", "seq(", "limit=", "rule=", "from=",
                 "side=below", "with_limit", "harmonic(", "geometric(",
                 "translate(", "slice_le(", "1/0", "-"])


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(3)
        if op == 0 or not text:
            text = text[:i] + rng.choice(_MUTATIONS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            text = text[:i] + rng.choice(_MUTATIONS) + text[i + 1:]
    return text


def test_parser_matches_the_reference_on_a_mutated_corpus():
    rng = random.Random(20261019)
    bases = [print_expr(_random_expression(rng)) for _ in range(150)]
    bases += [_bench_shaped_text(rng) for _ in range(150)]
    texts = list(bases)
    for _ in range(20):
        for base in bases:
            texts.append(_mutate(rng, base))
    trees, messages = 0, set()
    for text in texts:
        want = _parse_outcome(reference.parse, text)
        assert _parse_outcome(parse, text) == want, repr(text)
        if isinstance(want, str):
            trees += 1
        else:
            messages.add(want["message"].split(",")[0].split(" (")[0])
    # the corpus reaches both trees and most kinds of error
    assert trees > 500 and len(messages) >= 10, (trees, sorted(messages))


def test_every_code_point_scans_as_the_reference_reads_it():
    # how the reference tokenizer reads a character at a token's start:
    # punctuation, an ASCII digit, or a word or unexpected character
    start = {**{c: c for c in reference._PUNCT},
             **{d: "INT" for d in reference._DIGITS}}
    signatures = {}
    for lo in range(0, 0x110000, 0x10000):
        chars = [chr(i) for i in range(lo, lo + 0x10000)]
        # each character as a token of its own, or skipped as whitespace
        kinds, texts, _ = setexpr._scan("\n".join(chars))
        tokens = [c for c in chars if not c.isspace()]
        assert texts[:-1] == tokens
        assert kinds[:-1] == [start.get(c, "IDENT") for c in tokens]
        # which characters continue a word, and which of those an integer
        match = setexpr._TOKEN.match
        word = [c for c in chars if c.isalnum() or c == "_"]
        assert [c for c, m in zip(chars, map(match, map("a".__add__, chars)))
                if m.end() == 2] == word
        assert [c for c in word if match("1" + c).end() == 2] == \
            [c for c in word if c in reference._DIGITS]
        # one character of each combination of the reference's predicates
        signatures.update(zip(zip(map(str.isspace, chars),
                                  map(str.isalpha, chars),
                                  map(str.isalnum, chars)), chars))
    # both parsers in full on those characters and on every character the
    # reference names
    names = "\n_" + "".join(reference._PUNCT) + "".join(reference._DIGITS)
    for c in [*signatures.values(), *names]:
        for text in (c, "seq" + c, "{1" + c + "}", c + "1", "a" + c,
                     "[0,1] u" + c + "{2}", "{1," + c + "\n2}"):
            assert _parse_outcome(parse, text) == \
                _parse_outcome(reference.parse, text), repr(text)
    assert len(signatures) == 4


def _nested_calls(depth):
    """``translate(`` ... ``translate({1}, 1)`` ... ``, 1)``, built without
    recursion."""
    e = parse("{1}")
    for _ in range(depth):
        e = CallOp("translate", e, Q(1))
    return e


def _nested_chains(depth):
    """``translate({0} u translate({0} u ... {1}, 1), 1)``."""
    e = parse("{1}")
    for _ in range(depth):
        e = CallOp("translate", BinaryOp("u", PointsLit((Q(0),)), e), Q(1))
    return e


def test_deep_nesting_is_a_typed_error():
    for text in ("translate(" * 2000 + "{1}" + ", 1)" * 2000,
                 "translate({0} u " * 2000 + "{1}" + ", 1)" * 2000):
        with pytest.raises(UnsupportedDepth):
            parse(text)
    deep = _nested_chains(2000)
    with pytest.raises(UnsupportedDepth):
        evaluate(deep)
    with pytest.raises(UnsupportedDepth):
        print_expr(deep)


def test_nested_calls_walk_their_argument_spine():
    e = _nested_calls(5000)
    assert evaluate(e) == from_points(Q(5001))
    assert print_expr(e) == "translate(" * 5000 + "{1}" + ", 1)" * 5000
