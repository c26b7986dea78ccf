"""Independent answers for the benchmark's requests, in plain Fractions.

Nothing here imports meanlab. Sets made only of intervals and points are
held as sorted, pairwise disjoint *pieces* ``(lo, hi, lo_closed,
hi_closed)``; a point is the closed piece ``(p, p, True, True)``. Set
operations go through *atoms*: the endpoints of both operands and the open
gaps between consecutive endpoints. Each atom lies wholly inside or wholly
outside either operand, so an operation is a choice of atoms.

``judge(check, code, payload)`` returns None when an answer is right and
a (kind, reason) pair when it is not.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction as Q

from gen import LIMIT_MEANS, comp_end, comp_start

# Verdict codes that are answers: the request was outside the mean's
# domain, and the program said so.
VERDICTS = frozenset({
    "empty_set", "null_set", "not_finite", "domain_violation",
    "infinite_level", "degenerate_set", "empty_slice", "not_applicable",
    "empty_derived_set", "outside_support", "not_compact", "domain_exit"})
# Engine failures: the request was in the domain but no answer came back.
FAILURES = frozenset({
    "no_convergence", "unrepresentable_result",
    "overlapping_cluster_windows", "unsupported_depth", "error"})
# Malformed requests: the generator is at fault, so the run is invalid.
GENERATOR_BUGS = frozenset({
    "parse_error", "bad_parameters", "bad_config", "unsupported_mean",
    "zero_scale", "usage_error"})


def classify(code: str) -> str:
    """Map an outcome code to ok, verdict, failed or bug.

    ``ok`` is an answer; any code that is not a MeanlabError code (an
    uncaught exception's class name, such as RecursionError) is a failure.
    """
    if code == "ok":
        return "ok"
    if code in VERDICTS:
        return "verdict"
    if code in GENERATOR_BUGS:
        return "bug"
    return "failed"


# --------------------------------------------------------------------------
# pieces


def pieces_of(comps) -> list:
    out = []
    for c in comps:
        if c[0] == "iv":
            out.append(c[1:])
        elif c[0] == "pts":
            out.extend((p, p, True, True) for p in c[1])
        else:
            raise ValueError("only intervals and points have pieces")
    return sorted(out)


def _contains(pieces, los, x: Q) -> bool:
    i = bisect_right(los, x) - 1
    if i < 0:
        return False
    lo, hi, lc, hc = pieces[i]
    return (lo < x or (lo == x and lc)) and (x < hi or (x == hi and hc))


def atoms(*operands) -> list:
    """Endpoints and open gaps of all operands, in order."""
    ends = sorted({e for ps in operands for p in ps for e in (p[0], p[1])})
    out = []
    for i, e in enumerate(ends):
        out.append((e, e, True, True))
        if i + 1 < len(ends):
            out.append((e, ends[i + 1], False, False))
    return out


def _member(pieces, los, atom) -> bool:
    lo, hi = atom[0], atom[1]
    if lo == hi:
        return _contains(pieces, los, lo)
    # an open gap between consecutive endpoints lies inside a piece or
    # outside all of them
    i = bisect_right(los, lo) - 1
    return i >= 0 and pieces[i][1] >= hi


def combine(a, b, op: str) -> list:
    """a op b for op in union, diff, intersect."""
    la, lb = [p[0] for p in a], [p[0] for p in b]
    keep = {"union": lambda x, y: x or y, "diff": lambda x, y: x and not y,
            "intersect": lambda x, y: x and y}[op]
    return [t for t in atoms(a, b)
            if keep(_member(a, la, t), _member(b, lb, t))]


def closure(a) -> list:
    return sorted({(e, e, True, True) for p in a for e in (p[0], p[1])}
                  | {(p[0], p[1], False, False) for p in a if p[0] < p[1]})


def derived(a) -> list:
    """Accumulation points: the closure of the parts with length."""
    return closure([p for p in a if p[0] < p[1]])


def apply_op(op: str, a, b, param) -> list:
    if op in ("union", "diff", "intersect"):
        return combine(a, b, op)
    if op == "closure":
        return closure(a)
    if op == "derived":
        return derived(a)
    if op == "slice_le":
        floor = min(p[0] for p in a) - 1
        return combine(a, [(floor, param, True, True)], "intersect")
    if op == "translate":
        return [(lo + param, hi + param, lc, hc) for lo, hi, lc, hc in a]
    if op == "fatten":
        # the operands keep 1/16 clear of their slot edges, so the open
        # neighborhoods of distinct pieces stay disjoint
        return [(lo - param, hi + param, False, False) for lo, hi, _, _ in a]
    raise ValueError(op)


# --------------------------------------------------------------------------
# means


def avg1(pieces, scale=1):
    """Length average of pieces given in units of 1/scale, or the verdict
    code when there is no length."""
    if not pieces:
        return "empty_set"
    lam = sum(hi - lo for lo, hi, _, _ in pieces)
    if lam == 0:
        return "null_set"
    mom = sum(hi * hi - lo * lo for lo, hi, _, _ in pieces)
    return Q(mom) / (2 * lam * scale)


def square_radicand(pieces) -> Q:
    """(integral of x^2) / length: the square of avg_f with f = square."""
    lam = sum((hi - lo for lo, hi, _, _ in pieces), Q(0))
    return sum(((hi ** 3 - lo ** 3) / 3 for lo, hi, _, _ in pieces), Q(0)) / lam


def amean(points) -> Q:
    return sum(points, Q(0)) / len(points)


def m_mu(pieces, density):
    mass = mom = Q(0)
    for lo, hi, _, _ in pieces:
        for dlo, dhi, w in density:
            a, b = max(lo, dlo), min(hi, dhi)
            if a < b:
                mass += w * (b - a)
                mom += w * (b * b - a * a) / 2
    return mom / mass if mass else "null_set"


def _meets(piece, left, right) -> bool:
    """Does the piece meet the half-open cell [left, right)?"""
    lo, hi, lc, hc = piece
    low, low_c = (lo, lc) if lo >= left else (left, True)
    up, up_c = (hi, hc) if hi < right else (right, False)
    return low < up or (low == up and low_c and up_c)


def eds(pieces, n: int, scale=1):
    """Brute-force equal-division mean of pieces given in units of
    1/scale: test each of the n cells, and the supremum's own cell, against
    the pieces. Coordinates are multiplied by n so that cell edges stay
    exact in the pieces' own number type."""
    if not pieces:
        return "empty_set"
    a = min(p[0] for p in pieces)
    b = max(p[1] for p in pieces)
    if a == b:
        return "degenerate_set"
    w = b - a
    scaled = [(lo * n, hi * n, lc, hc) for lo, hi, lc, hc in pieces]
    total, count = 0, 0
    j = 0
    for i in range(n):
        left = a * n + i * w
        right = left + w
        while j < len(scaled) and (scaled[j][1] < left or (
                scaled[j][1] == left and not scaled[j][3])):
            j += 1
        k = j
        while k < len(scaled) and scaled[k][0] < right:
            if _meets(scaled[k], left, right):
                total += left
                count += 1
                break
            k += 1
    if any(p[1] == b and p[3] for p in pieces):
        total += b * n
        count += 1
    return Q(total) / (count * n * scale)


# --------------------------------------------------------------------------
# decoding the program's JSON values


def _frac(d) -> Q:
    return Q(d["num"], d["den"])


def value_range(v) -> tuple[Q, Q, object]:
    """(low, high, exact) for a value_json object; exact is the Fraction
    for exact rationals, ("root", radicand, degree) for roots, else None."""
    if "num" in v:
        x = _frac(v)
        return x, x, x
    if "root" in v:
        rad = _frac(v["root"]["radicand"])
        mid = Q(v["decimal"])
        r = _frac(v["enclosure_radius"])
        return mid - r, mid + r, ("root", rad, v["root"]["degree"])
    est, err = _frac(v["estimate"]), _frac(v["error"])
    return est - err, est + err, None


def hull(comps) -> tuple[Q, Q]:
    return min(comp_start(c) for c in comps), max(comp_end(c) for c in comps)


# Decimal strings carry 12 places; enclosures are compared with this slack.
_DEC = Q(1, 10 ** 11)


def _check_value(v, want) -> str | None:
    low, high, exact = value_range(v)
    if isinstance(exact, Q):
        return None if exact == want else f"got {exact}, want {want}"
    if isinstance(exact, tuple):
        return None if exact[1] == want ** exact[2] else \
            f"root {exact[1]}^(1/{exact[2]}), want {want}"
    return None if low <= want <= high else \
        f"[{float(low)}, {float(high)}] misses {float(want)}"


def expected_eval(check) -> tuple[str, object] | None:
    """("value", x), ("square", radicand), ("code", c) or None when no
    reference covers the request."""
    fam, comps = check["family"], check["comps"]
    kinds = {c[0] for c in comps}
    has_iv = "iv" in kinds
    plain = kinds <= {"iv", "pts"}
    points = [p for c in comps if c[0] == "pts" for p in c[1]]
    if fam == "avg1":
        return ("value", avg1(pieces_of([c for c in comps if c[0] == "iv"])))\
            if has_iv else ("code", "null_set")
    if fam == "amean":
        return ("value", amean(points)) if kinds == {"pts"} \
            else ("code", "not_finite")
    if fam == "m_acc":
        if has_iv:
            return ("code", "infinite_level")
        limits = [c[1] for c in comps if c[0] in ("harm", "geom")]
        return ("value", amean(limits or points))
    if fam == "m_mu":
        if not has_iv:
            return ("code", "null_set")
        return ("value", m_mu(pieces_of([c for c in comps if c[0] == "iv"]),
                              check["density"]))
    if fam == "avg_f_square" and has_iv and hull(comps)[0] >= 0:
        return ("square", square_radicand(
            pieces_of([c for c in comps if c[0] == "iv"])))
    if not plain:
        return None
    if fam == "eds":
        ans = eds(pieces_of(comps), check["n"])
        return ("code", ans) if isinstance(ans, str) else ("value", ans)
    if fam in ("iso", "m_iso"):
        return ("code", "domain_violation") if has_iv \
            else ("value", amean(points))
    if fam in ("lavg", "m_eds"):
        if has_iv:
            return ("value", avg1(pieces_of(
                [c for c in comps if c[0] == "iv"])))
        if fam == "m_eds" and len(points) == 1:
            return ("code", "degenerate_set")
        return ("value", amean(points))
    return None


def judge_eval(check, code: str, payload):
    """Judge an eval/limit/bounds request of eval_mix or bounds: None, a
    reason string, or ("limit_missed", reason)."""
    want = expected_eval(check) if check["family"] != "bounds" else None
    if code != "ok":
        if want and want[0] == "code" and classify(code) == "verdict" \
                and code != want[1]:
            return f"verdict {code}, want {want[1]}"
        if want and want[0] != "code" and classify(code) == "verdict":
            return f"verdict {code}, want a value"
        return None
    if want and want[0] == "code":
        return f"answered, want verdict {want[1]}"
    lo, hi = hull(check["comps"])
    if payload["command"] == "limit":
        values = [{"estimate": payload["estimate"], "error": payload["error"]}]
    elif payload["command"] == "bounds":
        values = [payload["liminf"], payload["limsup"]]
    else:
        values = list(payload["values"].values())
    for v in values:
        low, high, _ = value_range(v)
        if high < lo - _DEC or low > hi + _DEC:
            return f"value [{float(low)}, {float(high)}] outside the hull"
    if check["family"] == "bounds":
        return _judge_bounds(check, values)
    if want is None:
        return None
    if check["family"] in LIMIT_MEANS and "estimate" in values[0]:
        why = _check_value(values[0], want[1])
        return ("limit_missed", why) if why else None
    if want[0] == "square":
        low, high, exact = value_range(values[0])
        if isinstance(exact, Q):
            return None if exact ** 2 == want[1] else "wrong square mean"
        return None if exact and exact[1] == want[1] else "wrong square mean"
    return _check_value(values[0], want[1])


def _judge_bounds(check, values) -> str | None:
    comps = check["comps"]
    if check["mean"] == "amean" and comps and {c[0] for c in comps} == {"pts"}:
        lo, hi = hull(comps)
        return _check_value(values[0], lo) or _check_value(values[1], hi)
    if check["mean"] == "m_acc":
        limits = [c[1] for c in comps if c[0] in ("harm", "geom")]
        if len(limits) == 1:
            return _check_value(values[0], limits[0]) or \
                _check_value(values[1], limits[0])
    return None


# Coordinates of big_sets operands, slices and radii are multiples of
# 1/BIG_SCALE, so their set algebra runs on integers.
BIG_SCALE = 4096


def _scaled(x: Q) -> int:
    if BIG_SCALE % x.denominator:
        raise ValueError(f"{x} is off the 1/{BIG_SCALE} grid")
    return x.numerator * (BIG_SCALE // x.denominator)


def _int_pieces(comps) -> list:
    return [(_scaled(lo), _scaled(hi), lc, hc)
            for lo, hi, lc, hc in pieces_of(comps)]


def judge_big(check, code: str, payload) -> str | None:
    op = check["op"]
    a = _int_pieces(check["a"])
    b = _int_pieces(check["b"]) if check["b"] is not None else None
    shift = Q(0)
    if op == "translate":
        # both means move with the set: K(H + t) = K(H) + t
        result, shift = a, check["param"]
    else:
        param = _scaled(check["param"]) if check["param"] is not None \
            else None
        result = apply_op(op, a, b, param)
    want = avg1(result, BIG_SCALE) if check["mean"] == "avg1" \
        else eds(result, check["n"], BIG_SCALE)
    if classify(code) == "verdict":
        if not isinstance(want, str):
            return f"verdict {code}, want {want}"
        return None if code == want else f"verdict {code}, want {want}"
    if code != "ok":
        return None
    if isinstance(want, str):
        return f"answered, want verdict {want}"
    return _check_value(payload["values"]["H"], want + shift)


def judge(check, code: str, payload):
    """None when the answer is right, else (kind, reason).

    kind is ``wrong`` for a wrong answer, or ``limit_missed`` when a limit
    estimate that only stabilised (it carries no proof of convergence)
    misses the exact limit: the request then counts as failed.
    """
    if check["family"] == "big":
        why = judge_big(check, code, payload)
    else:
        why = judge_eval(check, code, payload)
    if why is None or isinstance(why, tuple):
        return why
    return ("wrong", why)
