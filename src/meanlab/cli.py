"""Command-line interface.

Commands
--------
eval       evaluate a mean on a set (exact rational plus rounded decimal)
limit      run a limit-type mean with a schedule; emits the trace as CSV
derive     one-sided derivative data (--at x) or endpoint probes (--side)
accpoints  the set of points whose removal matters to the mean
bounds     mean-liminf and mean-limsup of a set
props      run property checkers against a mean
report     aggregate property reports as JSON or CSV

Sets are written in the expression language of :mod:`meanlab.setexpr`;
``--set -`` reads the expression from stdin. All outputs are deterministic
given flags and seed. Engine errors exit nonzero with a machine-readable
JSON payload on stderr (exit 2 for parse/usage errors, 1 otherwise).
A command formats all of its output before it prints any, so a failing
command prints nothing on stdout. An answer holding an integer longer than
the interpreter's int-string limit (``sys.get_int_max_str_digits()``)
fails with ``unrepresentable_result``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from .errors import BadParameters, MeanlabError, NoConvergence, ParseError
from .exactset import RealSet, set_union
from .funcs import parse_func
from .limits import (
    DEFAULT_MAX_N,
    DEFAULT_TOLERANCE,
    LimitSchedule,
    doubling_indices,
    limit_estimate,
)
from .means import MEAN_NAMES, MeanRef, MeanSequence, resolve_mean
from .measure import DensityMeasure
from .setexpr import (
    evaluate,
    format_rational,
    parse,
    print_expr,
    set_to_expr,
)
from .values import (
    Approx,
    RootValue,
    decimal_str,
    float_or_decimal,
    parse_rational_text,
    printable,
    value_bounds,
    value_mid,
)


# --------------------------------------------------------------------------
# rendering


def _frac_json(x: Fraction) -> dict:
    return {"num": printable(x.numerator), "den": printable(x.denominator)}


def _trim(dec: str) -> str:
    if "." in dec:
        dec = dec.rstrip("0").rstrip(".")
    return dec or "0"


def value_json(v) -> dict:
    if isinstance(v, Fraction):
        return {**_frac_json(v), "decimal": decimal_str(v)}
    if isinstance(v, RootValue):
        lo, hi = value_bounds(v)
        return {"root": {"radicand": _frac_json(v.radicand),
                         "degree": v.degree},
                "decimal": decimal_str(value_mid(v)),
                "enclosure_radius": _frac_json((hi - lo) / 2)}
    if isinstance(v, Approx):
        return {"estimate": _frac_json(v.value), "error": _frac_json(v.error),
                "decimal": decimal_str(v.value)}
    raise BadParameters(f"not a value: {v!r}")


def value_text(v) -> str:
    if isinstance(v, Fraction):
        return (f"{_trim(decimal_str(v))} "
                f"(exact {printable(v.numerator)}/{printable(v.denominator)})")
    if isinstance(v, RootValue):
        return (f"{_trim(decimal_str(value_mid(v)))} "
                f"(exact {format_rational(v.radicand)}^(1/{v.degree}))")
    if isinstance(v, Approx):
        err = float_or_decimal(v.error)  # decimal text past the float range
        if isinstance(err, float):
            err = f"{err:.3g}"
        return f"{_trim(decimal_str(v.value))} ± {err}"
    raise BadParameters(f"not a value: {v!r}")


def _set_text(h: RealSet) -> str:
    if h.is_empty:
        return "(empty set)"
    try:
        expr = set_to_expr(h)
    except MeanlabError:
        return repr(h)
    return print_expr(expr)


def _emit_error(exc: MeanlabError, extra: Optional[dict] = None) -> None:
    payload = exc.payload()
    if extra:
        payload.update(extra)
    sys.stderr.write(json.dumps({"error": payload}) + "\n")


# --------------------------------------------------------------------------
# flag plumbing


def _read_set(text: str) -> RealSet:
    if text == "-":
        text = sys.stdin.read()
    return evaluate(parse(text))


_parse_density = DensityMeasure.parse


def _build_schedule(args) -> LimitSchedule:
    tol = (parse_rational_text(args.tol) if args.tol is not None
           else DEFAULT_TOLERANCE)
    max_n = args.max_n if args.max_n is not None else DEFAULT_MAX_N
    if max_n < 64:  # the schedule doubles from 16 and needs three samples
        raise BadParameters("--max-n must be at least 64")
    return LimitSchedule(indices=doubling_indices(max_n), tolerance=tol)


def _build_mean(args, schedule: LimitSchedule) -> MeanRef:
    func = parse_func(args.f) if args.f is not None else None
    density = None if args.density is None else _parse_density(args.density)
    delta = parse_rational_text(args.delta) if args.delta is not None else None
    return resolve_mean(args.mean, n=args.n, delta=delta,
                        density=density, func=func, schedule=schedule)


def _add_mean_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mean", required=True,
                   help="mean id family[:tag][^f]..., family one of "
                        f"{', '.join(MEAN_NAMES)}; the tag is n (eds:3), "
                        "delta (avg_fat:1/4), density (m_mu:0,1,2;1,3,1) or f "
                        "(avg_f:square); each ^f conjugates (avg1^exp(2)); "
                        "the schedule is not part of an id")
    p.add_argument("--f", help="monotone transform, e.g. square, exp(2), "
                               "affine(2,1); a trailing ^f (for an untagged "
                               "avg_f it is the defining transform)")
    p.add_argument("--n", type=int, help="stage for iso/eds")
    p.add_argument("--delta", help="radius for avg_fat (rational)")
    p.add_argument("--density",
                   help="density pieces 'lo,hi,weight[;lo,hi,weight...]' "
                        "for m_mu")
    p.add_argument("--tol", help="limit tolerance (rational or scientific)")
    p.add_argument("--max-n", type=int, dest="max_n",
                   help="largest schedule index (default 2^20)")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_mean_flags(p)
    p.add_argument("--set", required=True,
                   help="set expression ('-' reads stdin)")
    p.add_argument("--json", action="store_true", help="emit JSON")


# --------------------------------------------------------------------------
# commands


def _cmd_eval(args) -> list[str]:
    schedule = _build_schedule(args)
    k = _build_mean(args, schedule)
    h = _read_set(args.set)
    sets = {"H": h}
    if args.set2:
        h2 = _read_set(args.set2)
        sets = {"H1": h, "H2": h2, "H1 u H2": set_union(h, h2)}
    results = {label: k.evaluate(s) for label, s in sets.items()}
    if args.json:
        return [json.dumps({"command": "eval", "mean": k.id,
                            "values": {lb: value_json(v)
                                       for lb, v in results.items()}})]
    if len(results) == 1:
        return [value_text(next(iter(results.values())))]
    return [f"{lb}: {value_text(v)}" for lb, v in results.items()]


def _cmd_limit(args) -> list[str]:
    schedule = _build_schedule(args)
    k = _build_mean(args, schedule)
    seq = k.param  # a conjugate's param is (mean, transform)
    if not isinstance(seq, MeanSequence):
        raise BadParameters(
            "limit needs a limit-type mean: lavg, m_iso, or m_eds")
    h = _read_set(args.set)
    rows: list[tuple[int, Fraction]] = []

    def recorder(n: int) -> Fraction:
        v = seq.at(n).evaluate(h)
        rows.append((n, v))
        return v

    # a closed form is exact; the samples are still traced
    exact_value = seq.exact_limit(h) if seq.applies(h) else None
    try:
        est = limit_estimate(recorder, schedule, label=f"{k.id} limit")
    except NoConvergence:
        if exact_value is None:
            raise
    if exact_value is not None:
        est = Approx(exact_value, schedule.tolerance)
    if args.json:
        return [json.dumps({
            "command": "limit", "mean": k.id, **value_json(est),
            "trace": [{"n": n, "value": _frac_json(v)} for n, v in rows],
        })]
    return [f"estimate {value_text(est)}",
            "n,value",
            *(f"{n},{decimal_str(v)}" for n, v in rows)]


def _cmd_derive(args) -> list[str]:
    from .analysis import d_mean, d_probe

    schedule = _build_schedule(args)
    k = _build_mean(args, schedule)
    h = _read_set(args.set)
    if (args.at is None) == (args.side is None):
        raise BadParameters("derive needs exactly one of --at or --side")
    if args.at is not None:
        x = parse_rational_text(args.at)
        val, spread, hint = d_mean(k, h, x, schedule)
        if args.json:
            out = {"command": "derive", "mean": k.id, "at": _frac_json(x),
                   "value": value_json(val), "spread": value_json(spread)}
            if hint is not None:
                out["occupancy_hint"] = _frac_json(hint)
            return [json.dumps(out)]
        line = f"derivative {value_text(val)}; spread {value_text(spread)}"
        if hint is not None:
            line += f"; occupancy hint {format_rational(hint)}"
        return [line]
    val, exact_slope = d_probe(k, h, args.side, schedule)
    if args.json:
        out = {"command": "derive", "mean": k.id, "side": args.side,
               "value": value_json(val)}
        if exact_slope is not None:
            out["exact"] = _frac_json(exact_slope)
        return [json.dumps(out)]
    tag = " (exact)" if exact_slope is not None else ""
    return [f"probe {value_text(val)}{tag}"]


def _cmd_accpoints(args) -> list[str]:
    from .analysis import acc_points_by_mean

    schedule = _build_schedule(args)
    k = _build_mean(args, schedule)
    h = _read_set(args.set)
    acc = acc_points_by_mean(k, h)
    if args.json:
        return [json.dumps({"command": "accpoints", "mean": k.id,
                            "empty": acc.is_empty,
                            "set": None if acc.is_empty else _set_text(acc)})]
    return [_set_text(acc)]


def _cmd_bounds(args) -> list[str]:
    from .analysis import liminf_by_mean, limsup_by_mean

    schedule = _build_schedule(args)
    k = _build_mean(args, schedule)
    h = _read_set(args.set)
    li = liminf_by_mean(k, h)
    ls = limsup_by_mean(k, h)
    if args.json:
        return [json.dumps({"command": "bounds", "mean": k.id,
                            "liminf": value_json(li),
                            "limsup": value_json(ls)})]
    return [f"liminf {value_text(li)}", f"limsup {value_text(ls)}"]


def _report_json(r) -> dict:
    out = {"property": r.property_id, "mean": r.mean_id,
           "verdict": r.verdict, "trials": r.trials, "seed": r.seed,
           "reconstructed": r.reconstructed}
    if r.witness is not None:
        out["witness"] = {
            "note": r.witness.note,
            "sets": [_set_text(s) for s in r.witness.sets],
            "values": [{"label": lb, "value": value_json(v)}
                       for lb, v in r.witness.values],
        }
    return out


def _report_lines(r) -> list[str]:
    recon = ", reconstructed" if r.reconstructed else ""
    lines = [f"{r.property_id} on {r.mean_id}: {r.verdict} "
             f"(trials={r.trials}, seed={r.seed}{recon})"]
    if r.witness is not None:
        if r.witness.note:
            lines.append(f"  note: {r.witness.note}")
        for lb, v in r.witness.values:
            lines.append(f"  {lb} = {value_text(v)}")
        for i, s in enumerate(r.witness.sets, 1):
            lines.append(f"  set {i}: {_set_text(s)}")
    return lines


def _suite_ids(suite: Optional[str]) -> tuple[str, ...]:
    from .axioms import PROPERTY_IDS

    if not suite:
        return PROPERTY_IDS
    ids = []
    for token in suite.split(","):
        pid = token.strip().lower().replace("-", "_")
        if pid not in PROPERTY_IDS:
            raise BadParameters(f"unknown property: {token.strip()!r}")
        ids.append(pid)
    return tuple(ids)


def _run_reports(args) -> list:
    """The ``axioms.PropertyReport`` of each property of ``--suite``."""
    from .axioms import GeneratorConfig, full_report

    schedule = _build_schedule(args)
    return full_report(_build_mean(args, schedule), _suite_ids(args.suite),
                       GeneratorConfig(schedule=schedule), args.trials,
                       args.seed)


def _cmd_props(args) -> list[str]:
    reports = _run_reports(args)
    if args.json:
        return [json.dumps({"command": "props",
                            "reports": [_report_json(r) for r in reports]})]
    return [line for r in reports for line in _report_lines(r)]


def _cmd_report(args) -> list[str]:
    reports = _run_reports(args)
    if args.csv:
        return ["property,mean,verdict,trials,seed,reconstructed",
                *(f"{r.property_id},{r.mean_id},{r.verdict},{r.trials},"
                  f"{r.seed},{str(r.reconstructed).lower()}"
                  for r in reports)]
    return [json.dumps({"command": "report",
                        "reports": [_report_json(r) for r in reports]})]


# --------------------------------------------------------------------------
# argument parsing


def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meanlab",
        description="Exact generalized means of finitely representable "
                    "real sets.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a mean on a set")
    _add_common(p)
    p.add_argument("--set2", help="second set; reports both parts and "
                                  "their union")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("limit", help="limit-type mean with schedule trace")
    _add_common(p)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("derive", help="derivative data at a point or "
                                      "endpoint probes")
    _add_common(p)
    p.add_argument("--at", help="inner point x for the pointwise derivative")
    p.add_argument("--side", choices=("sup_append", "inf_append"),
                   help="endpoint probe direction")
    p.set_defaults(fn=_cmd_derive)

    p = sub.add_parser("accpoints", help="mean-relevant accumulation points")
    _add_common(p)
    p.set_defaults(fn=_cmd_accpoints)

    p = sub.add_parser("bounds", help="mean-liminf and mean-limsup")
    _add_common(p)
    p.set_defaults(fn=_cmd_bounds)

    for name, help_text in (("props", "run property checkers"),
                            ("report", "aggregate property reports")):
        p = sub.add_parser(name, help=help_text)
        _add_mean_flags(p)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--suite",
                       help="comma-separated property ids (default: all)")
        p.add_argument("--trials", type=int, default=60)
        p.add_argument("--seed", type=int, default=0)
        if name == "report":
            p.add_argument("--csv", action="store_true",
                           help="emit CSV instead of JSON")
        p.set_defaults(fn=_cmd_props if name == "props" else _cmd_report)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused for the process.

    ``parse_args`` returns a fresh namespace each call and no argument has
    a mutable default, so reusing the parser cannot carry state between
    calls.
    """
    return _make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        lines = args.fn(args)
    except ParseError as exc:
        _emit_error(exc)
        return 2
    except NoConvergence as exc:
        _emit_error(exc, {"trace": [[n, v] for n, v in exc.trace]})
        return 1
    except MeanlabError as exc:
        _emit_error(exc)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
