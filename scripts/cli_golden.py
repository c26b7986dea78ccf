#!/usr/bin/env python3
"""Golden corpus of ``meanlab`` CLI calls: argv -> exit code, stdout, stderr.

``tests/data/cli_golden.json`` pins the exact text the CLI prints for about
200 commands: every subcommand, every catalogue mean, harmonic and
geometric clusters on both sides with and without their limit, ``bounds``
bisections that cut narrow clusters near their limit, coordinates of 200
to 4,000 digits, past the float range and within 10^-30 of each other,
property audits that
reach every pinned instance and every limit-type trial, ``--set2``,
parse errors (with their line and column in multi-line text and around
tabs, CRLF, NBSP and non-ASCII characters), engine errors and argparse
usage errors. The commands run in
order in one process, as ``tests/test_cli_golden.py`` replays them, so the
corpus also covers a parser reused across calls.

Run from the repository root:

    PYTHONPATH=src python3 scripts/cli_golden.py --check   # diff against the corpus
    PYTHONPATH=src python3 scripts/cli_golden.py --write   # recapture it

``--write`` overwrites the corpus with what the current code prints for
``CASES``. Recapture only when a change to the CLI's output is intended,
and review the diff of the JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from fractions import Fraction as Q
from pathlib import Path

from meanlab.cli import main
from meanlab.setexpr import format_rational as _q

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "data" / "cli_golden.json"

# argparse wraps usage text to the terminal width; pin it.
COLUMNS = "80"

MAX_N = ["--max-n", "1024"]

H_ABOVE = "seq(limit=0, rule=harmonic(1), from=1)"
H_ABOVE_L = "seq(limit=0, rule=harmonic(1), from=1, with_limit)"
H_BELOW = "seq(limit=2, rule=harmonic(1/2), from=2, side=below)"
H_BELOW_L = "seq(limit=2, rule=harmonic(1/2), from=2, side=below, with_limit)"
G_ABOVE = "seq(limit=1, rule=geometric(1/2,1/3), from=1)"
G_ABOVE_L = "seq(limit=1, rule=geometric(1/2,1/3), from=1, with_limit)"
G_BELOW = "seq(limit=1, rule=geometric(1/2,1/3), from=3, side=below)"
G_BELOW_L = "seq(limit=1, rule=geometric(1/2,1/3), from=3, side=below, with_limit)"
# (cluster, its limit)
CLUSTERS = ((H_ABOVE, 0), (H_ABOVE_L, 0), (H_BELOW, 2), (H_BELOW_L, 2),
            (G_ABOVE, 1), (G_ABOVE_L, 1), (G_BELOW, 1), (G_BELOW_L, 1))

INTERVALS = "[0,1] u [3,4]"
MIXED = "{-1} u [0,1/2) u (1,2]"


def _cases() -> list[list[str]]:
    cases: list[list[str]] = []

    # every catalogue mean, text and JSON
    for mean, extra, s in (
            ("amean", [], "{0,1,5}"),
            ("avg1", [], INTERVALS),
            ("m_acc", [], H_ABOVE_L),
            ("iso:4", [], f"{{5}} u {H_ABOVE}"),
            ("iso", ["--n", "3"], f"{{3,4}} u {G_BELOW}"),
            ("eds:3", [], MIXED),
            ("eds", ["--n", "5"], INTERVALS),
            ("avg_fat:1/4", [], "{0,1,5}"),
            ("avg_fat", ["--delta", "1/2"], MIXED),
            ("lavg", ["--tol", "1/100", *MAX_N], "{0} u [2,3]"),
            ("m_iso", ["--tol", "1/100", *MAX_N], "{0,1,5}"),
            ("m_eds", ["--tol", "1/10", *MAX_N], "{0,1,5}"),
            ("m_mu", ["--density", "0,1,2;1,3,1"], "[0,1] u [2,3]"),
            ("avg_f", ["--f", "square"], INTERVALS),
            ("avg_f", ["--f", "exp(2)"], "[0,1]"),
            ("avg1", ["--f", "affine(2,1)"], INTERVALS),
            ("amean", ["--f", "pow(3)"], "{1,2,3}"),
    ):
        for fmt in ([], ["--json"]):
            cases.append(["eval", "--mean", mean, *extra, "--set", s, *fmt])

    # clusters on both sides, with and without their limit: whole, with
    # the tail near the limit cut away, and with the head cut away
    for c, lim in CLUSTERS:
        head = f"{c} \\ ({_q(lim - Q(1, 10))},{_q(lim + Q(1, 10))})"
        tail = (f"{{5}} u {c} \\ [{lim - 2},{_q(lim - Q(1, 20))}] "
                f"\\ [{_q(lim + Q(1, 20))},{lim + 2}]")
        cases += [
            ["eval", "--mean", "m_acc", "--set", c],
            ["eval", "--json", "--mean", "eds:4", "--set", f"[-1,0] u {c}"],
            ["eval", "--mean", "amean", "--set", head],
            ["accpoints", "--mean", "m_acc", "--set", f"{head} u {{5}}"],
            ["eval", "--mean", "eds:5", "--set", tail],
            ["bounds", "--mean", "avg1", "--set", f"[3,4] u {c} u {{5}}"],
        ]

    # two sets and their union
    cases += [
        ["eval", "--mean", "avg1", "--set", "[0,1]", "--set2", "[2,3]"],
        ["eval", "--json", "--mean", "amean", "--set", "{0,1}",
         "--set2", "{5}"],
        ["eval", "--mean", "m_acc", "--set", H_ABOVE, "--set2", G_ABOVE_L],
        ["eval", "--mean", "m_acc", "--set", H_BELOW_L, "--set2",
         "{3} u seq(limit=5, rule=geometric(1/2,1/3), from=1, with_limit)"],
        ["eval", "--mean", "avg1", "--set", "[0,1]"],
    ]

    # limit, derive, accpoints, bounds
    cases += [
        ["limit", "--mean", "lavg", "--tol", "1/100", *MAX_N,
         "--set", "{0} u [2,3]"],
        ["limit", "--json", "--mean", "m_iso", "--tol", "1/100", *MAX_N,
         "--set", f"{{1,2}} u {H_ABOVE}"],
        ["limit", "--mean", "m_eds", "--tol", "1/10", *MAX_N,
         "--set", "{0,1,5}"],
        ["derive", "--mean", "avg1", "--set", "[0,1]", "--at", "0"],
        ["derive", "--json", "--mean", "avg1", "--set", "[0,1] u [7,8]",
         "--side", "sup_append"],
        ["derive", "--mean", "amean", "--set", "{0,1,5}",
         "--side", "inf_append"],
        ["accpoints", "--json", "--mean", "avg1", "--set", "[0,1) u {5}"],
        ["accpoints", "--mean", "m_acc", "--set", f"{{7}} u {H_BELOW_L}"],
        ["bounds", "--json", "--mean", "avg1", "--set", "{0} u [2,3] u {9}"],
        ["bounds", "--mean", "eds:3", *MAX_N, "--set", "[0,1] u {4}"],
        ["bounds", "--mean", "m_acc", "--set", f"{{3}} u {G_ABOVE_L}"],
        ["bounds", "--json", "--mean", "m_acc", "--set", f"{{3}} u {G_BELOW}"],
        # the base mean's fast paths do not answer for a conjugate
        ["limit", "--mean", "lavg", "--f", "square", "--set", "{0,1}"],
        ["derive", "--mean", "avg1", "--f", "square", "--set", "[1,2]",
         "--side", "sup_append"],
        ["accpoints", "--mean", "amean", "--f", "square", "--set", "{1,2,3}"],
        ["derive", "--mean", "avg1", "--f", "square", "--set", "[0,1]",
         "--at", "0"],
        ["derive", "--json", "--mean", "avg1", "--f", "square", "--set",
         "[0,1]", "--at", "0"],
        # decreasing transforms: certified enclosures pulled back through
        # exp and log below base 1
        ["eval", "--mean", "avg1", "--f", "log(1/2)", "--set", "[1,2]"],
        ["eval", "--json", "--mean", "avg1", "--f", "log(1/2)", "--set",
         "[1,2]"],
        ["eval", "--mean", "amean", "--f", "exp(1/2)", "--set", "{0,1,5}"],
        ["eval", "--json", "--mean", "amean", "--f", "exp(1/2)", "--set",
         "{0,1,5}"],
        # the log integral, and compositions: their integrals and inverses
        ["eval", "--mean", "avg_f", "--f", "log(2)", "--set", "[1,2]"],
        ["eval", "--mean", "avg1", "--f", "compose(square,affine(1,3))",
         "--set", "[0,1]"],
        ["eval", "--mean", "avg_f", "--f", "compose(square,affine(1,3))",
         "--set", "[0,1]"],
        ["eval", "--mean", "avg_f", "--f", "compose(affine(2,1),square)",
         "--set", "[0,1]"],
        ["eval", "--mean", "amean", "--f", "compose(exp(2),affine(1,3))",
         "--set", "{0,1}"],
        # integrals of compositions with a certified (enclosed) part
        ["eval", "--mean", "avg_f", "--f", "compose(affine(2,1),exp(2))",
         "--set", "[1,2]"],
        ["eval", "--mean", "avg_f", "--f", "compose(exp(2),affine(1,3))",
         "--set", "[1,2]"],
    ]

    # bisection bounds on narrow clusters plus one far point: each cut near
    # the limit turns the cluster's head into explicit points (c of 2^-40
    # to 2^-37 keeps that to at most a few hundred terms per cut)
    def harm(c_exp: int, below: bool = False, with_limit: bool = False) -> str:
        lim = 2 if below else 0
        side = ", side=below" if below else ""
        wl = ", with_limit" if with_limit else ""
        return (f"seq(limit={lim}, rule=harmonic(1/{2 ** c_exp}), "
                f"from=1{side}{wl})")

    bounds_n = ["--max-n", "4096"]
    cases += [["bounds", *fmt, "--mean", mean, *bounds_n, "--set", s]
              for fmt, mean, s in (
                  ([], "eds:3", f"{harm(40)} u {{3/2}}"),
                  (["--json"], "eds:3", f"{{1/2}} u {harm(37, True, True)}"),
                  ([], "eds:3", f"{harm(38, True)} u {{5/2}}"),
                  ([], "iso:4", f"{harm(39)} u {{3/2}}"),
                  (["--json"], "iso:4", f"{{-1}} u {harm(37, False, True)}"),
                  ([], "avg_fat:1/4", f"{harm(38)} u {{3/2}}"),
                  (["--json"], "avg_fat:1/4", f"{{1/2}} u {harm(39, True)}"),
                  ([], "m_acc", f"{{-1}} u {harm(37, False, True)}"),
                  (["--json"], "m_acc", f"{harm(40, True)} u {{5/2}}"),
                  ([], "m_acc", f"{harm(39, True, True)} u {{1/2}}"),
                  ([], "amean", f"{harm(40)} u {{3/2}}"),
                  ([], "eds:3",
                   "seq(limit=0, rule=geometric(1/2,1/2), from=1) u {3}"),
                  (["--json"], "avg_fat:1/4",
                   "{0} u seq(limit=1, rule=geometric(1/4,1/3), from=1, "
                   "side=below, with_limit)"),
              )]
    # the benchmark's bounds shape, in JSON, for each mean it times: one
    # harmonic cluster and one point past it; c = 2^-36 makes a cut near
    # the limit materialize a few hundred head terms
    cases += [["bounds", "--json", "--mean", mean, *bounds_n, "--set", s]
              for s in (f"{harm(40)} u {{1/2}}",
                        f"{harm(36, False, True)} u {{3/2}}")
              for mean in ("eds:3", "avg_fat:1/4", "m_acc", "iso:4", "amean")]

    # large and near-tied coordinates, digits written out: 200-digit ends
    # that differ past the 53rd bit, points past 10^400 (beyond the float
    # range), intervals within 10^-30 of 1, and a 4,000-digit point set
    big = 10 ** 199 + 1234567
    huge = 10 ** 400 + 3
    e = 10 ** 30
    d4 = 10 ** 3999 + 7
    n4 = 3 * d4 - 11
    cases += [
        ["eval", "--mean", "avg1", "--set",
         f"[{big},{big + 3}] u [{2 * big + 5}/2,{big + 7}] u "
         f"{{{big + 9},-{big}}}"],
        ["eval", "--mean", "amean", "--set",
         f"{{{huge},{huge + 1},-{huge},{2 * huge}}}"],
        ["eval", "--mean", "avg1", "--set",
         f"[{e - 1}/{e},{e + 1}/{e}] \\ ({2 * e - 1}/{2 * e},1] & "
         f"[{e - 1}/{e},{3 * e + 1}/{3 * e}] u {{{e + 1}/{e}}}"],
        ["eval", "--mean", "eds:3", "--set",
         f"[{e - 1}/{e},{e + 1}/{e}] \\ [{e - 1}/{e},1) \\ "
         f"(1,{e + 1}/{e}) & {{1,{e + 1}/{e},{e - 1}/{e}}}"],
        ["eval", "--mean", "amean", "--set",
         "{" + ",".join(f"{n4 + i}/{d4}" for i in (0, 1, -1, 2)) + "}"],
    ]

    # property audits, two trials each
    cases += [
        ["props", "--mean", "m_acc", "--suite", "equi-monotone",
         "--trials", "2", "--seed", "7"],
        ["props", "--json", "--mean", "avg1", "--suite",
         "internal,convex", "--trials", "2", "--seed", "3"],
        ["report", "--mean", "amean", "--suite",
         "internal,monotone,closed", "--trials", "2", "--seed", "1"],
        ["report", "--csv", "--mean", "avg1", "--suite",
         "translation_invariant,homogeneous", "--trials", "2"],
    ]
    # every pinned instance, and a trial that leaves the representable class
    cases += [
        ["props", "--mean", "eds:3", "--suite",
         "strict-internal,slice-continuous,closed,finite-independent,"
         "reflection-invariant", "--trials", "2"],
        ["props", "--mean", "avg_fat:1", "--suite",
         "strict-internal,finite-independent", "--trials", "2"],
        ["props", "--mean", "iso:4", "--suite", "monotone", "--trials", "2"],
        ["props", "--mean", "avg_fat:1/100", "--suite", "cantor-continuous",
         "--trials", "1", "--max-n", "4096", "--tol", "1e-3"],
    ]
    cases += [["props", "--mean", mean, *extra, "--suite",
               "hausdorff-continuous", "--trials", "1", "--max-n", "256"]
              for mean, extra in (("avg1", []), ("lavg", ["--tol", "1/100"]),
                                  ("avg_fat:1/4", []),
                                  ("m_eds", ["--tol", "1/10"]))]
    cases += [
        ["props", "--mean", "amean", "--suite", "u-bounded-overlap",
         "--trials", "2"],
        ["props", "--mean", "m_mu", "--density", "0,2,1;2,3,5", "--suite",
         "translation-invariant,homogeneous", "--trials", "1"],
        ["props", "--mean", "m_mu", "--density", "0,1,2;1,3,1", "--suite",
         "homogeneous", "--trials", "1"],
        ["props", "--mean", "eds:3", "--suite", "u-bounded-overlap",
         "--trials", "20"],
        ["props", "--mean", "avg1", "--f", "exp(2)", "--suite",
         "equi-monotone"],
        ["props", "--mean", "avg1", "--f", "affine(2,1)", "--suite",
         "equi-monotone", "--trials", "20"],
        ["props", "--mean", "amean", "--f", "affine(-1,0)", "--suite",
         "equi-monotone", "--trials", "20"],
    ]
    # the limit-type audits and the checkers that no pinned instance reaches
    cases += [["props", *fmt, "--mean", mean, "--suite", suite,
               "--trials", "3", *seed, *MAX_N]
              for fmt, mean, suite, seed in (
                  (["--json"], "amean", "point-continuous", []),
                  (["--json"], "eds:3", "u-cantor-continuous",
                   ["--seed", "1"]),
                  (["--json"], "m_acc", "cantor-continuous-compact", []),
                  ([], "iso:4", "accumulated", []),
                  ([], "m_acc", "u-bounded-infinite", []),
                  ([], "eds:3", "disjoint-monotone", ["--seed", "4"]),
                  ([], "eds:3", "convex", ["--seed", "5"]),
                  ([], "amean", "strong-internal,strict-strong-internal,"
                   "union-monotone,mean-monotone,self-accumulated", []),
              )]
    # image judges on values that are not Fractions: a certified Approx,
    # a RootValue and a stabilised limit Approx
    cases += [["props", "--mean", mean, *extra, "--suite", suite,
               "--trials", "3", *MAX_N]
              for mean, extra, suite in (
                  ("avg1", ["--f", "exp(2)"],
                   "reflection-invariant,homogeneous"),
                  ("avg1", ["--f", "square"],
                   "translation-invariant,homogeneous"),
                  ("lavg", ["--tol", "1/100"],
                   "translation-invariant,reflection-invariant,homogeneous,"
                   "closed,accumulated"),
              )]

    # parse errors (exit 2), engine errors (exit 1)
    cases += [
        ["eval", "--mean", "avg1", "--set", "[0,1"],
        ["eval", "--json", "--mean", "avg1", "--set", "{1,}"],
        ["eval", "--mean", "avg1", "--set", "seq(limit=0, rule=cubic(1), from=1)"],
        ["eval", "--mean", "avg1", "--set", "{0}"],
        ["eval", "--mean", "wibble", "--set", "{0}"],
        ["eval", "--mean", "iso", "--set", "{0}"],
        ["eval", "--mean", "avg1", "--f", "nosuch", "--set", "[0,1]"],
        ["eval", "--mean", "m_mu", "--density", "0,1", "--set", "[0,1]"],
        ["eval", "--mean", "amean", "--set", "[0,1]"],
        ["limit", "--mean", "amean", "--set", "{0,1}"],
        ["limit", "--mean", "m_eds", "--tol", "1/1000000000", *MAX_N,
         "--set", "{0} u [2,3]"],
        ["limit", "--mean", "lavg", "--max-n", "8", "--set", "[0,1]"],
        ["derive", "--mean", "avg1", "--set", "[0,1]"],
        ["props", "--mean", "avg1", "--suite", "bogus-prop"],
        ["eval", "--mean", "avg1", "--set",
         "seq(limit=0, rule=harmonic(1), from=1) u "
         "seq(limit=1/8, rule=harmonic(1), from=1)"],
    ]

    # where a parse error is reported: lines start only at "\n", every
    # code point is one column, and any Unicode whitespace separates
    # tokens (tab, CR, NBSP, U+2028)
    cases += [["eval", "--json", "--mean", "avg1", "--set", s] for s in (
        "[0,1] u\n[2,3] u\nwibble(1)",
        "{0,1}\n  u [2,3\n",
        "   \n\t ",
        "[0,1]\tu\t(2,3]\t&\t{1,}",
        "[0,1] u\r\n[2,3] u\r\n{1,,2}",
        "[0,1]\u00a0u\u00a0{2}\u00a0\\\u00a0wibble",
        "[0,1]\u2028u {2} # {3}",
        "{1²}",
        "{x٣} u {٣}",
        "[0,½]",
        "[0,1] u 😀 u {2}",
        "{é}",
        "[1/0, 2]",
        "{3/00}",
        "[1-2, 3]",
        "{1/-2}",
        "{--1}",
        "[0,1] [2,3]",
        "{1} u {2}}",
        "wibble([0,1], 2)",
        "translate([0,1], 1/2",
        "seq(limit=0, rule=harmonic(1), from=1, side=above)",
        "seq(limit=0, rule=harmonic(1), from=1, bogus)",
        "seq(limit=0, rule=geometric(1), from=1)",
        "seq(limit=0, rule=harmonic(1), from=1/2)",
        "",
    )]
    # whitespace of every kind between tokens, and an answer
    cases += [
        ["eval", "--mean", "avg1", "--set",
         "[0,\t1]\r\n u\u00a0[3,\u20284]\n"],
    ]

    # argparse usage errors (SystemExit 2), then a valid call
    cases += [
        ["eval", "--set", "{0}"],
        ["bogus"],
        [],
        ["eval", "--mean", "avg1", "--set", "[0,1]", "--n", "x"],
        ["derive", "--mean", "avg1", "--set", "[0,1]", "--side", "up"],
        ["eval", "--mean", "avg1", "--set", "[0,1]", "--json"],
    ]

    # paths no earlier call reaches: an empty answer, the occupancy hint
    # and its absence, the exact lavg limit when the schedule is too short
    # to settle, an enclosed value pulled back through square, two clusters
    # that both hold one limit, a root divided by an affine slope, a
    # composition whose inner part leaves its domain, the identity, an
    # exponential enclosure that needs more precision, and every property
    cases += [
        ["accpoints", "--mean", "avg1", "--set", "{0,1}"],
        ["derive", "--json", "--mean", "avg1", "--set", "[0,1]", "--at", "0"],
        ["derive", "--mean", "avg1", "--max-n", "64", "--set", "[0,1]",
         "--at", "129/128"],
        ["limit", "--mean", "lavg", "--max-n", "64", "--set", "[0,1] u {5}"],
        ["eval", "--mean", "m_iso", "--f", "square", "--tol", "1/100", *MAX_N,
         "--set", "{1,2} u seq(limit=3, rule=harmonic(1), from=1)"],
        ["eval", "--mean", "m_acc", "--set",
         f"{H_ABOVE_L} u seq(limit=0, rule=harmonic(1), from=1, side=below, "
         "with_limit)"],
        ["eval", "--mean", "amean", "--f", "compose(pow(3),affine(2,0))",
         "--set", "{1,2}"],
        ["eval", "--mean", "avg_f", "--f", "compose(affine(2,1),square)",
         "--set", "[-1,0]"],
        ["eval", "--mean", "avg1", "--f", "identity", "--set", "[0,1]"],
        ["eval", "--mean", "amean", "--f", "exp(2)", "--set", "{200}"],
        ["report", "--csv", "--mean", "amean", "--trials", "1",
         "--max-n", "256"],
    ]
    # an embedded parameter that is not a number
    cases += [["eval", "--mean", mean, "--set", "{0,1}"]
              for mean in ("iso:abc", "eds:1.5", "avg_fat:1/0")]
    # a limit that does not settle says so in the same words in eval and
    # limit; stage values and error radii past the float range print as
    # decimal text
    far = "0" * 400
    cases += [
        ["eval", "--mean", "m_eds", "--tol", "1/1000000000", *MAX_N,
         "--set", "{0} u [2,3]"],
        ["limit", "--mean", "m_eds", "--tol", "1/1000000000", *MAX_N,
         "--set", f"{{0}} u [2{far},3{far}]"],
        ["eval", "--mean", "m_eds", "--tol", "1e400", *MAX_N,
         "--set", "{0,1,5}"],
        ["limit", "--mean", "m_eds", "--tol", "1e400", *MAX_N,
         "--set", "{0,1,5}"],
    ]
    # root values of radicands past 6,000 bits: enclosed (twice, for the
    # JSON's midpoint and radius) and refused as too long to print
    z = "0" * 2000
    cases += [
        ["eval", "--mean", "avg_f", "--f", "square", "--set", f"[0,1{z}]",
         "--json"],
        ["eval", "--mean", "avg_f", "--f", "pow(3)", "--set", f"[-1{z},1]"],
    ]
    # an affine conjugate keeps each cluster's rule, so the families that
    # refuse a mapped rule evaluate it; a flag given empty is refused by
    # its own parser, not taken as absent
    cases += [
        ["eval", "--mean", mean, "--f", "affine(2,1)", "--set",
         f"{{2}} u {H_ABOVE}"] for mean in ("eds:3", "avg_fat:1/4")]
    cases += [
        ["eval", "--mean", "avg1", "--max-n", "0", "--set", "[0,1]"],
        ["eval", "--mean", "avg1", "--f", "", "--set", "[0,1]"],
    ]
    # a fractional exponent is refused, not truncated to pow(3)
    cases.append(["eval", "--mean", "avg1", "--f", "pow(7/2)", "--set",
                  "[0,1]"])
    # every id reads back as --mean: tags as written, conjugates as ^f
    cases += [
        ["eval", "--json", "--mean", mean, "--set", s] for mean, s in (
            ("avg1^exp(2)", "[0,1]"),
            ("m_mu:0,1,2;1,3,1", "[0,3]"),
            ("avg_f:square", "[0,1]"),
            ("iso:4^affine(2,1)", f"{{5}} u {H_ABOVE}"),
            ("avg_fat:1e-3", "{0,1,5}"))]
    # an argument the mean does not take, or takes twice, is refused
    cases += [
        ["eval", "--mean", "avg1", "--n", "3", "--delta", "5", "--set",
         "[0,1]"],
        ["eval", "--mean", "iso:4", "--n", "7", "--set", H_ABOVE],
    ]
    # a stage below 1 is refused when the mean is built, before an audit
    # pins inputs from 1/(2n)
    cases += [
        ["props", "--mean", "iso:0", "--suite", "monotone", "--trials", "5"],
        ["eval", "--mean", "iso", "--n", "0", "--set", f"{{5}} u {H_ABOVE}"],
    ]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> dict:
    """Run ``meanlab.cli.main(argv)`` and capture what it returns and prints.

    A usage error surfaces as ``SystemExit``; its code is recorded with
    ``system_exit`` set. Any other exception propagates.
    """
    out, err = io.StringIO(), io.StringIO()
    old_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    system_exit = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code, system_exit = exc.code, True
    finally:
        if old_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old_columns
    return {"argv": list(argv), "exit": code, "system_exit": system_exit,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def check() -> int:
    corpus = load_corpus()
    bad = 0
    for want in corpus:
        got = run_case(want["argv"])
        if got != want:
            bad += 1
            print(f"MISMATCH {want['argv']!r}")
            for key in ("exit", "system_exit", "stdout", "stderr"):
                if got[key] != want[key]:
                    print(f"  {key}: want {want[key]!r}\n  {key}:  got {got[key]!r}")
    if [c["argv"] for c in corpus] != CASES:
        print("the corpus's commands differ from CASES; run --write")
        bad += 1
    print(f"{len(corpus)} cases match" if not bad else f"{bad} mismatches")
    return 1 if bad else 0


def write() -> int:
    corpus = [run_case(argv) for argv in CASES]
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="replay the corpus and report every difference")
    mode.add_argument("--write", action="store_true",
                      help="recapture the corpus from the current code")
    sys.exit(check() if ap.parse_args().check else write())
