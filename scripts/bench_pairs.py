#!/usr/bin/env python3
"""Alternating-pairs comparison of a parent commit and the working tree.

Each pair runs ``bench/run.py`` once on a copy of the parent commit (made
with ``git archive``) and once on the working tree, with the same workload
and seed, for the ``run_seconds`` of ``BENCHMARK.json``. Pair i uses seed
``seed0 + i``; the parent runs first in even pairs and second in odd ones.
For every end-to-end metric the script prints each side's median and
quartiles and how many pairs the change won (ties count for neither side),
and says whether a gain would hold: the change wins at least nine tenths of
the pairs and the medians differ by more than the distance between the
parent's quartiles. It also reports runs that were not ``correct`` or had
failures, and pairs whose known-failure probes printed differently on the
two sides.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload big_sets \\
        --pairs 10 --seed0 901 [--out 7]

``--out N`` also records the runs and the summary under the workload's
name in ``BENCH_N.json`` at the repository root, keeping the other
workloads already recorded there, with the line count of each module of
``src/meanlab`` on both sides. ``BENCHMARK.json`` also gives each
metric's better direction. The script refuses to run when ``bench/`` or
``BENCHMARK.json`` differ between the parent and the working tree, since
such a comparison would not measure the benchmark as declared.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of alternating pairs.

    ``pairs`` holds one ``{"parent": run, "change": run}`` per pair, where a
    run is the last JSON line ``bench/run.py`` prints, optionally with the
    ``probes`` of its result file. ``better`` maps each metric to "higher"
    or "lower". A metric absent from any run is left out.
    """
    metrics = {}
    for name, direction in better.items():
        if not all(name in p[side]["metrics"] for p in pairs
                   for side in ("parent", "change")):
            continue
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - a) > 0 for a, c in zip(par, chg))
        losses = sum(sign * (c - a) < 0 for a, c in zip(par, chg))
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        metrics[name] = {
            "better": direction,
            "parent": {"median": pmed, "q1": pq1, "q3": pq3, "runs": par},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": chg},
            "wins": wins, "losses": losses,
            "median_ratio": cmed / pmed if pmed else None,
            "gain_holds": (10 * wins >= 9 * len(pairs)
                           and sign * (cmed - pmed) > pq3 - pq1),
        }
    bad_runs = [(i, side) for i, p in enumerate(pairs)
                for side in ("parent", "change")
                if not p[side]["correct"] or p[side]["failed"]]
    probe_diffs = [i for i, p in enumerate(pairs)
                   if p["parent"].get("probes") != p["change"].get("probes")]
    return {"pairs": len(pairs), "metrics": metrics, "bad_runs": bad_runs,
            "probe_diffs": probe_diffs}


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"bench/run.py printed nothing in {tree}")
    run = json.loads(proc.stdout.splitlines()[-1])
    result = os.path.join(tree, ".bench_out",
                          f"result-{workload}-{seed}-trace0.json")
    with open(result) as f:
        run["probes"] = json.load(f)["probes"]
    return run


def module_lines(tree: str) -> dict[str, int]:
    """Line count of each module of ``src/meanlab`` in tree, and the total."""
    pkg = os.path.join(tree, "src", "meanlab")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                out[name] = sum(1 for _ in f)
    out["total"] = sum(out.values())
    return out


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def _spread(side: dict) -> str:
    return f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"


def print_summary(summary: dict) -> None:
    n = summary["pairs"]
    print(f"{'metric':<16} {'parent median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'wins':<7} gain")
    for name, m in summary["metrics"].items():
        print(f"{name:<16} {_spread(m['parent']):<28} "
              f"{_spread(m['change']):<28} {m['wins']:>3}/{n:<3} "
              f"{'holds' if m['gain_holds'] else 'no'} ({m['better']} is better)")
    print(f"runs not correct or with failures: {summary['bad_runs'] or 'none'}")
    print(f"pairs whose known-failure probes differ: "
          f"{summary['probe_diffs'] or 'none'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--out", type=int, metavar="N",
                    help="also record the runs in BENCH_N.json at the "
                    "repository root")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    parent = git("rev-parse", args.parent).decode().strip()
    if git("diff", "--stat", parent, "--", "bench", "BENCHMARK.json"):
        print("bench/ or BENCHMARK.json differs from the parent; "
              "refusing to compare", file=sys.stderr)
        return 2

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", parent))) as tar:
            tar.extractall(tmp)
        lines = {"parent": module_lines(tmp), "change": module_lines(ROOT)}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(tmp if side == "parent" else ROOT,
                                      args.workload, seed, seconds)
            rps = [pair[s]["metrics"]["throughput_rps"]["value"]
                   for s in ("parent", "change")]
            print(f"pair {i + 1}/{args.pairs} seed {seed}: throughput "
                  f"{rps[0]:.4g} -> {rps[1]:.4g} 1/s", flush=True)
            pairs.append(pair)

    summary = summarize(pairs, better)
    print_summary(summary)
    print(f"src/meanlab lines: {lines['parent']['total']} -> "
          f"{lines['change']['total']}")
    if args.out is not None:
        record = {"parent": parent,
                  "change": git("rev-parse", "HEAD").decode().strip(),
                  "change_dirty": bool(git("status", "--porcelain", "--",
                                           "src", "bench")),
                  "seconds": seconds, "seed0": args.seed0,
                  "python": platform.python_version(),
                  "machine": f"{platform.machine()} {os.cpu_count()} cpus",
                  "src_lines": lines, "pairs": pairs, "summary": summary}
        path = os.path.join(ROOT, f"BENCH_{args.out}.json")
        recorded = {}
        if os.path.exists(path):
            with open(path) as f:
                recorded = json.load(f)
        recorded[args.workload] = record
        with open(path, "w") as f:
            json.dump(recorded, f, indent=1)
            f.write("\n")
        print(f"recorded {args.workload} in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
