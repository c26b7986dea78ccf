"""meanlab benchmark: four closed-loop workloads, end to end and per layer.

    python3 bench/run.py --workload eval_mix --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``eval_mix``  ``meanlab eval``/``limit`` on small sets, every catalogue family
* ``big_sets``  set algebra on operands of 50-1,500 components
* ``audit``     ``check`` of all 27 properties on one mean per family
* ``bounds``    ``meanlab bounds`` (mean-liminf/limsup by bisection)

Each workload runs in its own process with one client: a request is issued
only after the previous one returned. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs the workload untraced and
then traced, and prints the per-layer metrics and the tracing overhead.
End-to-end times are scaled to a nominal machine speed measured in the
same process (see ``worker.calibration_s``); per-layer times are wall
clock. Every answer is checked against an independent reference where one
exists; a wrong answer, or a request the program rejects as malformed,
makes the run exit 1. The timed workloads are built so that no request
fails; the inputs the program is known to fail on are replayed once after
the timed loop (``gen.known_failure_probes``) and reported apart from the
request counts. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and full results are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("eval_mix", "big_sets", "audit", "bounds")
# set-up is measured in this many fresh processes; the median is reported
SETUP_PROBES = 11
WORKER_TIMEOUT = 160

END_TO_END_UNITS = {"setup_s": "s", "throughput_rps": "1/s",
                    "latency_p50_ms": "ms", "latency_p95_ms": "ms",
                    "peak_rss_mb": "MB"}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; failed requests enter as +inf."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def summarize(result: dict) -> dict:
    """End-to-end metrics of one worker result (all but setup_s); its
    times are already scaled to the nominal machine speed."""
    lat = result["latencies_ms"]
    failed = sum(1 for x in lat if math.isinf(x))
    return {
        "throughput_rps": (len(lat) - failed) / result["busy_s"],
        "latency_p50_ms": percentile(lat, 50),
        "latency_p95_ms": percentile(lat, 95),
        "fail_share": failed / len(lat),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def probe_setup() -> float:
    """Seconds from process start until meanlab is imported and the mean
    catalogue is built, in a fresh interpreter."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, "--setup"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.wait(timeout=WORKER_TIMEOUT)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return t1 - t0


def run_worker(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, WORKER, "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        argv += ["--spans", os.path.join(OUT, f"spans-{workload}-{seed}.csv")]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    total += sum(1 for _ in f)
    return total


def outcome_lines(codes: dict) -> list[str]:
    from reference import classify
    return [f"  {code:<30} {n:>6}  {classify(code)}"
            for code, n in sorted(codes.items(), key=lambda kv: -kv[1])]


def probe_lines(probes: list) -> list[str]:
    lines = []
    for name, expected, got in probes:
        state = "still fails" if got == expected else "changed"
        lines.append(f"  {name:<26} {got:<30} {state} (was {expected})")
    return lines or ["  none"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "meanlab", "__init__.py")):
        sys.stderr.write("no meanlab sources under src/: nothing to measure\n")
        return 2
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(),
              "machine": f"{platform.machine()} {os.cpu_count()} cpus",
              "src_lines": src_lines()}
    print(f"workload {args.workload}  seed {args.seed}  python "
          f"{record['python']}  machine {record['machine']}  "
          f"src lines {record['src_lines']}")

    plain = run_worker(args.workload, args.seed, args.seconds, trace=False)
    e2e = summarize(plain)
    runs = [plain]
    if args.trace:
        traced = run_worker(args.workload, args.seed, args.seconds, trace=True)
        runs.append(traced)
        overhead = summarize(traced)["throughput_rps"] / e2e["throughput_rps"]
        metrics = dict(traced["layers"], **{"trace.overhead": overhead})
        from tracing import METRICS
        units = {name: unit for name, (unit, _) in METRICS.items()}
        report = traced
    else:
        from worker import CAL_NOMINAL_S, calibration_s
        # each probe is scaled by the kernel timed just before and after it
        cal = [statistics.mean(calibration_s() for _ in range(5))]
        setups = []
        for _ in range(SETUP_PROBES):
            t = probe_setup()
            cal.append(statistics.mean(calibration_s() for _ in range(5)))
            setups.append(t * 2 * CAL_NOMINAL_S / (cal[-2] + cal[-1]))
        metrics = {"setup_s": statistics.median(setups)}
        metrics.update({k: v for k, v in e2e.items() if k in END_TO_END_UNITS})
        units = END_TO_END_UNITS
        report = plain

    wrong = [w for r in runs for w in r["wrong"]]
    wrong_count = sum(r["wrong_count"] for r in runs)
    attempted = len(report["latencies_ms"])
    failed = sum(1 for x in report["latencies_ms"] if math.isinf(x))
    print(f"requests {attempted} attempted, {attempted - failed} answered, "
          f"{failed} failed (fail_share {failed / attempted:.4f})")
    print(f"end-to-end times are scaled to the nominal machine speed, "
          f"on average by {report['speed_scale']:.4f} (wall-clock throughput "
          f"{(attempted - failed) / report['wall_busy_s']:.6g} 1/s)")
    print("outcomes by code:")
    for line in outcome_lines(report["codes"]):
        print(line)
    print("known failures, replayed once after the timed loop and counted "
          "in no total:")
    for line in probe_lines(plain["probes"]):
        print(line)
    if args.trace:
        print(f"per-layer metrics ({traced['spans']} spans):")
    else:
        print("end-to-end metrics:")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_share':<34} {e2e['fail_share']:>14.6g} ratio "
              "(not gated: the workloads are built to have no failures)")
    for w in wrong:
        print(f"WRONG: {w}")
    if wrong_count:
        print(f"{wrong_count} wrong answers")

    record.update(metrics=metrics, fail_share=e2e["fail_share"],
                  codes=report["codes"], probes=plain["probes"], wrong=wrong)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": wrong_count == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if wrong_count == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
