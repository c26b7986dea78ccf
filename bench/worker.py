"""One benchmark process: a set-up probe, or one closed-loop workload run.

    python3 bench/worker.py --setup
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The set-up probe imports meanlab from ``src/``, builds the mean catalogue,
prints ``ready`` and exits. A workload run does the same set-up, then
issues one request at a time, each only after the previous one returned,
in whole rounds until the requests have taken ``--seconds`` seconds in
total. Each answer is judged as soon as it returns, outside the timed
request, and the run ends with one JSON line.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import gen  # noqa: E402
import reference  # noqa: E402

# A run stops in the middle of a round only past this many times
# --seconds of wall time, so that it always ends well inside its budget.
WALL_CAP = 3
# A request still running after this many seconds is abandoned and counts
# as failed. No request of the timed workloads comes near it (the slowest
# take well under a second); it only bounds a run if the program hangs.
DEADLINE_S = 5.0
# The deadline of the known-failure probes, one of which is a bisection
# that runs for many seconds.
PROBE_DEADLINE_S = 1.0


# Times are reported at a nominal machine speed. On a shared 2-core x86_64
# VM the speed of the same Python code drifted by a fifth from one minute
# to the next and by more between requests, so the worker times a fixed
# piece of the benchmark's own Fraction code (the reference avg1 of a
# 200-piece set) after every CAL_EVERY_S seconds of requests, and scales
# each request's time by CAL_NOMINAL_S over the mean of the kernel times
# just before and after it. For a fixed mix of requests, that cut the
# spread (quartile distance over median) of single request times from 0.23
# to 0.10; a pure-int loop in place of the kernel tracked the drift about
# half as well. The program cannot touch the kernel, so a faster or slower
# program still moves every scaled time.
CAL_NOMINAL_S = 0.003
CAL_EVERY_S = 0.025
_cal_pieces: list = []


def calibration_s() -> float:
    """Seconds the fixed calibration kernel takes right now."""
    if not _cal_pieces:
        _cal_pieces.extend(reference.pieces_of(gen.slot_operand(
            gen.random.Random(0), Q(0), 400, 200, 0.3)))
    t0 = time.perf_counter()
    reference.avg1(_cal_pieces)
    return time.perf_counter() - t0


class Deadline(BaseException):
    """Raised inside a request that runs past its deadline. It derives from
    BaseException so that no handler in the program can swallow it."""


def _past_deadline(signum, frame):
    raise Deadline


def setup():
    """Import meanlab from this checkout's ``src`` and build the catalogue."""
    sys.path.insert(0, SRC)
    import meanlab
    if not os.path.abspath(meanlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"meanlab imported from {meanlab.__file__}, "
                         f"not from {SRC}")
    return meanlab


def catalogue(meanlab) -> dict:
    """One MeanRef per catalogue family, on the audit's schedule."""
    from meanlab.funcs import SQUARE, parse_func
    from meanlab.limits import LimitSchedule
    from meanlab.measure import DensityMeasure

    sched = LimitSchedule(indices=tuple(2 ** j for j in range(
        4, gen.AUDIT_MAX_N.bit_length())))
    resolve = meanlab.resolve_mean
    cat = {name: resolve(name, schedule=sched) for name in (
        "amean", "avg1", "m_acc", "iso:4", "eds:3", "avg_fat:1/4", "lavg",
        "m_iso", "m_eds")}
    cat["m_mu"] = resolve("m_mu", density=DensityMeasure.from_parts(
        [(Q(-64), Q(0), Q(1)), (Q(0), Q(64), Q(2))]), schedule=sched)
    cat["avg_f_square"] = resolve("avg_f", func=SQUARE, schedule=sched)
    cat["exp_conjugate"] = resolve("avg1", func=parse_func("exp(2)"),
                                   schedule=sched)
    cat["_schedule"] = sched
    return cat


# --------------------------------------------------------------------------
# requests


class Client:
    """Issues requests against the program, each under a deadline, and
    records each outcome."""

    def __init__(self, meanlab, cat, deadline_s: float = DEADLINE_S):
        from meanlab import axioms, cli, exactset
        from meanlab.errors import MeanlabError

        signal.signal(signal.SIGALRM, _past_deadline)
        self.ml, self.cat, self.deadline_s = meanlab, cat, deadline_s
        self.cli, self.axioms, self.exactset = cli, axioms, exactset
        self.error_type = MeanlabError
        self.gen_cfg = axioms.GeneratorConfig(schedule=cat["_schedule"])

    def _realset(self, comps):
        es = self.exactset
        ivs = [es.Interval(c[1], c[2], c[3], c[4]) for c in comps
               if c[0] == "iv"]
        pts = [p for c in comps if c[0] == "pts" for p in c[1]]
        return es.realset(intervals=ivs, points=pts)

    def _lib(self, op, a, b, param, mean):
        es = self.exactset
        ha = self._realset(a)
        if op in ("union", "diff", "intersect"):
            fn = {"union": es.set_union, "diff": es.set_diff,
                  "intersect": es.set_intersect}[op]
            h = fn(ha, self._realset(b))
        elif op in ("closure", "derived"):
            h = getattr(es, op)(ha)
        elif op == "fatten":
            from meanlab import measure
            h = measure.fatten(ha, param)
        else:
            h = getattr(es, op)(ha, param)
        return self.ml.resolve_mean(mean).evaluate(h)

    def run(self, req):
        """(seconds, code, raw output) for one request."""
        kind = req[0]
        out, err = io.StringIO(), io.StringIO()
        raw = None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        try:
            try:
                if kind == "cli":
                    with redirect_stdout(out), redirect_stderr(err):
                        rc = self.cli.main(req[1])
                    code = "ok" if rc == 0 else None
                elif kind == "lib":
                    raw = self._lib(*req[1:6])
                    code = "ok"
                else:
                    _, pid, mean, seed, trials = req
                    raw = self.axioms.check(pid, self.cat[mean], self.gen_cfg,
                                            trials=trials, seed=seed)
                    code = "ok"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            code = "deadline"
        except self.error_type as exc:
            code = exc.code
        except SystemExit:
            code = "usage_error"
        except Exception as exc:  # counted as a failed request
            code = type(exc).__name__
        dt = time.perf_counter() - t0
        if kind == "cli":
            if code is None:
                code = json.loads(err.getvalue())["error"]["code"]
            raw = out.getvalue() if code == "ok" else None
        return dt, code, raw

    def payload(self, req, code, raw):
        """The answer of a cli or lib request in the CLI's JSON form."""
        if code != "ok":
            return None
        if req[0] == "cli":
            return json.loads(raw)
        return {"command": "eval", "values": {"H": self.cli.value_json(raw)}}


# --------------------------------------------------------------------------
# expected answers from the README and the acceptance criteria


def check_expected(client) -> list[str]:
    path = os.path.join(HERE, "expected.json")
    with open(path) as f:
        cases = json.load(f)
    wrong = []
    for case in cases:
        if "argv" in case:
            _, code, raw = client.run(("cli", case["argv"], None))
            got = json.loads(raw) if code == "ok" else {"code": code}
            for path_, want in case["expect"].items():
                val = got
                for key in path_.split("."):
                    val = val.get(key) if isinstance(val, dict) else None
                if isinstance(val, dict) and "num" in val:
                    val = f"{val['num']}/{val['den']}"
                if val != want:
                    wrong.append(f"{case['argv']}: {path_} = {val}, "
                                 f"want {want}")
        else:
            pid, mean, trials, seed = case["check"]
            ref = client.ml.resolve_mean(mean)
            rep = client.axioms.check(pid, ref, trials=trials, seed=seed)
            values = [[lb, str(Q(client.ml.values.value_mid(v)))]
                      for lb, v in (rep.witness.values if rep.witness else ())]
            if rep.verdict != case["verdict"] or values != case["values"]:
                wrong.append(f"{case['check']}: {rep.verdict} {values}")
    return wrong


# --------------------------------------------------------------------------
# the closed loop


def judge(client, req, code: str, raw, wrong: list) -> tuple[str, bool]:
    """(outcome code, failed?) for one request; wrong answers and malformed
    requests are appended to ``wrong``."""
    kind = reference.classify(code)
    if kind == "bug":
        wrong.append(f"generator bug {code}: {req[:2]}")
    elif req[0] == "check":
        if code == "ok" and raw.verdict not in (
                "holds_on_sample", "counterexample", "not_applicable"):
            wrong.append(f"unknown verdict {raw.verdict}")
    else:
        found = reference.judge(req[-1], code, client.payload(req, code, raw))
        if found and found[0] == "limit_missed":
            return found[0], True
        if found:
            wrong.append(f"{found[1]}: {str(req[1])[:200]}")
    return code, kind == "failed"


def run_workload(workload: str, seed: int, seconds: float,
                 tracer=None) -> dict:
    meanlab = setup()
    wrong = check_expected(Client(meanlab, catalogue(meanlab)))
    if tracer is not None:
        tracer.install()
    client = Client(meanlab, catalogue(meanlab))

    codes: dict[str, int] = {}
    latencies = []  # (wall seconds, failed?, index of the last calibration)
    busy = since_cal = 0.0
    cal = [calibration_s()]
    wall0 = time.perf_counter()
    for batch in gen.stream(workload, seed, meanlab.PROPERTY_IDS):
        for req in batch:
            if tracer is not None:
                tracer.request = len(latencies)
            dt, code, raw = client.run(req)
            busy += dt
            since_cal += dt
            if since_cal >= CAL_EVERY_S:
                cal.append(calibration_s())
                since_cal = 0.0
            # judged at once, outside the timed request, so that no answer
            # is kept and memory reflects the program alone
            code, failed = judge(client, req, code, raw, wrong)
            codes[code] = codes.get(code, 0) + 1
            latencies.append((dt, failed, len(cal) - 1))
            if time.perf_counter() - wall0 > WALL_CAP * seconds:
                break
        if busy >= seconds or time.perf_counter() - wall0 > WALL_CAP * seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # probes stay out of the traced run, whose spans are the workload's
    client.deadline_s = PROBE_DEADLINE_S
    probes = run_probes(client, workload, wrong) if tracer is None else []
    cal.append(calibration_s())
    scaled = [dt * 2 * CAL_NOMINAL_S / (cal[i] + cal[i + 1])
              for dt, _, i in latencies]
    return {"busy_s": sum(scaled), "wall_busy_s": busy,
            "latencies_ms": [math.inf if failed else x * 1000
                             for x, (_, failed, _) in zip(scaled, latencies)],
            "codes": codes, "probes": probes, "wrong": wrong[:20],
            "wrong_count": len(wrong), "peak_rss_mb": peak_rss_mb,
            "speed_scale": CAL_NOMINAL_S / statistics.mean(cal)}


def run_probes(client, workload: str, wrong: list) -> list:
    """[name, expected code, code] for each known-failure probe of the
    workload, run once after the timed loop. An answer a probe gets is
    judged like any other; its outcome counts in no request total."""
    out = []
    for name, req, expected in gen.known_failure_probes(workload):
        _, code, raw = client.run(req)
        if req[0] == "check" or req[-1] is not None:
            code, _ = judge(client, req, code, raw, wrong)
        out.append([name, expected, code])
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="file to write the trace spans to")
    args = ap.parse_args()
    if args.setup:
        catalogue(setup())
        print("ready", flush=True)
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    result = run_workload(args.workload, args.seed, args.seconds, tracer)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_count()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
