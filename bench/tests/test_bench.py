"""Tests of the benchmark's own code: generators, references, accounting.

    python3 -m pytest -q bench/tests
"""

import json
import math
import os
import sys
from fractions import Fraction as Q

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from meanlab import PROPERTY_IDS, errors, resolve_mean  # noqa: E402
from meanlab.cli import _make_parser  # noqa: E402
from meanlab.setexpr import evaluate, parse  # noqa: E402

WORKLOADS = run.WORKLOADS


def first_rounds(workload, seed, count=2):
    it = gen.stream(workload, seed, PROPERTY_IDS)
    return [req for _ in range(count) for req in next(it)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_generator_emits_only_well_formed_requests(workload, seed):
    parser = _make_parser()
    cat = worker.catalogue(worker.setup())
    for req in first_rounds(workload, seed, count=3):
        if req[0] == "cli":
            args = parser.parse_args(req[1])
            parse(args.set)  # raises ParseError on malformed text
            if args.density:
                from meanlab.cli import _parse_density
                _parse_density(args.density)
            if args.f:
                from meanlab.funcs import parse_func
                parse_func(args.f)
            if args.mean not in ("m_mu", "avg_f"):
                resolve_mean(args.mean)
        elif req[0] == "lib":
            op, a, b, param, mean = req[1:6]
            assert op in gen.LIB_OPS
            assert a and (b is None or b)
            resolve_mean(mean)
        else:
            _, pid, mean, _, trials = req
            assert pid in PROPERTY_IDS and mean in cat and trials >= 1


def test_audit_rounds_leave_out_the_known_failing_checks():
    for _, pid, mean, seed, _ in first_rounds("audit", 3, count=3):
        assert (pid, mean) not in gen.AUDIT_SKIPPED
        assert 0 <= seed < gen.AUDIT_SEEDS
        assert seed not in gen.AUDIT_FAILING.get((pid, mean), ())


def test_known_failure_probes_are_well_formed():
    parser = _make_parser()
    for workload in WORKLOADS:
        for name, req, expected in gen.known_failure_probes(workload):
            if req[0] == "cli":
                parser.parse_args(req[1])
            else:
                assert req[1] in PROPERTY_IDS
            assert reference.classify(expected) == "failed", name


def test_small_set_text_matches_its_components():
    rng = gen.random.Random(3)
    for kind in gen.SMALL_KINDS:
        for _ in range(20):
            comps = gen.small_set(rng, kind)
            h = evaluate(parse(gen.set_text(comps)))
            assert h.bounds() == reference.hull(comps)
            points = sum(len(c[1]) for c in comps if c[0] == "pts")
            if all(c[0] in ("iv", "pts") for c in comps):
                assert len(h.points) == points


def test_classifier_maps_every_meanlab_error_code():
    codes = {cls.code for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.MeanlabError)}
    mapped = reference.VERDICTS | reference.FAILURES | reference.GENERATOR_BUGS
    assert codes <= mapped
    for code in codes:
        assert reference.classify(code) in ("verdict", "failed", "bug")
    assert reference.classify("RecursionError") == "failed"
    assert reference.classify("ok") == "ok"
    assert not (reference.VERDICTS & reference.FAILURES)


def test_failed_request_counts_as_infinite_latency():
    result = {"latencies_ms": [1.0] * 94 + [math.inf] * 6, "busy_s": 1.0,
              "peak_rss_mb": 1.0}
    m = run.summarize(result)
    assert m["latency_p95_ms"] == math.inf
    assert m["latency_p50_ms"] == 1.0
    assert m["fail_share"] == pytest.approx(0.06)
    assert m["throughput_rps"] == 94
    result["latencies_ms"] = [1.0] * 96 + [math.inf] * 4
    assert run.summarize(result)["latency_p95_ms"] == 1.0


def test_references_reproduce_the_readme_answers():
    h = reference.pieces_of([("pts", (Q(0),)), ("iv", Q(2), Q(3), True, True)])
    assert reference.avg1(h) == Q(5, 2)
    assert reference.eds(h, 3) == Q(5, 3)
    open_mid = reference.pieces_of([("pts", (Q(0), Q(3))),
                                    ("iv", Q(1), Q(2), False, False)])
    assert reference.eds(open_mid, 3) == Q(4, 3)
    assert reference.eds(reference.closure(open_mid), 3) == Q(3, 2)
    assert reference.eds([(Q(1), Q(1), True, True)], 4) == "degenerate_set"


def test_reference_set_algebra_agrees_with_the_library():
    ml = worker.setup()
    client = worker.Client(ml, worker.catalogue(ml))
    rng = gen.random.Random(5)
    for op in gen.LIB_OPS * 3:
        _, _, a, b, param, mean, check = gen.big_lib_request(
            rng, op, 60, 20 if op == "diff" else 60, 0.5, rng.randint(0, 1))
        result = reference.apply_op(
            op, reference.pieces_of(a),
            None if b is None else reference.pieces_of(b), param)
        want = reference.avg1(result) if mean == "avg1" \
            else reference.eds(result, check["n"])
        if isinstance(want, str):
            with pytest.raises(errors.MeanlabError) as exc:
                client._lib(op, a, b, param, mean)
            assert exc.value.code == want
        else:
            assert client._lib(op, a, b, param, mean) == want, op


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.METRICS


def test_request_past_its_deadline_counts_as_failed():
    ml = worker.setup()
    client = worker.Client(ml, worker.catalogue(ml), deadline_s=0.01)
    slow = gen.bounds_request("m_acc", gen.bounds_set(
        gen.random.Random(1), "harmonic", 2 ** 8))
    _, code, _ = client.run(slow)
    assert code == "deadline"
    assert reference.classify(code) == "failed"


def test_traced_worker_reports_every_layer_metric(tmp_path):
    import subprocess
    spans = tmp_path / "spans.csv"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload",
         "bounds", "--seed", "1", "--seconds", "0.1", "--trace", "1",
         "--spans", str(spans)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["layers"]) | {"trace.overhead"} == set(tracing.METRICS)
    assert result["layers"]["analysis.bounds.calls"] > 0
    assert result["wrong_count"] == 0
    with open(spans) as f:
        assert f.readline().strip() == "name,start,end,parent,request"
        assert sum(1 for _ in f) == result["spans"]
