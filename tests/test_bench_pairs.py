"""The alternating-pairs summary of ``scripts/bench_pairs.py``."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"throughput_rps": "higher", "latency_p50_ms": "lower",
          "setup_s": "lower"}


def run(rps, p50, correct=True, failed=0, probes=()):
    return {"correct": correct, "failed": failed, "probes": list(probes),
            "metrics": {"throughput_rps": {"value": rps, "unit": "1/s"},
                        "latency_p50_ms": {"value": p50, "unit": "ms"}}}


def test_quartiles_are_inclusive_and_take_one_run():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert bench_pairs.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_a_clear_gain_holds_in_either_direction():
    pairs = [{"parent": run(50 + i, 10 + i), "change": run(90 + i, 2 + i)}
             for i in range(10)]
    s = bench_pairs.summarize(pairs, BETTER)
    assert set(s["metrics"]) == {"throughput_rps", "latency_p50_ms"}
    rps = s["metrics"]["throughput_rps"]
    assert (rps["wins"], rps["losses"]) == (10, 0) and rps["gain_holds"]
    assert rps["parent"]["median"] == 54.5 and rps["change"]["median"] == 94.5
    assert rps["median_ratio"] == 94.5 / 54.5
    p50 = s["metrics"]["latency_p50_ms"]
    assert (p50["wins"], p50["losses"]) == (10, 0) and p50["gain_holds"]
    assert s["bad_runs"] == [] and s["probe_diffs"] == []


def test_ties_count_for_neither_side_and_spread_can_veto_a_gain():
    # eight wins of ten pairs: too few
    pairs = [{"parent": run(50, 10), "change": run(60 if i < 8 else 50, 10)}
             for i in range(10)]
    rps = bench_pairs.summarize(pairs, BETTER)["metrics"]["throughput_rps"]
    assert (rps["wins"], rps["losses"]) == (8, 0) and not rps["gain_holds"]
    # every pair won, but by less than the parent's quartile distance
    par = [40, 45, 50, 55, 60, 40, 45, 50, 55, 60]
    pairs = [{"parent": run(a, 10), "change": run(a + 1, 10)} for a in par]
    rps = bench_pairs.summarize(pairs, BETTER)["metrics"]["throughput_rps"]
    assert rps["wins"] == 10 and not rps["gain_holds"]


def test_failed_runs_and_changed_probes_are_reported():
    pairs = [{"parent": run(50, 10, probes=[["p", "a", "a"]]),
              "change": run(60, 9, failed=2, probes=[["p", "a", "b"]])},
             {"parent": run(50, 10, correct=False), "change": run(60, 9)}]
    s = bench_pairs.summarize(pairs, BETTER)
    assert s["bad_runs"] == [(0, "change"), (1, "parent")]
    assert s["probe_diffs"] == [0]


def test_module_lines_counts_each_module_and_the_total(tmp_path):
    pkg = tmp_path / "src" / "meanlab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline
    (pkg / "notes.txt").write_text("not a module\n")
    assert bench_pairs.module_lines(str(tmp_path)) == {
        "a.py": 3, "b.py": 1, "total": 4}
