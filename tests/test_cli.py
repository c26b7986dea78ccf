"""Command-line interface: golden outputs, JSON shapes, exit codes."""

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import meanlab
from conftest import random_mixed_set
from meanlab.cli import main
from meanlab.exactset import Interval, from_points, harmonic_cluster, realset


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_payload(err_text):
    return json.loads(err_text)["error"]


# --------------------------------------------------------------------- eval


def test_eval_plain_value(capsys):
    code, out, err = run_cli(capsys, ["eval", "--mean", "avg1", "--set",
                                      "[0,1] u [3,4]"])
    assert code == 0
    assert out == "2 (exact 2/1)\n"
    assert err == ""


def test_eval_json_shape(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--mean", "avg1", "--set",
                                    "[0,1] u [3,4]", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "eval", "mean": "avg1",
        "values": {"H": {"num": 2, "den": 1,
                         "decimal": "2.000000000000"}}}


def test_eval_two_sets_reports_parts_and_union(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--mean", "avg1", "--f", "square",
                                    "--set", "[0,1] u [2,3]",
                                    "--set2", "(1,2)"])
    assert code == 0
    assert out == ("H1: 2.345207879912 (exact 11/2^(1/2))\n"
                   "H2: 1.581138830084 (exact 5/2^(1/2))\n"
                   "H1 u H2: 2.12132034356 (exact 9/2^(1/2))\n")


def test_eval_renders_root_values(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--mean", "avg1", "--f", "square",
                                    "--set", "[0,1]"])
    assert code == 0
    assert out == "0.707106781187 (exact 1/2^(1/2))\n"


def test_eval_density_flag(capsys):
    code, out, _ = run_cli(capsys, ["eval", "--mean", "m_mu", "--density",
                                    "0,1,2;1,3,1", "--set", "[0,1]"])
    assert code == 0
    assert out == "0.5 (exact 1/2)\n"


def test_eval_radicand_beyond_the_float_range(capsys):
    lo, hi = 10 ** 200, 10 ** 201 + 1
    code, out, err = run_cli(capsys, ["eval", "--json", "--mean", "avg_f",
                                      "--f", "square", "--set",
                                      f"[{lo}, {hi}]"])
    assert code == 0 and err == ""
    root = json.loads(out)["values"]["H"]["root"]
    assert root["degree"] == 2
    assert Q(root["radicand"]["num"], root["radicand"]["den"]) == \
        Q(lo * lo + lo * hi + hi * hi, 3)


def test_eval_reads_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["eval", "--mean", "amean", "--set", "-"],
                           stdin="{0,1,5}\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out == "2 (exact 2/1)\n"


# -------------------------------------------------------------------- limit


def test_limit_reports_estimate_and_trace(capsys):
    code, out, _ = run_cli(capsys, ["limit", "--mean", "lavg", "--set",
                                    "{0} u [2,3]", "--tol", "1e-9"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "estimate 2.5 ± 1e-09"
    assert lines[1] == "n,value"
    assert len(lines) == 19  # doubling schedule 16 .. 2^20
    assert lines[2] == "16,2.250000000000"
    assert lines[-1].startswith("1048576,2.4999")


def test_limit_json_shape(capsys):
    code, out, _ = run_cli(capsys, ["limit", "--mean", "lavg", "--set",
                                    "{0} u [2,3]", "--tol", "1e-9", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "limit"
    assert payload["estimate"] == {"num": 5, "den": 2}
    assert payload["error"] == {"num": 1, "den": 1000000000}
    assert len(payload["trace"]) == 17
    assert payload["trace"][0] == {"n": 16, "value": {"num": 9, "den": 4}}


def test_limit_rejects_non_limit_means(capsys):
    code, _, err = run_cli(capsys, ["limit", "--mean", "amean", "--set",
                                    "{0,1}"])
    assert code == 1
    assert error_payload(err)["code"] == "bad_parameters"


def test_limit_rejects_a_conjugated_limit_mean(capsys):
    # the stage sampler belongs to the base mean, whose limit on {0,1} is
    # 1/2; the square conjugate's is sqrt(1/2)
    code, out, err = run_cli(capsys, ["limit", "--mean", "lavg", "--f",
                                      "square", "--set", "{0,1}"])
    assert code == 1 and out == ""
    assert error_payload(err)["code"] == "bad_parameters"


def test_limit_reports_non_convergence(capsys):
    code, _, err = run_cli(capsys, ["limit", "--mean", "m_eds", "--set",
                                    "{0} u [2,3]"])
    assert code == 1
    payload = error_payload(err)
    assert payload["code"] == "no_convergence"
    assert payload["steps"] == 17
    assert len(payload["trace"]) == 17
    assert payload["trace"][0][0] == 16


@pytest.mark.parametrize("max_n", ("0", "8", "16", "32"))
def test_a_schedule_shorter_than_three_samples_is_refused(capsys, max_n):
    for command in ("eval", "limit"):
        code, out, err = run_cli(capsys, [command, "--mean", "lavg",
                                          "--max-n", max_n, "--set", "{0,1}"])
        assert code == 1 and out == ""
        assert error_payload(err) == {
            "code": "bad_parameters",
            "message": "--max-n must be at least 64"}


@pytest.mark.parametrize("spec", ("pow(7/2)", "pow(3.9)", "pow(3/2)",
                                  "pow(2)", "pow(0)", "pow(-3)"))
def test_a_power_needs_an_odd_integer_exponent(capsys, spec):
    # no exponent is truncated to an integer, and pow(2) is not square
    code, out, err = run_cli(capsys, ["eval", "--mean", "avg1", "--f", spec,
                                      "--set", "[0,1]"])
    assert code == 1 and out == ""
    assert error_payload(err) == {
        "code": "bad_parameters",
        "message": "power kind needs an odd positive exponent"}


def test_an_empty_flag_value_reaches_its_parser(capsys):
    # an empty value is given, not absent: it is refused, never defaulted
    for flag, mean, message in (
            ("--f", "avg1", "unknown transform function: ''"),
            ("--tol", "m_eds", "not a rational: ''"),
            ("--delta", "avg_fat", "not a rational: ''"),
            ("--density", "m_mu",
             "density pieces are 'lo,hi,weight' separated by ';'")):
        code, out, err = run_cli(capsys, ["eval", "--mean", mean, flag, "",
                                          "--set", "[0,1]"])
        assert code == 1 and out == ""
        assert error_payload(err) == {"code": "bad_parameters",
                                      "message": message}


@pytest.mark.parametrize("name,family", (
    ("lavg", meanlab.avg_fat_sequence), ("m_iso", meanlab.iso_sequence),
    ("m_eds", meanlab.eds_sequence)))
def test_a_limit_mean_is_the_pointwise_limit_of_its_sequence(capsys, name,
                                                             family):
    k = meanlab.resolve_mean(name)
    assert isinstance(k.param, meanlab.MeanSequence)
    assert k.param.id == family().id
    # eval and limit sample the same stages, so they settle alike
    argv = ["--json", "--mean", name, "--tol", "1/10", "--max-n", "1024",
            "--set", "{0,1,5}"]
    assert not k.param.applies(from_points(Q(0), Q(1), Q(5)))
    code, out, _ = run_cli(capsys, ["eval", *argv])
    assert code == 0
    evaluated = json.loads(out)["values"]["H"]
    code, out, _ = run_cli(capsys, ["limit", *argv])
    assert code == 0
    traced = json.loads(out)
    assert evaluated["estimate"] == traced["estimate"]
    assert evaluated["error"] == traced["error"]
    # the domain is the first stage's, on seeded sets of every shape
    first = k.param.at(meanlab.DEFAULT_SCHEDULE.indices[0])
    rng = random.Random(14)
    for _ in range(12):
        h = random_mixed_set(rng)
        assert k.in_domain(h) == first.in_domain(h), h


def test_lavg_is_exact_on_interval_mass_in_eval_and_limit(capsys):
    tail = ["--tol", "1/1000000000", "--max-n", "1024", "--set",
            "{0} u [2,3]"]
    code, out, _ = run_cli(capsys, ["eval", "--mean", "lavg", *tail])
    assert code == 0 and out == "2.5 (exact 5/2)\n"
    # the samples do not settle on this short schedule; the closed form
    # still gives the estimate
    code, out, _ = run_cli(capsys, ["limit", "--json", "--mean", "lavg",
                                    *tail])
    assert code == 0
    assert json.loads(out)["estimate"] == {"num": 5, "den": 2}
    # interval mass is in lavg's domain even where no stage is defined
    nested = harmonic_cluster(1, children=[(1, 2, harmonic_cluster(0))])
    h = realset(intervals=[Interval(Q(5), Q(6), True, True)],
                clusters=[nested])
    lavg = meanlab.lavg_ref()
    assert not lavg.param.at(16).in_domain(h)
    assert lavg.in_domain(h) and lavg.evaluate(h) == Q(11, 2)


def test_eval_and_limit_report_one_non_convergence(capsys):
    messages = []
    for command in ("eval", "limit"):
        code, _, err = run_cli(capsys, [
            command, "--mean", "m_eds", "--tol", "1/1000000000",
            "--max-n", "1024", "--set", "{0} u [2,3]"])
        assert code == 1
        payload = error_payload(err)
        assert payload["code"] == "no_convergence"
        messages.append(payload["message"])
    assert messages == ["m_eds limit did not stabilize within the schedule"] * 2


def test_values_past_the_float_range_print_as_decimal_text(capsys):
    far = "0" * 400
    for command in ("eval", "limit"):
        code, out, err = run_cli(capsys, [
            command, "--mean", "m_eds", "--tol", "1/1000000000",
            "--max-n", "1024", "--set", f"{{0}} u [2{far},3{far}]"])
        assert code == 1 and out == ""
        trace = error_payload(err)["trace"]
        assert trace[0] == [16, "21328125" + "0" * 393 + ".000000000000"]
    # an error radius past the float range: 2 * 10^400
    radius = "2" + "0" * 400 + ".000000000000"
    for command, prefix in (("eval", ""), ("limit", "estimate ")):
        code, out, _ = run_cli(capsys, [
            command, "--mean", "m_eds", "--tol", "1e400", "--max-n", "1024",
            "--set", "{0,1,5}"])
        assert code == 0
        assert out.splitlines()[0] == f"{prefix}2.005208333333 ± {radius}"


# ------------------------------------------------------------------- derive


def test_derive_at_a_point(capsys):
    code, out, _ = run_cli(capsys, ["derive", "--mean", "avg1", "--set",
                                    "[0,1]", "--at", "0"])
    assert code == 0
    assert out == ("derivative 0.5 (exact 1/2); spread 0.5 (exact 1/2); "
                   "occupancy hint 1/2\n")


def test_derive_side_probe(capsys):
    code, out, _ = run_cli(capsys, ["derive", "--mean", "avg1", "--set",
                                    "[0,1] u [7,8]", "--side", "sup_append"])
    assert code == 0
    assert out == "probe 2 (exact 2/1) (exact)\n"


def test_derive_side_probe_of_a_conjugate_is_generic(capsys):
    # avg1^square on [1,2] is sqrt(5/2); appending at 2 moves it at rate
    # 1/sqrt(5/2), not at avg1's exact 1/2
    code, out, _ = run_cli(capsys, ["derive", "--json", "--mean", "avg1",
                                    "--f", "square", "--set", "[1,2]",
                                    "--side", "sup_append"])
    assert code == 0
    payload = json.loads(out)
    assert "exact" not in payload
    estimate = payload["value"]["estimate"]
    assert abs(estimate["num"] / estimate["den"] - 2.5 ** -0.5) < 1e-6


def test_derive_at_a_point_gives_no_occupancy_hint_for_a_conjugate(capsys):
    # avg1^square of [0,δ) is sqrt(δ²/2): the quotient is sqrt(1/2) at
    # every δ, and avg1's occupancy hint 1/2 does not describe it
    code, out, _ = run_cli(capsys, ["derive", "--json", "--mean", "avg1",
                                    "--f", "square", "--set", "[0,1]",
                                    "--at", "0"])
    assert code == 0
    payload = json.loads(out)
    assert "occupancy_hint" not in payload
    estimate = payload["value"]["estimate"]
    assert abs(estimate["num"] / estimate["den"] - 0.5 ** 0.5) < 1e-6


def test_derive_needs_exactly_one_mode(capsys):
    for extra in ([], ["--at", "0", "--side", "sup_append"]):
        code, _, err = run_cli(capsys, ["derive", "--mean", "avg1",
                                        "--set", "[0,1]", *extra])
        assert code == 1
        assert error_payload(err)["code"] == "bad_parameters"


# -------------------------------------------------------- accpoints, bounds


def test_accpoints_prints_an_expression(capsys):
    code, out, _ = run_cli(capsys, ["accpoints", "--mean", "avg1", "--set",
                                    "[0,1) u {5}"])
    assert code == 0
    assert out == "[0,1]\n"


def test_accpoints_refuses_conjugates_of_amean_and_m_acc(capsys):
    # removing 2 from {1,2,3} keeps amean at 2 but moves amean^square
    # from sqrt(14/3) to sqrt(5)
    for mean, f in (("amean", "square"), ("m_acc", "affine(2,1)")):
        code, out, err = run_cli(capsys, ["accpoints", "--mean", mean, "--f",
                                          f, "--set", "{1,2,3}"])
        assert code == 1 and out == ""
        assert error_payload(err)["code"] == "unsupported_mean"
    # a monotone transform maps the support onto the support
    code, out, _ = run_cli(capsys, ["accpoints", "--mean", "avg1", "--f",
                                    "square", "--set", "[1,2] u {5}"])
    assert code == 0
    assert out == "[1,2]\n"


def test_accpoints_prints_a_long_chain(capsys):
    pts = ",".join(str(2 * i) for i in range(1100))
    code, out, err = run_cli(capsys, ["accpoints", "--json", "--mean", "avg1",
                                      "--set", f"fatten({{{pts}}}, 1/2)"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["set"].startswith("[-1/2,1/2] u [3/2,5/2] u ")
    assert payload["set"].count(" u ") == 1099


def test_bounds_prints_both_ends(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--mean", "avg1", "--set",
                                    "{0} u [2,3] u {9}"])
    assert code == 0
    assert out == "liminf 2 (exact 2/1)\nlimsup 3 (exact 3/1)\n"


# ------------------------------------------------------------ props, report


def test_props_prints_the_counterexample_story(capsys):
    code, out, _ = run_cli(capsys, ["props", "--mean", "macc", "--suite",
                                    "equi-monotone", "--trials", "100",
                                    "--seed", "7"])
    assert code == 0
    assert out == (
        "equi_monotone on m_acc: counterexample (trials=1, seed=7)\n"
        "  note: union keeps the mean but the parts disagree\n"
        "  K(H1) = 0 (exact 0/1)\n"
        "  K(H2) = 2 (exact 2/1)\n"
        "  K(H1uH2) = 0 (exact 0/1)\n"
        "  set 1: seq(limit=0, rule=harmonic(1), from=1)\n"
        "  set 2: {2}\n"
        "  set 3: {2} u seq(limit=0, rule=harmonic(1), from=1)\n")


def test_props_json_is_deterministic(capsys):
    argv = ["props", "--mean", "macc", "--suite", "equi-monotone",
            "--trials", "100", "--seed", "7", "--json"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    report = json.loads(first)["reports"][0]
    assert report["verdict"] == "counterexample"
    assert report["witness"]["sets"] == [
        "seq(limit=0, rule=harmonic(1), from=1)",
        "{2}",
        "{2} u seq(limit=0, rule=harmonic(1), from=1)"]


def test_report_emits_csv(capsys):
    code, out, _ = run_cli(capsys, ["report", "--mean", "avg1", "--suite",
                                    "internal,monotone,closed,accumulated",
                                    "--trials", "8", "--seed", "1", "--csv"])
    assert code == 0
    assert out == ("property,mean,verdict,trials,seed,reconstructed\n"
                   "internal,avg1,holds_on_sample,8,1,false\n"
                   "monotone,avg1,holds_on_sample,8,1,false\n"
                   "closed,avg1,holds_on_sample,8,1,false\n"
                   "accumulated,avg1,holds_on_sample,8,1,true\n")


def test_report_rejects_unknown_property(capsys):
    code, _, err = run_cli(capsys, ["props", "--mean", "avg1", "--suite",
                                    "bogus-prop"])
    assert code == 1
    assert error_payload(err)["code"] == "bad_parameters"


# -------------------------------------------------------------- error paths


def test_parse_errors_exit_two_with_location(capsys):
    code, _, err = run_cli(capsys, ["eval", "--mean", "avg1", "--set",
                                    "[0,1"])
    assert code == 2
    payload = error_payload(err)
    assert payload["code"] == "parse_error"
    assert payload["line"] == 1
    assert payload["column"] == 5


def test_non_ascii_digits_are_a_parse_error(capsys):
    code, out, err = run_cli(capsys, ["eval", "--json", "--mean", "avg1",
                                      "--set", "{1²}"])
    assert code == 2 and out == ""
    payload = error_payload(err)
    assert payload["code"] == "parse_error"
    assert payload["column"] == 3


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="no int-string digit limit")
def test_integer_literals_past_the_digit_limit_are_a_parse_error(capsys):
    long = "1" * (_INT_DIGITS + 700)
    for text, pos in (("{" + long + "}", 1), ("{1/" + long + "}", 3)):
        code, out, err = run_cli(capsys, ["eval", "--json", "--mean",
                                          "amean", "--set", text])
        assert code == 2 and out == ""
        payload = error_payload(err)
        assert payload["code"] == "parse_error"
        assert (payload["position"], payload["column"]) == (pos, pos + 1)
        assert f"longer than {_INT_DIGITS} digits" in payload["message"]
    fits = "1" * (_INT_DIGITS - 300)
    code, out, _ = run_cli(capsys, ["eval", "--json", "--mean", "amean",
                                    "--set", "{" + fits + "}"])
    assert code == 0
    assert json.loads(out)["values"]["H"]["num"] == int(fits)


@pytest.mark.skipif(not _INT_DIGITS, reason="no int-string digit limit")
def test_answers_past_the_digit_limit_are_a_typed_error(capsys):
    # every literal fits, but the answer's denominator, near a*b, does not
    a = 10 ** (_INT_DIGITS - 301) + 1
    pair = f"{{1/{a}, 1/{a + 2}}}"
    wide = f"scale(scale([0,1], {a}), {a})"  # [0, a^2]
    for argv in (["eval", "--mean", "amean", "--set", pair],
                 ["eval", "--json", "--mean", "amean", "--set", pair],
                 ["eval", "--mean", "amean", "--set", "{1,2}",
                  "--set2", pair],
                 ["eval", "--json", "--mean", "avg1", "--set", wide],
                 ["accpoints", "--mean", "avg1", "--set", wide]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, ""), argv
        payload = error_payload(err)
        assert payload["code"] == "unrepresentable_result"
        assert f"more than {_INT_DIGITS} digits" in payload["message"]
    assert sys.get_int_max_str_digits() == _INT_DIGITS  # read, never set
    # an answer of exactly the limit's length still prints
    code, out, _ = run_cli(capsys, ["eval", "--mean", "amean", "--set",
                                    f"{{{10 ** _INT_DIGITS - 1}}}"])
    assert code == 0 and out.endswith(f"/1)\n")


def test_deep_nesting_answers_or_is_a_typed_error(capsys):
    for depth, unit, answers in ((329, "translate(", True),
                                 (328, "translate({0} u ", True),
                                 (2000, "translate(", False),
                                 (2000, "translate({0} u ", False)):
        text = unit * depth + "{1}" + ", 1)" * depth
        code, out, err = run_cli(capsys, ["eval", "--json", "--mean",
                                          "amean", "--set", text])
        if answers:
            assert code == 0 and json.loads(out)["values"]["H"]
        else:
            assert (code, out) == (1, "")
            assert error_payload(err)["code"] == "unsupported_depth"


def test_engine_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, ["eval", "--mean", "avg1", "--set", "{0}"])
    assert code == 1
    assert error_payload(err)["code"] == "null_set"
    code, _, err = run_cli(capsys, ["eval", "--mean", "wibble", "--set",
                                    "{0}"])
    assert code == 1
    assert error_payload(err)["code"] == "bad_parameters"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--set", "{0}"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------- one parser, many calls


def test_reused_parser_carries_nothing_between_calls(capsys):
    plain = ["eval", "--mean", "avg1", "--set", "[0,1]"]
    code, out, _ = run_cli(capsys, [*plain, "--set2", "[2,3]"])
    assert code == 0 and out.startswith("H1: ")
    assert run_cli(capsys, plain) == (0, "0.5 (exact 1/2)\n", "")

    code, out, _ = run_cli(capsys, ["eval", "--mean", "avg1", "--f",
                                    "exp(2)", "--set", "[0,1]"])
    assert code == 0 and "±" in out
    assert run_cli(capsys, plain) == (0, "0.5 (exact 1/2)\n", "")

    code, out, _ = run_cli(capsys, ["eval", "--mean", "m_mu", "--density",
                                    "0,1,2;1,3,1", "--set", "[0,1]"])
    assert (code, out) == (0, "0.5 (exact 1/2)\n")
    code, _, err = run_cli(capsys, ["eval", "--mean", "m_mu", "--set",
                                    "[0,1]"])
    assert code == 1 and error_payload(err)["code"] == "bad_parameters"


def test_call_after_a_usage_error_prints_as_in_a_fresh_process(capsys):
    argv = ["eval", "--json", "--mean", "avg1", "--set", "[0,1] u [3,4]"]
    env = dict(os.environ,
               PYTHONPATH=str(Path(meanlab.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "meanlab.cli", *argv],
                           capture_output=True, text=True, env=env,
                           timeout=60)
    assert fresh.returncode == 0
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--set", "{0}"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, argv) == (0, fresh.stdout, fresh.stderr)
