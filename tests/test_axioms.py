"""Randomized property audits: deterministic verdicts, exact canonical
witnesses for the known failures, and sampled positives for the catalogue."""

import inspect
import itertools
import random
from fractions import Fraction as Q

import pytest

from meanlab import axioms
from meanlab.axioms import (
    PROPERTY_IDS,
    RECONSTRUCTED,
    GeneratorConfig,
    Witness,
    check,
    full_report,
    gen_dilution,
    gen_disjoint_pairs,
    gen_equal_mean_pairs,
    gen_sets,
)
from meanlab.errors import BadParameters, MeanlabError
from meanlab.exactset import from_points, set_diff, set_intersect, subset_of
from meanlab.funcs import parse_func
from meanlab.limits import LimitSchedule
from meanlab.means import MeanRef, amean, avg1, resolve_mean, transform_kf
from meanlab.measure import DensityMeasure
from meanlab.values import values_close


def density_mean():
    return resolve_mean("m_mu",
                        density=DensityMeasure.from_parts([(0, 1, 2),
                                                           (1, 3, 1)]))


def witness_values(report):
    assert report.witness is not None
    return dict(report.witness.values)


# ---------------------------------------------------------------- structure


def test_property_catalogue_shape():
    assert len(PROPERTY_IDS) == 27
    assert len(set(PROPERTY_IDS)) == 27
    for pid in ("internal", "strict_strong_internal", "cantor_continuous",
                "u_bounded_infinite", "self_accumulated", "homogeneous"):
        assert pid in PROPERTY_IDS
    assert RECONSTRUCTED == {"accumulated", "convex", "mean_monotone",
                             "point_continuous", "slice_continuous",
                             "union_monotone"}
    assert RECONSTRUCTED < set(PROPERTY_IDS)


def test_rejects_unknown_property_and_bad_trials():
    k = resolve_mean("avg1")
    with pytest.raises(BadParameters):
        check("totally_made_up", k)
    with pytest.raises(BadParameters):
        check("internal", k, trials=0)


def test_reports_are_deterministic():
    k = resolve_mean("amean")
    first = check("u_bounded_overlap", k, trials=5, seed=0)
    second = check("u_bounded_overlap", k, trials=5, seed=0)
    assert first == second
    assert first.property_id == "u_bounded_overlap"
    assert first.mean_id == "amean"
    assert first.seed == 0


def test_witness_replays_reverify():
    report = check("u_bounded_overlap", resolve_mean("amean"), trials=5,
                   seed=0)
    replays = report.witness.replays
    assert len(replays) == 4
    for thunk, expected in replays:
        assert values_close(thunk(), expected)


# ----------------------------------------------------- known failure cells


def test_avg_fat_escapes_the_accumulation_band():
    report = check("strict_internal", resolve_mean("avg_fat:1"), trials=5)
    assert report.verdict == "counterexample"
    assert report.trials == 1
    vals = witness_values(report)
    assert vals["K(H)"] == Q(3, 2)
    assert vals["liminf"] == Q(2)
    assert vals["limsup"] == Q(3)


def test_eds_fails_strict_internality():
    report = check("strict_internal", resolve_mean("eds:3"), trials=5)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(H)"] == Q(4, 9)
    assert vals["liminf"] == Q(0)
    assert vals["limsup"] == Q(0)


def test_eds_is_not_reflection_invariant():
    report = check("reflection_invariant", resolve_mean("eds:3"), trials=5)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(H)"] == Q(3, 2)
    assert vals["K(2s-H)"] == Q(5, 3)


def test_eds_moves_under_closure():
    report = check("closed", resolve_mean("eds:3"), trials=5)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(H)"] == Q(4, 3)
    assert vals["K(cl H)"] == Q(3, 2)


def test_eds_depends_on_finite_parts():
    report = check("finite_independent", resolve_mean("eds:3"), trials=5)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(H)"] == Q(3, 2)
    assert vals["K(H-F)"] == Q(17, 9)


def test_eds_slice_value_jumps():
    report = check("slice_continuous", resolve_mean("eds:3"), trials=5)
    assert report.verdict == "counterexample"
    assert report.reconstructed
    vals = witness_values(report)
    assert vals["K(slice at 3)"] == Q(3, 2)
    assert vals["K(nearby slice)"] == Q(8, 9)


def test_iso_is_not_monotone():
    report = check("monotone", resolve_mean("iso:4"), trials=5)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(H1)"] == Q(75, 8)
    assert vals["K(H2)"] == Q(57, 4)
    assert vals["K(H1uH2)"] == Q(29, 4)


def test_avg1_is_not_hausdorff_continuous():
    report = check("hausdorff_continuous", resolve_mean("avg1"), trials=5)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(limit)"] == Q(1)
    assert vals["K(deep member)"] == Q(3, 2)


def test_m_acc_is_not_equi_monotone():
    report = check("equi_monotone", resolve_mean("m_acc"), trials=5)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(H1)"] == Q(0)
    assert vals["K(H2)"] == Q(2)
    assert vals["K(H1uH2)"] == Q(0)


@pytest.mark.parametrize("base", ["avg1", "amean"])
@pytest.mark.parametrize("f", ["exp(2)", "square"])
def test_equi_monotone_audits_an_irrational_conjugate(base, f):
    # exp conjugates have Approx values and square conjugates RootValues,
    # so the plain means' straddling draws (which centre on a rational
    # value) must not be used for them
    k = transform_kf(resolve_mean(base), parse_func(f))
    for seed in range(3):
        report = check("equi_monotone", k, trials=5, seed=seed)
        assert report.verdict == "not_applicable"
        assert report.witness is None


@pytest.mark.parametrize("base", ["avg1", "amean"])
def test_equi_monotone_straddles_for_an_affine_conjugate(base):
    # an affine conjugate keeps rational values, so it draws like the
    # plain mean and meets the premise K(H1uH2) = K(H1) on every trial
    k = transform_kf(resolve_mean(base), parse_func("affine(2,1)"))
    report = check("equi_monotone", k, trials=5, seed=0)
    assert report.verdict == "holds_on_sample"
    assert report.trials == 5


def test_amean_overlap_bound_fails():
    report = check("u_bounded_overlap", resolve_mean("amean"), trials=5)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(H)"] == Q(0)
    assert vals["K(HuH1)"] == Q(0)
    assert vals["K(HuH2)"] == Q(1, 3)
    assert vals["K(H u all)"] == Q(1, 2)


def test_amean_depends_on_finite_parts():
    report = check("finite_independent", resolve_mean("amean"), trials=5)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(H)"] == Q(-1, 24)
    assert vals["K(HuF)"] == Q(91, 36)


def test_nested_chain_defeats_avg_fat():
    cfg = GeneratorConfig(schedule=LimitSchedule(
        indices=tuple(2 ** j for j in range(4, 17)), tolerance=1e-5))
    report = check("cantor_continuous", resolve_mean("avg_fat:1/100"),
                   gen=cfg, trials=3)
    assert report.verdict == "counterexample"
    vals = witness_values(report)
    assert vals["K(intersection)"] == Q(51, 50)
    assert abs(vals["K(deep chain member)"] - Q(51, 50)) > Q(1, 4)


def test_avg_fat_slice_jump_found_by_search():
    # Two-sided slice comparison: a slice boundary that crosses an isolated
    # point makes the value of the upper slice jump.
    report = check("slice_continuous", resolve_mean("avg_fat:1/4"), trials=5)
    assert report.verdict == "counterexample"
    assert report.reconstructed
    for thunk, expected in report.witness.replays:
        assert values_close(thunk(), expected)


def test_density_mean_is_not_translation_invariant():
    report = check("translation_invariant", density_mean(), trials=12, seed=1)
    assert report.verdict == "counterexample"


def sup_plus_one():
    """A planted exact "mean" K(H) = sup H + 1: it escapes every bracket
    drawn from H and moves when a set below it raises the supremum."""
    return MeanRef("sup_plus_one", lambda h: h.bounds()[1] + 1,
                   lambda h: not h.is_empty, exact=True)


@pytest.mark.parametrize("pid, note, labels", [
    ("internal", "mean escapes [inf, sup]", ["K(H)", "inf", "sup"]),
    ("strong_internal", "mean escapes its own [liminf, limsup]",
     ["K(H)", "liminf_K", "limsup_K"]),
    ("strict_strong_internal", "mean escapes its own [liminf, limsup]",
     ["K(H)", "liminf_K", "limsup_K"]),
    ("mean_monotone",
     "adjoining a set below (above) the mean fails to pull it down (up)",
     ["K(H)", "K(HuL)", "K(HuU)"]),
])
def test_witness_branches_no_catalogue_mean_reaches(pid, note, labels):
    report = check(pid, sup_plus_one(), trials=20)
    assert report.verdict == "counterexample"
    w = report.witness
    assert w.note == note
    assert [label for label, _ in w.values] == labels
    # every value of a set-valued row replays from that set
    assert len(w.replays) == (1 if "internal" in pid else 3)
    for (thunk, expected), (_, value) in zip(w.replays, w.values):
        assert expected == value
        assert thunk() == expected


def test_self_accumulated_witness_on_a_planted_accumulation_set(monkeypatch):
    # No catalogue mean gives a counterexample here. Planting {sup H} as
    # the mean-accumulation set moves amean on every drawn set, all of
    # which have at least two points.
    monkeypatch.setattr(axioms, "acc_points_by_mean",
                        lambda k, h: from_points(h.bounds()[1]))
    report = check("self_accumulated", resolve_mean("amean"), trials=20)
    assert report.verdict == "counterexample"
    w = report.witness
    assert w.note == "the mean of the mean-accumulation set differs"
    assert [label for label, _ in w.values] == ["K(H)", "K(H'_K)"]
    assert len(w.replays) == 2
    for (thunk, expected), (_, value) in zip(w.replays, w.values):
        assert expected == value
        assert thunk() == expected


def planted(name, fn):
    """A planted exact "mean" on nonempty finite sets."""
    return MeanRef(name, fn, lambda h: not h.is_empty and h.is_finite(),
                   exact=True)


def test_branches_of_order_and_union_checks_no_catalogue_mean_reaches():
    # -amean reverses every order, so each disjoint pair, drawn left to
    # right, is judged in value order, right to left
    neg = planted("neg_amean", lambda h: -amean(h))
    assert check("disjoint_monotone", neg, trials=10).verdict == \
        "holds_on_sample"
    # the point count mod 3 rises and falls as sets are joined
    mod3 = planted("count_mod_3", lambda h: Q(len(h.points) % 3))
    assert check("disjoint_monotone", mod3, trials=10).verdict == \
        "counterexample"
    for seed, note in ((0, "both enlargements raise the mean but the joint "
                           "one lowers it"),
                       (2, "both enlargements lower the mean but the joint "
                           "one raises it")):
        report = check("union_monotone", mod3, trials=10, seed=seed)
        assert report.witness.note == note
    # the largest point is its own liminf, and its limsup by bisection
    # comes as close as the bisection goes: a sandwich with equal ends
    # holds whatever the mean
    top = planted("max", lambda h: h.points[-1])
    assert check("strict_strong_internal", top, trials=10).verdict == \
        "holds_on_sample"
    # a finite modification that leaves the domain is not compared
    pair = MeanRef("amean_of_at_most_two", amean,
                   lambda h: h.is_finite() and 0 < len(h.points) <= 2,
                   exact=True)
    assert check("finite_independent", pair, trials=10).verdict == \
        "counterexample"


def test_a_sandwich_that_is_not_strict_is_a_witness():
    # a value strictly outside its own bounds fails the plain sandwich
    # first, so a bracket judged not strict enough is planted
    k = resolve_mean("amean")
    h = axioms._sample_domain_set(k, random.Random(0))
    w = axioms._strong_internal(k, h, lambda v, li, ls: True)
    assert w.note == "bounds differ but sandwich is not strict"
    assert [label for label, _ in w.values] == ["K(H)", "liminf_K",
                                                "limsup_K"]


def test_a_limit_just_past_its_tolerance_is_inconclusive():
    # constant samples: the three accelerated values agree, so the
    # estimate is the sample, with error 2/100
    sched = LimitSchedule(indices=(16, 32, 64, 128, 256),
                          tolerance=Q(1, 100))
    amean_k = resolve_mean("amean")

    def matches(sample):
        return axioms._limit_matches(amean_k, lambda n: sample, Q(0), sched)

    assert matches(Q(1, 100)) is True
    assert matches(Q(3, 100)) is None  # 1/100 apart: within 3 errors
    assert matches(Q(1)) is False


# ------------------------------------------------------------ inapplicable


def test_not_applicable_cells():
    assert check("u_bounded_infinite", resolve_mean("amean"),
                 trials=5).verdict == "not_applicable"
    assert check("self_accumulated", resolve_mean("eds:3"),
                 trials=5).verdict == "not_applicable"
    assert check("accumulated", resolve_mean("amean"),
                 trials=5).verdict == "not_applicable"


# ------------------------------------------------------- contained trials


def test_a_trial_the_engine_cannot_carry_out_is_skipped():
    # Some draws of this audit union sets whose clusters would overlap,
    # which leaves the representable class; those trials are skipped and
    # the audit still ends in a verdict.
    report = check("u_bounded_overlap", resolve_mean("eds:3"), trials=20)
    assert report.verdict in ("holds_on_sample", "counterexample",
                              "not_applicable")
    assert report.trials <= 20


def test_a_witness_that_fails_its_replay_still_raises(monkeypatch):
    planted = Witness((from_points(Q(0)),), (("K(H)", Q(1)),), "planted",
                      ((lambda: Q(0), Q(1)),))
    monkeypatch.setitem(axioms._PROPERTIES, "internal",
                        (axioms._draw_set, lambda k, cfg, h: planted))
    with pytest.raises(MeanlabError, match="replay"):
        check("internal", resolve_mean("amean"), trials=1)


def test_pinned_and_drawn_inputs_share_one_judge():
    # eds:3 fails on its pinned instance, amean on a random draw; both
    # witnesses list H, the finite set F, and H modified by F.
    pinned = check("finite_independent", resolve_mean("eds:3"), trials=1)
    drawn = check("finite_independent", resolve_mean("amean"), trials=5)
    assert pinned.trials == 1
    h, f, other = pinned.witness.sets
    assert f == from_points(Q(0))
    assert other == set_diff(h, f)
    assert len(drawn.witness.sets) == 3


# a mean whose first drawn trial (seed 0) counts, a witness where one is
# quick to find; avg1 elsewhere
_FEEDBACK_MEAN = {
    "slice_continuous": "amean", "point_continuous": "amean",
    "cantor_continuous": "m_acc", "hausdorff_continuous": "eds:3",
    "finite_independent": "amean", "accumulated": "eds:3",
    "reflection_invariant": "eds:3", "homogeneous": "avg_fat:1/4",
    "u_bounded_infinite": "m_acc",
}


@pytest.mark.parametrize("pid", PROPERTY_IDS)
def test_drawn_inputs_judged_as_pinned_give_the_same_report(pid,
                                                           monkeypatch):
    k = resolve_mean(_FEEDBACK_MEAN.get(pid, "avg1"))
    draw, judge = axioms._PROPERTIES[pid]
    drawn = []

    def recording(k, rng):
        drawn.append(draw(k, rng))
        return drawn[-1]

    def no_draw(k, rng):
        raise axioms._Skip

    monkeypatch.setattr(axioms, "_pinned_inputs", lambda p, k: [])
    monkeypatch.setitem(axioms._PROPERTIES, pid, (recording, judge))
    first = check(pid, k, trials=1)
    assert first.trials == 1
    # the last inputs drawn are those of the trial that counted; stored
    # inputs carry no value of K, so a judge that takes one evaluates it
    inputs = drawn[-1]
    if "v" in inspect.signature(judge).parameters:
        inputs = inputs[:-1]
    monkeypatch.setattr(axioms, "_pinned_inputs", lambda p, k: [inputs])
    monkeypatch.setitem(axioms._PROPERTIES, pid, (no_draw, judge))
    assert check(pid, k, trials=1) == first


# -------------------------------------------------------- sampled positives


def assert_holds(k, pids, trials, seed):
    for pid in pids:
        report = check(pid, k, trials=trials, seed=seed)
        assert report.verdict == "holds_on_sample", (pid, report.verdict)
        assert report.witness is None
        assert report.trials >= 1
        assert report.reconstructed == (pid in RECONSTRUCTED)


def test_avg1_positive_matrix():
    pids = [p for p in PROPERTY_IDS if p != "hausdorff_continuous"]
    assert_holds(resolve_mean("avg1"), pids, trials=12, seed=1)


def test_amean_positive_matrix():
    assert_holds(resolve_mean("amean"),
                 ["internal", "translation_invariant", "homogeneous",
                  "reflection_invariant", "convex", "equi_monotone",
                  "u_bounded", "closed", "self_accumulated", "monotone"],
                 trials=12, seed=1)


def test_m_acc_positive_matrix():
    assert_holds(resolve_mean("m_acc"),
                 ["internal", "accumulated", "self_accumulated",
                  "translation_invariant", "homogeneous",
                  "reflection_invariant", "u_bounded"],
                 trials=12, seed=1)


def test_avg_fat_positive_matrix():
    assert_holds(resolve_mean("avg_fat:1/4"),
                 ["cantor_continuous_compact", "hausdorff_continuous",
                  "monotone", "closed"],
                 trials=6, seed=1)


def test_density_mean_additivity_bounds():
    assert_holds(density_mean(),
                 ["u_bounded", "u_bounded_n_fold", "internal"],
                 trials=12, seed=1)


# --------------------------------------------------------------- reporting


def test_full_report_preserves_order():
    props = ["internal", "slice_continuous", "accumulated"]
    reports = full_report(resolve_mean("avg1"), properties=props, trials=4,
                          seed=2)
    assert [r.property_id for r in reports] == props
    assert all(r.mean_id == "avg1" for r in reports)
    assert [r.reconstructed for r in reports] == [False, True, True]


# -------------------------------------------------------------- generators


def test_gen_sets_is_deterministic():
    first = list(itertools.islice(gen_sets(7), 10))
    second = list(itertools.islice(gen_sets(7), 10))
    assert first == second
    assert all(not h.is_empty for h in first)


def test_gen_disjoint_pairs_are_disjoint():
    pairs = list(itertools.islice(gen_disjoint_pairs(3), 10))
    assert all(set_intersect(a, b).is_empty for a, b in pairs)


def test_gen_equal_mean_pairs_match_exactly():
    pairs = list(itertools.islice(gen_equal_mean_pairs(5), 10))
    for a, b in pairs:
        assert avg1(a) == avg1(b)
        assert set_intersect(a, b).is_empty


def test_gen_dilution_families_thin_out():
    family, target = next(gen_dilution(11))
    h, removed = family(256)
    assert amean(h) == target
    assert subset_of(removed, h)
    deviations = [abs(amean(set_diff(*family(n))) - target)
                  for n in (256, 1024)]
    assert deviations[1] < deviations[0]
