"""The mean catalogue: exact values, domains, transforms, resolution."""

import math
import random
from fractions import Fraction as Q

import pytest

from conftest import random_cluster_set, random_mixed_set, random_union
from meanlab import means
from meanlab.errors import (
    BadParameters,
    DegenerateSet,
    DomainViolation,
    EmptySet,
    EmptySlice,
    InfiniteLevel,
    MeanlabError,
    NotFinite,
    NullSet,
    OutsideSupport,
    UnsupportedMean,
)
from meanlab.exactset import (
    from_interval,
    from_points,
    geometric_cluster,
    harmonic_cluster,
    realset,
    scale,
    set_union,
    translate,
)
from meanlab.funcs import (
    FORWARD_BITS,
    SQUARE,
    Affine,
    Compose,
    ExpBase,
    LogBase,
    Power,
    _certified,
    _frac_to_iv,
    parse_func,
)
from meanlab.means import (
    AMEAN,
    AVG1,
    MEAN_NAMES,
    M_ACC,
    amean,
    avg1,
    avg_f,
    avg_fat,
    eds_n,
    eds_ref,
    image_set,
    iso_n,
    lavg,
    lavg_ref,
    m_acc,
    m_eds,
    m_iso,
    m_mu,
    resolve_mean,
    transform_kf,
)
from meanlab.limits import DEFAULT_SCHEDULE
from meanlab.measure import DensityMeasure
from meanlab.values import Approx, RootValue, value_bounds


def _harmonic_set(start: int = 1):
    return realset(clusters=[harmonic_cluster(Q(0), c=Q(1), start=start)])


# --------------------------------------------------------------------------
# finite and length-weighted means


def test_amean_of_a_finite_set():
    assert amean(from_points(Q(1), Q(2), Q(3), Q(6))) == 3


def test_amean_requires_a_finite_set():
    with pytest.raises(NotFinite):
        amean(from_interval(Q(0), Q(1)))
    with pytest.raises(NotFinite):
        amean(_harmonic_set())
    with pytest.raises(EmptySet):
        amean(realset())


def test_avg1_weighs_by_length():
    h = set_union(from_interval(Q(0), Q(1)), from_interval(Q(2), Q(3)))
    assert avg1(h) == Q(3, 2)
    # null satellites do not move the average
    assert avg1(set_union(h, from_points(Q(100)))) == Q(3, 2)


def test_avg1_requires_length():
    with pytest.raises(NullSet):
        avg1(from_points(Q(0), Q(1)))
    with pytest.raises(EmptySet):
        avg1(realset())


def test_density_average():
    mu = DensityMeasure.from_parts([(Q(0), Q(1), Q(2)), (Q(1), Q(3), Q(1))])
    assert m_mu(mu, from_interval(Q(0), Q(2))) == Q(5, 6)
    with pytest.raises(NullSet):
        m_mu(mu, from_points(Q(1, 2)))
    with pytest.raises(OutsideSupport):
        m_mu(mu, from_interval(Q(-1), Q(1)))


# --------------------------------------------------------------------------
# accumulation-structure means


def test_deepest_derived_mean_on_a_cluster():
    assert m_acc(_harmonic_set()) == 0
    assert m_acc(set_union(_harmonic_set(), from_points(Q(5)))) == 0


def test_deepest_derived_mean_on_a_finite_set_is_the_plain_mean():
    assert m_acc(from_points(Q(1), Q(2), Q(3))) == 2


def test_deepest_derived_mean_rejects_interval_mass():
    with pytest.raises(InfiniteLevel):
        m_acc(from_interval(Q(0), Q(1)))


def test_isolated_point_mean_oracle():
    # stage 4 keeps the terms at distance >= 1/4 from the limit: 1, 1/2, 1/3
    assert iso_n(_harmonic_set(), 4) == Q(25, 48)


def test_isolated_point_mean_without_accumulation_points():
    assert iso_n(from_points(Q(0), Q(9)), 3) == Q(9, 2)


def test_isolated_point_mean_domain():
    with pytest.raises(BadParameters):
        iso_n(from_points(Q(0)), 0)
    with pytest.raises(DomainViolation):
        iso_n(from_interval(Q(0), Q(1)), 2)
    with pytest.raises(EmptySlice):
        iso_n(_harmonic_set(start=2), 1)  # every term sits inside the ball
    with pytest.raises(EmptySet):
        iso_n(realset(), 3)


def test_isolated_point_limit_mean():
    est = m_iso(from_points(Q(0), Q(9)))
    assert isinstance(est, Approx) and est.value == Q(9, 2)


# --------------------------------------------------------------------------
# equal-division means


def test_equal_division_oracles():
    mixed_open = set_union(from_points(Q(0), Q(3)),
                           from_interval(Q(1), Q(2), False, False))
    mixed_closed = set_union(from_points(Q(0), Q(3)),
                             from_interval(Q(1), Q(2)))
    assert eds_n(mixed_open, 3) == Q(4, 3)
    assert eds_n(mixed_closed, 3) == Q(3, 2)
    assert eds_n(from_points(Q(0), Q(1), Q(2), Q(3)), 3) == Q(3, 2)
    assert eds_n(from_points(Q(1), Q(2), Q(3)), 3) == Q(17, 9)
    assert eds_n(from_points(Q(0), Q(1), Q(2)), 3) == Q(8, 9)
    assert eds_n(_harmonic_set(), 4) == Q(7, 16)


def test_equal_division_of_an_interval_is_its_midpoint_at_every_stage():
    h = from_interval(Q(0), Q(1))
    for n in (1, 2, 3, 7, 64, 1000):
        assert eds_n(h, n) == Q(1, 2)


def test_equal_division_is_affine_equivariant():
    rng = random.Random(21)
    done = 0
    while done < 60:
        h = random_mixed_set(rng)
        a, b = h.bounds()
        if a == b:
            continue
        n = rng.randint(1, 9)
        t = Q(rng.randint(-9, 9), rng.randint(1, 3))
        s = Q(rng.randint(1, 5), rng.randint(1, 3))
        v = eds_n(h, n)
        assert eds_n(translate(h, t), n) == v + t
        assert eds_n(scale(h, s), n) == s * v
        done += 1


def test_equal_division_domain():
    with pytest.raises(BadParameters):
        eds_n(from_interval(Q(0), Q(1)), 0)
    with pytest.raises(DegenerateSet):
        eds_n(from_points(Q(5)), 3)
    with pytest.raises(EmptySet):
        eds_n(realset(), 3)


def test_equal_division_limit_mean_on_an_interval():
    est = m_eds(from_interval(Q(0), Q(1)))
    assert isinstance(est, Approx) and est.value == Q(1, 2)


# --------------------------------------------------------------------------
# neighborhood averages


def test_neighborhood_average_oracles():
    h = set_union(from_points(Q(0)), from_interval(Q(2), Q(3)))
    assert avg_fat(h, Q(1)) == Q(3, 2)
    assert avg_fat(from_interval(Q(0), Q(1)), Q(1, 4)) == Q(1, 2)
    with pytest.raises(BadParameters):
        avg_fat(h, Q(0))


def test_shrinking_average_with_length_is_the_plain_average():
    h = set_union(from_points(Q(0)), from_interval(Q(2), Q(3)))
    assert lavg(h) == Q(5, 2)
    # satellite points never influence the exact path
    g = set_union(h, from_points(Q(-50)))
    assert lavg(g) == Q(5, 2)


def test_lavg_domain_test_computes_no_average(monkeypatch):
    h = set_union(from_interval(Q(0), Q(1)), from_interval(Q(3), Q(4)),
                  from_points(Q(7)), realset(clusters=[harmonic_cluster(
                      Q(10), c=Q(1), start=1)]))
    calls = []
    monkeypatch.setattr(means, "avg1", lambda g: calls.append(g) or avg1(g))
    k = lavg_ref()
    assert k.in_domain(h) and calls == []
    assert k.evaluate(h) == Q(2) and len(calls) == 1


def test_shrinking_average_of_finite_sets_stabilizes_exactly():
    est = lavg(from_points(Q(0)))
    assert isinstance(est, Approx) and est.value == 0
    est = lavg(from_points(Q(0), Q(1)))
    assert est.value == Q(1, 2)
    with pytest.raises(EmptySet):
        lavg(realset())


# --------------------------------------------------------------------------
# quasi-arithmetic averages and transforms


def test_quasi_arithmetic_average_oracles():
    unit = from_interval(Q(0), Q(1))
    assert avg_f(SQUARE, unit) == RootValue(Q(1, 3), 2)
    assert avg_f(Power(3), unit) == RootValue(Q(1, 4), 3)
    assert avg_f(SQUARE, from_interval(Q(1), Q(2))) == RootValue(Q(7, 3), 2)


def test_quasi_arithmetic_average_with_affine_is_the_plain_average():
    rng = random.Random(22)
    f = Affine(Q(2), Q(1))
    for _ in range(40):
        h = random_union(rng)
        assert avg_f(f, h) == avg1(h)


def test_quasi_arithmetic_average_domain():
    with pytest.raises(DomainViolation):
        avg_f(SQUARE, from_interval(Q(-1), Q(1)))
    with pytest.raises(NullSet):
        avg_f(SQUARE, from_points(Q(1), Q(2)))


def test_image_set_reproduces_the_transform_failure_witness():
    h1 = set_union(from_interval(Q(0), Q(1)), from_interval(Q(2), Q(3)))
    h2 = from_interval(Q(1), Q(2), False, False)
    assert avg1(image_set(set_union(h1, h2), SQUARE)) == Q(9, 2)
    assert avg1(image_set(h2, SQUARE)) == Q(5, 2)


def test_image_set_maps_cluster_terms():
    g = image_set(_harmonic_set(), SQUARE)  # {1/k^2}
    assert g.member(Q(1)) and g.member(Q(1, 4)) and g.member(Q(1, 9))
    assert not g.member(Q(1, 2)) and not g.member(Q(0))
    assert g.bounds() == (Q(0), Q(1))


def test_image_set_composes_the_maps_of_a_mapped_cluster():
    g = image_set(image_set(_harmonic_set(), SQUARE), Power(3))
    (c,) = g.clusters  # {1/k^6}
    assert c.rule.func == Compose(Power(3), SQUARE)
    assert [c.term(k) for k in (1, 2, 10)] == [1, Q(1, 64), Q(1, 10 ** 6)]


def test_image_set_under_a_decreasing_transform():
    g = image_set(set_union(from_interval(Q(0), Q(1), True, False),
                            from_points(Q(3))), Affine(Q(-2), Q(1)))
    # [0,1) -> (-1,1], {3} -> {-5}
    assert g.member(Q(1)) and g.member(Q(-5)) and not g.member(Q(-1))


def test_image_set_domain():
    with pytest.raises(DomainViolation):
        image_set(from_interval(Q(-2), Q(-1)), SQUARE)
    with pytest.raises(BadParameters):
        image_set(from_points(Q(1)), ExpBase(Q(2)))


def test_conjugated_average_pulls_back_through_the_transform():
    t = transform_kf(AVG1, SQUARE)
    assert t(from_interval(Q(0), Q(1))) == RootValue(Q(1, 2), 2)
    assert t.exact and t.kind() == "avg1"
    assert t.id == "avg1^square"


def test_conjugated_average_differs_from_the_quasi_arithmetic_one():
    h = from_interval(Q(1), Q(2))
    conj = transform_kf(AVG1, SQUARE)(h)      # sqrt of avg1([1,4])
    quasi = avg_f(SQUARE, h)                  # sqrt of the mean of x^2
    assert conj == RootValue(Q(5, 2), 2)
    assert quasi == RootValue(Q(7, 3), 2)
    assert conj != quasi


def test_conjugation_by_an_affine_transform_is_equivariance():
    t = transform_kf(AMEAN, Affine(Q(3), Q(-2)))
    assert t(from_points(Q(1), Q(2), Q(3))) == 2


def _value_or_error_type(k, h):
    try:
        return k(h)
    except MeanlabError as e:
        return type(e)


@pytest.mark.parametrize("name, slopes", [
    ("avg1", (1, 2, Q(1, 3))), ("amean", (1, 2, Q(1, 3))),
    ("m_acc", (1, 2, Q(1, 3))), ("iso:4", (1,)), ("eds:3", (1, 2, Q(1, 3))),
    ("avg_fat:1/4", (1,))])
def test_conjugating_by_a_symmetry_of_the_mean_changes_nothing(name, slopes):
    # a translation-equivariant mean K has K^f = K for f = affine(1, b),
    # a homogeneous one also for affine(a, b) with a > 0; an affine image
    # keeps each cluster's rule, so every such family evaluates both sides
    rng = random.Random(name)
    tpl = harmonic_cluster(5)
    sets = [random_mixed_set(rng) for _ in range(8)]
    sets += [random_cluster_set(rng) for _ in range(6)]
    sets.append(realset(clusters=[harmonic_cluster(
        1, children=[(1, 2, tpl), (3, None, tpl)])]))  # level 2
    k = resolve_mean(name)
    for h in sets:
        want = _value_or_error_type(k, h)
        for a in slopes:
            f = Affine(Q(a), Q(rng.randint(-6, 6), rng.choice((1, 2, 3))))
            assert _value_or_error_type(transform_kf(k, f), h) == want


def test_certified_transform_of_the_finite_mean():
    t = transform_kf(AMEAN, ExpBase(Q(2)))
    got = t(from_points(Q(0), Q(1)))
    assert isinstance(got, Approx) and not t.exact
    want = math.log2((1 + 2) / 2)
    assert abs(float(got.value) - want) <= float(got.error) + 1e-12


def test_inverse_enclosures_of_decreasing_transforms_keep_both_ends():
    # (1/2)^x maps [-2, -1] onto [2, 4], and log_(1/2) maps [2, 4] back
    got = value_bounds(ExpBase(Q(1, 2)).invert(Approx(Q(3), Q(1))))
    assert got[0] <= -2 and -1 <= got[1]
    got = value_bounds(LogBase(Q(1, 2)).invert(Approx(Q(-3, 2), Q(1, 2))))
    assert got[0] <= 2 and 4 <= got[1]
    # log_(1/2) maps [1, 2] onto [-1, 0], whose length average -1/2 pulls
    # back to (1/2)^(-1/2) = sqrt 2: an enclosure of it, not a point
    got = transform_kf(AVG1, LogBase(Q(1, 2)))(from_interval(Q(1), Q(2)))
    lo, hi = value_bounds(got)
    assert 0 < lo < hi and lo * lo <= 2 <= hi * hi


def test_square_and_the_odd_powers_are_one_kind():
    assert SQUARE == Power(2) and parse_func("square") is SQUARE
    assert SQUARE.name() == "square" and Power(5).name() == "pow(5)"
    assert parse_func("pow(5)") == Power(5)
    assert not SQUARE.contains(Q(-1)) and Power(3).contains(Q(-1))
    assert Power(3).invert(Q(-8)) == -2 and SQUARE.invert(Q(9, 4)) == Q(3, 2)
    with pytest.raises(DomainViolation, match="square transform domain"):
        SQUARE.apply(Q(-1))
    with pytest.raises(DomainViolation, match="square images"):
        SQUARE.invert(Q(-1))
    for n in (4, 0, -1):
        with pytest.raises(BadParameters,
                           match="power kind needs an odd positive exponent"):
            Power(n)


def test_inverses_of_roots_and_enclosures():
    # a root that is rational comes back through an affine map exactly
    assert Affine(Q(2), Q(1)).invert(RootValue(Q(8), 3)) == Q(1, 2)
    # an enclosure pulls back through an odd power as an enclosure
    lo, hi = value_bounds(Power(3).invert(Approx(Q(27), Q(1, 100))))
    assert lo < 3 < hi and hi - lo < Q(1, 100)


def test_certified_transforms_reject_other_means():
    t = transform_kf(eds_ref(3), ExpBase(Q(2)))
    with pytest.raises(UnsupportedMean):
        t(from_points(Q(0), Q(1), Q(2)))


def test_certified_transform_of_the_length_average():
    t = transform_kf(AVG1, ExpBase(Q(2)))
    got = t(from_interval(Q(0), Q(1)))
    # the image of [0,1] under 2^x is [1,2]; pull its average back
    want = math.log2(3 / 2)
    assert abs(float(got.value) - want) <= float(got.error) + 1e-12


def _interval_integral(f, lo, hi):
    """The integral ``avg_f`` used to compute, as the reference each
    kind's ``integral`` must reproduce: a Fraction when exact, else a
    bound pair."""
    if isinstance(f, Affine):
        return f.slope * (hi * hi - lo * lo) / 2 + f.shift * (hi - lo)
    if isinstance(f, Power) and f.n == 2:
        return (hi ** 3 - lo ** 3) / 3
    if isinstance(f, Power):
        m = f.n + 1
        return (hi ** m - lo ** m) / m
    if isinstance(f, Compose) and isinstance(f.outer, Affine):
        inner = _interval_integral(f.inner, lo, hi)
        if isinstance(inner, tuple):
            a = f.outer.slope
            parts = sorted((a * inner[0], a * inner[1]))
            shift = f.outer.shift * (hi - lo)
            return (parts[0] + shift, parts[1] + shift)
        return f.outer.slope * inner + f.outer.shift * (hi - lo)
    if isinstance(f, Compose) and isinstance(f.inner, Affine):
        # integral of g(a*x + s) over [lo, hi] = (1/a) integral of g(u)
        a, s = f.inner.slope, f.inner.shift
        u1, u2 = sorted((a * lo + s, a * hi + s))
        inner = _interval_integral(f.outer, u1, u2)
        if isinstance(inner, tuple):
            parts = sorted((inner[0] / abs(a), inner[1] / abs(a)))
            return (parts[0], parts[1])
        return inner / abs(a)
    if isinstance(f, ExpBase):
        # integral of b**x = (b**hi - b**lo) / ln(b)
        base = f.base

        def compute(iv):
            lnb = iv.log(_frac_to_iv(iv, base))
            return (iv.exp(_frac_to_iv(iv, hi) * lnb)
                    - iv.exp(_frac_to_iv(iv, lo) * lnb)) / lnb

        return _certified(compute, FORWARD_BITS)
    if isinstance(f, LogBase):
        # integral of log_b(x) = (x ln x - x) / ln(b)
        if lo <= 0:
            raise DomainViolation("logarithm integral needs a positive domain")
        base = f.base

        def compute(iv):
            lnb = iv.log(_frac_to_iv(iv, base))
            xhi = _frac_to_iv(iv, hi)
            xlo = _frac_to_iv(iv, lo)
            return ((xhi * iv.log(xhi) - xhi)
                    - (xlo * iv.log(xlo) - xlo)) / lnb

        return _certified(compute, FORWARD_BITS)
    raise BadParameters(
        f"no closed-form integral for transform {f.name()}")


def _affine_invert(self, v, bits):
    lo, hi = value_bounds(v)
    a, b = (v0 := (lo - self.shift) / self.slope), (hi - self.shift) / self.slope
    lo2, hi2 = min(v0, b), max(v0, b)
    return Approx((lo2 + hi2) / 2, (hi2 - lo2) / 2)


def _odd_power_invert(self, v, bits):
    lo, hi = value_bounds(v)
    rlo, _ = RootValue(lo, self.n).enclosure(bits)
    _, rhi = RootValue(hi, self.n).enclosure(bits)
    return Approx((rlo + rhi) / 2, (rhi - rlo) / 2)


def _square_invert(self, v, bits):
    lo, hi = value_bounds(v)
    if lo < 0:
        raise DomainViolation("square images are nonnegative")
    rlo, _ = RootValue(lo, 2).enclosure(bits)
    _, rhi = RootValue(hi, 2).enclosure(bits)
    return Approx((rlo + rhi) / 2, (rhi - rlo) / 2)


def _power_invert(self, v, bits):
    return (_square_invert if self.n == 2 else _odd_power_invert)(
        self, v, bits)


def _exp_invert(self, v, bits):
    lo, hi = value_bounds(v)
    if lo <= 0:
        raise DomainViolation("exp images are positive")
    if not self.increasing:
        lo, hi = hi, lo  # the inverse decreases too
    b = self.base
    llo, _ = _certified(lambda iv: iv.log(_frac_to_iv(iv, lo))
                        / iv.log(_frac_to_iv(iv, b)), bits)
    _, lhi = _certified(lambda iv: iv.log(_frac_to_iv(iv, hi))
                        / iv.log(_frac_to_iv(iv, b)), bits)
    return Approx((llo + lhi) / 2, (lhi - llo) / 2)


def _log_invert(self, v, bits):
    lo, hi = value_bounds(v)
    if not self.increasing:
        lo, hi = hi, lo  # the inverse decreases too
    b = self.base
    plo, _ = _certified(lambda iv: iv.exp(_frac_to_iv(iv, lo)
                                          * iv.log(_frac_to_iv(iv, b))), bits)
    _, phi = _certified(lambda iv: iv.exp(_frac_to_iv(iv, hi)
                                          * iv.log(_frac_to_iv(iv, b))), bits)
    return Approx((plo + phi) / 2, (phi - plo) / 2)


# the enclosing branch of each kind's ``invert`` before one base-class
# ``invert`` took them over (square and the odd powers were two kinds then)
_FALLBACK_INVERT = {Affine: _affine_invert, Power: _power_invert,
                    ExpBase: _exp_invert, LogBase: _log_invert}


def _reference_invert(f, v, bits=FORWARD_BITS):
    if isinstance(f, Compose):  # Compose.invert, over the references
        mid = _reference_invert(f.outer, v, bits + 10)
        if isinstance(mid, (Q, RootValue)):
            return _reference_invert(f.inner, mid, bits)
        lo, hi = value_bounds(mid)
        a = _reference_invert(f.inner, lo, bits + 10)
        b = _reference_invert(f.inner, hi, bits + 10)
        alo, ahi = value_bounds(a)
        blo, bhi = value_bounds(b)
        lo2, hi2 = min(alo, blo), max(ahi, bhi)
        return Approx((lo2 + hi2) / 2, (hi2 - lo2) / 2)
    if f.exact and isinstance(v, Q):
        return f.invert(v, bits)  # the exact shapes did not move
    return _FALLBACK_INVERT[type(f)](f, v, bits)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BadParameters, DomainViolation) as e:
        return type(e), str(e)


@pytest.mark.parametrize("spec", [
    "affine(2,1)", "affine(-3/2,1/3)", "pow(3)", "square", "exp(2)",
    "exp(1/2)", "log(2)", "log(1/2)", "compose(affine(2,1),exp(2))",
    "compose(affine(2,1),square)", "compose(exp(2),affine(1,3))",
    "compose(pow(3),affine(2,0))", "compose(square,affine(1,3))",
    "compose(square,square)"])
def test_transform_formulas_match_the_code_they_replaced(spec):
    f = parse_func(spec)
    rng = random.Random(spec)
    for _ in range(12):
        lo, hi = sorted(Q(rng.randint(-300, 300), rng.randint(1, 100))
                        for _ in range(2))
        want = _outcome(_interval_integral, f, lo, hi)
        if isinstance(want, Q):
            want = (want, want)
        assert _outcome(f.integral, lo, hi) == want, (lo, hi)
        x = Q(rng.randint(1, 300), rng.randint(1, 100))
        if not f.contains(x):
            continue
        y_lo, y_hi = f.apply_bounds(x)
        pad = Q(1, rng.randint(2, 10 ** 6))
        for v in (y_lo, Approx((y_lo + y_hi) / 2, (y_hi - y_lo) / 2 + pad),
                  Approx(y_lo, abs(y_lo) / 2 + pad),
                  Approx(y_lo, abs(y_lo) + pad)):  # reaches past zero
            for bits in (FORWARD_BITS, 60):
                assert _outcome(f.invert, v, bits) == _outcome(
                    _reference_invert, f, v, bits), (v, bits)


# --------------------------------------------------------------------------
# name resolution


def test_resolve_mean_names_and_aliases():
    assert resolve_mean("avg1") is AVG1
    assert resolve_mean("macc") is M_ACC
    assert resolve_mean("M-ACC") is M_ACC
    assert resolve_mean("amean").id == "amean"


def test_resolve_mean_reads_one_family_table():
    assert MEAN_NAMES == ("amean", "avg1", "m_acc", "iso", "eds", "avg_fat",
                          "lavg", "m_iso", "m_eds", "m_mu", "avg_f")
    own = {"iso": {"n": 3}, "eds": {"n": 3}, "avg_fat": {"delta": Q(1, 4)},
           "m_mu": {"density": DensityMeasure.from_parts([(0, 1, 1)])},
           "avg_f": {"func": SQUARE}}
    for name in MEAN_NAMES:
        args = own.get(name, {})
        want = resolve_mean(name, **args)
        for alias in (name.replace("_", ""), name.upper().replace("_", "-")):
            assert resolve_mean(alias, **args).id == want.id
    missing = {"iso": "the iso mean needs a stage n",
               "eds": "the eds mean needs a division count n",
               "avg_fat": "the neighborhood average needs a radius",
               "m_mu": "the density average needs a density measure",
               "avg_f": "the quasi-arithmetic average needs a transform "
                        "function"}
    for name in MEAN_NAMES:
        if name in missing:
            with pytest.raises(BadParameters) as e:
                resolve_mean(name)
            assert str(e.value) == missing[name]
        else:
            assert resolve_mean(name).kind() == name
    for name in ("amean:3", "lavg:2", "nope:1"):
        with pytest.raises(BadParameters,
                           match="does not take an embedded parameter"):
            resolve_mean(name)


def test_resolve_mean_embedded_parameters():
    ref = resolve_mean("iso:4")
    assert ref.id == "iso:4" and ref.kind() == "iso" and ref.param == 4
    assert ref(_harmonic_set()) == Q(25, 48)
    ref = resolve_mean("eds", n=3)
    assert ref.id == "eds:3" and ref.param == 3
    ref = resolve_mean("avg_fat:1/4")
    assert ref.kind() == "avg_fat" and ref.param == Q(1, 4)
    assert ref(from_interval(Q(0), Q(1))) == Q(1, 2)


def test_resolve_mean_conjugation_and_direct_function_parameter():
    conj = resolve_mean("avg1", func=SQUARE)
    assert conj.id == "avg1^square" and conj.kind() == "avg1"
    quasi = resolve_mean("avg_f", func=SQUARE)
    assert quasi(from_interval(Q(0), Q(1))) == RootValue(Q(1, 3), 2)


def test_resolve_mean_rejects_bad_requests():
    for name in ("eds", "no_such_mean", "amean:3", "avg_f", "iso:abc",
                 "eds:1.5", "iso:", "avg_fat:abc", "avg_fat:1/0",
                 "avg1^nope", "avg1^"):
        with pytest.raises(BadParameters):
            resolve_mean(name)
    for name, message in (
            ("m_mu:1", "density pieces are 'lo,hi,weight' separated by ';'"),
            ("avg_f:1", "unknown transform function: '1'"),
            # a stage below 1 is refused when the mean is built
            ("iso:0", "the neighborhood stage must be >= 1"),
            ("eds:-2", "the division count must be >= 1")):
        with pytest.raises(BadParameters) as e:
            resolve_mean(name)
        assert str(e.value) == message


def test_resolve_mean_reads_the_tag_as_written():
    # only the family name is folded to lower case with '-' as '_'
    assert resolve_mean("avg_fat:1e-3").id == "avg_fat:1/1000"
    assert resolve_mean("AVG-FAT:1E-3").id == "avg_fat:1/1000"
    assert resolve_mean("M-MU:-1,0,1;0,1,2").id == "m_mu:-1,0,1;0,1,2"
    with pytest.raises(BadParameters,
                       match="the neighborhood radius must be positive"):
        resolve_mean("avg_fat:-1/4")
    with pytest.raises(BadParameters, match="unknown transform function"):
        resolve_mean("avg_f:SQUARE")


def test_resolve_mean_refuses_an_argument_that_changes_nothing():
    mu = DensityMeasure.from_parts([(0, 1, 1)])
    for name, args in (("avg1", {"n": 3}), ("avg1", {"delta": Q(5)}),
                       ("amean", {"density": mu}), ("iso", {"delta": Q(1)}),
                       ("eds:3", {"density": mu}), ("lavg", {"n": 16}),
                       ("avg_f", {"func": SQUARE, "n": 2})):
        with pytest.raises(BadParameters, match="does not take"):
            resolve_mean(name, **args)
    for name, args in (("iso:4", {"n": 7}), ("iso:4", {"n": 4}),
                       ("avg_fat:1/4", {"delta": Q(1, 4)}),
                       ("m_mu:0,1,1", {"density": mu})):
        with pytest.raises(BadParameters,
                           match="given both by tag and by keyword"):
            resolve_mean(name, **args)
    # every family takes a schedule and a transform
    f = Affine(Q(1), Q(0))
    for name in ("amean", "iso:4", "avg_fat:1/4", "lavg", "m_mu:0,1,1",
                 "avg_f:square"):
        k = resolve_mean(name, func=f, schedule=DEFAULT_SCHEDULE)
        assert k.id == f"{name}^affine(1,0)"


def test_resolve_mean_conjugates_left_to_right_and_func_last():
    exp2 = parse_func("exp(2)")
    assert resolve_mean("avg1^exp(2)").id == "avg1^exp(2)"
    assert resolve_mean("avg1^square", func=exp2).id == "avg1^square^exp(2)"
    assert resolve_mean("iso^square", n=3).id == "iso:3^square"
    k = resolve_mean("avg_f^exp(2)", func=SQUARE)
    assert k.id == "avg_f:square^exp(2)"
    h = from_points(Q(1), Q(2))
    k = resolve_mean("amean^square^affine(1,3)")
    want = transform_kf(transform_kf(AMEAN, SQUARE), Affine(Q(1), Q(3)))
    assert k.id == want.id and k(h) == want(h)
    assert k(h) != resolve_mean("amean^affine(1,3)^square")(h)


def test_mean_refs_report_their_domains():
    h = from_interval(Q(0), Q(1))
    assert AVG1.in_domain(h) and not AMEAN.in_domain(h)
    assert M_ACC.in_domain(_harmonic_set()) and not M_ACC.in_domain(h)
    assert resolve_mean("iso:3").in_domain(_harmonic_set())
    assert not resolve_mean("iso:3").in_domain(h)


def test_limit_means_judge_their_domain_at_the_first_stage():
    lavg_k, m_iso_k, m_eds_k = (resolve_mean(name)
                                for name in ("lavg", "m_iso", "m_eds"))
    pts, unit = from_points(Q(0), Q(1)), from_interval(Q(0), Q(1))
    nested = realset(clusters=[harmonic_cluster(
        Q(0), children=[(1, None, harmonic_cluster(Q(0)))])])
    assert lavg_k.in_domain(unit) and lavg_k.in_domain(pts)
    assert not lavg_k.in_domain(realset())
    assert not lavg_k.in_domain(nested)  # fatten takes depth 1 only
    assert m_iso_k.in_domain(pts) and not m_iso_k.in_domain(unit)
    assert m_eds_k.in_domain(pts) and not m_eds_k.in_domain(from_points(Q(1)))
