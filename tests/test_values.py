"""Value shapes: exact integer roots, root enclosures, integers too long
to print."""

import math
import random
import sys
from fractions import Fraction

import pytest

from meanlab.errors import BadParameters, UnrepresentableResult
from meanlab.values import (
    Approx,
    RootValue,
    _iroot_exact,
    _iroot_floor,
    decimal_str,
    printable,
    value_bounds,
)


def test_iroot_exact_on_small_numbers():
    assert _iroot_exact(0, 3) == 0 and _iroot_exact(1, 5) == 1
    assert _iroot_exact(27, 3) == 3 and _iroot_exact(28, 3) is None
    assert _iroot_exact(2 ** 1022, 2) == 2 ** 511
    assert _iroot_exact(-8, 3) is None


def test_iroot_exact_beyond_the_float_range():
    assert _iroot_exact(10 ** 400, 2) == 10 ** 200
    assert _iroot_exact(10 ** 400 + 1, 2) is None
    assert _iroot_exact(2 ** 1024, 2) == 2 ** 512
    assert _iroot_exact(2 ** 1024 - 1, 2) is None
    assert _iroot_exact(3 ** 1400, 7) == 3 ** 200



def test_iroot_floor_brackets_the_root():
    rng = random.Random(16)
    for _ in range(400):
        n = rng.getrandbits(rng.randrange(0, 5000))
        k = rng.randint(1, 9)
        m = _iroot_floor(n, k)
        assert m ** k <= n < (m + 1) ** k, (n, k)
    assert _iroot_floor(2 ** 999, 3) == 2 ** 333
    assert _iroot_floor(2 ** 999 - 1, 3) == 2 ** 333 - 1


def _bisection_enclosure(rv, scale_bits=80):
    """The Fraction bisection ``RootValue.enclosure`` used to run, as the
    reference its closed form must reproduce."""
    exact = rv.as_fraction()
    if exact is not None:
        return (exact, exact)
    neg = rv.radicand < 0
    r = abs(rv.radicand)
    lo, hi = Fraction(0), max(Fraction(1), r)
    tol = Fraction(1, 2 ** scale_bits)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid ** rv.degree <= r:
            lo = mid
        else:
            hi = mid
    return (-hi, -lo) if neg else (lo, hi)


def _radicands(rng):
    """Seeded (radicand, degree) pairs: small and 1,100-bit numerators and
    denominators, perfect powers, and negative radicands of odd degree."""
    for i in range(160):
        degree = rng.choice((2, 3, 5, 7))
        bits = 1100 if i % 20 == 0 else rng.randint(1, 100)
        r = Fraction(rng.getrandbits(bits), rng.getrandbits(bits) + 1)
        if i % 10 == 3:
            r = Fraction(rng.getrandbits(40), rng.getrandbits(40) + 1) ** degree
        if degree % 2 and rng.random() < 0.3:
            r = -r
        yield r, degree


def test_enclosure_is_the_bisection_bracket():
    for r, degree in _radicands(random.Random(1600)):
        rv = RootValue(r, degree)
        for bits in (1, 60, 80, 200):
            assert rv.enclosure(bits) == _bisection_enclosure(rv, bits), (
                r, degree, bits)
        lo, hi = _bisection_enclosure(rv, 60)
        assert float(rv) == float((lo + hi) / 2)

_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="no int-string digit limit")
def test_printable_stops_exactly_at_the_digit_limit():
    top = 10 ** _INT_DIGITS  # the smallest integer one digit too long
    for n in (0, -1, 2 ** (3 * _INT_DIGITS), top - 1, 1 - top):
        assert printable(n) == n and str(n)
    for n in (top, -top, top * 7):
        with pytest.raises(UnrepresentableResult):
            printable(n)
        with pytest.raises(ValueError):
            str(n)
    with pytest.raises(UnrepresentableResult):
        decimal_str(Fraction(top * 3, 2))


def test_value_shapes_convert_to_floats_and_bounds():
    assert float(Approx(Fraction(1, 4), Fraction(1, 100))) == 0.25
    assert float(RootValue(Fraction(2), 2)) == math.sqrt(2)
    assert RootValue(Fraction(-3, 7), 1).as_fraction() == Fraction(-3, 7)
    assert RootValue(Fraction(9, 4), 2).enclosure() == (Fraction(3, 2),
                                                        Fraction(3, 2))
    assert value_bounds(3) == (Fraction(3), Fraction(3))


def test_an_approximation_refuses_a_negative_error():
    # a negative error would give bounds with lo > hi
    with pytest.raises(BadParameters, match="error bound"):
        Approx(Fraction(1), Fraction(-1, 2))
    assert Approx(Fraction(1), Fraction(0)).bounds() == (Fraction(1),
                                                         Fraction(1))


def test_a_root_refuses_a_bad_degree_or_radicand_with_a_typed_error():
    with pytest.raises(BadParameters, match="degree"):
        RootValue(Fraction(2), 0)
    with pytest.raises(BadParameters, match="even root of a negative"):
        RootValue(Fraction(-4), 2)
    assert RootValue(Fraction(-8), 3).as_fraction() == Fraction(-2)
