"""Value shapes: exact integer roots, integers too long to print."""

import math
import sys
from fractions import Fraction

import pytest

from meanlab.errors import UnrepresentableResult
from meanlab.values import (
    Approx,
    RootValue,
    _iroot_exact,
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
