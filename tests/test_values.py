"""Value shapes: exact integer roots."""

from meanlab.values import _iroot_exact


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
