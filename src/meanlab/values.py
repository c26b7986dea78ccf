"""Value carriers for mean evaluations.

A mean evaluation returns one of three shapes:

* ``Fraction`` when the result is an exact rational,
* ``RootValue`` when the result is an exact n-th root of a rational
  (inverse images under power maps),
* ``Approx`` when the result is a limit estimate or a certified enclosure
  midpoint, always paired with an explicit error bound.

Values have no ordering of their own: every comparison goes through
``value_le``, ``value_lt_strict`` and ``values_close`` on the exact
rational bounds of ``value_bounds``, which work uniformly across the three
shapes, so the property checkers never need to branch on type.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, UnrepresentableResult


@dataclass(frozen=True)
class Approx:
    """A rational estimate with a reported bound on |true - value|."""

    value: Fraction
    error: Fraction

    def __post_init__(self):
        if self.error < 0:
            raise BadParameters("an approximation's error bound must be >= 0")

    def bounds(self) -> tuple[Fraction, Fraction]:
        return (self.value - self.error, self.value + self.error)

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class RootValue:
    """Exact degree-th root of a rational radicand.

    Even degrees require a nonnegative radicand; odd degrees carry the
    radicand's sign through. Degree 1 is a plain rational in disguise.
    """

    radicand: Fraction
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise BadParameters("root degree must be >= 1")
        if self.degree % 2 == 0 and self.radicand < 0:
            raise BadParameters("even root of a negative radicand")

    def as_fraction(self) -> Fraction | None:
        """Exact rational value when the radicand is a perfect power."""
        if self.degree == 1:
            return self.radicand
        num = _iroot_exact(abs(self.radicand.numerator), self.degree)
        den = _iroot_exact(self.radicand.denominator, self.degree)
        if num is None or den is None:
            return None
        root = Fraction(num, den)
        return -root if self.radicand < 0 else root

    def enclosure(self, scale_bits: int = 80) -> tuple[Fraction, Fraction]:
        """Exact rational bracket of width <= 2**-scale_bits: exactly the
        one a bisection of [0, h] to that width would reach, h = max(1, |r|)
        = p/q. After its j steps it is [m, m+1]·h/2**j, with m one integer
        floor root (Brent and Zimmermann, *Modern Computer Arithmetic*,
        2010, section 1.5)."""
        exact = self.as_fraction()
        if exact is not None:
            return (exact, exact)
        d = self.degree
        r = abs(self.radicand)
        h = max(Fraction(1), r)
        p, q = h.numerator, h.denominator
        j = (-(-(p << scale_bits) // q) - 1).bit_length()
        step = q << j
        n = r.numerator * step ** d // (r.denominator * p ** d)
        m = _iroot_floor(n, d)
        lo, hi = Fraction(p * m, step), Fraction(p * (m + 1), step)
        return (-hi, -lo) if self.radicand < 0 else (lo, hi)

    def __float__(self) -> float:
        lo, hi = self.enclosure(60)
        return float((lo + hi) / 2)


def _iroot_floor(n: int, k: int) -> int:
    """The largest m with m**k <= n, for n >= 0, by integer Newton steps
    down from a power of two above the root."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _iroot_exact(n: int, k: int) -> int | None:
    """Integer k-th root of n when exact, else None."""
    if n < 0:
        return None
    m = _iroot_floor(n, k)
    return m if m ** k == n else None


def value_bounds(v) -> tuple[Fraction, Fraction]:
    """Exact rational lower/upper bounds for any value shape."""
    if isinstance(v, Fraction):
        return (v, v)
    if isinstance(v, int):
        return (Fraction(v), Fraction(v))
    if isinstance(v, Approx):
        return v.bounds()
    if isinstance(v, RootValue):
        return v.enclosure()
    raise TypeError(f"not a mean value: {type(v).__name__}")


def value_mid(v) -> Fraction:
    lo, hi = value_bounds(v)
    return (lo + hi) / 2


def values_close(a, b, tol: Fraction = Fraction(0)) -> bool:
    """True when the values could coincide within tol, honoring bounds."""
    alo, ahi = value_bounds(a)
    blo, bhi = value_bounds(b)
    return alo - tol <= bhi and blo - tol <= ahi


def value_le(a, b, tol: Fraction = Fraction(0)) -> bool:
    """True when a <= b is consistent with both values' bounds plus tol."""
    alo, _ = value_bounds(a)
    _, bhi = value_bounds(b)
    return alo <= bhi + tol


def value_lt_strict(a, b) -> bool:
    """True when a < b holds for every point of both bounds."""
    _, ahi = value_bounds(a)
    blo, _ = value_bounds(b)
    return ahi < blo


def parse_rational_text(text: str) -> Fraction:
    """Exact rational from 'p/q', integer, decimal, or scientific text."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameters(f"not a rational: {text!r}") from exc


def decimal_str(x: Fraction) -> str:
    """Correctly rounded rendering to 12 places (ties to even)."""
    places = 12
    sign = "-" if x < 0 else ""
    n, d = abs(x.numerator), x.denominator
    scaled = n * 10 ** places
    q, rem = divmod(scaled, d)
    double = 2 * rem
    if double > d or (double == d and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, 10 ** places)
    return f"{sign}{printable(whole)}.{str(frac).zfill(places)}"


def float_or_decimal(x: Fraction) -> float | str:
    """x as a float, or as its ``decimal_str`` text when it lies past the
    float range."""
    try:
        return float(x)
    except OverflowError:
        return decimal_str(x)


# The interpreter's int-string digit limit (0: none); older ones have none.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def printable(n: int) -> int:
    """n itself when ``str(n)`` can print it: UnrepresentableResult when n
    has more digits than ``sys.get_int_max_str_digits()`` allows (the limit
    is read on every call, never set)."""
    limit = _max_str_digits()
    m = abs(n)
    # 8**limit < 10**limit, so up to 3*limit bits always fit
    if limit and m.bit_length() > 3 * limit and m >= 10 ** limit:
        raise UnrepresentableResult(
            f"the answer holds an integer of more than {limit} digits, "
            "the interpreter's limit for converting an integer to text")
    return n
