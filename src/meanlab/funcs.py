"""Strictly monotone transform functions applied to real sets.

Exact kinds (affine, odd powers, square on the nonnegative half-line, and
compositions of those) evaluate rationals to rationals and invert to exact
shapes (Fraction or RootValue). Exponential and logarithm kinds evaluate to
certified rational enclosures built from directed-rounding interval
arithmetic; the enclosure width budget is 2**-80 unless a caller asks for
more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameters, DomainViolation
from .values import Approx, RootValue, parse_rational_text, value_bounds

FORWARD_BITS = 80


def _frac_to_iv(iv, x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _mpf_tuple_to_frac(t) -> Fraction:
    sign, man, exp, _ = t
    f = Fraction(int(man)) * (Fraction(2) ** int(exp))
    return -f if sign else f


def _iv_bounds(x) -> tuple[Fraction, Fraction]:
    a, b = x._mpi_
    return _mpf_tuple_to_frac(a), _mpf_tuple_to_frac(b)


def _certified(compute, bits: int) -> tuple[Fraction, Fraction]:
    """Run ``compute(iv)`` at rising precision until width <= 2**-bits.

    The only import of mpmath: it loads on the first certified value."""
    from mpmath import iv

    prec = bits + 40
    tol = Fraction(1, 2 ** bits)
    for _ in range(6):
        old = iv.prec
        iv.prec = prec
        try:
            lo, hi = _iv_bounds(compute(iv))
        finally:
            iv.prec = old
        if hi - lo <= tol:
            return lo, hi
        prec *= 2
    raise BadParameters("enclosure failed to reach the requested width")


def _exp_bounds(base: Fraction, x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of base**x."""
    return _certified(lambda iv: iv.exp(_frac_to_iv(iv, x)
                                        * iv.log(_frac_to_iv(iv, base))), bits)


def _log_bounds(base: Fraction, x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of log_base(x) for x > 0."""
    return _certified(lambda iv: iv.log(_frac_to_iv(iv, x))
                      / iv.log(_frac_to_iv(iv, base)), bits)


class MonotoneFunc:
    """Base: strictly monotone continuous function on a declared domain."""

    exact = False
    increasing = True

    def contains(self, x: Fraction) -> bool:
        return True

    def apply(self, x: Fraction) -> Fraction:
        raise DomainViolation(f"{self.name()} has no exact forward evaluation")

    def apply_bounds(self, x: Fraction, bits: int = FORWARD_BITS) -> tuple[Fraction, Fraction]:
        v = self.apply(x)
        return v, v

    def integral(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Bounds on the integral of f over [lo, hi]; equal for an exact kind."""
        raise BadParameters(f"no closed-form integral for transform {self.name()}")

    def inverse_bounds(self, y: Fraction, bits: int) -> tuple[Fraction, Fraction]:
        """Enclosure of the inverse image of the rational y."""
        raise NotImplementedError

    def invert(self, v, bits: int = FORWARD_BITS):
        """Enclosure of the inverse image of a value shape, from its bounds."""
        lo, hi = value_bounds(v)
        if not self.increasing:
            lo, hi = hi, lo  # the inverse decreases too
        rlo, _ = self.inverse_bounds(lo, bits)
        _, rhi = self.inverse_bounds(hi, bits)
        return Approx((rlo + rhi) / 2, (rhi - rlo) / 2)

    def name(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Affine(MonotoneFunc):
    """x -> slope*x + shift with nonzero slope."""

    slope: Fraction
    shift: Fraction

    def __post_init__(self):
        if self.slope == 0:
            raise BadParameters("affine transform needs a nonzero slope")

    exact = True

    @property
    def increasing(self) -> bool:
        return self.slope > 0

    def apply(self, x: Fraction) -> Fraction:
        return self.slope * x + self.shift

    def integral(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        v = self.slope * (hi * hi - lo * lo) / 2 + self.shift * (hi - lo)
        return v, v

    def inverse_bounds(self, y: Fraction, bits: int) -> tuple[Fraction, Fraction]:
        x = (y - self.shift) / self.slope
        return x, x

    def invert(self, v, bits: int = FORWARD_BITS):
        if isinstance(v, Fraction):
            return (v - self.shift) / self.slope
        if isinstance(v, RootValue):
            exact = v.as_fraction()
            if exact is not None:
                return (exact - self.shift) / self.slope
            if self.shift == 0:
                # (r^(1/n))/a = (r/a^n)^(1/n), sign handled for odd n
                if self.slope > 0 or v.degree % 2 == 1:
                    return RootValue(v.radicand / self.slope ** v.degree, v.degree)
        return super().invert(v, bits)

    def name(self) -> str:
        return f"affine({self.slope},{self.shift})"


def _odd_exponent(n) -> int:
    """n as an int when it is an odd integer >= 1; else BadParameters."""
    if n != int(n) or n < 1 or n % 2 == 0:
        raise BadParameters("power kind needs an odd positive exponent")
    return int(n)


@dataclass(frozen=True)
class Power(MonotoneFunc):
    """x -> x**n, increasing: n odd on the whole line, n = 2 on x >= 0."""

    n: int

    def __post_init__(self):
        if self.n != 2:
            _odd_exponent(self.n)

    exact = True
    increasing = True

    def contains(self, x: Fraction) -> bool:
        return self.n != 2 or x >= 0

    def apply(self, x: Fraction) -> Fraction:
        if not self.contains(x):
            raise DomainViolation("square transform domain is x >= 0")
        return x ** self.n

    def integral(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        m = self.n + 1
        v = (hi ** m - lo ** m) / m
        return v, v

    def _root(self, y: Fraction) -> RootValue:
        if not self.contains(y):
            raise DomainViolation("square images are nonnegative")
        return RootValue(y, self.n)

    def inverse_bounds(self, y: Fraction, bits: int) -> tuple[Fraction, Fraction]:
        return self._root(y).enclosure(bits)

    def invert(self, v, bits: int = FORWARD_BITS):
        if isinstance(v, Fraction):
            r = self._root(v)
            exact = r.as_fraction()
            return exact if exact is not None else r
        return super().invert(v, bits)

    def name(self) -> str:
        return "square" if self.n == 2 else f"pow({self.n})"


@dataclass(frozen=True)
class ExpBase(MonotoneFunc):
    """x -> base**x for rational base > 0, base != 1."""

    base: Fraction

    def __post_init__(self):
        if self.base <= 0 or self.base == 1:
            raise BadParameters("exp kind needs base > 0, base != 1")

    exact = False

    @property
    def increasing(self) -> bool:
        return self.base > 1

    def apply_bounds(self, x: Fraction, bits: int = FORWARD_BITS) -> tuple[Fraction, Fraction]:
        return _exp_bounds(self.base, x, bits)

    def integral(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        # integral of b**x = (b**hi - b**lo) / ln(b)
        def compute(iv):
            lnb = iv.log(_frac_to_iv(iv, self.base))
            return (iv.exp(_frac_to_iv(iv, hi) * lnb)
                    - iv.exp(_frac_to_iv(iv, lo) * lnb)) / lnb

        return _certified(compute, FORWARD_BITS)

    def inverse_bounds(self, y: Fraction, bits: int) -> tuple[Fraction, Fraction]:
        if y <= 0:
            raise DomainViolation("exp images are positive")
        return _log_bounds(self.base, y, bits)

    def name(self) -> str:
        return f"exp({self.base})"


@dataclass(frozen=True)
class LogBase(MonotoneFunc):
    """x -> log_base(x) on x > 0 for rational base > 0, base != 1."""

    base: Fraction

    def __post_init__(self):
        if self.base <= 0 or self.base == 1:
            raise BadParameters("log kind needs base > 0, base != 1")

    exact = False

    @property
    def increasing(self) -> bool:
        return self.base > 1

    def contains(self, x: Fraction) -> bool:
        return x > 0

    def apply_bounds(self, x: Fraction, bits: int = FORWARD_BITS) -> tuple[Fraction, Fraction]:
        if x <= 0:
            raise DomainViolation("log transform domain is x > 0")
        return _log_bounds(self.base, x, bits)

    def integral(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        # integral of log_b(x) = (x ln x - x) / ln(b)
        if lo <= 0:
            raise DomainViolation("logarithm integral needs a positive domain")

        def compute(iv):
            lnb = iv.log(_frac_to_iv(iv, self.base))
            xlo, xhi = _frac_to_iv(iv, lo), _frac_to_iv(iv, hi)
            return ((xhi * iv.log(xhi) - xhi)
                    - (xlo * iv.log(xlo) - xlo)) / lnb

        return _certified(compute, FORWARD_BITS)

    def inverse_bounds(self, y: Fraction, bits: int) -> tuple[Fraction, Fraction]:
        return _exp_bounds(self.base, y, bits)

    def name(self) -> str:
        return f"log({self.base})"


@dataclass(frozen=True)
class Compose(MonotoneFunc):
    """outer(inner(x)); strictly monotone as a composition."""

    outer: MonotoneFunc
    inner: MonotoneFunc

    @property
    def exact(self) -> bool:
        return self.outer.exact and self.inner.exact

    @property
    def increasing(self) -> bool:
        return self.outer.increasing == self.inner.increasing

    def contains(self, x: Fraction) -> bool:
        if not self.inner.contains(x):
            return False
        if not self.inner.exact:
            lo, hi = self.inner.apply_bounds(x)
            return self.outer.contains(lo) and self.outer.contains(hi)
        return self.outer.contains(self.inner.apply(x))

    def apply(self, x: Fraction) -> Fraction:
        return self.outer.apply(self.inner.apply(x))

    def apply_bounds(self, x: Fraction, bits: int = FORWARD_BITS) -> tuple[Fraction, Fraction]:
        ilo, ihi = self.inner.apply_bounds(x, bits + 10)
        olo = self.outer.apply_bounds(ilo, bits + 10)
        ohi = self.outer.apply_bounds(ihi, bits + 10)
        return min(olo[0], ohi[0]), max(olo[1], ohi[1])

    def integral(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        if isinstance(self.outer, Affine):
            a, shift = self.outer.slope, self.outer.shift * (hi - lo)
            ilo, ihi = sorted(a * b for b in self.inner.integral(lo, hi))
            return ilo + shift, ihi + shift
        if isinstance(self.inner, Affine):
            # integral of g(a*x + s) over [lo, hi] = (1/a) integral of g(u)
            a, s = self.inner.slope, self.inner.shift
            u1, u2 = sorted((a * lo + s, a * hi + s))
            ilo, ihi = self.outer.integral(u1, u2)
            return ilo / abs(a), ihi / abs(a)
        return super().integral(lo, hi)

    def invert(self, v, bits: int = FORWARD_BITS):
        mid = self.outer.invert(v, bits + 10)
        if isinstance(mid, (Fraction, RootValue)):
            return self.inner.invert(mid, bits)
        lo, hi = value_bounds(mid)
        a = self.inner.invert(lo, bits + 10)
        b = self.inner.invert(hi, bits + 10)
        alo, ahi = value_bounds(a)
        blo, bhi = value_bounds(b)
        lo2, hi2 = min(alo, blo), max(ahi, bhi)
        return Approx((lo2 + hi2) / 2, (hi2 - lo2) / 2)

    def name(self) -> str:
        return f"compose({self.outer.name()},{self.inner.name()})"


SQUARE = Power(2)


def parse_func(text: str) -> MonotoneFunc:
    """Parse a transform spec like ``square``, ``pow(3)``, ``affine(2,1)``,
    ``exp(2)``, ``log(10)``, or ``compose(square,affine(1,3))``."""
    text = text.strip()
    if text == "square":
        return SQUARE
    if text == "identity":
        return Affine(Fraction(1), Fraction(0))
    for head in ("pow", "affine", "exp", "log", "compose"):
        if text.startswith(head + "(") and text.endswith(")"):
            body = text[len(head) + 1:-1]
            if head == "compose":
                depth, cut = 0, -1
                for i, ch in enumerate(body):
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                    elif ch == "," and depth == 0:
                        cut = i
                        break
                if cut < 0:
                    raise BadParameters("compose needs two arguments")
                return Compose(parse_func(body[:cut]), parse_func(body[cut + 1:]))
            args = [parse_rational_text(a) for a in body.split(",")]
            if head == "pow" and len(args) == 1:
                return Power(_odd_exponent(args[0]))
            if head == "affine" and len(args) == 2:
                return Affine(args[0], args[1])
            if head == "exp" and len(args) == 1:
                return ExpBase(args[0])
            if head == "log" and len(args) == 1:
                return LogBase(args[0])
            raise BadParameters(f"wrong arguments for {head}(...)")
    raise BadParameters(f"unknown transform function: {text!r}")
