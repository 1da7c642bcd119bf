"""Exact complex values in Q[i, sqrt(2)] plus entry-distribution moments.

Joint cumulants of Hermitian-matrix entries built from mean-0, variance-1
real distributions mostly live in this ring: the off-diagonal
normalization (x + iy)/sqrt(2) contributes half-integer powers of 2, and
``sqrt_fraction_or_raise`` takes the square root of any rational whose
root lies in Q[sqrt(2)].  A root outside it (an odd moment of a factor
value like sqrt(3/2)) raises InexactValue, so callers can redo the sum in
floats.  Entry cumulants come from entry moments through
``partitions.cumulants_from_moments``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .partitions import cumulants_from_moments
from .ring import as_fraction

_SQRT2 = math.sqrt(2.0)


class InexactValue(Exception):
    """The requested quantity is not representable in Q[i, sqrt(2)]."""


class ExactComplex:
    """(a + b sqrt2) + i (c + d sqrt2) with Fraction coefficients, each made
    from an int or Fraction (see ``ring.as_fraction``)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = as_fraction(a)
        self.b = as_fraction(b)
        self.c = as_fraction(c)
        self.d = as_fraction(d)

    @classmethod
    def from_rational(cls, value) -> "ExactComplex":
        """An int or Fraction as an element; a float, which would turn into
        its binary value, is refused like every other type."""
        return cls(value)

    def __add__(self, o) -> "ExactComplex":
        if not isinstance(o, ExactComplex):
            o = ExactComplex.from_rational(o)
        return ExactComplex(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, o) -> "ExactComplex":
        if not isinstance(o, ExactComplex):
            o = ExactComplex.from_rational(o)
        return ExactComplex(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, o) -> "ExactComplex":
        return ExactComplex.from_rational(o) - self

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o):
        if not isinstance(o, ExactComplex):
            o = ExactComplex.from_rational(o)
        # real/imag parts multiply as elements of Q[sqrt2]
        re_a = self.a * o.a + 2 * self.b * o.b - (self.c * o.c + 2 * self.d * o.d)
        re_b = self.a * o.b + self.b * o.a - (self.c * o.d + self.d * o.c)
        im_a = self.a * o.c + 2 * self.b * o.d + self.c * o.a + 2 * self.d * o.b
        im_b = self.a * o.d + self.b * o.c + self.c * o.b + self.d * o.a
        return ExactComplex(re_a, re_b, im_a, im_b)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ExactComplex":
        """Non-negative integer power, by repeated multiplication."""
        if k < 0:
            raise ValueError("ExactComplex powers must be non-negative")
        result = ExactComplex(1)
        for _ in range(k):
            result = result * self
        return result

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def __eq__(self, o) -> bool:
        if isinstance(o, (int, Fraction)):
            o = ExactComplex.from_rational(o)
        if isinstance(o, ExactComplex):
            return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)
        return NotImplemented

    def __complex__(self) -> complex:
        return complex(float(self.a) + float(self.b) * _SQRT2,
                       float(self.c) + float(self.d) * _SQRT2)

    def __repr__(self) -> str:
        return f"ExactComplex({self.a}, {self.b}, {self.c}, {self.d})"


_I_POWERS = (ExactComplex(1), ExactComplex(0, 0, 1), ExactComplex(-1), ExactComplex(0, 0, -1))


def i_power(k: int) -> ExactComplex:
    return _I_POWERS[k % 4]


# ---------------------------------------------------------------------------
# moments and cumulants of the normalized entry distributions
# ---------------------------------------------------------------------------

ENTRY_DISTS = ("gaussian", "rademacher", "uniform", "centered_exponential")


def _derangement(k: int) -> int:
    # E[(X-1)^k] for X ~ Exp(1); the k-th derangement number.
    return sum(comb(k, j) * factorial(j) * (-1) ** (k - j) for j in range(k + 1))


@lru_cache(maxsize=None)
def entry_moment(dist: str, k: int) -> Fraction:
    """k-th moment of the mean-0, variance-1 entry distribution."""
    if k == 0:
        return Fraction(1)
    if dist == "gaussian":
        if k % 2:
            return Fraction(0)
        return Fraction(math.prod(range(1, k, 2)))  # (k-1)!!
    if dist == "rademacher":
        return Fraction(0) if k % 2 else Fraction(1)
    if dist == "uniform":
        # uniform on [-sqrt3, sqrt3]
        return Fraction(0) if k % 2 else Fraction(3 ** (k // 2), k + 1)
    if dist == "centered_exponential":
        return Fraction(_derangement(k))
    raise ValueError(f"unknown entry distribution {dist!r}")


@lru_cache(maxsize=None)
def entry_cumulant(dist: str, k: int) -> Fraction:
    """k-th cumulant via Moebius inversion of the moment sequence."""
    if k < 1:
        raise ValueError("cumulant order must be positive")
    return cumulants_from_moments(lambda block: entry_moment(dist, len(block)), range(k))


def _rational_sqrt(value: Fraction) -> Fraction | None:
    rn, rd = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_fraction_or_raise(value: Fraction) -> Fraction | ExactComplex:
    """sqrt of a non-negative rational in Q[sqrt2], else InexactValue.

    A rational root comes back as a Fraction; sqrt(v) = sqrt(2v) sqrt2 / 2
    when 2v is a rational square, so sqrt(1/2) = sqrt2/2."""
    root = _rational_sqrt(value)
    if root is not None:
        return root
    root = _rational_sqrt(2 * value)
    if root is not None:
        return ExactComplex(0, root / 2)
    raise InexactValue(f"sqrt({value}) is not in Q[sqrt2]")
