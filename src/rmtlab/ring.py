"""Exact coefficient ring for the replica flow.

Elements are finite sums of terms ``coeff * n**a * N**(b/2)`` with rational
coefficients, integer replica power ``a >= 0`` and integer half-power ``b``
of the matrix size (``b`` may be negative).  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


def as_fraction(value) -> Fraction:
    """An int or Fraction as a Fraction; anything else, a float above all,
    which would silently become its binary value, raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact values are int or Fraction, not {type(value).__name__}")


def _sorted_nonzero(acc: dict) -> tuple:
    """Canonical term tuple of a dict of exact ``Fraction`` sums per key."""
    return tuple(sorted(item for item in acc.items() if item[1]))


class RingElement:
    """Immutable element of Q[n, N^(1/2), N^(-1/2)] in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | Iterable = ()):
        """Validating constructor for outside input: coerces, merges, drops zeros, sorts."""
        is_mapping = type(terms) is dict or isinstance(terms, Mapping)
        items = terms.items() if is_mapping else terms
        acc: dict[tuple[int, int], Fraction] = {}
        for (a, b), coeff in items:
            if a < 0:
                raise ValueError("replica power must be non-negative")
            coeff = as_fraction(coeff)
            if coeff:
                key = (int(a), int(b))
                acc[key] = acc.get(key, Fraction(0)) + coeff
                if not acc[key]:
                    del acc[key]
        self._terms = tuple(sorted(acc.items()))

    # -- constructors ---------------------------------------------------

    @classmethod
    def _canonical(cls, terms: tuple) -> "RingElement":
        """Wrap a term tuple already in canonical form: keys sorted and
        distinct, every coefficient a non-zero ``Fraction``."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "RingElement":
        return cls._canonical(())

    @classmethod
    def one(cls) -> "RingElement":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def scalar(cls, value) -> "RingElement":
        return cls({(0, 0): value})

    @classmethod
    def n(cls) -> "RingElement":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def N_half(cls, b: int = 1, coeff=1) -> "RingElement":
        """The monomial ``coeff * N**(b/2)``."""
        return cls({(0, b): coeff})

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "RingElement") -> "RingElement":
        if not other._terms:
            return self
        if not self._terms:
            return other
        merged = dict(self._terms)
        for key, coeff in other._terms:
            merged[key] = merged[key] + coeff if key in merged else coeff
        return RingElement._canonical(_sorted_nonzero(merged))

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not other._terms:
            return self
        merged = dict(self._terms)
        for key, coeff in other._terms:
            merged[key] = merged[key] - coeff if key in merged else -coeff
        return RingElement._canonical(_sorted_nonzero(merged))

    def __neg__(self) -> "RingElement":
        return RingElement._canonical(tuple((key, -coeff) for key, coeff in self._terms))

    def __mul__(self, other):
        if isinstance(other, RingElement):
            acc: dict[tuple[int, int], Fraction] = {}
            for (a1, b1), c1 in self._terms:
                for (a2, b2), c2 in other._terms:
                    key = (a1 + a2, b1 + b2)
                    acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
            return RingElement._canonical(_sorted_nonzero(acc))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, value) -> "RingElement":
        value = as_fraction(value)
        if value == 1:
            return self
        if not value:
            return RingElement._canonical(())
        return RingElement._canonical(tuple((key, coeff * value) for key, coeff in self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingElement) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    # -- grading ----------------------------------------------------------

    @property
    def terms(self) -> tuple:
        return self._terms

    def n_grade(self, a: int) -> "RingElement":
        """Part with replica power exactly ``a``, kept at that power."""
        return RingElement._canonical(tuple(item for item in self._terms if item[0][0] == a))

    def max_n_power(self) -> int | None:
        return max((a for (a, _), _ in self._terms), default=None)

    def max_N_grade(self) -> Fraction | None:
        """Largest power of N present, in units of N**1 (so b/2)."""
        if not self._terms:
            return None
        return Fraction(max(b for (_, b), _ in self._terms), 2)

    def large_N_limit(self) -> Fraction:
        """Coefficient surviving N -> infinity; requires no positive grade."""
        for (a, b), _ in self._terms:
            if b > 0:
                raise ValueError("positive N grade has no large-N limit")
        out = Fraction(0)
        for (a, b), coeff in self._terms:
            if b == 0:
                if a != 0:
                    raise ValueError("large-N limit of an n-graded part")
                out += coeff
        return out

    def shift_N(self, b: int) -> "RingElement":
        """Multiply by N**(b/2)."""
        return RingElement._canonical(tuple(((a, bb + b), c) for (a, bb), c in self._terms))

    # -- serialization ----------------------------------------------------

    def to_triples(self) -> list[list[int]]:
        """JSON form: one ``[num, den, a, b]`` quadruple per term."""
        return [[c.numerator, c.denominator, a, b] for (a, b), c in self._terms]

    @classmethod
    def from_triples(cls, triples) -> "RingElement":
        return cls({(a, b): Fraction(num, den) for num, den, a, b in triples})

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for (a, b), c in self._terms:
            piece = str(c)
            if a:
                piece += f"*n^{a}" if a > 1 else "*n"
            if b:
                piece += f"*N^{Fraction(b, 2)}"
            bits.append(piece)
        return " + ".join(bits)
