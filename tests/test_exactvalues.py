from fractions import Fraction

import pytest

from rmtlab.exactvalues import ExactComplex


@pytest.mark.parametrize("rational", [0, 1, -3, Fraction(2, 3)])
def test_exact_complex_equals_rationals_both_ways(rational):
    value = ExactComplex.from_rational(rational)
    assert value == rational
    assert rational == value
    assert not value != rational
    assert value != rational + 1
    assert rational + 1 != value
    assert ExactComplex(rational, 1) != rational
    assert ExactComplex(rational, 0, 1) != rational


def test_exact_complex_named_equalities():
    assert ExactComplex(1) == 1
    assert ExactComplex(1) == Fraction(1)
    assert Fraction(0) == ExactComplex(0)
    assert ExactComplex(Fraction(1, 2)) == Fraction(1, 2)


def test_exact_complex_is_not_equal_to_floats_or_strings():
    assert ExactComplex(1) != 1.0
    assert ExactComplex(1) != "1"


def test_exact_complex_subtracts_rationals():
    z = ExactComplex(Fraction(5, 2), 1, -1, Fraction(1, 3))
    assert z - 1 == ExactComplex(Fraction(3, 2), 1, -1, Fraction(1, 3))
    assert z - Fraction(1, 2) == ExactComplex(2, 1, -1, Fraction(1, 3))
    assert ExactComplex(1) - Fraction(1) == 0
    assert 1 - ExactComplex(1) == 0
    assert Fraction(1, 2) - z == ExactComplex(-2, -1, 1, Fraction(-1, 3))
    assert 3 - z == -(z - 3)
    assert isinstance(1 - z, ExactComplex)
    assert z - Fraction(2, 7) == z + Fraction(-2, 7)
