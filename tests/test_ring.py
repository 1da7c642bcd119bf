from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab.exactvalues import ExactComplex
from rmtlab.partitions import gaussian_cumulant_function
from rmtlab.replica_rg import CumulantSpec
from rmtlab.ring import RingElement


def test_canonical_form_drops_zeros_and_merges():
    e = RingElement({(0, 0): Fraction(1, 2), (1, -2): Fraction(3)})
    f = RingElement({(1, -2): Fraction(-3), (0, 0): Fraction(1, 2)})
    assert (e + f).terms == ((((0, 0)), Fraction(1)),)
    assert not (e - e)
    assert RingElement.zero() == RingElement({(2, 4): 0})


def test_arithmetic():
    n = RingElement.n()
    half = RingElement.N_half(-2)  # N^-1
    x = RingElement.one() + n * half
    # (1 + n/N)^2 = 1 + 2n/N + n^2/N^2
    sq = x * x
    assert sq == RingElement({(0, 0): 1, (1, -2): 2, (2, -4): 1})
    assert x.scale(Fraction(1, 3)) * 3 == x
    assert -(x - x) == RingElement.zero()


def test_grading_selectors():
    e = RingElement({(0, 0): 2, (1, -2): 5, (0, -4): 7})
    assert e.n_grade(0) == RingElement({(0, 0): 2, (0, -4): 7})
    assert e.n_grade(1) == RingElement({(1, -2): 5})
    assert e.max_n_power() == 1
    assert e.max_N_grade() == 0
    assert e.n_grade(0).large_N_limit() == 2


def test_large_n_limit_rejects_positive_grade():
    e = RingElement({(0, 1): 1})
    with pytest.raises(ValueError):
        e.large_N_limit()


def test_negative_replica_power_rejected():
    with pytest.raises(ValueError):
        RingElement({(-1, 0): 1})


def test_shift_and_serialization_roundtrip():
    e = RingElement({(2, -3): Fraction(5, 7), (0, 0): 1})
    assert e.shift_N(3) == RingElement({(2, 0): Fraction(5, 7), (0, 3): 1})
    assert RingElement.from_triples(e.to_triples()) == e


# --- property test against a plain dict-of-Fraction reference -------------------

def ref_clean(d):
    return {key: c for key, c in d.items() if c}


def ref_add(x, y, sign=1):
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(x, y):
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return ref_clean(out)


def assert_canonical(e, reference):
    keys = [key for key, _ in e.terms]
    assert keys == sorted(set(keys))
    assert all(type(c) is Fraction and c for _, c in e.terms)
    assert e == RingElement(dict(e.terms))
    assert dict(e.terms) == reference


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
term_dicts = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-4, 4)),
                             small_fractions, max_size=5)


@settings(max_examples=200, deadline=None)
@given(term_dicts, term_dicts, st.sampled_from([0, 1, -1, Fraction(2, 3), 7]),
       st.integers(-3, 3))
def test_ring_matches_dict_reference(x, y, factor, shift):
    ex, ey = RingElement(x), RingElement(y)
    x, y = ref_clean(x), ref_clean(y)
    assert_canonical(ex, x)
    assert_canonical(ex + ey, ref_add(x, y))
    assert_canonical(ex - ey, ref_add(x, y, -1))
    assert_canonical(-ex, {key: -c for key, c in x.items()})
    assert_canonical(ex * ey, ref_mul(x, y))
    assert_canonical(ex.scale(factor), ref_clean({key: c * factor for key, c in x.items()}))
    assert_canonical(ex * factor, ref_clean({key: c * factor for key, c in x.items()}))
    assert_canonical(ex.shift_N(shift), {(a, b + shift): c for (a, b), c in x.items()})
    assert_canonical(ex.n_grade(1), {key: c for key, c in x.items() if key[0] == 1})
    with pytest.raises(ValueError):
        RingElement({(-1, 0): 1} | x)



# --- one rule for exact inputs: int or Fraction, else TypeError --------------------

# each builds a value from v and reads v back
EXACT_ENTRY_POINTS = {
    "ExactComplex": lambda v: ExactComplex(v).a,
    "ExactComplex_sqrt2_part": lambda v: ExactComplex(1, v).b,
    "RingElement": lambda v: RingElement({(0, 0): v}).large_N_limit(),
    "RingElement.scalar": lambda v: RingElement.scalar(v).large_N_limit(),
    "RingElement.scale": lambda v: RingElement.one().scale(v).large_N_limit(),
    "gaussian_spec": lambda v: CumulantSpec.gaussian_spec(v).gaussian[0][1].large_N_limit(),
    "gaussian_cumulant_function":
        lambda v: gaussian_cumulant_function(v).on_pairs(((0, 1), (1, 0)), 3),
}


@pytest.mark.parametrize("entry", sorted(EXACT_ENTRY_POINTS))
def test_exact_entry_points_refuse_floats_and_take_rationals(entry):
    build = EXACT_ENTRY_POINTS[entry]
    with pytest.raises(TypeError):
        build(0.1)
    for value in (3, Fraction(2, 7)):
        got = build(value)
        assert type(got) is Fraction and got == value
