import itertools
import math
import random
from fractions import Fraction

import pytest

from rmtlab.exactvalues import ExactComplex
from rmtlab.graphs import CapacityError, is_eulerian
from rmtlab.partitions import (MAX_MOMENT_ENTRIES, CumulantFunction, ExtrapolationResult,
                               SetPartition, catalan, cumulants_from_moments, extrapolate_limit,
                               gaussian_cumulant_function, moments_from_cumulants,
                               set_partitions, trace_moment_expectation)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


# --- independent oracle: Gaussian moments by pairing enumeration only --------

def wick_pairing_moment(pairs, sigma_sq=Fraction(1)):
    """Sum over perfect matchings of pair covariances sigma^2 d_il d_jk."""
    k = len(pairs)
    if k % 2:
        return Fraction(0)

    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for i, other in enumerate(rest):
            for tail in pairings(rest[:i] + rest[i + 1:]):
                yield [(first, other)] + tail

    total = Fraction(0)
    for matching in pairings(list(range(k))):
        prod = Fraction(1)
        for a, b in matching:
            (i, j), (kk, ll) = pairs[a], pairs[b]
            prod *= sigma_sq if (i == ll and j == kk) else Fraction(0)
            if not prod:
                break
        total += prod
    return total


def at_n(c, N):
    """``c`` at size N, as the block callable ``moments_from_cumulants`` takes."""
    return lambda block: c.on_pairs(block, N)


def bell_sum_moment(c, pairs):
    """The moment as a plain sum over all Bell(k) partitions of block-cumulant products."""
    total = Fraction(0)
    for part in set_partitions(len(pairs)):
        prod = Fraction(1)
        for block in part.blocks:
            prod *= c([pairs[i] for i in block])
            if not prod:
                break
        total += prod
    return total


def brute_force_trace_moment(N, k, c):
    """(1/N^(k/2+1)) <Tr M^k> summed over all N^k index tuples."""
    total = Fraction(0)
    for tup in itertools.product(range(N), repeat=k):
        pairs = [(tup[i], tup[(i + 1) % k]) for i in range(k)]
        total += moments_from_cumulants(at_n(c, N), pairs)
    if k % 2 == 0:
        return total / Fraction(N) ** (k // 2 + 1)
    if total == 0:
        return Fraction(0)
    return float(total) / float(N) ** (k / 2 + 1)


def harer_zagier_gue(N, k):
    """<Tr M^(2k)> for GUE with E|M_ij|^2 = 1 (Harer & Zagier, Invent. Math. 1986)."""
    c = [Fraction(N), Fraction(N * N)]
    for j in range(2, k + 1):
        c.append(((4 * j - 2) * N * c[j - 1]
                  + (j - 1) * (2 * j - 1) * (2 * j - 3) * c[j - 2]) / (j + 1))
    return c[k]


def test_set_partition_counts_match_bell():
    for k in range(1, 9):
        assert len(set_partitions(k)) == BELL[k]


def test_set_partitions_base_case_and_order():
    parts = set_partitions(1)
    assert parts == [SetPartition(1, ((0,),))]
    # restricted-growth order is deterministic: first partition is all-in-one
    parts3 = set_partitions(3)
    assert parts3[0].blocks == ((0, 1, 2),)
    assert len(parts3) == 5


def test_set_partitions_result_is_a_fresh_list():
    first = set_partitions(4)
    first.clear()
    again = set_partitions(4)
    assert len(again) == BELL[4]
    assert again is not set_partitions(4)
    assert again == set_partitions(4)


def test_set_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, ((0, 1),))
    with pytest.raises(ValueError):
        SetPartition(2, ((0,), (0, 1)))


def test_set_partitions_capacity():
    with pytest.raises(CapacityError):
        set_partitions(11)


def test_gaussian_single_pair():
    c = gaussian_cumulant_function()
    assert moments_from_cumulants(at_n(c, 4), [(1, 2), (2, 1)]) == 1
    assert moments_from_cumulants(at_n(c, 4), [(1, 2), (1, 2)]) == 0


def test_gaussian_fourth_moment_two_pairings():
    c = gaussian_cumulant_function()
    assert moments_from_cumulants(at_n(c, 4), [(1, 2), (2, 1), (1, 2), (2, 1)]) == 2


def test_scalar_isserlis_fourth_moment():
    # all indices equal: diagonal cumulants of a standard Gaussian
    c = gaussian_cumulant_function()
    assert moments_from_cumulants(at_n(c, 4), [(1, 1)] * 4) == 3


def test_moments_match_wick_pairing_oracle():
    c = gaussian_cumulant_function()
    rng = random.Random(12)
    for _ in range(40):
        k = rng.choice([2, 3, 4, 5, 6])
        pairs = [(rng.randrange(3), rng.randrange(3)) for _ in range(k)]
        assert moments_from_cumulants(at_n(c, 3), pairs) == wick_pairing_moment(pairs)


def random_block_values(rng, draw):
    """A block callable with one value per block, drawn on first use; a third are zero."""
    table = {}

    def c(block):
        key = tuple(block)
        if key not in table:
            table[key] = draw() if rng.random() < 2 / 3 else 0
        return table[key]

    return c


@pytest.mark.parametrize("kind", ["fraction", "gaussian", "exact_complex"])
def test_moments_from_cumulants_equals_bell_partition_sum(kind):
    rng = random.Random(31)
    gauss = gaussian_cumulant_function(Fraction(3, 2))

    def fraction():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

    def exact_complex():
        return ExactComplex(*(fraction() for _ in range(4)))

    nonzero = 0
    for k in range(1, MAX_MOMENT_ENTRIES + 1):
        for _ in range(4):
            index = [rng.randrange(2) for _ in range(k)]
            pairs = [(index[i], index[(i + 1) % k]) for i in range(k)]
            if kind == "gaussian":
                c = at_n(gauss, 3)
            else:
                c = random_block_values(rng, fraction if kind == "fraction" else exact_complex)
            got, want = moments_from_cumulants(c, pairs), bell_sum_moment(c, pairs)
            assert got == want, (k, pairs)
            nonzero += bool(want)
    assert nonzero >= 10


def test_moments_from_cumulants_blocks_are_ascending_and_inputs_checked():
    seen = []

    def c(block):
        seen.append(block)
        return Fraction(1)

    pairs = [(i, i + 1) for i in range(6)]
    # with every cumulant 1 the moment counts the partitions
    assert moments_from_cumulants(c, pairs) == BELL[6]
    # every block that holds the first entry of some remaining set: all 63
    assert len(set(seen)) == 2 ** 6 - 1
    positions = {p: i for i, p in enumerate(pairs)}
    assert all(list(b) == sorted(b, key=positions.get) for b in seen)
    with pytest.raises(ValueError):
        moments_from_cumulants(c, [])
    with pytest.raises(CapacityError):
        moments_from_cumulants(c, [(0, 1)] * (MAX_MOMENT_ENTRIES + 1))


def test_cumulant_moment_roundtrip_on_random_rational_cumulants():
    rng = random.Random(5)
    pair_pool = [(0, 1), (1, 0), (0, 0), (1, 1)]
    table = {}

    def cum_eval(graph, assignment, n):
        key = (graph.to_text(), assignment)
        if key not in table:
            table[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        return table[key]

    c = CumulantFunction(cum_eval, "random")
    for size in (1, 2, 3, 4):
        for _ in range(8):
            pairs = tuple(rng.choice(pair_pool) for _ in range(size))
            m = lambda block: moments_from_cumulants(at_n(c, 2), block)
            assert cumulants_from_moments(m, pairs) == c.on_pairs(pairs, 2)


def test_covariance_inversion():
    # order 2: m_12 = c_12 + c_1 c_2
    def m(block):
        vals = {((0, 1),): Fraction(1, 3), ((1, 0),): Fraction(1, 5)}
        if len(block) == 1:
            return vals[tuple(block)]
        return Fraction(2)

    cov = cumulants_from_moments(m, ((0, 1), (1, 0)))
    assert cov == Fraction(2) - Fraction(1, 3) * Fraction(1, 5)


def test_trace_moment_k2_is_sigma_sq():
    for n in (1, 2, 3, 5):
        assert trace_moment_expectation(n, 2, gaussian_cumulant_function()) == 1
    c4 = gaussian_cumulant_function(Fraction(4))
    assert trace_moment_expectation(3, 2, c4) == 4


def test_trace_moment_k4_finite_n():
    c = gaussian_cumulant_function()
    for n in (2, 3, 4, 5):
        assert trace_moment_expectation(n, 4, c) == 2 + Fraction(1, n * n)
    assert trace_moment_expectation(2, 4, c) == Fraction(9, 4)


def test_trace_moment_odd_vanishes():
    c = gaussian_cumulant_function()
    assert trace_moment_expectation(3, 3, c) == 0
    assert trace_moment_expectation(2, 5, c) == 0


@pytest.mark.parametrize("n, k", [(0, 2), (0, 3), (-1, 2)])
def test_trace_moment_rejects_empty_matrices(n, k):
    with pytest.raises(ValueError, match="N must be at least 1"):
        trace_moment_expectation(n, k, gaussian_cumulant_function())


def test_trace_moment_capacity():
    with pytest.raises(CapacityError):
        trace_moment_expectation(100, 8, gaussian_cumulant_function())


def test_trace_moment_capacity_bounds_the_order_not_the_tuples():
    # 7^8 tuples once passed a bound on N^k and then ran for days
    with pytest.raises(CapacityError):
        trace_moment_expectation(7, 8, gaussian_cumulant_function())
    n = 1000
    assert trace_moment_expectation(n, 6, gaussian_cumulant_function()) == \
        5 + Fraction(10, n * n)


def relabelling_invariant_cumulants(graph, assignment, n):
    # non-Gaussian: depends on the graph and on N only, never on the indices
    e, v = graph.num_edges, graph.num_vertices
    if e == 1:
        return Fraction(0)
    return Fraction(e + v * v, (3 if is_eulerian(graph) else 5) * n ** (e // 2))


@pytest.mark.parametrize("c", [
    gaussian_cumulant_function(Fraction(3, 2)),
    CumulantFunction(relabelling_invariant_cumulants, "relabelling invariant"),
], ids=["gaussian", "non_gaussian"])
def test_trace_moment_pattern_sum_matches_tuple_sum(c):
    for n in range(1, 5):
        for k in range(1, 7):
            assert trace_moment_expectation(n, k, c) == brute_force_trace_moment(n, k, c), (n, k)


def test_trace_moment_matches_harer_zagier():
    c = gaussian_cumulant_function()
    for n in (1, 2, 3, 7, 1000):
        for k in (1, 2, 3):
            want = harer_zagier_gue(n, k) / n ** (k + 1)
            assert trace_moment_expectation(n, 2 * k, c) == want, (n, 2 * k)


def test_trace_moments_match_monte_carlo():
    # exact values vs 1e5 sampled matrices per size, within 5 standard errors
    import numpy as np

    from rmtlab.ensembles import EnsembleSpec, sample_stream
    from rmtlab.linalg import RngHandle

    c = gaussian_cumulant_function()
    spec = EnsembleSpec("gue")
    count = 100_000
    for n in (2, 3, 4, 5):
        stats = {k: np.empty(count) for k in (2, 4, 6)}
        for idx, m in enumerate(sample_stream(spec, n, count, RngHandle(200 + n, 0))):
            m2 = m.data @ m.data
            m4 = m2 @ m2
            stats[2][idx] = np.trace(m2).real
            stats[4][idx] = np.trace(m4).real
            stats[6][idx] = np.trace(m4 @ m2).real
        for k in (2, 4, 6):
            scaled = stats[k] / n ** (k // 2 + 1)
            exact = float(trace_moment_expectation(n, k, c))
            stderr = scaled.std(ddof=1) / math.sqrt(count)
            assert abs(scaled.mean() - exact) <= 5 * stderr, (n, k)


def test_catalan_values():
    assert [catalan(l) for l in (0, 1, 2, 3)] == [1, 1, 2, 5]
    assert catalan(10) == 16796
    with pytest.raises(CapacityError):
        catalan(31)


def test_extrapolate_exact_gue_sequence():
    values = [(n, 2 + Fraction(1, n * n)) for n in (2, 4, 8)]
    out = extrapolate_limit(values)
    assert out.value == 2
    assert not out.degenerate


def test_extrapolate_constant_and_vanishing():
    assert extrapolate_limit([(2, 7), (4, 7), (8, 7)]).value == 7
    assert extrapolate_limit([(2, Fraction(1, 2)), (4, Fraction(1, 4)),
                              (8, Fraction(1, 8))]).value == 0


def test_extrapolate_degenerate_falls_back():
    out = extrapolate_limit([(2, 1.0), (2, 2.0), (2, 3.0)])
    assert out.degenerate
    assert out.value == 3.0


def test_extrapolate_matches_catalan_limits():
    c = gaussian_cumulant_function()
    for l, ns in ((1, (2, 3, 4)), (2, (2, 3, 4)), (3, (2, 3, 4))):
        seq = [(n, trace_moment_expectation(n, 2 * l, c)) for n in ns]
        limit = extrapolate_limit(seq)
        if l <= 2:
            assert limit.value == catalan(l)
        else:
            assert abs(float(limit.value) - catalan(l)) < 1e-9
