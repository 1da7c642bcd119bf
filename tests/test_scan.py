import math

import numpy as np
import pytest

from rmtlab import cumulant_scan
from rmtlab.cumulant_scan import estimate_entry_cumulant, scan_graph, subset_keys
from rmtlab.ensembles import ENTRY_BLOCK, EnsembleSpec, entry_stream
from rmtlab.graphs import BoundVerdict, CapacityError, CumulantGraph
from rmtlab.linalg import RngHandle
from rmtlab.partitions import MAX_CUMULANT_ENTRIES, cumulants_from_moments
from test_ensembles import (ENTRY_WISE_SPECS, QUARTIC_SPEC, in_blocks, restricted_reference,
                            samples_of)

TWO_TWO_CYCLES = CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
TWO_CYCLE = CumulantGraph(2, ((0, 1), (1, 0)))


def test_two_cycle_estimate_recovers_sigma_sq():
    est = estimate_entry_cumulant(EnsembleSpec("gue", sigma=2.0), TWO_CYCLE,
                                  32, 600, RngHandle(1, 0))
    assert abs(est.estimate - 4.0) <= 5 * est.stderr + 0.1


def test_gue_fourth_cumulant_consistent_with_zero():
    est = estimate_entry_cumulant(EnsembleSpec("gue"), TWO_TWO_CYCLES,
                                  32, 2000, RngHandle(2, 0))
    assert abs(est.estimate) <= 5 * est.stderr


def test_common_factor_estimate_near_quarter():
    est = estimate_entry_cumulant(EnsembleSpec("common_factor"), TWO_TWO_CYCLES,
                                  32, 4000, RngHandle(3, 0))
    assert abs(est.estimate - 0.25) <= 5 * est.stderr


def test_scan_verdicts_three_ensembles():
    grid = (8, 32, 128)
    violating = scan_graph(EnsembleSpec("common_factor"), TWO_TWO_CYCLES, grid,
                           6000, RngHandle(4, 0))
    assert violating.verdict is BoundVerdict.VIOLATING
    vanishing = scan_graph(EnsembleSpec("damped_common_factor", damping_alpha=1.0),
                           TWO_TWO_CYCLES, grid, 6000, RngHandle(5, 0))
    assert vanishing.verdict is BoundVerdict.CONSISTENT_VANISHING
    noise = scan_graph(EnsembleSpec("gue"), TWO_TWO_CYCLES, grid, 3000, RngHandle(6, 0))
    assert noise.verdict is BoundVerdict.CONSISTENT_VANISHING


def test_estimator_guards():
    with pytest.raises(ValueError):
        estimate_entry_cumulant(EnsembleSpec("gue"), TWO_TWO_CYCLES, 3, 100, RngHandle(7, 0))
    with pytest.raises(ValueError):
        estimate_entry_cumulant(EnsembleSpec("gue"), TWO_CYCLE, 8, 2, RngHandle(7, 0))


def test_estimator_refuses_too_many_edges_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("entry_stream was called")

    monkeypatch.setattr(cumulant_scan, "entry_stream", no_draws)
    k = MAX_CUMULANT_ENTRIES + 1
    cycle = CumulantGraph(k, tuple((i, (i + 1) % k) for i in range(k)))
    with pytest.raises(CapacityError):
        estimate_entry_cumulant(EnsembleSpec("gue"), cycle, 128, 3000, RngHandle(7, 0))


def delete_one_reference(spec, graph, n, samples, rng):
    """The estimator written as a plain per-sample loop: (estimate, stderr)."""
    v = graph.num_vertices
    offsets = np.arange(n // v) * v
    sources = np.array([s for s, _ in graph.edges])[:, None] + offsets
    targets = np.array([t for _, t in graph.edges])[:, None] + offsets
    keys = set(subset_keys(graph.edges).values())
    per_sample = {key: [] for key in keys}
    for values in samples_of(entry_stream(spec, n, samples, rng, sources, targets)):
        entry = {edge: values[k] for k, edge in enumerate(graph.edges)}
        for key in keys:
            prod = np.ones(len(offsets), dtype=complex)
            for edge in key:
                prod = prod * entry[edge]
            per_sample[key].append(prod.mean())

    def kappa(drop):
        def moment(block):
            vals = [x for i, x in enumerate(per_sample[tuple(sorted(block))]) if i != drop]
            return sum(vals) / len(vals)
        return cumulants_from_moments(moment, graph.edges).real

    jack = [kappa(s) for s in range(samples)]
    mean = sum(jack) / samples
    stderr = math.sqrt((samples - 1) / samples * sum((j - mean) ** 2 for j in jack))
    return kappa(None), stderr


@pytest.mark.parametrize("spec", [EnsembleSpec("gue"), EnsembleSpec("common_factor"),
                                  EnsembleSpec("damped_common_factor", damping_alpha=1.0)],
                         ids=lambda spec: spec.kind)
def test_jackknife_matches_delete_one_loop(spec):
    est = estimate_entry_cumulant(spec, TWO_TWO_CYCLES, 16, 50, RngHandle(8, 0))
    want_estimate, want_stderr = delete_one_reference(spec, TWO_TWO_CYCLES, 16, 50,
                                                      RngHandle(8, 0))
    assert est.stderr > 0
    assert est.stderr == pytest.approx(want_stderr, rel=1e-12)
    assert est.estimate == pytest.approx(want_estimate, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("graph", [TWO_TWO_CYCLES, CumulantGraph.from_text("v=2;e=0->0,1->1"),
                                   CumulantGraph.from_text("v=3;e=0->1,1->2,2->0")],
                         ids=["two_two_cycles", "self_loops", "triangle"])
@pytest.mark.parametrize("spec", [
    EnsembleSpec("gue"), EnsembleSpec("wigner", entry_dist="centered_exponential", sigma=1.3),
    EnsembleSpec("common_factor", diagonal_variance=0.5),
    EnsembleSpec("damped_common_factor", damping_alpha=0.5)],
    ids=lambda spec: spec.kind)
def test_estimate_equals_reading_the_restricted_draw_reference(spec, graph, monkeypatch):
    est = estimate_entry_cumulant(spec, graph, 13, 40, RngHandle(9, 2))
    monkeypatch.setattr(cumulant_scan, "entry_stream",
                        lambda *args: in_blocks(restricted_reference(*args)))
    want = estimate_entry_cumulant(spec, graph, 13, 40, RngHandle(9, 2))
    assert est.estimate == want.estimate
    assert est.stderr == want.stderr
    assert est == want


@pytest.mark.parametrize("columns", [1, 2, 3, 8, 21, 32])
def test_one_division_gives_the_bits_of_per_sample_means(columns):
    # the estimator sums each sample's subset products and divides the
    # [subsets, samples] array once, in place of prod.mean(axis=1) per sample;
    # checked on contiguous products and on the strided view that a one-edge
    # graph's products are
    rng = np.random.default_rng(columns)
    samples = [rng.standard_normal((15, columns)) + 1j * rng.standard_normal((15, columns))
               for _ in range(40)]
    samples[0][3, 0] = complex(-0.0, -0.0)
    samples[1][:] = complex(-0.0, 0.0)
    for layout in (lambda a: a, lambda a: np.stack([a, a], axis=1)[:, 0]):
        prods = [layout(a) for a in samples]
        means = np.stack([prod.mean(axis=1) for prod in prods], axis=1)
        divided = np.empty_like(means)
        for s, prod in enumerate(prods):
            divided[:, s] = prod.sum(axis=1)
        divided /= columns
        assert divided.tobytes() == means.tobytes()


def per_sample_reference(spec, graph, n, samples, rng):
    """The estimator's arithmetic run one sample at a time: the subset
    products of each sample's [edges, tuples] entries, padded with ones to
    e factors and multiplied left to right, then summed over the tuples."""
    e, v = graph.num_edges, graph.num_vertices
    tuples = n // v
    subset_of = {key: subset for subset, key in subset_keys(graph.edges).items()}
    row_of = {key: r for r, key in enumerate(subset_of)}
    factors = np.array([subset + (e,) * (e - len(subset)) for subset in subset_of.values()])
    offsets = np.arange(tuples) * v
    sources = np.array([s for s, _ in graph.edges])[:, None] + offsets
    targets = np.array([t for _, t in graph.edges])[:, None] + offsets
    entries = np.ones((e + 1, tuples), dtype=complex)
    per_sample = np.empty((len(row_of), samples), dtype=complex)
    for s_idx, values in enumerate(samples_of(entry_stream(spec, n, samples, rng, sources,
                                                           targets))):
        entries[:e] = values
        gathered = entries[factors]
        prod = gathered[:, 0]
        for j in range(1, e):
            prod = prod * gathered[:, j]
        per_sample[:, s_idx] = prod.sum(axis=1)
    per_sample /= tuples
    sums = per_sample.sum(axis=1)
    leave_one_out = (sums[:, None] - per_sample) / (samples - 1)

    def row(block):
        return row_of[tuple(sorted(block))]

    full = cumulants_from_moments(lambda block: sums[row(block)] / samples, graph.edges)
    jack = cumulants_from_moments(lambda block: leave_one_out[row(block)], graph.edges).real
    stderr = math.sqrt((samples - 1) / samples * np.sum((jack - jack.mean()) ** 2))
    return float(full.real), stderr


@pytest.mark.parametrize("samples", [3, ENTRY_BLOCK - 1, ENTRY_BLOCK, ENTRY_BLOCK + 1,
                                     2 * ENTRY_BLOCK + 1])
@pytest.mark.parametrize("spec", [*ENTRY_WISE_SPECS.values(), QUARTIC_SPEC],
                         ids=[*ENTRY_WISE_SPECS, "quartic"])
@pytest.mark.parametrize("graph", [TWO_TWO_CYCLES,
                                   CumulantGraph.from_text("v=3;e=0->1,1->2,2->0,0->0")],
                         ids=["two_two_cycles", "triangle_and_loop"])
def test_block_arithmetic_equals_the_per_sample_reference(graph, spec, samples):
    # a sample count of 1 is refused before any draw (test_estimator_guards),
    # so 3, the fewest the jackknife takes, stands in for it
    est = estimate_entry_cumulant(spec, graph, 19, samples, RngHandle(10, 4))
    assert (est.estimate, est.stderr) == per_sample_reference(spec, graph, 19, samples,
                                                              RngHandle(10, 4))
