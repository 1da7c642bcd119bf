import math

import numpy as np
import pytest

from rmtlab import cumulant_scan
from rmtlab.cumulant_scan import estimate_entry_cumulant, scan_graph, subset_keys
from rmtlab.ensembles import EnsembleSpec, sample_stream
from rmtlab.graphs import BoundVerdict, CumulantGraph
from rmtlab.linalg import RngHandle
from rmtlab.partitions import cumulants_from_moments

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


def delete_one_reference(spec, graph, n, samples, rng):
    """The estimator written as a plain per-sample loop: (estimate, stderr)."""
    v = graph.num_vertices
    rows = np.arange(n // v) * v
    keys = set(subset_keys(graph.edges).values())
    per_sample = {key: [] for key in keys}
    for matrix in sample_stream(spec, n, samples, rng):
        for key in keys:
            prod = np.ones(len(rows), dtype=complex)
            for s, t in key:
                prod = prod * matrix.data[rows + s, rows + t]
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


def assembled_entries(spec, n, count, rng, rows, cols):
    """The scan's earlier entry source: every matrix assembled, then indexed."""
    for matrix in sample_stream(spec, n, count, rng):
        yield matrix.data[rows, cols]


@pytest.mark.parametrize("graph", [TWO_TWO_CYCLES, CumulantGraph.from_text("v=2;e=0->0,1->1"),
                                   CumulantGraph.from_text("v=3;e=0->1,1->2,2->0")],
                         ids=["two_two_cycles", "self_loops", "triangle"])
@pytest.mark.parametrize("spec", [
    EnsembleSpec("gue"), EnsembleSpec("wigner", entry_dist="centered_exponential", sigma=1.3),
    EnsembleSpec("common_factor", diagonal_variance=0.5),
    EnsembleSpec("damped_common_factor", damping_alpha=0.5)],
    ids=lambda spec: spec.kind)
def test_estimate_equals_reading_assembled_matrices(spec, graph, monkeypatch):
    est = estimate_entry_cumulant(spec, graph, 13, 40, RngHandle(9, 2))
    monkeypatch.setattr(cumulant_scan, "entry_stream", assembled_entries)
    want = estimate_entry_cumulant(spec, graph, 13, 40, RngHandle(9, 2))
    assert est.estimate == want.estimate
    assert est.stderr == want.stderr
    assert est == want
