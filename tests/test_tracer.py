"""The benchmark's tracer wraps rmtlab names by string; a rename must fail here."""

import types
from pathlib import Path

import pytest

from rmtlab import cumulant_scan, ensembles, partitions, spectral
from rmtlab.ensembles import EnsembleSpec, MetropolisParams
from rmtlab.graphs import CumulantGraph
from rmtlab.linalg import HermitianMatrix, RngHandle

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    # compiled from source, so nothing is cached next to the file
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), vars(module))
    return module


def test_tracer_installs_and_counts_the_spectral_layer():
    tracer = load_tracer().Tracer()
    originals = (spectral.scale_spectrum, spectral.esd_moment, spectral.spectra)
    tracer.install()
    try:
        eigs = spectral.spectra(EnsembleSpec("gue"), 8, 3, RngHandle(5, 0))
        for k in (2, 4):
            spectral.esd_moment(eigs, k)
    finally:
        tracer.uninstall()
    assert (spectral.scale_spectrum, spectral.esd_moment, spectral.spectra) == originals
    counts = tracer.summary()["counts"]
    # one scaling per sampled matrix, one moment call per order
    assert counts["spectral.scale_spectrum"] == 3
    assert counts["spectral.esd_moment"] == 2


def test_tracer_sees_the_moment_scan_make_no_eigensolve():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        spectral.convergence_scan(EnsembleSpec("gue"), (8, 600), (2, 4), 2, RngHandle(5, 0))
    finally:
        tracer.uninstall()
    spans = tracer.summary()["spans"]
    # its moments come from matrix products
    assert spans["spectral.convergence_scan"][0] == 1
    assert "linalg.eigenvalues_hermitian" not in spans


def test_tracer_counts_quartic_sweeps_and_acceptance():
    burn_in, steps, count = 7, 3, 4
    spec = EnsembleSpec("quartic_invariant", quartic_g=0.1,
                        metropolis=MetropolisParams(steps=steps, burn_in=burn_in))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        spectral.convergence_scan(spec, (8,), (2, 4), count, RngHandle(5, 0))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    counts = summary["counts"]
    assert counts["ensembles.QuarticChain.sweeps"] == burn_in + count * steps
    # one acceptance reading per retained sample, each a rate in [0, 1]
    assert counts["ensembles.QuarticChain.acceptance_n"] == count
    assert 0.0 <= counts["ensembles.QuarticChain.acceptance_sum"] <= count
    assert summary["spans"]["ensembles.QuarticChain.run_sweeps"][0] == 1 + count


@pytest.mark.parametrize("kind", ["gue", "common_factor", "damped_common_factor",
                                  "quartic_invariant"])
def test_tracer_counts_one_assembly_per_sampled_matrix(kind, monkeypatch):
    # the tracer does not wrap the triangle scatter, so it is counted here
    n, samples = 6, 4
    scatters = []
    scatter = HermitianMatrix.from_triangle.__func__

    def counted(cls, *args, **kwargs):
        scatters.append(args[2].shape)
        return scatter(cls, *args, **kwargs)

    monkeypatch.setattr(HermitianMatrix, "from_triangle", classmethod(counted))
    spec = EnsembleSpec(kind, quartic_g=0.1 if kind == "quartic_invariant" else 0.0)
    tracer = load_tracer().Tracer()
    original = HermitianMatrix.__dict__["from_upper"]
    tracer.install()
    try:
        for _ in ensembles.sample_stream(spec, n, samples, RngHandle(9, 0)):
            pass
    finally:
        tracer.uninstall()
    assert HermitianMatrix.__dict__["from_upper"] is original
    summary = tracer.summary()
    if kind == "quartic_invariant":
        # the chain's Gaussian start is one sampled matrix, and its rotated
        # matrices go through from_upper, which shares the scatter
        assert scatters == [(n,)] * (1 + samples)
        assert summary["counts"]["linalg.HermitianMatrix.from_upper"] == samples
        assert summary["spans"]["ensembles.sample"][0] == 1
    else:
        # the entry-wise kinds scatter their draws with no N x N staging array
        assert scatters == [(n,)] * samples
        assert "linalg.HermitianMatrix.from_upper" not in summary["counts"]
        assert summary["spans"]["ensembles.sample"][0] == samples


@pytest.mark.parametrize("kind", ["gue", "common_factor", "damped_common_factor"])
def test_tracer_sees_the_scan_make_the_sampler_draws_without_assembly(kind):
    n_grid, samples = (4, 5, 6), 4
    graph = CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        cumulant_scan.scan_graph(EnsembleSpec(kind), graph, n_grid, samples, RngHandle(9, 0))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert "linalg.HermitianMatrix.from_upper" not in summary["counts"]
    assert "ensembles.sample" not in summary["spans"]
    # gue draws each block of x | y | diag rows in one call, the factor kinds a
    # factor and then a row per matrix; each N has one substream, read in turn
    matrices = len(n_grid) * samples
    blocks = len(n_grid) * -(-samples // ensembles.ENTRY_BLOCK)
    assert summary["counts"]["linalg.RngHandle.draws"] == (blocks if kind == "gue"
                                                           else 2 * matrices)
    assert summary["counts"]["linalg.RngHandle.substreams"] == len(n_grid)


def test_tracer_counts_one_partition_sum_per_index_pattern():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        partitions.trace_moment_expectation(3, 6, partitions.gaussian_cumulant_function())
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    # the patterns are the 1 + 31 + 90 partitions of 6 positions into at most 3 blocks;
    # the partition sums recurse internally, without enumerating partitions again
    assert summary["spans"]["partitions.moments_from_cumulants"][0] == 122
    assert summary["counts"]["partitions.set_partitions"] == 1
