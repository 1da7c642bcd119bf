import math

import numpy as np
import pytest

from rmtlab import spectral
from rmtlab.ensembles import EnsembleSpec, MetropolisParams, sample_stream
from rmtlab.linalg import RngHandle, eigenvalues_hermitian
from rmtlab.semicircle import SemicircleParams, cdf
from rmtlab.spectral import (SpectrumSample, convergence_scan, esd_moment, histogram,
                             ks_distance_to_semicircle, pooled_samples, scale_spectrum,
                             spectra)


def sample_of(values) -> SpectrumSample:
    arr = np.sort(np.asarray(values, dtype=float))
    return SpectrumSample(len(arr), arr)


# --- scaling -------------------------------------------------------------------

def test_scale_zero_case():
    s = scale_spectrum([0.0, 0.0, 0.0, 0.0], 4)
    assert np.array_equal(s.eigs_scaled, np.zeros(4))


def test_scale_sorts_after_division():
    s = scale_spectrum([2.0, -2.0], 2)
    assert np.allclose(s.eigs_scaled, [-math.sqrt(2.0), math.sqrt(2.0)])
    s4 = scale_spectrum([2.0, -2.0, 0.0, 0.0], 4)
    assert np.allclose(s4.eigs_scaled, [-1.0, 0.0, 0.0, 1.0])


def test_scale_identity_matrix():
    s = scale_spectrum(np.ones(9), 9)
    assert np.allclose(s.eigs_scaled, np.full(9, 1.0 / 3.0))


def test_scale_shape_error():
    with pytest.raises(ValueError):
        scale_spectrum([1.0, 2.0], 3)


# --- the spectral pipeline --------------------------------------------------------

@pytest.mark.parametrize("spec", [
    EnsembleSpec("gue"),
    EnsembleSpec("wigner", entry_dist="rademacher"),
    EnsembleSpec("common_factor"),
    EnsembleSpec("damped_common_factor", damping_alpha=1.0),
    EnsembleSpec("quartic_invariant", quartic_g=0.1,
                 metropolis=MetropolisParams(steps=1, step_size=30.0, burn_in=0)),
], ids=lambda spec: spec.kind)
def test_spectra_rows_equal_per_matrix_pipeline(spec):
    # quartic_invariant: one shared chain per stream, and its warnings are collected
    n, count = 12, 5
    warnings: dict[str, list[str]] = {}
    eigs = spectra(spec, n, count, RngHandle(23, 0), warnings)
    matrices = list(sample_stream(spec, n, count, RngHandle(23, 0)))
    assert eigs.shape == (count, n)
    for row, matrix in zip(eigs, matrices):
        want = scale_spectrum(eigenvalues_hermitian(matrix), n).eigs_scaled
        assert row.tobytes() == want.tobytes()
    found = [w for m in matrices for w in m.meta.get("warnings", [])]
    assert warnings == ({str(n): found} if found else {})
    assert (spec.kind == "quartic_invariant") == bool(found)


# --- moments --------------------------------------------------------------------

def test_esd_moment_examples():
    s = sample_of([-1.0, 0.0, 1.0])
    assert esd_moment(s, 2) == pytest.approx(2.0 / 3.0)
    assert esd_moment(s, 0) == 1.0
    with pytest.raises(ValueError):
        esd_moment(s, 13)


def test_gue_fourth_moment_large_n_band():
    # 20 samples at N=1024: sample-mean k=4 moment inside [1.9, 2.1]
    samples = pooled_samples(EnsembleSpec("gue"), 1024, 20, RngHandle(18, 0))
    mean = float(np.mean([esd_moment(s, 4) for s in samples]))
    assert 1.9 <= mean <= 2.1


def test_esd_moment_matches_trace_identity():
    from rmtlab.ensembles import sample
    from rmtlab.linalg import eigenvalues_hermitian
    n = 32
    m = sample(EnsembleSpec("gue"), n, RngHandle(11, 0))
    s = scale_spectrum(eigenvalues_hermitian(m), n)
    trace_side = m.trace_square() / n**2
    assert esd_moment(s, 2) == pytest.approx(trace_side, rel=1e-8)


# --- histogram ------------------------------------------------------------------

def test_histogram_single_point():
    bars = histogram(sample_of([0.0]), 1, (-1.0, 1.0))
    assert bars == [(0.0, 0.5)]


def test_histogram_uniform_grid():
    pts = np.linspace(-2.0, 2.0, 100)
    bars = histogram(sample_of(pts), 4, (-2.0, 2.0))
    assert [round(d, 12) for _, d in bars] == [0.25] * 4


def test_histogram_mass_bound_and_positivity():
    rng = np.random.default_rng(3)
    values = rng.normal(size=500)
    bars = histogram(sample_of(values), 17, (-1.0, 1.0))
    width = 2.0 / 17
    mass = sum(d for _, d in bars) * width
    assert 0.0 < mass <= 1.0 + 1e-9
    assert all(d >= 0 for _, d in bars)


def test_histogram_empty_error():
    with pytest.raises(ValueError):
        histogram(sample_of([1.0]), 0, (-1.0, 1.0))
    with pytest.raises(ValueError):
        histogram(sample_of([1.0]), 3, (1.0, -1.0))


def test_gue_histogram_close_to_semicircle():
    samples = pooled_samples(EnsembleSpec("gue"), 1000, 20, RngHandle(12, 0))
    bars = histogram(samples, 50, (-2.0, 2.0))
    from rmtlab.semicircle import density
    params = SemicircleParams(1.0)
    sup = max(abs(d - density(c, params)) for c, d in bars)
    assert sup <= 0.05


# --- KS distance -----------------------------------------------------------------

def test_ks_of_semicircle_quantiles():
    params = SemicircleParams(1.0)
    n = 100
    # invert the CDF by bisection at levels (i - 1/2)/n
    def quantile(p):
        lo, hi = -2.0, 2.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if cdf(mid, params) < p:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    qs = [quantile((i - 0.5) / n) for i in range(1, n + 1)]
    assert ks_distance_to_semicircle(sample_of(qs), 1.0) <= 1.0 / n + 1e-9


def test_ks_point_mass_at_zero():
    assert ks_distance_to_semicircle(sample_of([0.0, 0.0, 0.0]), 1.0) \
        == pytest.approx(0.5, abs=1e-12)


def test_ks_duplicate_pooling_invariant():
    values = np.linspace(-1.5, 1.5, 40)
    one = sample_of(values)
    ks1 = ks_distance_to_semicircle(one, 1.0)
    ks2 = ks_distance_to_semicircle([one, one, one], 1.0)
    assert ks1 == pytest.approx(ks2, abs=1e-15)


def test_ks_mixture_of_semicircles_detectable():
    # analytic sup-distance between the equal mixture of sigma^2 = 1/2, 3/2
    # semicircles and the unit semicircle is 0.0263, comfortably above the
    # 0.02 detection threshold used by the violation checks
    params = SemicircleParams(1.0)
    narrow, wide = SemicircleParams(math.sqrt(0.5)), SemicircleParams(math.sqrt(1.5))
    grid = np.linspace(-2.5, 2.5, 2001)
    sup = max(abs(0.5 * cdf(x, narrow) + 0.5 * cdf(x, wide) - cdf(x, params)) for x in grid)
    assert 0.025 <= sup <= 0.028
    samples = pooled_samples(EnsembleSpec("common_factor"), 512, 20, RngHandle(13, 0))
    assert ks_distance_to_semicircle(samples, 1.0) >= 0.02


def test_ks_validates_sigma():
    with pytest.raises(ValueError):
        ks_distance_to_semicircle(sample_of([0.0]), 0.0)


# --- convergence scan ----------------------------------------------------------------

def test_scan_odd_moment_within_noise():
    rows = convergence_scan(EnsembleSpec("gue"), (24, 48), (3,), 16, RngHandle(14, 0))
    for row in rows:
        assert abs(row.mean) <= 5 * row.stderr + 1e-3


def test_scan_rademacher_gap_decreases():
    rows = convergence_scan(EnsembleSpec("wigner", entry_dist="rademacher"),
                            (64, 128, 256, 512), (4,), 40, RngHandle(15, 0))
    gaps = {row.n: row.gap for row in rows}
    assert gaps[512] < 0.1
    assert gaps[512] < gaps[64]


def test_scan_gue_second_moment_tolerance_policy():
    # 5 standard errors plus the 2/N finite-size allowance for even moments
    rows = convergence_scan(EnsembleSpec("gue"), (512,), (2,), 20, RngHandle(19, 0))
    (row,) = rows
    assert abs(row.mean - 1.0) <= 5 * row.stderr + 2.0 / 512


def test_scan_common_factor_gap_converges_to_half():
    rows = convergence_scan(EnsembleSpec("common_factor"), (64,), (4,), 400, RngHandle(16, 0))
    (row,) = rows
    assert abs(row.gap - 0.5) <= 5 * row.stderr


def test_scan_validates_grid():
    with pytest.raises(ValueError):
        convergence_scan(EnsembleSpec("gue"), (64, 32), (2,), 4, RngHandle(17, 0))
    with pytest.raises(ValueError):
        convergence_scan(EnsembleSpec("gue"), (8, 8), (2,), 4, RngHandle(17, 0))
    with pytest.raises(ValueError):
        convergence_scan(EnsembleSpec("gue"), (8,), (2,), 0, RngHandle(17, 0))


def test_scan_validates_moment_orders_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the moment orders")

    monkeypatch.setattr(spectral, "spectra", no_sampling)
    for k_list in ((13,), (2, -1)):
        with pytest.raises(ValueError, match="moment orders"):
            convergence_scan(EnsembleSpec("gue"), (8,), k_list, 4, RngHandle(17, 0))
