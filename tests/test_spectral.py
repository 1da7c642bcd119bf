import concurrent.futures
import math
import sys
import threading

import numpy as np
import pytest

from rmtlab import spectral
from rmtlab.ensembles import EnsembleSpec, MetropolisParams, ParameterError, sample_stream
from rmtlab.linalg import HermitianMatrix, RngHandle, eigenvalues_hermitian
from rmtlab.semicircle import SemicircleParams, cdf
from rmtlab.spectral import (convergence_scan, esd_moment, histogram,
                             ks_distance_to_semicircle, sampled_moments, scale_spectrum,
                             spectra)


# --- scaling -------------------------------------------------------------------

def test_scale_zero_case():
    s = scale_spectrum([0.0, 0.0, 0.0, 0.0], 4)
    assert np.array_equal(s, np.zeros(4))


def test_scale_sorts_after_division():
    s = scale_spectrum([2.0, -2.0], 2)
    assert np.allclose(s, [-math.sqrt(2.0), math.sqrt(2.0)])
    s4 = scale_spectrum([2.0, -2.0, 0.0, 0.0], 4)
    assert np.allclose(s4, [-1.0, 0.0, 0.0, 1.0])


def test_scale_identity_matrix():
    s = scale_spectrum(np.ones(9), 9)
    assert np.allclose(s, np.full(9, 1.0 / 3.0))


def test_scale_shape_error():
    with pytest.raises(ValueError):
        scale_spectrum([1.0, 2.0], 3)


# --- the spectral pipeline --------------------------------------------------------

PIPELINE_SPECS = [
    EnsembleSpec("gue"),
    EnsembleSpec("wigner", entry_dist="rademacher"),
    EnsembleSpec("common_factor"),
    EnsembleSpec("damped_common_factor", damping_alpha=1.0),
    EnsembleSpec("quartic_invariant", quartic_g=0.1,
                 metropolis=MetropolisParams(steps=1, step_size=30.0, burn_in=0)),
]


def assert_spectra_equal_serial_pipeline(spec, n=12, count=5):
    # quartic_invariant: one shared chain per stream, and its warnings are collected
    warnings: dict[str, list[str]] = {}
    eigs = spectra(spec, n, count, RngHandle(23, 0), warnings)
    matrices = list(sample_stream(spec, n, count, RngHandle(23, 0)))
    assert eigs.shape == (count, n)
    for row, matrix in zip(eigs, matrices):
        want = np.sort(eigenvalues_hermitian(matrix) / math.sqrt(n))
        assert row.tobytes() == want.tobytes()
    found = [w for m in matrices for w in m.meta.get("warnings", [])]
    assert warnings == ({str(n): found} if found else {})
    assert (spec.kind == "quartic_invariant") == bool(found)


@pytest.mark.parametrize("spec", PIPELINE_SPECS, ids=lambda spec: spec.kind)
def test_spectra_rows_equal_per_matrix_pipeline(spec):
    assert_spectra_equal_serial_pipeline(spec)


def traced_pipeline(monkeypatch, workers):
    """Force ``workers`` eigensolve threads; record the thread of each
    eigensolve and, as each matrix is sampled, how many are in flight."""
    monkeypatch.setattr(spectral, "_blas_workers", lambda n: workers)
    record = {"threads": [], "in_flight": [], "collected": 0}

    def solve(matrix):
        record["threads"].append(threading.current_thread().name)
        return eigenvalues_hermitian(matrix)

    def scale(eigs, n):
        record["collected"] += 1
        return scale_spectrum(eigs, n)

    def stream(*args):
        for s, matrix in enumerate(sample_stream(*args)):
            record["in_flight"].append(s + 1 - record["collected"])
            yield matrix

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            record["pool_size"] = max_workers
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(spectral, "eigenvalues_hermitian", solve)
    monkeypatch.setattr(spectral, "scale_spectrum", scale)
    monkeypatch.setattr(spectral, "sample_stream", stream)
    return record


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("spec", PIPELINE_SPECS, ids=lambda spec: spec.kind)
def test_spectra_on_a_thread_pool_equal_the_serial_pipeline(monkeypatch, spec, workers):
    record = traced_pipeline(monkeypatch, workers)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more thread switches than by default
    try:
        assert_spectra_equal_serial_pipeline(spec, count=7)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    # the first 7 eigensolves are spectra's; the rest are the serial reference's
    assert all(name.startswith("rmtlab-eigensolve") for name in record["threads"][:7])
    assert record["pool_size"] == workers
    assert max(record["in_flight"][:7]) == workers


@pytest.mark.parametrize("count", [1, 2])
def test_spectra_start_no_more_threads_than_matrices(monkeypatch, count):
    record = traced_pipeline(monkeypatch, 3)
    spectra(EnsembleSpec("gue"), 6, count, RngHandle(2, 0))
    if count == 1:
        # one worker: no pool, the matrix is solved on the calling thread
        assert "pool_size" not in record
        assert record["threads"] == [threading.current_thread().name]
    else:
        assert record["pool_size"] == count


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("fault", ["non_finite_matrix", "sampler_error"])
def test_spectra_faults_raise_and_leave_no_thread(monkeypatch, workers, fault):
    monkeypatch.setattr(spectral, "_blas_workers", lambda n: workers)
    n = 8

    def stream(*args):
        for s, matrix in enumerate(sample_stream(*args)):
            if s == 3:
                if fault == "sampler_error":
                    raise ParameterError("sampler failed")
                matrix = HermitianMatrix(n, np.full((n, n), np.nan + 0j))
            yield matrix

    monkeypatch.setattr(spectral, "sample_stream", stream)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="finite" if fault == "non_finite_matrix" else "sampler"):
        spectra(EnsembleSpec("gue"), n, 6, RngHandle(4, 0))
    assert threading.active_count() == threads


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("env, workers", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
    ({"OPENBLAS_NUM_THREADS": "garbage"}, 1),
    ({"OPENBLAS_NUM_THREADS": ""}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),
    ({"OPENBLAS_NUM_THREADS": "-2"}, 1),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"MKL_NUM_THREADS": "1"}, 4),
    # the first one set decides
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "garbage", "OMP_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 4),
], ids=lambda v: (",".join(f"{k}={x}" for k, x in v.items()) or "unset")
   if isinstance(v, dict) else str(v))
def test_eigensolve_workers_divide_the_cores_by_the_blas_threads(monkeypatch, env, workers):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert spectral._blas_workers(512) == workers
    # numpy holds the GIL through a smaller eigensolve, so threads cannot help there
    assert spectral._blas_workers(500) == 1
    assert spectral._blas_workers(501) == workers


# --- moments --------------------------------------------------------------------

def test_esd_moment_examples():
    s = np.array([-1.0, 0.0, 1.0])
    assert esd_moment(s, 2) == pytest.approx(2.0 / 3.0)
    assert esd_moment(s, 0) == 1.0
    with pytest.raises(ValueError):
        esd_moment(s, 13)
    # one moment per row of a [count, N] array
    assert esd_moment(np.array([[-1.0, 0.0, 1.0], [2.0, 2.0, 2.0]]), 2) \
        == pytest.approx([2.0 / 3.0, 4.0])


def test_gue_fourth_moment_large_n_band():
    # 20 samples at N=1024: sample-mean k=4 moment inside [1.9, 2.1]
    eigs = spectra(EnsembleSpec("gue"), 1024, 20, RngHandle(18, 0))
    mean = float(esd_moment(eigs, 4).mean())
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
    bars = histogram([0.0], 1, (-1.0, 1.0))
    assert bars == [(0.0, 0.5)]


def test_histogram_uniform_grid():
    pts = np.linspace(-2.0, 2.0, 100)
    bars = histogram(pts, 4, (-2.0, 2.0))
    assert [round(d, 12) for _, d in bars] == [0.25] * 4


def test_histogram_mass_bound_and_positivity():
    rng = np.random.default_rng(3)
    values = rng.normal(size=500)
    bars = histogram(values, 17, (-1.0, 1.0))
    width = 2.0 / 17
    mass = sum(d for _, d in bars) * width
    assert 0.0 < mass <= 1.0 + 1e-9
    assert all(d >= 0 for _, d in bars)


def test_histogram_empty_error():
    with pytest.raises(ValueError):
        histogram([1.0], 0, (-1.0, 1.0))
    with pytest.raises(ValueError):
        histogram([1.0], 3, (1.0, -1.0))


def test_gue_histogram_close_to_semicircle():
    eigs = spectra(EnsembleSpec("gue"), 1000, 20, RngHandle(12, 0))
    bars = histogram(eigs, 50, (-2.0, 2.0))
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
    assert ks_distance_to_semicircle(qs, 1.0) <= 1.0 / n + 1e-9


def test_ks_point_mass_at_zero():
    assert ks_distance_to_semicircle([0.0, 0.0, 0.0], 1.0) \
        == pytest.approx(0.5, abs=1e-12)


def test_ks_duplicate_pooling_invariant():
    one = np.linspace(-1.5, 1.5, 40)
    ks1 = ks_distance_to_semicircle(one, 1.0)
    # three copies as the rows of a [3, 40] array, and as its flattened rows
    for pooled in (np.stack([one, one, one]), np.concatenate([one, one, one])):
        ks2 = ks_distance_to_semicircle(pooled, 1.0)
        assert ks1 == pytest.approx(ks2, abs=1e-15)


def test_ks_sorts_its_input():
    params = SemicircleParams(1.0)
    want = max(cdf(-0.5, params), 1.0 - cdf(0.5, params))
    assert ks_distance_to_semicircle([0.5, -0.5], 1.0) == pytest.approx(want, abs=1e-15)
    values = np.random.default_rng(4).normal(size=200)
    assert ks_distance_to_semicircle(values, 1.0) \
        == ks_distance_to_semicircle(np.sort(values), 1.0)


def test_ks_mixture_of_semicircles_detectable():
    # analytic sup-distance between the equal mixture of sigma^2 = 1/2, 3/2
    # semicircles and the unit semicircle is 0.0263, comfortably above the
    # 0.02 detection threshold used by the violation checks
    params = SemicircleParams(1.0)
    narrow, wide = SemicircleParams(math.sqrt(0.5)), SemicircleParams(math.sqrt(1.5))
    grid = np.linspace(-2.5, 2.5, 2001)
    sup = max(abs(0.5 * cdf(x, narrow) + 0.5 * cdf(x, wide) - cdf(x, params)) for x in grid)
    assert 0.025 <= sup <= 0.028
    eigs = spectra(EnsembleSpec("common_factor"), 512, 20, RngHandle(13, 0))
    assert ks_distance_to_semicircle(eigs, 1.0) >= 0.02


def test_ks_validates_sigma():
    with pytest.raises(ValueError):
        ks_distance_to_semicircle([0.0], 0.0)


@pytest.mark.parametrize("values", [[], np.empty((3, 0)), [0.0, math.nan],
                                    [[0.5, math.inf], [0.0, 0.1]], [-math.inf]],
                         ids=["empty", "empty-rows", "nan", "inf", "-inf"])
def test_readers_reject_empty_or_non_finite(values):
    with pytest.raises(ValueError, match="empty|non-finite"):
        histogram(values, 4, (-1.0, 1.0))
    with pytest.raises(ValueError, match="empty|non-finite"):
        ks_distance_to_semicircle(values, 1.0)


# --- moments from matrix products ---------------------------------------------------

ALL_ORDERS = list(range(spectral.MAX_MOMENT_ORDER + 1))


# 1 and 2 are the smallest matrices; 63..65 and 131 cross the edges of the
# 64-row blocks the products are formed in
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 131])
@pytest.mark.parametrize("spec", PIPELINE_SPECS, ids=lambda spec: spec.kind)
def test_sampled_moments_equal_the_moments_of_the_spectra(spec, n):
    count = 3
    warned: dict[str, list[str]] = {}
    got = sampled_moments(spec, n, count, RngHandle(29, 0), ALL_ORDERS, warned)
    warnings: dict[str, list[str]] = {}
    eigs = spectra(spec, n, count, RngHandle(29, 0), warnings)
    assert got.shape == (count, len(ALL_ORDERS))
    for j, k in enumerate(ALL_ORDERS):
        # relative to E|lambda|^k, which is E lambda^k for even k
        assert np.all(np.abs(got[:, j] - esd_moment(eigs, k))
                      <= 1e-12 * np.mean(np.abs(eigs) ** k, axis=-1))
    assert warned == warnings


def test_sampled_moments_read_only_the_orders_asked_for():
    spec, n = EnsembleSpec("gue"), 70
    every = sampled_moments(spec, n, 2, RngHandle(31, 0), ALL_ORDERS)
    for orders in ([6], [5], [12], [9, 2], [0], [4, 4, 1], []):
        got = sampled_moments(spec, n, 2, RngHandle(31, 0), orders)
        assert got.shape == (2, len(orders))
        np.testing.assert_allclose(got, every[:, orders], rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError, match="moment orders"):
        sampled_moments(spec, n, 2, RngHandle(31, 0), [13])


def test_sampled_moments_bytes_do_not_depend_on_the_workers(monkeypatch):
    spec, n, orders = EnsembleSpec("wigner", entry_dist="rademacher"), 65, [2, 3, 4, 6, 11]
    threads = threading.active_count()
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(spectral, "_blas_workers", lambda n: workers)
        results.append(sampled_moments(spec, n, 7, RngHandle(37, 0), orders).tobytes())
    assert results[1:] == results[:1] * 2
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sampled_moments_refuse_a_non_finite_matrix_and_leave_no_thread(monkeypatch, workers):
    monkeypatch.setattr(spectral, "_blas_workers", lambda n: workers)
    n = 8

    def stream(*args):
        for s, matrix in enumerate(sample_stream(*args)):
            yield HermitianMatrix(n, np.full((n, n), np.inf + 0j)) if s == 3 else matrix

    monkeypatch.setattr(spectral, "sample_stream", stream)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        sampled_moments(EnsembleSpec("gue"), n, 6, RngHandle(4, 0), [2, 4])
    assert threading.active_count() == threads


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

    monkeypatch.setattr(spectral, "sample_stream", no_sampling)
    for k_list in ((13,), (2, -1)):
        with pytest.raises(ValueError, match="moment orders"):
            convergence_scan(EnsembleSpec("gue"), (8,), k_list, 4, RngHandle(17, 0))
