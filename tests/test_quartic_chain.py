"""Oracles for the quartic eigenvalue chain.

The chain samples prod_{i<j} |l_i - l_j|^2 exp{-N sum_i V(l_i)} with
V(x) = x^2/(2 sigma^2) + g x^4.  Its moments are checked against numpy
quadrature of that density at N = 2, 3, against Harer-Zagier at g = 0 and
against the large-N law of Brezin, Itzykson, Parisi and Zuber at g = 0.1.
Chain averages get an error bar inflated by the integrated autocorrelation
time, estimated with the windowed estimator of Madras and Sokal.
"""

import itertools
import math

import numpy as np
import pytest

from rmtlab.ensembles import EnsembleSpec, MetropolisParams, QuarticChain
from rmtlab.linalg import RngHandle, eigenvalues_hermitian
from rmtlab.spectral import esd_moment, spectra


def tau_int(series, window_factor: float = 6.0) -> float:
    """Integrated autocorrelation time, summed up to the first lag W >= c tau(W)."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = x.size
    spectrum = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(spectrum * np.conj(spectrum))[:n] / (x @ x)
    tau = 0.5
    for lag in range(1, n):
        tau += acf[lag]
        if lag >= window_factor * tau:
            break
    return tau


def mean_and_stderr(series) -> tuple[float, float]:
    """Mean with its stderr inflated by 2 tau_int."""
    x = np.asarray(series, dtype=float)
    return float(x.mean()), float(x.std(ddof=1) * math.sqrt(2.0 * tau_int(x) / x.size))


def chain_moments(n: int, g: float, sweeps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """m2 and m4 of the chain's eigenvalues after every sweep, after an adaptive burn-in."""
    chain = QuarticChain(EnsembleSpec("quartic_invariant", quartic_g=g), n, RngHandle(seed, 0))
    chain.run_sweeps(200, adapt=True)
    m2, m4 = np.empty(sweeps), np.empty(sweeps)
    for t in range(sweeps):
        chain.run_sweeps(1, adapt=False)
        sq = chain.eigs ** 2
        m2[t], m4[t] = sq.mean(), (sq * sq).mean()
    return m2, m4


def log_density(lam: np.ndarray, g: float, sigma: float = 1.0) -> float:
    """log of prod_{i<j} |l_i - l_j|^2 exp{-N sum V(l_i)}, summed pair by pair."""
    n = lam.size
    vandermonde = sum(2.0 * math.log(abs(a - b)) for a, b in itertools.combinations(lam, 2))
    return vandermonde - n * float(np.sum(lam ** 2 / (2.0 * sigma ** 2) + g * lam ** 4))


def quadrature_moments(n: int, g: float, points: int = 121, half_width: float = 3.5):
    """<m2>, <m4> of the n-eigenvalue density by the trapezoid rule on a grid.

    The integrand is smooth and decays like exp(-N g x^4), so the rule
    converges faster than any power of the spacing."""
    x = np.linspace(-half_width, half_width, points)
    axes = np.meshgrid(*([x] * n), indexing="ij", sparse=True)
    weight = np.ones([points] * n)
    for i, j in itertools.combinations(range(n), 2):
        weight = weight * (axes[i] - axes[j]) ** 2
    for a in axes:
        weight = weight * np.exp(-n * (a ** 2 / 2.0 + g * a ** 4))
    total = weight.sum()
    # the density is symmetric in its arguments: <m_k> = <l_1^k>
    return tuple(float((weight * axes[0] ** k).sum() / total) for k in (2, 4))


def bipz_moments(g: float) -> tuple[float, float]:
    """Large-N m2, m4 of exp{-N Tr(B^2/2 + g B^4)}: rho on [-2a, 2a], 12 g a^4 + a^2 = 1."""
    a2 = (math.sqrt(1.0 + 48.0 * g) - 1.0) / (24.0 * g)
    return a2 * (4.0 - a2) / 3.0, a2 * a2 * (3.0 - a2)


def test_bipz_reference_values():
    m2, m4 = bipz_moments(0.1)
    assert m2 == pytest.approx(0.66762, abs=1e-5)
    assert m4 == pytest.approx(0.83095, abs=1e-5)
    assert m4 / m2 ** 2 == pytest.approx(1.86429, abs=1e-5)


def test_quadrature_reproduces_gaussian_moments():
    # g = 0 is GUE: <m2> = 1 and <m4> = 2 + 1/N^2 (Harer-Zagier)
    for n in (2, 3):
        m2, m4 = quadrature_moments(n, 0.0, half_width=6.0)
        assert m2 == pytest.approx(1.0, abs=1e-10)
        assert m4 == pytest.approx(2.0 + 1.0 / n ** 2, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_small_n_moments_match_quadrature(n):
    exact = quadrature_moments(n, 0.1)
    for (mean, err), want in zip(map(mean_and_stderr, chain_moments(n, 0.1, 20000, 40 + n)),
                                 exact):
        assert abs(mean - want) < 4.0 * err, (n, mean, err, want)


def test_gaussian_fourth_moment_harer_zagier():
    # through the output matrices: Haar rotation, eigensolve and scaling
    n = 8
    spec = EnsembleSpec("quartic_invariant", quartic_g=0.0,
                        metropolis=MetropolisParams(steps=1, burn_in=200))
    eigs = spectra(spec, n, 3000, RngHandle(61, 0))
    for k, want in ((2, 1.0), (4, 2.0 + 1.0 / n ** 2)):
        mean, err = mean_and_stderr(esd_moment(eigs, k))
        assert abs(mean - want) < 4.0 * err, (k, mean, err, want)


def test_quartic_ratio_matches_bipz():
    n, g = 32, 0.1
    m2, m4 = chain_moments(n, g, 6000, 71)
    mean, err = mean_and_stderr(m4 / m2 ** 2)
    b2, b4 = bipz_moments(g)
    # finite-N corrections to the ratio, and the bias of a mean of ratios, are O(1/N^2)
    assert abs(mean - b4 / b2 ** 2) < 4.0 * err + 2.0 / n ** 2, (mean, err)


def test_move_actions_equal_log_density_differences():
    rng = np.random.default_rng(5)
    for n, g, sigma in ((2, 0.1, 1.0), (5, 0.3, 0.7), (9, 0.0, 1.5)):
        spec = EnsembleSpec("quartic_invariant", quartic_g=g, sigma=sigma)
        chain = QuarticChain(spec, n, RngHandle(n, 0))
        for _ in range(20):
            chain.eigs = rng.normal(0.0, sigma, n)
            lam = chain.eigs.copy()
            i, new = int(rng.integers(n)), float(rng.normal(0.0, sigma))
            moved = lam.copy()
            moved[i] = new
            want = log_density(lam, g, sigma) - log_density(moved, g, sigma)
            assert chain.move_action(i, new) == pytest.approx(want, rel=1e-9, abs=1e-9)
            log_c, shift = rng.normal(0.0, 0.3, 2)
            for c, s in ((log_c, 0.0), (0.0, shift), (log_c, shift)):
                # the Metropolis ratio of l -> e^c l + s carries the Jacobian e^(N c)
                moved = math.exp(c) * lam + s
                want = log_density(lam, g, sigma) - log_density(moved, g, sigma) - n * c
                assert chain.global_action(c, s) == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert np.array_equal(chain.eigs, lam)


def test_matrix_rotates_the_chain_eigenvalues():
    n = 12
    chain = QuarticChain(EnsembleSpec("quartic_invariant", quartic_g=0.1), n, RngHandle(3, 0))
    chain.run_sweeps(5, adapt=True)
    first, second = chain.matrix(), chain.matrix()
    want = np.sort(math.sqrt(n) * chain.eigs)
    for m in (first, second):
        assert np.allclose(eigenvalues_hermitian(m), want, atol=1e-12 * n)
    # each call draws a fresh Haar rotation
    assert not np.allclose(first.data, second.data)


def test_rotation_is_haar():
    # For Haar U in U(N): E[Tr U] = 0 and E|Tr U|^2 = 1, Var|Tr U|^2 = 1 for N >= 2
    # (Diaconis-Shahshahani); an unfixed QR phase convention biases Re Tr U.
    from rmtlab.ensembles import _haar_unitary
    n, draws = 6, 2000
    rng = RngHandle(8, 0)
    us = [_haar_unitary(rng, n) for _ in range(draws)]
    assert all(np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12) for u in us)
    traces = np.array([np.trace(u) for u in us])
    bound = 4.0 / math.sqrt(draws)
    assert abs(traces.real.mean()) < bound * math.sqrt(0.5)
    assert abs(traces.imag.mean()) < bound * math.sqrt(0.5)
    assert abs(np.mean(np.abs(traces) ** 2) - 1.0) < bound
