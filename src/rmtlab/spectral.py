"""Empirical spectral distribution statistics for M / sqrt(N)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ensembles import EnsembleSpec, sample_stream
from .linalg import RngHandle, eigenvalues_hermitian
from .semicircle import SemicircleParams, cdf as semicircle_cdf, moment as semicircle_moment

MAX_MOMENT_ORDER = 12


@dataclass(frozen=True)
class SpectrumSample:
    n: int
    eigs_scaled: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.eigs_scaled) != self.n:
            raise ValueError("eigenvalue count does not match n")


def scale_spectrum(eigs: Sequence[float], n: int, meta: dict | None = None) -> SpectrumSample:
    """Eigenvalues of M mapped to the spectrum of M / sqrt(n), ascending."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.shape != (n,):
        raise ValueError(f"expected {n} eigenvalues, got shape {eigs.shape}")
    return SpectrumSample(n, np.sort(eigs / math.sqrt(n)), meta or {})


def esd_moment(s: SpectrumSample, k: int) -> float:
    """Single-sample estimator (1/N) sum lambda^k of the scaled spectrum."""
    if not (0 <= k <= MAX_MOMENT_ORDER):
        raise ValueError(f"moment order must be in [0, {MAX_MOMENT_ORDER}]")
    return float(np.mean(pooled_eigs(s) ** k))


def pooled_eigs(s) -> np.ndarray:
    if isinstance(s, SpectrumSample):
        return s.eigs_scaled
    return np.sort(np.concatenate([x.eigs_scaled for x in s]))


def histogram(s, bins: int, value_range: tuple[float, float]) -> list[tuple[float, float]]:
    """(bin_center, density) pairs, normalized against the full sample count."""
    a, b = value_range
    if bins < 1 or not a < b:
        raise ValueError("need bins >= 1 and a < b")
    values = pooled_eigs(s)
    if values.size == 0:
        raise ValueError("empty spectrum")
    counts, edges = np.histogram(values, bins=bins, range=(a, b))
    width = (b - a) / bins
    centers = (edges[:-1] + edges[1:]) / 2.0
    density = counts / (values.size * width)
    return list(zip(centers.tolist(), density.tolist()))


def ks_distance_to_semicircle(s, sigma: float) -> float:
    """sup_x |empirical CDF - semicircle CDF| over all jump points."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    values = pooled_eigs(s)
    m = values.size
    params = SemicircleParams(sigma)
    ref = np.array([semicircle_cdf(x, params) for x in values])
    upper = np.arange(1, m + 1) / m
    lower = np.arange(0, m) / m
    return float(max(np.max(np.abs(upper - ref)), np.max(np.abs(lower - ref))))


@dataclass(frozen=True)
class MomentRow:
    n: int
    k: int
    mean: float
    stderr: float
    gap: float


def spectra(spec: EnsembleSpec, n: int, count: int, rng: RngHandle,
            warnings: dict[str, list[str]] | None = None) -> np.ndarray:
    """Row s: ascending eigenvalues of M_s / sqrt(n), for the s-th matrix of
    ``sample_stream(spec, n, count, rng)``; one matrix is held at a time.

    Sampler warnings are appended to ``warnings[str(n)]`` when a dict is given."""
    out = np.empty((count, n))
    for s, matrix in enumerate(sample_stream(spec, n, count, rng)):
        out[s] = eigenvalues_hermitian(matrix)
        found = matrix.meta.get("warnings")
        if warnings is not None and found:
            warnings.setdefault(str(n), []).extend(found)
    out /= math.sqrt(n)
    out.sort(axis=1)
    return out


def convergence_scan(spec: EnsembleSpec, n_grid: Sequence[int], k_list: Sequence[int],
                     samples_per_n: int, rng: RngHandle,
                     warnings: dict[str, list[str]] | None = None) -> list[MomentRow]:
    """Per (N, k): sample-averaged scaled moment, standard error, and the
    absolute gap to the semicircle moment at the ensemble's sigma.

    Sampler warnings are appended to ``warnings[str(N)]`` when a dict is given."""
    if list(n_grid) != sorted(set(n_grid)):
        raise ValueError("N grid must be strictly ascending")
    if samples_per_n < 1:
        raise ValueError("need at least one sample per N")
    if not all(0 <= k <= MAX_MOMENT_ORDER for k in k_list):
        raise ValueError(f"moment orders must be in [0, {MAX_MOMENT_ORDER}]")
    params = SemicircleParams(spec.sigma)
    rows: list[MomentRow] = []
    for n_index, n in enumerate(n_grid):
        eigs = spectra(spec, n, samples_per_n, rng.substream(n_index), warnings)
        for k in k_list:
            vals = np.mean(eigs ** k, axis=1)
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            rows.append(MomentRow(n, k, mean, stderr, abs(mean - semicircle_moment(k, params))))
    return rows


def pooled_samples(spec: EnsembleSpec, n: int, count: int, rng: RngHandle) -> list[SpectrumSample]:
    return [SpectrumSample(n, row, {"sample": idx})
            for idx, row in enumerate(spectra(spec, n, count, rng))]
