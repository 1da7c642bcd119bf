"""Empirical spectral distribution statistics for M / sqrt(N)."""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensembles import EnsembleSpec, sample_stream
from .linalg import RngHandle, eigenvalues_hermitian
from .pool import ordered_map, usable_cores
from .semicircle import SemicircleParams, cdf as semicircle_cdf, moment as semicircle_moment

MAX_MOMENT_ORDER = 12


def scale_spectrum(eigs: Sequence[float], n: int) -> np.ndarray:
    """Eigenvalues of M mapped to the spectrum of M / sqrt(n), ascending."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.shape != (n,):
        raise ValueError(f"expected {n} eigenvalues, got shape {eigs.shape}")
    return np.sort(eigs / math.sqrt(n))


def esd_moment(eigs: np.ndarray, k: int) -> np.ndarray:
    """(1/N) sum lambda^k along the last axis: one value per spectrum, so a
    scalar for one spectrum and a ``[count]`` array for ``spectra``'s output."""
    if not (0 <= k <= MAX_MOMENT_ORDER):
        raise ValueError(f"moment order must be in [0, {MAX_MOMENT_ORDER}]")
    return np.mean(eigs ** k, axis=-1)


def _finite_entries(values) -> np.ndarray:
    """All entries of ``values``, of any shape; empty or non-finite input is refused."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty spectrum")
    if not np.isfinite(values).all():
        raise ValueError("spectrum holds a non-finite value")
    return values


def histogram(values, bins: int, value_range: tuple[float, float]) -> list[tuple[float, float]]:
    """(bin_center, density) pairs over every entry of ``values``, normalized
    against the full entry count."""
    a, b = value_range
    if bins < 1 or not a < b:
        raise ValueError("need bins >= 1 and a < b")
    values = _finite_entries(values)
    counts, edges = np.histogram(values, bins=bins, range=(a, b))
    width = (b - a) / bins
    centers = (edges[:-1] + edges[1:]) / 2.0
    density = counts / (values.size * width)
    return list(zip(centers.tolist(), density.tolist()))


def ks_distance_to_semicircle(values, sigma: float) -> float:
    """sup_x |empirical CDF - semicircle CDF| over all jump points, pooling
    every entry of ``values``."""
    params = SemicircleParams(sigma)
    values = np.sort(_finite_entries(values), axis=None)
    m = values.size
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


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# numpy holds the GIL through the eigensolve of one matrix with N <= 500 (its
# gufuncs release it only when the loop size times the core dimension exceeds
# 500; measured with numpy 2.4), so threads cannot overlap smaller eigensolves.
_MIN_THREADED_SIZE = 501


def _eigensolve_workers(n: int) -> int:
    """Eigensolves of N x N matrices to run at once: the cores this process
    may use, divided by the BLAS threads of one eigensolve, as the first of
    ``_BLAS_THREAD_VARIABLES`` that is set gives them; at least 1.

    1 when N is below ``_MIN_THREADED_SIZE``, when none is set, or when the
    first one set is not a positive integer: a BLAS left to choose already
    runs one eigensolve on every core."""
    if n < _MIN_THREADED_SIZE:
        return 1
    for name in _BLAS_THREAD_VARIABLES:
        text = os.environ.get(name)
        if text is None:
            continue
        try:
            threads = int(text)
        except ValueError:
            return 1
        if threads < 1:
            return 1
        return max(1, usable_cores() // threads)
    return 1


def _solve(matrix) -> tuple[list[str] | None, np.ndarray]:
    """The sampler's warnings and the ascending spectrum of one matrix."""
    return matrix.meta.get("warnings"), eigenvalues_hermitian(matrix)


def spectra(spec: EnsembleSpec, n: int, count: int, rng: RngHandle,
            warnings: dict[str, list[str]] | None = None) -> np.ndarray:
    """Row s: ascending eigenvalues of M_s / sqrt(n), for the s-th matrix of
    ``sample_stream(spec, n, count, rng)``, which advances ``rng``.

    Matrices are sampled in order on the calling thread, and their
    eigensolves go through ``pool.ordered_map`` on ``_eigensolve_workers``
    workers (at most ``count``): with one, each is solved on the calling
    thread; with more, on that many threads with at most that many matrices
    in flight, and every thread is joined before this returns or raises.
    Row s is read from the s-th eigensolve alone, so the rows do not depend
    on the number of workers.

    Sampler warnings are appended to ``warnings[str(n)]`` in stream order
    when a dict is given."""
    out = np.empty((count, n))
    solved = ordered_map(_solve, sample_stream(spec, n, count, rng),
                         min(_eigensolve_workers(n), count), "rmtlab-eigensolve")
    with contextlib.closing(solved):
        for s, (found, eigs) in enumerate(solved):
            out[s] = scale_spectrum(eigs, n)
            if warnings is not None and found:
                warnings.setdefault(str(n), []).extend(found)
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
            vals = esd_moment(eigs, k)
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            rows.append(MomentRow(n, k, mean, stderr, abs(mean - semicircle_moment(k, params))))
    return rows

