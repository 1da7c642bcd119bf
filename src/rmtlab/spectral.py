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
# 500; measured with numpy 2.4), so threads cannot overlap smaller eigensolves,
# nor the products of ``sampled_moments``.
_MIN_THREADED_SIZE = 501


def _blas_workers(n: int) -> int:
    """BLAS tasks on N x N matrices (eigensolves, or matrix products) to run
    at once: the cores this process may use, divided by the BLAS threads of
    one task, as the first of ``_BLAS_THREAD_VARIABLES`` that is set gives
    them; at least 1.

    1 when N is below ``_MIN_THREADED_SIZE``, when none is set, or when the
    first one set is not a positive integer: a BLAS left to choose already
    runs one task on every core."""
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
    eigensolves go through ``pool.ordered_map`` on ``_blas_workers``
    workers (at most ``count``): with one, each is solved on the calling
    thread; with more, on that many threads with at most that many matrices
    in flight, and every thread is joined before this returns or raises.
    Row s is read from the s-th eigensolve alone, so the rows do not depend
    on the number of workers.

    Sampler warnings are appended to ``warnings[str(n)]`` in stream order
    when a dict is given."""
    out = np.empty((count, n))
    solved = ordered_map(_solve, sample_stream(spec, n, count, rng),
                         min(_blas_workers(n), count), "rmtlab-eigensolve")
    with contextlib.closing(solved):
        for s, (found, eigs) in enumerate(solved):
            out[s] = scale_spectrum(eigs, n)
            if warnings is not None and found:
                warnings.setdefault(str(n), []).extend(found)
    return out


# Rows of one block of a matrix power: the products of ``_trace_powers`` write
# at most this many rows at a time.
_ROW_BLOCK = 64


def _re_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Re sum conj(x) * y over two complex arrays of one shape, each with
    contiguous rows: the sum of products of their real and imaginary parts."""
    return float(np.einsum("ij,ij->", x.view(np.float64), y.view(np.float64)))


def _trace_powers(a: np.ndarray, orders: Sequence[int]) -> dict[int, float]:
    """Tr a^k for each k of ``orders`` (each in 0..``MAX_MOMENT_ORDER``), for
    a Hermitian N x N array ``a``, without eigenvalues.

    Tr a^k = Re <a^p, a^q> with p = k // 2 and q = k - p, summed over
    conj(a^p) * a^q entry by entry.  W = a^2 is formed once, in one N x N
    array, from its upper block rows, each mirrored into the lower triangle.
    A higher power P_p is formed only ``_ROW_BLOCK`` rows at a time, as
    P_{p-2}[rows] @ W, and only right of the diagonal unless P_{p+2} needs
    the whole rows.  Both powers of a pair are Hermitian, so a pair is read
    over the diagonal block once and right of it twice."""
    n = a.shape[0]
    top = max(((k + 1) // 2 for k in orders), default=0)
    traces = {0: float(n), 1: float(a.real.trace()), 2: _re_inner(a, a)}
    if top < 2:
        return traces
    w = np.empty_like(a)
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, n)
        np.matmul(a[r0:r1], a[:, r0:], out=w[r0:r1, r0:])
        np.conjugate(w[r0:r1, r1:].T, out=w[r1:, r0:r1])
    traces[3], traces[4] = _re_inner(a, w), _re_inner(w, w)
    if top < 3:
        return traces
    high = sorted({k for k in orders if k > 4})
    sums = dict.fromkeys(high, 0.0)
    block = min(_ROW_BLOCK, n)
    buffers = {p: np.empty((block, n), dtype=a.dtype) for p in range(3, top + 1)}
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, n)
        h = r1 - r0
        # rows r0:r1 of each power, and the column each starts at
        rows, start = {1: a[r0:r1], 2: w[r0:r1]}, {1: 0, 2: 0}
        for p in range(3, top + 1):
            start[p] = 0 if p + 2 <= top else r0
            rows[p] = np.matmul(rows[p - 2], w[:, start[p]:],
                                out=buffers[p][:h, :n - start[p]])
        for k in high:
            x = rows[k // 2][:, r0 - start[k // 2]:]
            y = rows[k - k // 2][:, r0 - start[k - k // 2]:]
            sums[k] += 2.0 * _re_inner(x, y) - _re_inner(x[:, :h], y[:, :h])
    traces.update(sums)
    return traces


def sampled_moments(spec: EnsembleSpec, n: int, count: int, rng: RngHandle,
                    orders: Sequence[int],
                    warnings: dict[str, list[str]] | None = None) -> np.ndarray:
    """Row s, column j: (1/N) Tr (M_s / sqrt(N))^k for k = ``orders[j]``,
    for the s-th matrix of ``sample_stream(spec, n, count, rng)``, which
    advances ``rng``.  The traces come from Hermitian matrix products
    (``_trace_powers``), with no eigensolve; a matrix with a non-finite entry
    is refused with ``ValueError``, as ``eigenvalues_hermitian`` refuses it.

    Matrices are sampled in order on the calling thread, and their products
    go through ``pool.ordered_map`` on ``_blas_workers`` workers, as the
    eigensolves of ``spectra`` do.  Row s is read from the s-th matrix
    alone, so the rows do not depend on the number of workers.

    Sampler warnings are appended to ``warnings[str(n)]`` in stream order
    when a dict is given."""
    if not all(0 <= k <= MAX_MOMENT_ORDER for k in orders):
        raise ValueError(f"moment orders must be in [0, {MAX_MOMENT_ORDER}]")
    scale = [float(n) ** (1 + k / 2) for k in orders]

    def moments(matrix):
        if not np.all(np.isfinite(matrix.data)):
            raise ValueError("matrix entries must be finite")
        traces = _trace_powers(matrix.data, orders)
        return matrix.meta.get("warnings"), [traces[k] / d for k, d in zip(orders, scale)]

    out = np.empty((count, len(orders)))
    rows = ordered_map(moments, sample_stream(spec, n, count, rng),
                       min(_blas_workers(n), count), "rmtlab-moments")
    with contextlib.closing(rows):
        for s, (found, row) in enumerate(rows):
            out[s] = row
            if warnings is not None and found:
                warnings.setdefault(str(n), []).extend(found)
    return out


def convergence_scan(spec: EnsembleSpec, n_grid: Sequence[int], k_list: Sequence[int],
                     samples_per_n: int, rng: RngHandle,
                     warnings: dict[str, list[str]] | None = None) -> list[MomentRow]:
    """Per (N, k): sample-averaged scaled moment, standard error, and the
    absolute gap to the semicircle moment at the ensemble's sigma.

    The moments of each N come from ``sampled_moments`` on substream
    ``rng.substream(index of N)``: matrix products, no eigensolve.  Sampler
    warnings are appended to ``warnings[str(N)]`` when a dict is given."""
    if list(n_grid) != sorted(set(n_grid)):
        raise ValueError("N grid must be strictly ascending")
    if samples_per_n < 1:
        raise ValueError("need at least one sample per N")
    params = SemicircleParams(spec.sigma)
    rows: list[MomentRow] = []
    for n_index, n in enumerate(n_grid):
        moments = sampled_moments(spec, n, samples_per_n, rng.substream(n_index), k_list,
                                  warnings)
        for k, vals in zip(k_list, moments.T):
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            rows.append(MomentRow(n, k, mean, stderr, abs(mean - semicircle_moment(k, params))))
    return rows
