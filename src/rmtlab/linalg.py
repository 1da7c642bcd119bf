"""Dense Hermitian matrices, deterministic seeded randomness, eigensolve.

Randomness comes from numpy's Philox counter-based generator keyed by a
(seed, stream) pair, so identical keys reproduce identical sequences on any
platform.  Sub-streams are derived with a splitmix64 finalizer (constants
0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb), which keeps
independently derived streams decorrelated.  Philox is counter-based
(Salmon et al., SC 2011) and is read in sequence: a handle's draws are the
same values however they are split into calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MAX_MATRIX_SIZE = 2048

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class RngHandle:
    """Deterministic random stream identified by (seed, stream).

    The handle owns its draw position, and every draw advances it; derive a
    fresh handle per concurrent task with :meth:`substream` instead of
    sharing one.
    """

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        # numpy takes the list through float64 when either value is at least
        # 2**63, so such a key holds both values rounded to 53 bits; every
        # stream draws the bytes it always has
        self._gen = np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    def substream(self, i: int) -> "RngHandle":
        """Child handle with a stream id mixed from this stream and ``i``."""
        return RngHandle(self.seed, _splitmix64(self.stream ^ ((i + 1) & _MASK64)))

    def normals(self, size=None, out: np.ndarray | None = None) -> np.ndarray:
        """Standard normals; written into ``out`` when it is given."""
        return self._gen.standard_normal(size, out=out)

    def uniform(self, size=None, out: np.ndarray | None = None):
        """Uniforms on [0, 1); written into ``out`` when it is given."""
        return self._gen.random(size, out=out)

    def choice_index(self, weights: Sequence[float]) -> int:
        u = self._gen.random()
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    def __repr__(self) -> str:
        return f"RngHandle(seed={self.seed}, stream={self.stream})"


def standard_complex_normals(rng: RngHandle, size) -> np.ndarray:
    """Vectorized complex Gaussians; real/imag independent, variance 1/2 each."""
    re = rng.normals(size)
    im = rng.normals(size)
    return (re + 1j * im) * (1.0 / np.sqrt(2.0))


@functools.lru_cache(maxsize=8)
def triangle_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions in a C-ordered n x n array: the strict upper triangle in
    ``np.triu_indices(n, k=1)`` order, the mirror of each, and the diagonal.

    Cached and read-only; every sampled matrix is assembled through these."""
    rows, cols = np.triu_indices(n, k=1)
    upper, lower, diag = rows * n + cols, cols * n + rows, np.arange(0, n * n, n + 1)
    for idx in (upper, lower, diag):
        idx.flags.writeable = False
    return upper, lower, diag


def _check_size(n: int):
    if n < 1 or n > MAX_MATRIX_SIZE:
        raise ValueError(f"matrix size must be in [1, {MAX_MATRIX_SIZE}]")


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense N x N complex Hermitian matrix with sampling provenance."""

    n: int
    data: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        _check_size(self.n)
        if self.data.shape != (self.n, self.n):
            raise ValueError("data shape does not match n")

    @classmethod
    def from_upper(cls, upper: np.ndarray, meta: dict | None = None) -> "HermitianMatrix":
        """Build from a square array's strict upper triangle and the real part
        of its diagonal; the rest is ignored and ``upper`` is left unchanged.

        The values, their conjugates and the diagonal are written once into a
        fresh read-only complex array, so conjugate symmetry holds exactly."""
        upper = np.asarray(upper)
        if upper.ndim != 2 or upper.shape[0] != upper.shape[1]:
            raise ValueError("expected a square matrix")
        n = upper.shape[0]
        _check_size(n)
        iu, _, diag = triangle_indices(n)
        values = upper.take(iu).astype(complex, copy=False)
        return cls.from_triangle(values.real, values.imag, upper.take(diag).real, meta)

    @classmethod
    def from_triangle(cls, x: np.ndarray, y: np.ndarray, diag: np.ndarray,
                      meta: dict | None = None) -> "HermitianMatrix":
        """Build from the real parts ``x`` and imaginary parts ``y`` of the
        strict upper triangle, in ``np.triu_indices(n, k=1)`` order, and the
        real diagonal ``diag`` of length n.

        ``x + iy``, its conjugate ``x - iy`` and the diagonal are scattered
        once into a fresh read-only complex array through ``triangle_indices``,
        so conjugate symmetry holds exactly.  ``y`` must be writable: it is
        negated in place for the conjugates and negated back, which is exact,
        so every input holds its own values again on return and no third
        triangle-sized array is made."""
        diag = np.asarray(diag)
        if diag.ndim != 1:
            raise ValueError("expected a one-dimensional diagonal")
        n = diag.shape[0]
        _check_size(n)
        if np.shape(x) != (n * (n - 1) // 2,) or np.shape(y) != np.shape(x):
            raise ValueError(f"expected {n * (n - 1) // 2} upper-triangle values")
        iu, il, idiag = triangle_indices(n)
        full = np.empty((n, n), dtype=complex)
        flat = full.reshape(-1)
        flat.real[iu] = x
        flat.real[il] = x
        flat.imag[il] = np.negative(y, out=y)
        flat.imag[iu] = np.negative(y, out=y)
        flat[idiag] = diag
        full.flags.writeable = False
        return cls(n, full, meta or {})

    @classmethod
    def from_array(cls, arr: np.ndarray, meta: dict | None = None) -> "HermitianMatrix":
        arr = np.asarray(arr, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.array_equal(arr, arr.conj().T):
            raise ValueError("matrix is not exactly Hermitian")
        return cls.from_upper(arr, meta)

    def maxabs(self) -> float:
        return float(np.max(np.abs(self.data))) if self.n else 0.0

    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))

    def trace_square(self) -> float:
        return float(np.real(np.sum(self.data * self.data.T)))


def eigenvalues_hermitian(h: HermitianMatrix) -> np.ndarray:
    """Ascending spectrum of ``h``.

    Backed by LAPACK through numpy; the contract (sorted output, residual
    norm below 1e-10 * N * maxabs) is what the tests pin down.
    """
    if not np.all(np.isfinite(h.data)):
        raise ValueError("matrix entries must be finite")
    return np.linalg.eigvalsh(h.data)
