"""Matrix ensembles: independent-entry laws, dependent-entry constructions
built from a shared scalar factor, and a Metropolis sampler for the
unitary-invariant quartic deformation.

Second-moment convention throughout: <M_ij M_ji>_c = sigma^2 for i != j,
diagonal variance sigma^2 by default (configurable).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from . import exactvalues as ev
from .exactvalues import ENTRY_DISTS, InexactValue
from .graphs import CumulantGraph
from .linalg import MAX_MATRIX_SIZE, HermitianMatrix, RngHandle, standard_complex_normals
from .partitions import MAX_CUMULANT_ENTRIES, cumulants_from_moments, moments_from_cumulants

KINDS = ("gue", "wigner", "common_factor", "damped_common_factor", "quartic_invariant")
FACTOR_KINDS = ("common_factor", "damped_common_factor")

ACCEPTANCE_WINDOW = (0.1, 0.9)


class ParameterError(ValueError):
    """Invalid ensemble or sampler parameter."""


@dataclass(frozen=True)
class FactorDistribution:
    """Discrete law of the scalar factor g, given through its squares.

    Squares and weights are exact rationals so E[g^2] = 1 can be enforced
    exactly; the default two-point law {1/2, 3/2} has E[g^4] = 5/4.
    """

    squares: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(3, 2))
    weights: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1, 2))

    def __post_init__(self):
        object.__setattr__(self, "squares", tuple(Fraction(s) for s in self.squares))
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if len(self.squares) != len(self.weights) or not self.squares:
            raise ParameterError("factor_dist needs matching squares and weights")
        if any(s <= 0 for s in self.squares) or any(w <= 0 for w in self.weights):
            raise ParameterError("factor_dist squares and weights must be positive")
        if sum(self.weights) != 1:
            raise ParameterError("factor_dist weights must sum to 1")
        if self.mean_square() != 1:
            raise ParameterError("factor_dist must satisfy E[g^2] = 1 exactly")

    def mean_square(self) -> Fraction:
        return sum(w * s for w, s in zip(self.weights, self.squares))

    def values(self) -> np.ndarray:
        return np.sqrt(np.array([float(s) for s in self.squares]))

    @functools.cached_property
    def float_law(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """``values()`` and the weights as floats, converted once per law
        rather than once per drawn factor."""
        return tuple(self.values().tolist()), tuple(float(w) for w in self.weights)


@dataclass(frozen=True)
class MetropolisParams:
    steps: int = 2          # sweeps between retained samples
    step_size: float = 1.0  # proposal scale, in units of sigma/sqrt(N)
    burn_in: int = 150      # burn-in sweeps

    def __post_init__(self):
        if self.steps < 1 or self.burn_in < 0:
            raise ParameterError("invalid metropolis parameters")
        if not 0 < self.step_size < math.inf:
            raise ParameterError("metropolis step_size must be positive and finite")


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    sigma: float = 1.0
    entry_dist: str = "gaussian"
    factor_dist: FactorDistribution = field(default_factory=FactorDistribution)
    damping_alpha: float = 1.0
    quartic_g: float = 0.0
    metropolis: MetropolisParams = field(default_factory=MetropolisParams)
    diagonal_variance: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown ensemble kind {self.kind!r}")
        if not 0 < self.sigma < math.inf:
            raise ParameterError("sigma must be positive and finite")
        if self.entry_dist not in ENTRY_DISTS:
            raise ParameterError(f"unknown entry_dist {self.entry_dist!r}")
        if self.kind == "gue" and self.entry_dist != "gaussian":
            raise ParameterError(f"gue entries are gaussian, not {self.entry_dist!r}; "
                                 'use kind "wigner" for another entry_dist')
        if not 0 <= self.damping_alpha < math.inf:
            raise ParameterError("damping_alpha must be non-negative and finite")
        if not 0 <= self.quartic_g < math.inf:
            raise ParameterError("quartic_g must be non-negative and finite")
        if self.diagonal_variance is not None and not 0 <= self.diagonal_variance < math.inf:
            raise ParameterError("diagonal_variance must be non-negative and finite")

    @property
    def diag_variance(self) -> float:
        if self.diagonal_variance is None:
            return self.sigma * self.sigma
        return self.diagonal_variance


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _draw_entries(rng: RngHandle, dist: str, size: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Mean-0 variance-1 real draws, written into ``out`` when it is given;
    inverse-CDF forms keep streams portable."""
    if dist == "gaussian":
        return rng.normals(size, out=out)
    if dist == "rademacher":
        # -1 below 1/2, +1 from 1/2 on, written into the uniform buffer itself
        values = rng.uniform(size, out=out)
        values -= 0.5
        return np.copysign(1.0, values, out=values)
    if dist == "uniform":
        # (2u - 1) sqrt(3) in place: the same three roundings as out of place
        values = rng.uniform(size, out=out)
        values *= 2.0
        values -= 1.0
        values *= math.sqrt(3.0)
        return values
    if dist == "centered_exponential":
        values = rng.uniform(size, out=out)
        # log1p reads a fresh array, so its vector loop does not depend on out
        np.subtract(-np.log1p(-values), 1.0, out=values)
        return values
    raise ParameterError(f"unknown entry_dist {dist!r}")


def _draw_triangle(spec: EnsembleSpec, n: int, rng: RngHandle, count: int,
                   pairs: int, diagonal: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The scaled draws of ``pairs`` off-diagonal and ``diagonal`` diagonal
    entries of ``count`` samples, one row per sample, each row an x | y |
    diag buffer: the real parts of the pairs, then their imaginary parts,
    then the diagonal; and the samples' factors, None for the
    independent-entry kinds.

    The samples are drawn from ``rng`` one after another, and the handle is
    advanced past them.  The independent-entry kinds draw all ``count``
    rows in one call; a common-factor kind draws each sample's factor and
    then its row, two calls per sample, so that a sample's draws never
    depend on ``count``.  Philox read in sequence gives the same values
    however the draws are split into calls, so a block of ``count`` rows
    holds the bits of ``count`` blocks of one.  Each row is then scaled and
    multiplied by its factor, elementwise, so every row holds the bits of
    a draw scaled on its own.  A whole matrix is the n(n - 1)/2 pairs of
    the strict upper triangle, in ``np.triu_indices(n, k=1)`` order, and
    the n diagonal entries."""
    size = 2 * pairs + diagonal
    draws = np.empty((count, size))
    if spec.kind in FACTOR_KINDS:
        factors = np.empty(count)
        for k in range(count):
            factors[k] = _draw_factor(spec, n, rng)
            _draw_entries(rng, spec.entry_dist, size, out=draws[k])
    else:
        factors = None
        _draw_entries(rng, spec.entry_dist, count * size, out=draws.reshape(-1))
    draws[:, :2 * pairs] *= spec.sigma / math.sqrt(2.0)
    draws[:, 2 * pairs:] *= math.sqrt(spec.diag_variance)
    if factors is not None:
        draws *= factors[:, None]
    return draws, factors


def _draw_factor(spec: EnsembleSpec, n: int, rng: RngHandle) -> float:
    """The scalar factor g of a common-factor kind, drawn before the entries."""
    if spec.kind == "common_factor":
        values, weights = spec.factor_dist.float_law
        return values[rng.choice_index(weights)]
    xi = -1.0 if rng.uniform() < 0.5 else 1.0
    return 1.0 + xi * float(n) ** (-spec.damping_alpha / 2.0)


def _check_matrix_size(n: int):
    if n < 1:
        raise ParameterError("matrix size must be positive")
    if n > MAX_MATRIX_SIZE:
        raise ParameterError(f"matrix size must be in [1, {MAX_MATRIX_SIZE}]")


def sample(spec: EnsembleSpec, n: int, rng: RngHandle) -> HermitianMatrix:
    """One matrix from the ensemble, drawn from ``rng`` at its position,
    which it advances; pure in (spec, n) and that position."""
    _check_matrix_size(n)
    if spec.kind == "quartic_invariant":
        return next(sample_stream(spec, n, 1, rng))
    m = n * (n - 1) // 2
    (draws,), factors = _draw_triangle(spec, n, rng, 1, m, n)
    meta = {"kind": spec.kind}
    if factors is not None:
        meta["factor"] = float(factors[0])
    return HermitianMatrix.from_triangle(draws[:m], draws[m:2 * m], draws[2 * m:], meta)


def sample_stream(spec: EnsembleSpec, n: int, count: int, rng: RngHandle) -> Iterator[HermitianMatrix]:
    """``count`` samples, drawn from ``rng`` one after another, which
    advances it: the entry-wise kinds are ``count`` calls of ``sample`` on
    ``rng``, so a stream of fewer samples is a prefix of a longer one.  The
    quartic chain is shared across retained samples."""
    if spec.kind == "quartic_invariant":
        chain = QuarticChain(spec, n, rng)
        chain.run_sweeps(spec.metropolis.burn_in, adapt=True)
        for _ in range(count):
            chain.run_sweeps(spec.metropolis.steps, adapt=False)
            yield chain.matrix()
        return
    for _ in range(count):
        yield sample(spec, n, rng)


# Samples per entry_stream block.  An independent-entry kind draws a block in
# one call, a common-factor kind in two calls per sample, and the scaling,
# gather and assembly run once per block.  The bytes do not depend on it:
# the handle's Philox stream is read in sequence however it is split.  16 is
# the smallest block at which the cumulant scan's time levels off, and it
# holds the estimator's [subsets, block, tuples] products at well under 1 MiB
# (BENCH_scan_blocks.json).
ENTRY_BLOCK = 16


def entry_stream(spec: EnsembleSpec, n: int, count: int, rng: RngHandle,
                 rows, cols) -> Iterator[np.ndarray]:
    """``M_s[rows, cols]`` for ``count`` samples ``M_s`` of the ensemble, in
    blocks of ``ENTRY_BLOCK`` samples (the last one shorter when
    ``ENTRY_BLOCK`` does not divide ``count``): each block is an array of
    shape ``(samples, *shape)``, whose row for sample s holds the entries
    at ``rows, cols`` (integers in [0, n), broadcast together to ``shape``),
    as ``sample_stream`` would give them.

    The samples are drawn from ``rng`` one after another, as
    ``sample_stream`` draws them, and the handle is advanced past them.
    The entry-wise kinds draw only the entries read, with no N x N
    assembly.  Sample s draws the factor of a common-factor kind and then
    ``_draw_triangle``'s row over the distinct upper-triangle positions
    read (in ``np.triu_indices(n, k=1)`` order) and the distinct diagonal
    indices read (ascending): ``sample``'s buffer restricted to what is
    read.  ``x + iy`` goes above the diagonal, its conjugate below, and the
    real diagonal draw on it.  A read of every entry is therefore
    ``sample_stream`` bit for bit; a read of fewer has the same joint law
    but other bytes.  The draws, the scaling and the assembly run once per
    block, in sequence and elementwise, so the blocking changes no bit.
    The unitarily invariant quartic kind has no entry-wise law and stacks
    the entries of its assembled matrices.  The size and the indices are
    checked when the stream is made."""
    _check_matrix_size(n)
    rows, cols = np.broadcast_arrays(np.asarray(rows), np.asarray(cols))
    if not (np.issubdtype(rows.dtype, np.integer) and np.issubdtype(cols.dtype, np.integer)):
        raise IndexError("entry indices must be integers")
    if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise IndexError(f"entry indices must lie in [0, {n})")
    if spec.kind == "quartic_invariant":
        return _matrix_entries(spec, n, count, rng, rows, cols)
    return _triangle_entries(spec, n, count, rng, rows, cols)


def _matrix_entries(spec: EnsembleSpec, n: int, count: int, rng: RngHandle,
                    rows: np.ndarray, cols: np.ndarray) -> Iterator[np.ndarray]:
    """``entry_stream`` read from whole matrices, on checked indices."""
    matrices = sample_stream(spec, n, count, rng)
    for start in range(0, count, ENTRY_BLOCK):
        block = itertools.islice(matrices, min(ENTRY_BLOCK, count - start))
        yield np.stack([matrix.data[rows, cols] for matrix in block])


def _triangle_entries(spec: EnsembleSpec, n: int, count: int, rng: RngHandle,
                      rows: np.ndarray, cols: np.ndarray) -> Iterator[np.ndarray]:
    """``entry_stream`` for the entry-wise kinds, on checked indices."""
    r, c = rows.ravel().astype(np.intp), cols.ravel().astype(np.intp)
    above, below, on = np.flatnonzero(r < c), np.flatnonzero(r > c), np.flatnonzero(r == c)
    off_diagonal = np.concatenate([above, below])
    i, j = np.minimum(r, c)[off_diagonal], np.maximum(r, c)[off_diagonal]
    # the distinct triangle positions read, in np.triu_indices order, and the
    # distinct diagonal indices read, ascending; an entry's draws sit at its
    # place among them in the x | y | diag buffer
    pairs, pair_of = np.unique(i * (2 * n - i - 1) // 2 + (j - i - 1), return_inverse=True)
    diagonal, diagonal_of = np.unique(r[on], return_inverse=True)
    p, size = pairs.size, r.size
    # every real part, then the imaginary parts above and then below the
    # diagonal, whose sign flips; the diagonal's imaginary part is 0
    gather = np.empty(size + off_diagonal.size, dtype=np.intp)
    gather[off_diagonal] = pair_of
    gather[on] = 2 * p + diagonal_of
    gather[size:] = p + pair_of
    conjugated = size + above.size
    for start in range(0, count, ENTRY_BLOCK):
        b = min(ENTRY_BLOCK, count - start)
        draws, _ = _draw_triangle(spec, n, rng, b, p, diagonal.size)
        values = draws[:, gather]
        np.negative(values[:, conjugated:], out=values[:, conjugated:])
        out = np.zeros((b, size), dtype=complex)
        out.real = values[:, :size]
        out.imag[:, off_diagonal] = values[:, size:]
        yield out.reshape((b, *rows.shape))


class QuarticChain:
    """Metropolis chain on the eigenvalues l of B = M/sqrt(N) for the density
    prod_{i<j} |l_i - l_j|^2 exp{-N sum_i V(l_i)}, V(x) = x^2/(2 sigma^2) + g x^4:
    the eigenvalue law of exp{-N Tr V(B)}, whose eigenvectors are Haar (Mehta).

    A sweep makes N single-eigenvalue random-walk proposals, then a dilation
    l -> c l (log c ~ N(0, 1/N^2)) and a shift l -> l + s (s ~ N(0, sigma^2/N^2)),
    the two modes that single moves relax only in O(N) sweeps.  ``accept_rate``
    is the mean acceptance probability min(1, e^-dS) of the last sweep's single
    moves, less noisy than their 0/1 count when N is small.  ``matrix()``
    returns sqrt(N) U diag(l) U^dagger with a fresh Haar U from its own stream.
    """

    def __init__(self, spec: EnsembleSpec, n: int, rng: RngHandle):
        if spec.kind != "quartic_invariant":
            raise ParameterError("QuarticChain requires a quartic_invariant spec")
        _check_matrix_size(n)
        self.spec = spec
        self.n = n
        self.rng = rng
        self.step = spec.metropolis.step_size * spec.sigma / math.sqrt(n)
        # start from the eigenvalues of a g = 0 draw (exact for the Gaussian part)
        gaussian = EnsembleSpec("wigner", sigma=spec.sigma / math.sqrt(n),
                                diagonal_variance=spec.sigma ** 2 / n)
        init = sample(gaussian, n, rng.substream(0xC0FFEE))
        self.eigs = np.linalg.eigvalsh(init.data, UPLO="U")
        self._haar_rng = rng.substream(0x4AA2)
        self.accept_rate = 0.0

    def potential(self, x):
        """N V(x), elementwise."""
        x2 = x * x
        return self.n * (x2 / (2.0 * self.spec.sigma ** 2) + self.spec.quartic_g * x2 * x2)

    def move_action(self, i: int, new: float) -> float:
        """Change of -log density when eigenvalue i moves to ``new``."""
        lam = self.eigs
        old = lam[i]
        num = lam - new
        den = lam - old
        den[i] = num[i]
        return (self.potential(new) - self.potential(old)
                - 2.0 * float(np.log(np.abs(num / den)).sum()))

    def global_action(self, log_c: float, shift: float) -> float:
        """Minus the log acceptance ratio of l -> exp(log_c) l + shift: the
        Jacobian and the Vandermonde give N^2 log c."""
        lam = self.eigs
        moved = math.exp(log_c) * lam + shift
        return (float(self.potential(moved).sum() - self.potential(lam).sum())
                - self.n * self.n * log_c)

    def run_sweeps(self, count: int, adapt: bool):
        for _ in range(count):
            rate = self._sweep()
            self.accept_rate = rate
            if adapt:
                if rate < 0.35:
                    self.step *= 0.8
                elif rate > 0.65:
                    self.step *= 1.25

    def _sweep(self) -> float:
        n = self.n
        xs = self.rng.normals(n + 2)
        us = self.rng.uniform(n + 2)
        lam = self.eigs
        accept_prob = 0.0
        with np.errstate(divide="ignore"):
            log_us = np.log(us)
            for i in range(n):
                new = lam[i] + xs[i] * self.step
                action = self.move_action(i, new)
                accept_prob += math.exp(-max(action, 0.0))
                if log_us[i] < -action:
                    lam[i] = new
            log_c, shift = xs[n] / n, xs[n + 1] * self.spec.sigma / n
            if log_us[n] < -self.global_action(log_c, 0.0):
                lam *= math.exp(log_c)
            if log_us[n + 1] < -self.global_action(0.0, shift):
                lam += shift
        return accept_prob / n

    def matrix(self) -> HermitianMatrix:
        meta = {"kind": "quartic_invariant", "acceptance_rate": self.accept_rate,
                "warnings": []}
        lo, hi = ACCEPTANCE_WINDOW
        if not (lo <= self.accept_rate <= hi):
            meta["warnings"].append(
                f"metropolis acceptance rate {self.accept_rate:.3f} outside [{lo}, {hi}]")
        u = _haar_unitary(self._haar_rng, self.n)
        return HermitianMatrix.from_upper((u * (math.sqrt(self.n) * self.eigs)) @ u.conj().T,
                                          meta)


def _haar_unitary(rng: RngHandle, n: int) -> np.ndarray:
    """Haar unitary: QR of a complex Ginibre matrix, R's diagonal made positive
    (Mezzadri, Notices AMS 54, 2007)."""
    q, r = np.linalg.qr(standard_complex_normals(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# analytic entry-cumulant oracle
# ---------------------------------------------------------------------------

ORACLE_KINDS = ("gue", "wigner", "common_factor", "damped_common_factor")


def entry_cumulant_oracle(spec: EnsembleSpec, graph: CumulantGraph,
                          indices: Mapping[int, int], n: int | None = None) -> complex | None:
    """Exact joint cumulant of the entry monomial encoded by (graph, indices).

    Computed analytically from the ensemble construction; returns None when
    the kind is unsupported or the graph has more edges than the cumulant
    inversion takes (``MAX_CUMULANT_ENTRIES``).  Damped ensembles depend on
    the matrix size, so ``n`` is required for them.  The value is computed once in
    exact Q[i, sqrt2] arithmetic and, only if that raises InexactValue,
    again in floats; so it is the rounded exact value wherever that exists.
    """
    if spec.kind not in ORACLE_KINDS or graph.num_edges > MAX_CUMULANT_ENTRIES:
        return None
    assignment = [indices[v] for v in range(graph.num_vertices)]
    if len(set(assignment)) != graph.num_vertices:
        raise ParameterError("index assignment must be injective on vertices")
    edges = [(assignment[s], assignment[t]) for s, t in graph.edges]
    if spec.kind == "damped_common_factor" and n is None:
        raise ParameterError("damped ensembles need the matrix size n")
    try:
        return complex(_entry_cumulant(spec, edges, n, _EXACT))
    except InexactValue:
        return complex(_entry_cumulant(spec, edges, n, _FLOAT))


def _orbit(edge: tuple[int, int]):
    i, j = edge
    return (i,) if i == j else (min(i, j), max(i, j))


class _Scalars(NamedTuple):
    """The arithmetic ``_entry_cumulant`` runs in: exact Q[i, sqrt2] or floats."""

    sqrt: Callable           # root of a non-negative Fraction
    inverse_power: Callable  # (n, alpha) -> n^(-alpha)
    i_power: Callable        # k -> i^k


def _exact_inverse_power(n: int, alpha: float):
    """n^(-alpha) for integer alpha, and n^(-floor(alpha)) sqrt(1/n) for
    half-integer alpha when that root lies in Q[sqrt2].

    Below ulp(0)^2 = 2^-2148, the square of the smallest positive float,
    the exact value is refused (InexactValue), so the exact integers here
    stay under 2149 bits whatever alpha is.  The float path then has
    h^2 = 0.0, and the h^2 terms it drops (small integers times at most the
    fourth power of a variance, far below 2^1073 while that power is a
    float) lie under half the smallest subnormal: its result differs from
    the exact one only by its own rounding, as on any float retry.
    """
    twice = 2.0 * alpha
    if not twice.is_integer():
        raise InexactValue("damping exponent is not a multiple of 1/2")
    if alpha * math.log2(n) > -2 * math.log2(math.ulp(0.0)):
        raise InexactValue("n^(-alpha) is below the square of the smallest float")
    power = Fraction(1, n ** int(alpha))
    return power * ev.sqrt_fraction_or_raise(Fraction(1, n)) if int(twice) % 2 else power


_EXACT = _Scalars(ev.sqrt_fraction_or_raise, _exact_inverse_power, ev.i_power)
_FLOAT = _Scalars(math.sqrt, lambda n, alpha: float(n) ** -alpha, lambda k: 1j ** (k % 4))


def _entry_cumulant(spec: EnsembleSpec, edges: list, n: int | None, scalars: _Scalars):
    """Joint cumulant of the entries at ``edges``, in ``scalars``."""
    def w_cumulant(block) -> object:
        """Joint cumulant of entries of the independent-entry draw W."""
        orbits = {_orbit(e) for e in block}
        if len(orbits) != 1:
            return 0
        orbit = orbits.pop()
        k = len(block)
        kappa = ev.entry_cumulant(spec.entry_dist, k)
        if not kappa:
            return 0
        if len(orbit) == 1:
            variance = (Fraction(spec.sigma) ** 2 if spec.diagonal_variance is None
                        else Fraction(spec.diagonal_variance))
            return scalars.sqrt(variance ** k) * kappa
        p = sum(1 for e in block if e == orbit)
        variance = Fraction(spec.sigma) ** 2 / 2
        return scalars.sqrt(variance ** k) * kappa * (1 + scalars.i_power(2 * p - k))

    def factor_moment(k: int) -> object:
        """E[g^k] for the scalar factor g."""
        if spec.kind == "common_factor":
            fd = spec.factor_dist
            return sum(w * scalars.sqrt(s ** k) for w, s in zip(fd.weights, fd.squares))
        # damped: g = 1 + xi h with h^2 = n^(-alpha) and a fair sign xi
        h2 = scalars.inverse_power(n, spec.damping_alpha)
        return sum(math.comb(k, j) * h2 ** (j // 2) for j in range(0, k + 1, 2))

    if spec.kind in ("gue", "wigner"):
        return w_cumulant(edges)

    def moment(block) -> object:
        # M = g W, so E[M_S] = E[g^|S|] E[W_S].  The W-moment goes first: when
        # it vanishes, E[g^|S|] (perhaps outside Q[i, sqrt2]) is never asked for.
        w = moments_from_cumulants(w_cumulant, block)
        return factor_moment(len(block)) * w if w else 0

    return cumulants_from_moments(moment, edges)
