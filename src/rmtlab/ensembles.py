"""Matrix ensembles: independent-entry laws, dependent-entry constructions
built from a shared scalar factor, and a Metropolis sampler for the
unitary-invariant quartic deformation.

Second-moment convention throughout: <M_ij M_ji>_c = sigma^2 for i != j,
diagonal variance sigma^2 by default (configurable).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from . import exactvalues as ev
from .exactvalues import ENTRY_DISTS, ExactComplex, InexactValue
from .graphs import CumulantGraph
from .linalg import HermitianMatrix, RngHandle, standard_complex_normals

KINDS = ("gue", "wigner", "common_factor", "damped_common_factor", "quartic_invariant")

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

    def moment(self, k: int) -> float:
        return float(sum(w * float(s) ** (k / 2) for w, s in zip(self.weights, self.squares)))

    def moment_exact(self, k: int) -> Fraction:
        """E[g^k]; raises InexactValue when odd powers leave the rationals."""
        if k % 2 == 0:
            return sum(w * s ** (k // 2) for w, s in zip(self.weights, self.squares))
        return sum(w * ev.sqrt_fraction_or_raise(s) ** k
                   for w, s in zip(self.weights, self.squares))

    def values(self) -> np.ndarray:
        return np.sqrt(np.array([float(s) for s in self.squares]))

    def to_json(self) -> dict:
        return {"squares": [str(s) for s in self.squares],
                "weights": [str(w) for w in self.weights]}

    @classmethod
    def from_json(cls, doc: Mapping) -> "FactorDistribution":
        _reject_unknown(doc, {"squares", "weights"}, "factor_dist")
        return cls(tuple(Fraction(s) for s in doc["squares"]),
                   tuple(Fraction(w) for w in doc["weights"]))


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

    def to_json(self) -> dict:
        return {"steps": self.steps, "step_size": self.step_size, "burn_in": self.burn_in}

    @classmethod
    def from_json(cls, doc: Mapping) -> "MetropolisParams":
        _reject_unknown(doc, {"steps", "step_size", "burn_in"}, "metropolis")
        return cls(int(doc.get("steps", 2)), float(doc.get("step_size", 1.0)),
                   int(doc.get("burn_in", 150)))


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

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "sigma": self.sigma, "entry_dist": self.entry_dist,
               "factor_dist": self.factor_dist.to_json(),
               "damping_alpha": self.damping_alpha, "quartic_g": self.quartic_g,
               "metropolis": self.metropolis.to_json(),
               "diagonal_variance": self.diagonal_variance}
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "EnsembleSpec":
        known = {"kind", "sigma", "entry_dist", "factor_dist", "damping_alpha",
                 "quartic_g", "metropolis", "diagonal_variance"}
        _reject_unknown(doc, known, "ensemble")
        if "kind" not in doc:
            raise ParameterError("ensemble.kind is required")
        kwargs = {"kind": doc["kind"]}
        if "sigma" in doc:
            kwargs["sigma"] = float(doc["sigma"])
        if "entry_dist" in doc:
            kwargs["entry_dist"] = doc["entry_dist"]
        if "factor_dist" in doc:
            kwargs["factor_dist"] = FactorDistribution.from_json(doc["factor_dist"])
        if "damping_alpha" in doc:
            kwargs["damping_alpha"] = float(doc["damping_alpha"])
        if "quartic_g" in doc:
            kwargs["quartic_g"] = float(doc["quartic_g"])
        if "metropolis" in doc:
            kwargs["metropolis"] = MetropolisParams.from_json(doc["metropolis"])
        if doc.get("diagonal_variance") is not None:
            kwargs["diagonal_variance"] = float(doc["diagonal_variance"])
        return cls(**kwargs)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "EnsembleSpec":
        return cls.from_json(json.loads(text))


def _reject_unknown(doc: Mapping, known: set, where: str):
    unknown = set(doc) - known
    if unknown:
        raise ParameterError(f"unknown field(s) in {where}: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _draw_entries(rng: RngHandle, dist: str, size: int) -> np.ndarray:
    """Mean-0 variance-1 real draws; inverse-CDF forms keep streams portable."""
    if dist == "gaussian":
        return rng.normals(size)
    if dist == "rademacher":
        return np.where(rng.uniform(size) < 0.5, -1.0, 1.0)
    if dist == "uniform":
        return (2.0 * rng.uniform(size) - 1.0) * math.sqrt(3.0)
    if dist == "centered_exponential":
        return -np.log1p(-rng.uniform(size)) - 1.0
    raise ParameterError(f"unknown entry_dist {dist!r}")


@functools.lru_cache(maxsize=8)
def _strict_upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu = np.triu_indices(n, k=1)
    for idx in iu:
        idx.flags.writeable = False
    return iu


def _wigner_matrix(spec: EnsembleSpec, n: int, rng: RngHandle) -> np.ndarray:
    """Upper-triangle draw: off-diagonal x-then-y arrays, then the diagonal.

    GUE draws use Gaussian entries whatever ``spec.entry_dist`` says."""
    dist = "gaussian" if spec.kind == "gue" else spec.entry_dist
    m = n * (n - 1) // 2
    scale = spec.sigma / math.sqrt(2.0)
    x = _draw_entries(rng, dist, m)
    y = _draw_entries(rng, dist, m)
    diag = _draw_entries(rng, dist, n) * math.sqrt(spec.diag_variance)
    upper = np.zeros((n, n), dtype=complex)
    upper[_strict_upper_indices(n)] = (x + 1j * y) * scale
    upper[np.diag_indices(n)] = diag
    return upper


def sample(spec: EnsembleSpec, n: int, rng: RngHandle) -> HermitianMatrix:
    """One matrix from the ensemble; pure in (spec, n, rng)."""
    if n < 1:
        raise ParameterError("matrix size must be positive")
    if spec.kind in ("gue", "wigner"):
        upper = _wigner_matrix(spec, n, rng)
        return HermitianMatrix.from_upper(upper, {"kind": spec.kind})
    if spec.kind in ("common_factor", "damped_common_factor"):
        if spec.kind == "common_factor":
            values = spec.factor_dist.values()
            weights = [float(w) for w in spec.factor_dist.weights]
            g = float(values[rng.choice_index(weights)])
        else:
            xi = -1.0 if rng.uniform() < 0.5 else 1.0
            g = 1.0 + xi * float(n) ** (-spec.damping_alpha / 2.0)
        upper = _wigner_matrix(spec, n, rng) * g
        return HermitianMatrix.from_upper(upper, {"kind": spec.kind, "factor": g})
    if spec.kind == "quartic_invariant":
        return next(sample_stream(spec, n, 1, rng))
    raise ParameterError(f"unknown ensemble kind {spec.kind!r}")


def sample_stream(spec: EnsembleSpec, n: int, count: int, rng: RngHandle) -> Iterator[HermitianMatrix]:
    """``count`` samples; the quartic chain is shared across retained samples."""
    if spec.kind == "quartic_invariant":
        chain = QuarticChain(spec, n, rng)
        chain.run_sweeps(spec.metropolis.burn_in, adapt=True)
        for _ in range(count):
            chain.run_sweeps(spec.metropolis.steps, adapt=False)
            yield chain.matrix()
        return
    for s in range(count):
        yield sample(spec, n, rng.substream(s))


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
        self.spec = spec
        self.n = n
        self.rng = rng
        self.step = spec.metropolis.step_size * spec.sigma / math.sqrt(n)
        # start from the eigenvalues of a g = 0 draw (exact for the Gaussian part)
        gaussian = EnsembleSpec("wigner", sigma=spec.sigma / math.sqrt(n),
                                diagonal_variance=spec.sigma ** 2 / n)
        init = _wigner_matrix(gaussian, n, rng.substream(0xC0FFEE))
        self.eigs = np.linalg.eigvalsh(init, UPLO="U")
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
ORACLE_MAX_EDGES = 4


def entry_cumulant_oracle(spec: EnsembleSpec, graph: CumulantGraph,
                          indices: Mapping[int, int], n: int | None = None) -> complex | None:
    """Exact joint cumulant of the entry monomial encoded by (graph, indices).

    Computed analytically from the ensemble construction; returns None when
    the kind or order is unsupported.  Damped ensembles depend on the matrix
    size, so ``n`` is required for them.  Values are exact rationals in
    Q[i, sqrt2] wherever the construction allows, floats otherwise.
    """
    if spec.kind not in ORACLE_KINDS or graph.num_edges > ORACLE_MAX_EDGES:
        return None
    assignment = [indices[v] for v in range(graph.num_vertices)]
    if len(set(assignment)) != graph.num_vertices:
        raise ParameterError("index assignment must be injective on vertices")
    edges = [(assignment[s], assignment[t]) for s, t in graph.edges]
    if spec.kind == "damped_common_factor" and n is None:
        raise ParameterError("damped ensembles need the matrix size n")
    try:
        return _oracle_exact(spec, edges, n).to_complex()
    except InexactValue:
        return _oracle_float(spec, edges, n)


def _orbit(edge: tuple[int, int]):
    i, j = edge
    return (i,) if i == j else (min(i, j), max(i, j))


def _wigner_block_cumulant_exact(spec: EnsembleSpec, block: list[tuple[int, int]]) -> ExactComplex:
    """Joint cumulant of entries of an independent-entry draw, one block."""
    orbits = {_orbit(e) for e in block}
    if len(orbits) != 1:
        return ev.ZERO
    orbit = orbits.pop()
    k = len(block)
    dist = "gaussian" if spec.kind == "gue" else spec.entry_dist
    kappa = ev.entry_cumulant(dist, k)
    if not kappa:
        return ev.ZERO
    sigma = Fraction(spec.sigma)
    if len(orbit) == 1:
        if spec.diagonal_variance is None:
            sigma_d = sigma
        else:
            sigma_d = ev.sqrt_fraction_or_raise(Fraction(spec.diagonal_variance))
        return ExactComplex(sigma_d**k * kappa)
    a, b = orbit
    p = sum(1 for e in block if e == (a, b))
    q = k - p
    scale = ev.half_power_of_two(k) * Fraction(sigma**k)
    return scale * kappa * (ev.ONE + ev.i_power(p - q))


def _factor_moment_exact(spec: EnsembleSpec, k: int, n: int | None) -> Fraction:
    if spec.kind == "common_factor":
        return spec.factor_dist.moment_exact(k)
    alpha = spec.damping_alpha
    if float(alpha).is_integer():
        h2 = Fraction(1, n ** int(alpha)) if alpha else Fraction(1)
    else:
        raise InexactValue("non-integer damping exponent")
    return sum(math.comb(k, j) * h2 ** (j // 2) for j in range(0, k + 1, 2))


def _oracle_exact(spec: EnsembleSpec, edges: list, n: int | None) -> ExactComplex:
    from .partitions import set_partitions

    if spec.kind in ("gue", "wigner"):
        return _wigner_block_cumulant_exact(spec, edges)
    # M = g W: invert the moment function m(S) = E[g^|S|] m_W(S)
    def w_moment(block: list) -> ExactComplex:
        total = ev.ZERO
        for part in set_partitions(len(block)):
            prod = ev.ONE
            for sub in part.blocks:
                prod = prod * _wigner_block_cumulant_exact(spec, [block[i] for i in sub])
                if not prod:
                    break
            total = total + prod
        return total

    total = ev.ZERO
    for part in set_partitions(len(edges)):
        prod = ExactComplex(part.moebius_weight())
        for blk in part.blocks:
            sub = [edges[i] for i in blk]
            prod = prod * _factor_moment_exact(spec, len(sub), n) * w_moment(sub)
            if not prod:
                break
        total = total + prod
    return total


def _oracle_float(spec: EnsembleSpec, edges: list, n: int | None) -> complex:
    from .partitions import set_partitions

    def w_block(block: list) -> complex:
        orbits = {_orbit(e) for e in block}
        if len(orbits) != 1:
            return 0j
        orbit = orbits.pop()
        k = len(block)
        dist = "gaussian" if spec.kind == "gue" else spec.entry_dist
        kappa = float(ev.entry_cumulant(dist, k))
        if not kappa:
            return 0j
        if len(orbit) == 1:
            return complex(math.sqrt(spec.diag_variance) ** k * kappa)
        a, b = orbit
        p = sum(1 for e in block if e == (a, b))
        return ((spec.sigma / math.sqrt(2.0)) ** k * kappa
                * (1.0 + 1j ** ((p - (k - p)) % 4)))

    def g_moment(k: int) -> float:
        if spec.kind == "wigner" or spec.kind == "gue":
            return 1.0
        if spec.kind == "common_factor":
            return spec.factor_dist.moment(k)
        h = float(n) ** (-spec.damping_alpha / 2.0)
        return sum(math.comb(k, j) * h ** j for j in range(0, k + 1, 2))

    def w_moment(block: list) -> complex:
        total = 0j
        for part in set_partitions(len(block)):
            prod = 1 + 0j
            for sub in part.blocks:
                prod *= w_block([block[i] for i in sub])
                if not prod:
                    break
            total += prod
        return total

    if spec.kind in ("gue", "wigner"):
        return w_block(edges)
    total = 0j
    for part in set_partitions(len(edges)):
        prod = complex(part.moebius_weight())
        for blk in part.blocks:
            sub = [edges[i] for i in blk]
            prod *= g_moment(len(sub)) * w_moment(sub)
            if not prod:
                break
        total += prod
    return total
