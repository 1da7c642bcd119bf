"""Analytic semicircle reference: density, CDF, moments, resolvent.

The density is sqrt(4 s^2 - x^2) / (2 pi s^2) on [-2s, 2s], the unique
normalization whose even moments are Catalan numbers times s^(2l).  The
resolvent branch is picked so G(z) ~ 1/z at infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .partitions import catalan


@dataclass(frozen=True)
class SemicircleParams:
    sigma: float = 1.0

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")

    @property
    def edge(self) -> float:
        return 2.0 * self.sigma


def density(lam: float, p: SemicircleParams) -> float:
    s2 = p.sigma * p.sigma
    disc = 4.0 * s2 - lam * lam
    if disc <= 0.0:
        return 0.0
    return math.sqrt(disc) / (2.0 * math.pi * s2)


def cdf(lam: float, p: SemicircleParams) -> float:
    """P(X <= lam) under the semicircle law."""
    if lam <= -p.edge:
        return 0.0
    if lam >= p.edge:
        return 1.0
    s2 = p.sigma * p.sigma
    return 0.5 + (lam * math.sqrt(4.0 * s2 - lam * lam) / 2.0
                  + 2.0 * s2 * math.asin(lam / (2.0 * p.sigma))) / (2.0 * math.pi * s2)


def moment(k: int, p: SemicircleParams) -> float:
    """k-th moment: 0 for odd k, Catalan(l) * sigma^(2l) for k = 2l."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k % 2:
        return 0.0
    l = k // 2
    return catalan(l) * p.sigma ** (2 * l)


class BranchCutError(ValueError):
    """Raised for z on [-2 sigma, 2 sigma]; use stieltjes_invert with +-i eps."""


def resolvent(z: complex, p: SemicircleParams) -> complex:
    """Stieltjes transform G(z) = (z - sqrt(z^2 - 4 s^2)) / (2 s^2).

    Of the two square-root branches the one with the smaller modulus is the
    Stieltjes branch (their product is 1/s^2 and the transform satisfies
    |G| < 1/s off the cut), which also matches the 1/z asymptote.
    """
    z = complex(z)
    if z.imag == 0.0 and abs(z.real) <= 2.0 * p.sigma:
        raise BranchCutError(
            "z lies on the spectral cut; evaluate at z +- i*eps (see stieltjes_invert)")
    s2 = p.sigma * p.sigma
    w = cmath.sqrt(z * z - 4.0 * s2)
    g_minus = (z - w) / (2.0 * s2)
    g_plus = (z + w) / (2.0 * s2)
    return g_minus if abs(g_minus) <= abs(g_plus) else g_plus


def solve_schwinger_dyson(z: complex, p: SemicircleParams,
                          tol: float = 1e-14, max_iter: int = 10_000) -> complex:
    """Fixed point of G = 1/(z - sigma^2 G), iterated from G = 1/z."""
    z = complex(z)
    if abs(z) <= 2.0 * p.sigma:
        raise ValueError("fixed-point iteration requires |z| > 2 sigma")
    s2 = p.sigma * p.sigma
    g = 1.0 / z
    for _ in range(max_iter):
        g_next = 1.0 / (z - s2 * g)
        if abs(g_next - g) <= tol:
            return g_next
        g = g_next
    raise ArithmeticError("Schwinger-Dyson iteration did not converge")


def stieltjes_invert(g_callable, lam: float, eps: float) -> float:
    """Recover the density at ``lam`` from the jump of G across the real axis."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    jump = (g_callable(lam - 1j * eps) - g_callable(lam + 1j * eps)) / (2j * math.pi)
    return jump.real
