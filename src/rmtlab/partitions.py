"""Set-partition calculus linking moments and joint cumulants.

Moments are sums over set partitions of products of block cumulants; the
inverse direction carries the Moebius weight (-1)^(p-1) (p-1)!.  Both sums
take a plain block callable and work in whatever arithmetic its values
bring: exact Fractions for the finite-N trace moments, Q[i, sqrt2] or
floats for the entry-cumulant oracle, numpy arrays for the jackknife.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, perm
from typing import Callable, Sequence

from .graphs import CapacityError, CumulantGraph, graph_from_monomial

MAX_PARTITION_GROUND = 10
MAX_MOMENT_ENTRIES = 8
MAX_CUMULANT_ENTRIES = 6
MAX_TRACE_ORDER = 7


@dataclass(frozen=True)
class SetPartition:
    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = sorted(i for b in self.blocks for i in b)
        if flat != list(range(self.ground_size)) or any(not b for b in self.blocks):
            raise ValueError("blocks must be disjoint, non-empty and cover the ground set")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def moebius_weight(self) -> int:
        p = self.num_blocks
        return (-1) ** (p - 1) * factorial(p - 1)


def set_partitions(k: int) -> list[SetPartition]:
    """All Bell(k) partitions of {0..k-1}, in restricted-growth-string order."""
    if k > MAX_PARTITION_GROUND:
        raise CapacityError(f"partition enumeration limited to {MAX_PARTITION_GROUND} elements")
    if k < 1:
        raise ValueError("ground set must be non-empty")
    return list(_enumerate_partitions(k))


@functools.cache
def _enumerate_partitions(k: int) -> tuple[SetPartition, ...]:
    out: list[SetPartition] = []

    def grow(rgs: list[int]):
        if len(rgs) == k:
            nblocks = max(rgs) + 1
            blocks = [[] for _ in range(nblocks)]
            for i, b in enumerate(rgs):
                blocks[b].append(i)
            out.append(SetPartition(k, tuple(tuple(b) for b in blocks)))
            return
        top = max(rgs) if rgs else -1
        for b in range(top + 2):
            rgs.append(b)
            grow(rgs)
            rgs.pop()

    grow([])
    return tuple(out)


@dataclass(frozen=True)
class CumulantFunction:
    """Exact joint-cumulant evaluator for matrix-entry monomials.

    ``evaluator`` maps (graph, vertex -> matrix index assignment, N) to an
    exact value; ``description`` is a human-readable tag.

    ``trace_moment_expectation`` needs the value to be invariant under
    relabelling the matrix indices: it may depend on the graph and on N,
    but not on which indices the assignment names.  Every ensemble here
    has that symmetry.
    """

    evaluator: Callable[[CumulantGraph, tuple, int], object]
    description: str = ""

    def on_pairs(self, pairs: Sequence[tuple], N: int):
        graph = graph_from_monomial(pairs)
        assignment = []
        for i, j in pairs:
            for idx in (i, j):
                if idx not in assignment:
                    assignment.append(idx)
        return self.evaluator(graph, tuple(assignment), N)


def gaussian_cumulant_function(sigma_sq=Fraction(1)) -> CumulantFunction:
    """Cumulants of the Gaussian unitary-invariant law <M_ij M_kl>_c = s^2 d_il d_jk."""
    sigma_sq = Fraction(sigma_sq)

    def evaluate(graph: CumulantGraph, assignment: tuple, N: int):
        if graph.num_edges != 2:
            return Fraction(0)
        (s1, t1), (s2, t2) = graph.edges
        if s1 == t2 and t1 == s2:
            return sigma_sq
        return Fraction(0)

    return CumulantFunction(evaluate, "gaussian")


def moments_from_cumulants(c: Callable[[Sequence[tuple]], object], pairs: Sequence[tuple]):
    """Moment of the entry monomial as a partition sum of block cumulants.

    Summed by the block B that holds the first remaining entry:
    m(S) = sum of c(B) m(S - B) over the blocks B in S with min S in B, and
    m of the empty set is 1.  The subsets S are bitmasks over the entries
    and m is memoised per subset within the call.  A block with c(B) = 0
    cuts its branch at once, so only partitions whose every block has a
    non-zero cumulant contribute work.  ``c`` gets each block as a tuple of
    pairs in ascending entry order, as the blocks of ``set_partitions`` list
    them, and may see one block more than once; a costly ``c`` is memoised
    by its caller, as ``trace_moment_expectation`` does.
    """
    k = len(pairs)
    if k > MAX_MOMENT_ENTRIES:
        raise CapacityError(f"moment expansion limited to {MAX_MOMENT_ENTRIES} entries")
    if k < 1:
        raise ValueError("ground set must be non-empty")
    memo = {0: Fraction(1)}

    # an inner function, so a tracer that wraps the module-level name sees one call
    def moment(mask: int):
        if mask in memo:
            return memo[mask]
        first = mask & -mask
        rest = mask ^ first
        total = Fraction(0)
        sub = rest
        while True:
            block = first | sub
            kappa = c(tuple(pairs[i] for i in range(k) if block >> i & 1))
            if kappa:
                tail = moment(mask ^ block)
                if tail:
                    total += kappa * tail
            if not sub:
                break
            sub = (sub - 1) & rest
        memo[mask] = total
        return total

    return moment((1 << k) - 1)


def cumulants_from_moments(m: Callable[[Sequence[tuple]], object], pairs: Sequence[tuple]):
    """Joint cumulant from a moment function, by Moebius inversion."""
    if len(pairs) > MAX_CUMULANT_ENTRIES:
        raise CapacityError(f"cumulant inversion limited to {MAX_CUMULANT_ENTRIES} entries")
    total = 0
    for part in set_partitions(len(pairs)):
        prod = part.moebius_weight()
        for block in part.blocks:
            prod = prod * m(tuple(pairs[i] for i in block))
        total = total + prod
    return total


def trace_moment_expectation(N: int, k: int, c: CumulantFunction):
    """Exact (1/N^(k/2+1)) <Tr M^k>, summed over index patterns.

    The N^k index tuples of Tr M^k fall into classes by which of the k
    positions carry equal indices, one class per set partition pi of the
    positions.  A class holds (N)_|pi| = N (N-1) ... (N-|pi|+1) tuples, and
    because ``c`` is invariant under relabelling the indices (see
    ``CumulantFunction``) every tuple in it has the moment of one
    representative.  So the work is one ``moments_from_cumulants`` call per
    pattern with at most N labels, whatever N is; each call visits only the
    partitions whose blocks all have non-zero cumulants, and a block
    recurring across patterns is evaluated once per call of this function.
    """
    if N < 1:
        raise ValueError("matrix size N must be at least 1")
    if k > MAX_TRACE_ORDER:
        raise CapacityError(f"trace moments limited to order {MAX_TRACE_ORDER}")

    @functools.cache
    def cumulant(block):
        return c.on_pairs(block, N)

    total = Fraction(0)
    for part in set_partitions(k):
        if part.num_blocks > N:
            continue
        index = [0] * k
        for label, block in enumerate(part.blocks):
            for pos in block:
                index[pos] = label
        pairs = [(index[i], index[(i + 1) % k]) for i in range(k)]
        total += perm(N, part.num_blocks) * moments_from_cumulants(cumulant, pairs)
    if k % 2 == 0:
        return total / Fraction(N) ** (k // 2 + 1)
    if total == 0:
        return Fraction(0)
    return float(total) / float(N) ** (k / 2 + 1)


def catalan(l: int) -> int:
    """Catalan number (2l)! / ((l!)^2 (l+1)) as an exact integer."""
    if l > 30:
        raise CapacityError("catalan numbers computed up to l = 30")
    if l < 0:
        raise ValueError("l must be non-negative")
    return factorial(2 * l) // (factorial(l) ** 2 * (l + 1))


@dataclass(frozen=True)
class ExtrapolationResult:
    value: object
    degenerate: bool = False

    def __float__(self) -> float:
        return float(self.value)


def extrapolate_limit(values: Sequence[tuple[int, object]]) -> ExtrapolationResult:
    """Richardson limit assuming value(N) = a + b/N + c/N^2.

    Solves the model through the three largest N points; exact inputs give
    an exact ``a``.  A singular system falls back to the last value with the
    degenerate flag set.
    """
    if len(values) < 3:
        raise ValueError("need at least three points")
    ns = [n for n, _ in values]
    if ns != sorted(ns):
        raise ValueError("N values must be ascending")
    pts = values[-3:]
    exact = all(isinstance(v, (int, Fraction)) for _, v in pts)
    conv = Fraction if exact else float
    rows = [(conv(1), conv(1) / n, conv(1) / (n * n)) for n, _ in pts]
    rhs = [conv(v) for _, v in pts]

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det3(rows)
    if not d:
        return ExtrapolationResult(values[-1][1], degenerate=True)
    replaced = [(rhs[i], rows[i][1], rows[i][2]) for i in range(3)]
    return ExtrapolationResult(det3(replaced) / d)
