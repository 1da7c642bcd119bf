"""Empirical joint cumulants of matrix entries across an N grid.

For a cumulant graph the estimator reads one entry per edge at disjoint
index tuples, drawing only those entries of each sample (``entry_stream``,
no N x N assembly), averages the subset products per sample (the arithmetic
runs once per block of samples), inverts sample
moments into a cumulant (k-statistics via the partition Moebius formula)
and attaches a delete-one jackknife standard error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensembles import ENTRY_BLOCK, EnsembleSpec, entry_stream
from .graphs import BoundVerdict, CapacityError, CumulantGraph, classify_bound
from .linalg import RngHandle
from .partitions import MAX_CUMULANT_ENTRIES, cumulants_from_moments

# the fewest samples a delete-one jackknife error takes
MIN_JACKKNIFE_SAMPLES = 3


def subset_keys(edges) -> dict[tuple[int, ...], tuple]:
    """Non-empty subsets of edge positions, keyed by their pair multiset."""
    out = {}
    for r in range(1, len(edges) + 1):
        for subset in itertools.combinations(range(len(edges)), r):
            out[subset] = tuple(sorted(edges[i] for i in subset))
    return out


@dataclass(frozen=True)
class CumulantEstimate:
    n: int
    estimate: float
    stderr: float


@dataclass(frozen=True)
class ScanResult:
    graph: CumulantGraph
    estimates: tuple[CumulantEstimate, ...]
    verdict: BoundVerdict


def estimate_entry_cumulant(spec: EnsembleSpec, graph: CumulantGraph, n: int,
                            samples: int, rng: RngHandle) -> CumulantEstimate:
    """Monte Carlo estimate of the joint cumulant attached to ``graph``."""
    e = graph.num_edges
    if e > MAX_CUMULANT_ENTRIES:
        # refused before any draw: the inversion at the end would refuse it
        raise CapacityError(f"cumulant inversion limited to {MAX_CUMULANT_ENTRIES} entries")
    v = graph.num_vertices
    tuples = n // v
    if tuples < 1:
        raise ValueError(f"matrix size {n} too small for a {v}-vertex graph")
    if samples < MIN_JACKKNIFE_SAMPLES:
        raise ValueError("need at least three samples for a jackknife error")
    # one row per pair multiset: with parallel edges several subsets share one
    subset_of = {key: subset for subset, key in subset_keys(graph.edges).items()}
    row_of = {key: r for r, key in enumerate(subset_of)}
    # subsets padded to e factors with the index of a row of ones
    factors = np.array([subset + (e,) * (e - len(subset)) for subset in subset_of.values()])
    offsets = np.arange(tuples) * v
    sources = np.array([s for s, _ in graph.edges])[:, None] + offsets
    targets = np.array([t for _, t in graph.edges])[:, None] + offsets
    # a block's entries edge by edge, [edges + 1, block, tuples], over a row of ones
    entries = np.ones((e + 1, ENTRY_BLOCK, tuples), dtype=complex)
    per_sample = np.empty((len(row_of), samples), dtype=complex)
    start = 0
    for block in entry_stream(spec, n, samples, rng, sources, targets):
        b = len(block)
        entries[:e, :b] = block.swapaxes(0, 1)
        # each subset's product over the block, [subsets, block, tuples], formed
        # factor by factor in the per-sample order: left to right over e factors
        prod = entries[factors[:, 0], :b]
        for j in range(1, e):
            prod *= entries[factors[:, j], :b]
        prod.sum(axis=2, out=per_sample[:, start:start + b])
        start += b
    # the per-sample means, in one division: the bits of prod.mean(axis=1)
    per_sample /= tuples

    sums = per_sample.sum(axis=1)
    # leave-one-out means, written over the per-sample means
    leave_one_out = np.subtract(sums[:, None], per_sample, out=per_sample)
    leave_one_out /= samples - 1

    def row(block) -> int:
        return row_of[tuple(sorted(block))]

    full = cumulants_from_moments(lambda block: sums[row(block)] / samples, graph.edges)
    jack = cumulants_from_moments(lambda block: leave_one_out[row(block)], graph.edges).real
    stderr = math.sqrt((samples - 1) / samples * np.sum((jack - jack.mean()) ** 2))
    return CumulantEstimate(n, float(full.real), stderr)


def scan_graph(spec: EnsembleSpec, graph: CumulantGraph, n_grid: Sequence[int],
               samples_per_n: int, rng: RngHandle) -> ScanResult:
    """Estimate across the N grid and classify against the scaling bounds."""
    estimates = []
    for idx, n in enumerate(n_grid):
        estimates.append(estimate_entry_cumulant(spec, graph, n, samples_per_n,
                                                 rng.substream(idx)))
    verdict = classify_bound(graph, [(e.n, e.estimate) for e in estimates],
                             [e.stderr for e in estimates])
    return ScanResult(graph, tuple(estimates), verdict)
