"""Empirical joint cumulants of matrix entries across an N grid.

For a cumulant graph the estimator reads one entry per edge at disjoint
index tuples, straight from each sample's draws (``entry_stream``, no
N x N assembly), averages the subset products per sample, inverts sample
moments into a cumulant (k-statistics via the partition Moebius formula)
and attaches a delete-one jackknife standard error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensembles import EnsembleSpec, entry_stream
from .graphs import BoundVerdict, CumulantGraph, classify_bound
from .linalg import RngHandle
from .partitions import cumulants_from_moments


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
    v = graph.num_vertices
    tuples = n // v
    if tuples < 1:
        raise ValueError(f"matrix size {n} too small for a {v}-vertex graph")
    if samples < 3:
        raise ValueError("need at least three samples for a jackknife error")
    e = graph.num_edges
    # one row per pair multiset: with parallel edges several subsets share one
    subset_of = {key: subset for subset, key in subset_keys(graph.edges).items()}
    row_of = {key: r for r, key in enumerate(subset_of)}
    # subsets padded to e factors with the index of a row of ones
    factors = np.array([subset + (e,) * (e - len(subset)) for subset in subset_of.values()])
    offsets = np.arange(tuples) * v
    sources = np.array([s for s, _ in graph.edges])[:, None] + offsets
    targets = np.array([t for _, t in graph.edges])[:, None] + offsets
    entries = np.ones((e + 1, tuples), dtype=complex)
    per_sample = np.empty((len(row_of), samples), dtype=complex)
    for s_idx, values in enumerate(entry_stream(spec, n, samples, rng, sources, targets)):
        entries[:e] = values
        gathered = entries[factors]
        prod = gathered[:, 0]
        for j in range(1, e):
            prod = prod * gathered[:, j]
        per_sample[:, s_idx] = prod.mean(axis=1)

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
    cls = classify_bound(graph, [(e.n, e.estimate) for e in estimates],
                         [e.stderr for e in estimates])
    return ScanResult(graph, tuple(estimates), cls.verdict)
