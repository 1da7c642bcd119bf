"""Directed multigraphs encoding joint cumulants of matrix entries.

A cumulant of a monomial in matrix entries maps to a graph with one vertex
per distinct matrix index and one directed edge i -> j per factor M_ij.
Self-loops and parallel edges are allowed; isolated vertices are not.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Sequence

MAX_CANONICAL_EDGES = 8
MAX_ENUMERATION_EDGES = 6


class CapacityError(Exception):
    """Raised when a documented size bound is exceeded."""


class GraphParseError(ValueError):
    pass


@dataclass(frozen=True)
class CumulantGraph:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if not self.edges:
            raise ValueError("graph needs at least one edge")
        object.__setattr__(self, "edges", tuple(sorted(tuple(e) for e in self.edges)))
        seen = set()
        for s, t in self.edges:
            if not (0 <= s < self.num_vertices and 0 <= t < self.num_vertices):
                raise ValueError(f"edge ({s},{t}) out of range")
            seen.add(s)
            seen.add(t)
        if len(seen) != self.num_vertices:
            raise ValueError("isolated vertices are not allowed")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree_balance(self) -> list[tuple[int, int]]:
        """(in-degree, out-degree) per vertex."""
        ins = [0] * self.num_vertices
        outs = [0] * self.num_vertices
        for s, t in self.edges:
            outs[s] += 1
            ins[t] += 1
        return list(zip(ins, outs))

    def to_text(self) -> str:
        body = ",".join(f"{s}->{t}" for s, t in self.edges)
        return f"v={self.num_vertices};e={body}"

    @classmethod
    def from_text(cls, text: str) -> "CumulantGraph":
        try:
            vpart, epart = text.strip().split(";")
            num = int(vpart.removeprefix("v="))
            body = epart.removeprefix("e=")
            edges = []
            for chunk in body.split(","):
                s, t = chunk.split("->")
                edges.append((int(s), int(t)))
        except Exception as exc:
            raise GraphParseError(f"cannot parse graph {text!r}") from exc
        return cls(num, tuple(edges))


def graph_from_monomial(pairs: Sequence[tuple]) -> CumulantGraph:
    """Graph of the entry monomial prod M_(i,j) over the given index pairs.

    Distinct indices become vertices, relabelled 0..v-1 in order of first
    appearance; every pair occurrence contributes one edge.
    """
    if not pairs:
        raise ValueError("monomial must contain at least one entry")
    relabel: dict = {}
    edges = []
    for i, j in pairs:
        for idx in (i, j):
            if idx not in relabel:
                relabel[idx] = len(relabel)
        edges.append((relabel[i], relabel[j]))
    return CumulantGraph(len(relabel), tuple(edges))


def is_eulerian(g: CumulantGraph) -> bool:
    """True iff every vertex has equal in- and out-degree."""
    return all(i == o for i, o in g.degree_balance())


def _union_roots(count: int, pairs) -> list[int]:
    """Union-find over items 0..count-1: the root of each item once every
    pair has been joined."""
    parent = list(range(count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(x) for x in range(count)]


def connected_components(g: CumulantGraph) -> list[list[int]]:
    """Components of the underlying undirected graph, by vertex index."""
    groups: dict[int, list[int]] = {}
    for v, root in enumerate(_union_roots(g.num_vertices, g.edges)):
        groups.setdefault(root, []).append(v)
    return sorted(groups.values())


def scaling_exponent(g: CumulantGraph) -> Fraction:
    """Exact v(G) - c(G) - e(G)/2."""
    c = len(connected_components(g))
    return Fraction(g.num_vertices - c) - Fraction(g.num_edges, 2)


# ---------------------------------------------------------------------------
# canonical forms and automorphisms
# ---------------------------------------------------------------------------

_canonical_memo: dict[tuple[int, tuple], tuple[CumulantGraph, int]] = {}


def _component_subgraph(g: CumulantGraph, verts: list[int]) -> tuple[int, tuple]:
    relabel = {v: i for i, v in enumerate(verts)}
    edges = tuple(sorted((relabel[s], relabel[t]) for s, t in g.edges
                         if s in relabel and t in relabel))
    return len(verts), edges


def _canonical_edges(num_vertices: int, edges: tuple) -> tuple[tuple, int]:
    """Lexicographically minimal edge tuple over all vertex relabellings, and
    how many relabellings reach it: one coset of the vertex automorphisms."""
    best, count = None, 0
    for perm in itertools.permutations(range(num_vertices)):
        cand = tuple(sorted((perm[s], perm[t]) for s, t in edges))
        if best is None or cand <= best:
            if cand == best:
                count += 1
            else:
                best, count = cand, 1
    return best, count


def _canonical_entry(num_vertices: int, edges: tuple) -> tuple[CumulantGraph, int]:
    """Memo entry: the canonical graph and its vertex-automorphism count."""
    key = (num_vertices, edges)
    hit = _canonical_memo.get(key)
    if hit is not None:
        return hit
    if len(edges) > MAX_CANONICAL_EDGES:
        raise CapacityError(f"canonical form limited to {MAX_CANONICAL_EDGES} edges")
    g = CumulantGraph(num_vertices, edges)
    components = connected_components(g)
    if len(components) == 1:
        best, count = _canonical_edges(num_vertices, edges)
        hit = (CumulantGraph(num_vertices, best), count)
    else:
        # a connected component with e edges has at most e+1 vertices, which
        # keeps the permutation search small
        parts = sorted((_canonical_entry(*_component_subgraph(g, verts))
                        for verts in components),
                       key=lambda part: (part[0].num_vertices, part[0].edges))
        offset, merged, count, run = 0, [], 1, 0
        for i, (c, c_count) in enumerate(parts):
            # sorting puts equal classes side by side, and the k-th copy of a
            # class multiplies in k, so a class repeated m times gives m!
            run = run + 1 if i and c == parts[i - 1][0] else 1
            count *= c_count * run
            merged.extend((s + offset, t + offset) for s, t in c.edges)
            offset += c.num_vertices
        hit = (CumulantGraph(offset, tuple(merged)), count)
    _canonical_memo[key] = hit
    return hit


def canonical_graph_of(num_vertices: int, edges: tuple) -> CumulantGraph:
    """Canonical representative of the graph with these vertices and edges.

    ``edges`` must be sorted, as ``CumulantGraph.edges`` is.  One memo keyed
    by ``(num_vertices, edges)`` serves whole graphs and their connected
    components alike; a hit returns the stored graph and builds nothing.
    """
    return _canonical_entry(num_vertices, edges)[0]


def canonical_graph(g: CumulantGraph) -> CumulantGraph:
    """Canonical representative of the isomorphism class of ``g``.

    Components are canonicalized independently and then concatenated in
    sorted order.
    """
    return canonical_graph_of(g.num_vertices, g.edges)


def canonical_form(g: CumulantGraph) -> str:
    """Label equal for two graphs iff they are isomorphic."""
    return canonical_graph(g).to_text()


def aut_order(g: CumulantGraph) -> int:
    """Order of Aut(G): vertex symmetries, as the canonical-form memo counts
    them, times parallel-edge permutations."""
    order = _canonical_entry(g.num_vertices, g.edges)[1]
    for parallel_mult in Counter(g.edges).values():
        order *= factorial(parallel_mult)
    return order


# ---------------------------------------------------------------------------
# enumeration of isomorphism classes
# ---------------------------------------------------------------------------


def enumerate_graphs(max_edges: int) -> list[CumulantGraph]:
    """One canonical representative per class with 1..max_edges edges.

    Classes are grown by edge augmentation: every graph without isolated
    vertices arises from a smaller one by adding an edge between existing
    vertices, an edge attached to one fresh vertex, a fresh self-loop, or
    an edge between two fresh vertices.
    """
    if max_edges > MAX_ENUMERATION_EDGES:
        raise CapacityError(f"enumeration limited to {MAX_ENUMERATION_EDGES} edges")
    if max_edges < 1:
        return []
    levels: list[set[CumulantGraph]] = [
        {CumulantGraph(1, ((0, 0),)), CumulantGraph(2, ((0, 1),))}
    ]
    for _ in range(2, max_edges + 1):
        nxt: set[CumulantGraph] = set()
        for parent in levels[-1]:
            v = parent.num_vertices
            candidates: list[tuple[int, tuple]] = []
            for s in range(v):
                for t in range(v):
                    candidates.append((v, parent.edges + ((s, t),)))
            for u in range(v):
                candidates.append((v + 1, parent.edges + ((u, v),)))
                candidates.append((v + 1, parent.edges + ((v, u),)))
            candidates.append((v + 1, parent.edges + ((v, v),)))
            candidates.append((v + 2, parent.edges + ((v, v + 1),)))
            for nv, edges in candidates:
                nxt.add(canonical_graph(CumulantGraph(nv, edges)))
        levels.append(nxt)
    out: list[CumulantGraph] = []
    for level in levels:
        out.extend(sorted(level, key=lambda h: h.to_text()))
    return out


# ---------------------------------------------------------------------------
# scaling-bound classification
# ---------------------------------------------------------------------------


class BoundVerdict(Enum):
    CONSISTENT_VANISHING = "consistent_vanishing"
    CONSISTENT_BOUNDED = "consistent_bounded"
    VIOLATING = "violating"


# Trend-detection heuristics; exposed so experiments can tighten or loosen
# them for their own N grids and sample counts.  VANISH_EXPONENT = 1/2 is
# the grade that check_bounds_flow demands of Eulerian perturbations.
VANISH_EXPONENT = 0.5
GROWTH_FACTOR = 1.5
NOISE_SIGMAS = 5.0
# The fewest N values a trend is classified from.
MIN_TREND_SIZES = 3


def classify_bound(
    g: CumulantGraph,
    scaled_values: Sequence[tuple[int, float]],
    stderrs: Sequence[float] | None = None,
) -> BoundVerdict:
    """Classify finite-N cumulant data against the scaling bounds.

    ``scaled_values`` holds (N, cumulant estimate) pairs, ascending in N;
    the values are multiplied by N**exponent here.  For Eulerian graphs the
    rescaled magnitudes must decay at least like N**-VANISH_EXPONENT from the
    first N to the last, for non-Eulerian ones they must stay bounded.  When
    stderrs are given, data indistinguishable from zero counts as vanishing.
    """
    if len(scaled_values) < MIN_TREND_SIZES:
        raise ValueError(f"need at least {MIN_TREND_SIZES} N values")
    ns = [n for n, _ in scaled_values]
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("N values must be strictly ascending")
    expo = scaling_exponent(g)
    scaled = [abs(v) * float(n) ** float(expo) for n, v in scaled_values]
    first, last = scaled[0], scaled[-1]
    if is_eulerian(g):
        vanishing = last <= first * (ns[0] / ns[-1]) ** VANISH_EXPONENT
        if not vanishing and stderrs is not None:
            scaled_err = [abs(e) * float(n) ** float(expo)
                          for (n, _), e in zip(scaled_values, stderrs)]
            vanishing = all(v <= NOISE_SIGMAS * e for v, e in zip(scaled, scaled_err))
        return BoundVerdict.CONSISTENT_VANISHING if vanishing else BoundVerdict.VIOLATING
    bounded = last <= GROWTH_FACTOR * first or last == 0.0
    return BoundVerdict.CONSISTENT_BOUNDED if bounded else BoundVerdict.VIOLATING
