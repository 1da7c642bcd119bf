"""Exact symbolic flow for the replica effective potential.

The potential is a graph-indexed polynomial: each directed multigraph G
stands for the monomial S_G(X) = sum over free vertex indices of
prod_edges (X X^dagger)_{i_source, i_target}, with coefficients that are
formal power series in t over the exact ring Q[n, N^(1/2), N^(-1/2)].

One derivative step rewrites graphs locally: the loop term contracts an
ordered (outgoing, incoming) half-edge pair inside one graph, the tree term
contracts across two graphs.  Contracting both halves of a single edge
closes a replica loop (factor n); a vertex left bare by a contraction is
summed freely (factor N).  Everything is exact, so the Catalan resolvent
series comes out with zero tolerance.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, inf

from .graphs import (MAX_CANONICAL_EDGES, CapacityError, CumulantGraph, _union_roots, aut_order,
                     canonical_graph, canonical_graph_of)
from .partitions import set_partitions
from .ring import RingElement

DEFAULT_MAX_EDGES = 6
MAX_FLOW_ORDER = 8
MAX_WICK_ORDER = 3

TADPOLE = CumulantGraph(1, ((0, 0),))
TWO_CYCLE = CumulantGraph(2, ((0, 1), (1, 0)))
DOUBLE_SELF_LOOP = CumulantGraph(1, ((0, 0), (0, 0)))

FREE_SUM = "free_sum"
DISTINCT_INDEX = "distinct_index"


class FlowInvariantError(ArithmeticError):
    """A grading invariant failed; signals a rewrite bug, not bad input.

    ``t_order`` is the flow order at which it failed, when one is known."""

    def __init__(self, message: str, t_order: int | None = None):
        super().__init__(message)
        self.t_order = t_order


# ---------------------------------------------------------------------------
# cumulant specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CumulantSpec:
    """Initial cumulant data per graph class, split into Gaussian part and
    perturbation.  Values are the bare cumulants; the 1/(|Aut| N^(e/2))
    symmetry weights are attached when the potential is built."""

    gaussian: tuple[tuple[CumulantGraph, RingElement], ...] = ()
    perturbation: tuple[tuple[CumulantGraph, RingElement], ...] = ()

    def __post_init__(self):
        for g, _ in self.gaussian:
            if canonical_graph(g) not in (TWO_CYCLE, DOUBLE_SELF_LOOP):
                raise ValueError("gaussian part lives on the 2-cycle and paired self-loops only")

    @classmethod
    def gaussian_spec(cls, sigma_sq=Fraction(1)) -> "CumulantSpec":
        value = RingElement.scalar(sigma_sq)
        return cls(gaussian=((TWO_CYCLE, value), (DOUBLE_SELF_LOOP, value)))

    def with_perturbation(self, graph: CumulantGraph, value: RingElement) -> "CumulantSpec":
        return CumulantSpec(self.gaussian,
                            self.perturbation + ((canonical_graph(graph), value),))

    def gaussian_only(self) -> "CumulantSpec":
        return CumulantSpec(self.gaussian, ())

    def items(self):
        return list(self.gaussian) + list(self.perturbation)


# ---------------------------------------------------------------------------
# flow state
# ---------------------------------------------------------------------------


@dataclass
class FlowState:
    order_t: int
    basis: str
    table: dict[CumulantGraph, list[RingElement]]
    vacuum: list[RingElement]
    max_edges: int = DEFAULT_MAX_EDGES
    truncation_events: dict[tuple[int, int], int] = field(default_factory=dict)
    # None: every graph was flown; E: only the light cone of graphs with at
    # most E edges at t^order_t, see integrate_flow
    cone_edges: int | None = None

    @property
    def truncated(self) -> bool:
        return any(order <= self.order_t for order, _ in self.truncation_events)

    def _cone_orders(self, edges: int) -> int:
        """Highest t-order at which a graph with ``edges`` edges lies in the cone."""
        if self.cone_edges is None:
            return self.order_t
        return max(0, min(self.order_t, self.cone_edges + self.order_t - edges))

    def is_exact(self, graph: CumulantGraph, k: int) -> bool:
        """Whether the t^k coefficient of ``graph`` is certified exact.

        A term dropped at t^j with e_d edges loses at most one edge per
        later step, so it can reach a graph with e edges at t^k only if
        e_d - (k - j) <= e.  Outside a light cone nothing is flown past t^0.
        """
        edges = graph.num_edges
        if k > self._cone_orders(edges):
            return False
        return all(e_d - (k - j) > edges
                   for j, e_d in self.truncation_events if j <= k)

    def coefficient(self, graph: CumulantGraph, k: int) -> RingElement:
        series = self.table.get(canonical_graph(graph))
        if series is None or k > self.order_t:
            return RingElement.zero()
        return series[k]

    def _normalized_table(self):
        out = {}
        for g, series in self.table.items():
            if any(series):
                out[g] = tuple(series)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowState):
            return NotImplemented
        return (self.order_t == other.order_t and self.basis == other.basis
                and self._normalized_table() == other._normalized_table()
                and tuple(self.vacuum) == tuple(other.vacuum))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """A cone state lists each graph's series only through its last
        in-cone order: the orders past it were never flown."""
        doc = {
            "order": self.order_t,
            "basis": self.basis,
            "max_edges": self.max_edges,
            "truncated": self.truncated,
            "truncation_events": [[*key, n] for key, n in sorted(self.truncation_events.items())],
            "graphs": {g.to_text(): [c.to_triples()
                                     for c in series[:self._cone_orders(g.num_edges) + 1]]
                       for g, series in sorted(self.table.items(), key=lambda kv: kv[0].to_text())
                       if any(series)},
            "vacuum": [c.to_triples() for c in self.vacuum],
        }
        if self.cone_edges is not None:
            doc["cone_edges"] = self.cone_edges
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "FlowState":
        """The certificate's inputs, ``max_edges`` and ``truncation_events``,
        must be present; a missing ``cone_edges`` means a full flow."""
        for key in ("max_edges", "truncation_events"):
            if key not in doc:
                raise ValueError(f"flow state is missing {key!r}")
        order = doc["order"]
        table = {}
        for label, series in doc["graphs"].items():
            coeffs = [RingElement.from_triples(t) for t in series]
            coeffs += [RingElement.zero()] * (order + 1 - len(coeffs))
            table[CumulantGraph.from_text(label)] = coeffs
        return cls(order, doc["basis"], table,
                   [RingElement.from_triples(t) for t in doc["vacuum"]],
                   doc["max_edges"], {(k, e): n for k, e, n in doc["truncation_events"]},
                   doc.get("cone_edges"))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1)


def _zero_series(k: int) -> list[RingElement]:
    return [RingElement.zero() for _ in range(k + 1)]


def _series(table: dict, g: CumulantGraph, k: int) -> list[RingElement]:
    """``table[g]``, entered as a zero series through t^k only on a miss."""
    series = table.get(g)
    if series is None:
        series = table[g] = _zero_series(k)
    return series


# ---------------------------------------------------------------------------
# basis conversion (distinct-index sums <-> free sums)
# ---------------------------------------------------------------------------


def _vertex_quotient(g: CumulantGraph, blocks) -> CumulantGraph:
    block_of = {}
    for b_idx, block in enumerate(blocks):
        for v in block:
            block_of[v] = b_idx
    edges = tuple((block_of[s], block_of[t]) for s, t in g.edges)
    return canonical_graph_of(len(blocks), tuple(sorted(edges)))


def _block_moebius(blocks) -> int:
    weight = 1
    for block in blocks:
        size = len(block)
        weight *= (-1) ** (size - 1) * factorial(size - 1)
    return weight


def _convert_basis(state: FlowState, to_basis: str) -> FlowState:
    if state.basis == to_basis:
        return state
    signed = to_basis == FREE_SUM  # distinct -> free carries Moebius signs
    # graph -> per t-order {(a, b): exact sum}; a quotient whose sums cancel
    # keeps its all-zero series
    acc: dict[CumulantGraph, list[dict]] = {}
    for g, series in state.table.items():
        for part in set_partitions(g.num_vertices):
            gq = _vertex_quotient(g, part.blocks)
            weight = _block_moebius(part.blocks) if signed else 1
            dst = acc.get(gq)
            if dst is None:
                dst = acc[gq] = [{} for _ in range(state.order_t + 1)]
            for k, coeff in enumerate(series):
                sums = dst[k]
                for key, c in coeff.terms:
                    sums[key] = sums.get(key, 0) + c * weight
    table = {g: [RingElement(sums) for sums in orders] for g, orders in acc.items()}
    return FlowState(state.order_t, to_basis, table, list(state.vacuum),
                     state.max_edges, dict(state.truncation_events), state.cone_edges)


def to_free_basis(state: FlowState) -> FlowState:
    return _convert_basis(state, FREE_SUM)


def to_distinct_basis(state: FlowState) -> FlowState:
    return _convert_basis(state, DISTINCT_INDEX)


# ---------------------------------------------------------------------------
# initial potential
# ---------------------------------------------------------------------------


def initial_potential(spec: CumulantSpec, max_edges: int = DEFAULT_MAX_EDGES) -> FlowState:
    """Flow state at t = 0: bare cumulants with their 1/(|Aut(G)| N^(e/2))
    symmetry weights attached, converted to the free-sum basis."""
    if max_edges > MAX_CANONICAL_EDGES:
        raise CapacityError(f"max_edges={max_edges} exceeds the canonical-form limit of "
                            f"{MAX_CANONICAL_EDGES} edges")
    table: dict[CumulantGraph, list[RingElement]] = {}
    for graph, value in spec.items():
        g = canonical_graph(graph)
        if g.num_edges > max_edges:
            raise CapacityError(f"initial graph exceeds max_edges={max_edges}")
        weighted = value.scale(Fraction(1, aut_order(g))).shift_N(-g.num_edges)
        series = _series(table, g, 0)
        series[0] = series[0] + weighted
    distinct = FlowState(0, DISTINCT_INDEX, table, _zero_series(0), max_edges)
    return to_free_basis(distinct)


# ---------------------------------------------------------------------------
# the rewrite underlying both flow terms
# ---------------------------------------------------------------------------


def _contract(nv: int, edges: list[tuple[int, int]], e1: int, e2: int):
    """Contract the out-half of edge e1 with the in-half of edge e2.

    Returns (graph or None, n_factor, num_free_vertices); None means all
    edges were consumed (vacuum term).
    """
    u = edges[e1][0]
    w = edges[e2][1]
    if e1 == e2:
        rest = [e for i, e in enumerate(edges) if i != e1]
        n_factor = True
    else:
        new_edge = (edges[e2][0], edges[e1][1])
        rest = [e for i, e in enumerate(edges) if i not in (e1, e2)] + [new_edge]
        n_factor = False
    merge = {w: u} if w != u else {}
    mapped = [(merge.get(s, s), merge.get(t, t)) for s, t in rest]
    if not mapped:
        return None, n_factor, 1
    used = sorted({v for e in mapped for v in e})
    # after mapping, the merged class is labelled u; it is the only vertex
    # that can lose all its half-edges in a single rewrite
    free = 0 if u in used else 1
    relabel = {v: i for i, v in enumerate(used)}
    final = tuple(sorted((relabel[s], relabel[t]) for s, t in mapped))
    return canonical_graph_of(len(used), final), n_factor, free


def _deposit(sums: dict, vacuum: dict, contractions: dict, terms: tuple):
    """Add ``terms`` once per contraction into the flat per-graph sums.

    ``contractions`` maps (graph or None, n_factor, free_vertices) to its
    multiplicity.  The replica loop raises the n power a by one and each
    free vertex the half-power b of N by two.  A contraction removes one edge,
    so no result outgrows the ``max_edges`` its sources were checked against.
    """
    for (graph, n_factor, free_vertices), mult in contractions.items():
        dst = vacuum if graph is None else sums.setdefault(graph, {})
        da, db = int(n_factor), 2 * free_vertices
        for (a, b), c in terms:
            key = (a + da, b + db)
            dst[key] = dst.get(key, 0) + c * mult


def _derivative_order(state_table: dict, k: int, max_edges: int, trunc: Counter,
                      bound: float = inf):
    """t^k coefficient of loop(V) + tree(V, V), over the terms with at most
    ``bound`` edges; oversized tree terms within ``bound`` count in trunc."""
    sums: dict[CumulantGraph, dict[tuple[int, int], Fraction]] = {}
    vacuum: dict[tuple[int, int], Fraction] = {}
    # per t-order, the graphs with a non-zero coefficient there, in table
    # order; a contraction of e edges leaves e - 1, so larger sources yield
    # nothing within bound
    nonzero = [[(g, series[j]) for g, series in state_table.items()
                if j < len(series) and series[j] and g.num_edges <= bound + 1]
               for j in range(k + 1)]

    # loop term
    for g, w in nonzero[k]:
        edges = list(g.edges)
        contractions: dict = {}
        for e1 in range(len(edges)):
            for e2 in range(len(edges)):
                key = _contract(g.num_vertices, edges, e1, e2)
                contractions[key] = contractions.get(key, 0) + 1
        _deposit(sums, vacuum, contractions, w.terms)

    # tree term: ordered pairs of graphs with t-orders summing to k
    for j in range(k + 1):
        for ga, wa in nonzero[j]:
            nva = ga.num_vertices
            ea = len(ga.edges)
            for gb, wb in nonzero[k - j]:
                size = ea + gb.num_edges - 1
                if size > bound:
                    continue
                if size > max_edges:
                    trunc[k + 1, size] += 1
                    continue
                union_edges = list(ga.edges) + [(s + nva, t + nva) for s, t in gb.edges]
                contractions = {}
                for e1 in range(ea):
                    for e2 in range(ea, len(union_edges)):
                        key = _contract(nva + gb.num_vertices, union_edges, e1, e2)
                        contractions[key] = contractions.get(key, 0) + 1
                _deposit(sums, vacuum, contractions, (wa * wb).terms)

    out = {g: RingElement(terms) for g, terms in sums.items()}
    return out, RingElement(vacuum)


def rg_derivative(state: FlowState) -> FlowState:
    """dV/dt of a free-sum state, order by order up to state.order_t.

    Its t^k coefficient is (k+1) times the flow's t^(k+1) one: a term
    dropped while building it is tallied at t^k, and the derivative of a
    light-cone state has a cone one edge narrower.
    """
    if state.basis != FREE_SUM:
        raise ValueError("rg_derivative requires the free-sum basis")
    trunc: Counter = Counter()
    table: dict[CumulantGraph, list[RingElement]] = {}
    vacuum = _zero_series(state.order_t)
    for k in range(state.order_t + 1):
        contrib, vac = _derivative_order(state.table, k, state.max_edges, trunc)
        vacuum[k] = vac
        for g, coeff in contrib.items():
            if coeff:
                _series(table, g, state.order_t)[k] = coeff
    return FlowState(state.order_t, FREE_SUM, table, vacuum, state.max_edges,
                     {(j - 1, e): n for (j, e), n in trunc.items()},
                     None if state.cone_edges is None else state.cone_edges - 1)


def integrate_flow(state0: FlowState, order: int, cone_edges: int | None = None) -> FlowState:
    """Polynomial Picard integration of the flow from a t^0 potential (as
    ``initial_potential`` builds it) to t^order; exact.

    With ``cone_edges`` E, only the light cone of the graphs with at most E
    edges at t^order is flown.  One step lowers a graph's edge count by at
    most one (the loop term removes an edge, the tree term keeps at least
    the larger source's), so t^(k+1) needs only the terms with at most
    E + order - (k+1) edges; every coefficient inside the cone equals the
    full flow's under the same ``max_edges``, and the others stay zero.
    Drops past that bound are not tallied: they cannot reach the cone.
    """
    if order > MAX_FLOW_ORDER:
        raise CapacityError(f"flow order limited to {MAX_FLOW_ORDER}")
    if order < 0:
        raise ValueError("flow order must be non-negative")
    if state0.basis != FREE_SUM:
        raise ValueError("integrate_flow requires the free-sum basis")
    if state0.order_t != 0:
        raise ValueError(f"integrate_flow starts from a t^0 potential, not t^{state0.order_t}")
    reach = inf if cone_edges is None else cone_edges + order
    table = {g: series + [RingElement.zero()] * order for g, series in state0.table.items()}
    vacuum = list(state0.vacuum) + [RingElement.zero()] * order
    trunc: Counter = Counter()
    for k in range(order):
        contrib, vac = _derivative_order(table, k, state0.max_edges, trunc, reach - (k + 1))
        inv = Fraction(1, k + 1)
        for g, coeff in contrib.items():
            if coeff:
                series = _series(table, g, order)
                series[k + 1] = series[k + 1] + coeff.scale(inv)
        vacuum[k + 1] = vacuum[k + 1] + vac.scale(inv)
    return FlowState(order, FREE_SUM, table, vacuum, state0.max_edges, dict(trunc), cone_edges)


# ---------------------------------------------------------------------------
# resolvent extraction
# ---------------------------------------------------------------------------


def extract_resolvent(state: FlowState, order: int) -> list[Fraction]:
    """Coefficients of 1/z, 1/z^2, ..., 1/z^order of the resolvent.

    The coefficient of 1/z^(k+2) is the large-N limit of the n^0 grade of
    the tadpole series at t^k; a surviving positive N grade raises
    FlowInvariantError with that k.  It is a rewrite bug unless the spec
    breaks the scaling bounds (``check_bounds_flow``).  A tadpole
    coefficient that the state cannot certify exact (see
    FlowState.is_exact) raises CapacityError.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if state.order_t < order - 2:
        raise ValueError("state not integrated far enough for this order")
    free = to_free_basis(state)
    coeffs = [Fraction(1)]
    for k in range(order - 1):
        if not state.is_exact(TADPOLE, k):
            raise CapacityError(f"tadpole t^{k} is not exact under max_edges={state.max_edges}: "
                                f"dropped terms reach it")
        w = free.coefficient(TADPOLE, k).n_grade(0)
        try:
            coeffs.append(w.large_N_limit())
        except ValueError as exc:
            raise FlowInvariantError(f"tadpole t^{k}: {exc}", k) from exc
    return coeffs


# ---------------------------------------------------------------------------
# independent Wick-integration oracle
# ---------------------------------------------------------------------------


def wick_oracle(spec: CumulantSpec, order: int,
                max_edges: int = DEFAULT_MAX_EDGES) -> FlowState:
    """Perturbative evaluation of the partially integrated potential.

    Expands exp(V0(X+Y)) around the Gaussian Y measure with propagator
    t * delta, keeps connected terms, and reassembles graphs from the
    uncontracted halves.  Independent of the flow rewrite; used to test it.
    """
    if order > MAX_WICK_ORDER:
        raise CapacityError(f"wick oracle limited to order {MAX_WICK_ORDER}")
    base = initial_potential(spec, max_edges)
    classes = [(g, series[0]) for g, series in base.table.items() if series[0]]
    table: dict[CumulantGraph, list[RingElement]] = {
        g: series + [RingElement.zero()] * order for g, series in base.table.items()}
    vacuum = _zero_series(order)
    trunc: Counter = Counter()

    for k in range(1, order + 1):
        for m in range(1, k + 2):
            pref_base = Fraction(1, factorial(m))
            for combo in itertools.product(range(len(classes)), repeat=m):
                pref = RingElement.scalar(pref_base)
                edges: list[tuple[int, int]] = []
                insertion_of: list[int] = []
                offset = 0
                for slot, ci in enumerate(combo):
                    g, w = classes[ci]
                    pref = pref * w
                    edges.extend((s + offset, t + offset) for s, t in g.edges)
                    insertion_of.extend([slot] * g.num_edges)
                    offset += g.num_vertices
                total_edges = len(edges)
                if total_edges < k or (m > 1 and k < m - 1):
                    continue
                for outs in itertools.combinations(range(total_edges), k):
                    for ins in itertools.permutations(range(total_edges), k):
                        contrib = _wick_pattern(edges, insertion_of, m, offset,
                                                outs, ins)
                        if contrib is None:
                            continue
                        graph, n_loops, free_vertices = contrib
                        coeff = pref
                        for _ in range(n_loops):
                            coeff = coeff * RingElement.n()
                        if free_vertices:
                            coeff = coeff.shift_N(2 * free_vertices)
                        if graph is None:
                            vacuum[k] = vacuum[k] + coeff
                        elif graph.num_edges > max_edges:
                            trunc[k, graph.num_edges] += 1
                        else:
                            series = _series(table, graph, order)
                            series[k] = series[k] + coeff
    return FlowState(order, FREE_SUM, table, vacuum, max_edges, dict(trunc))


def _wick_pattern(edges, insertion_of, m, num_vertices, outs, ins):
    """Evaluate one contraction pattern; None if it is disconnected."""
    nxt = dict(zip(outs, ins))
    if m > 1:
        slot_roots = _union_roots(m, ((insertion_of[e1], insertion_of[e2])
                                      for e1, e2 in nxt.items()))
        if len(set(slot_roots)) != 1:
            return None
    vroot = _union_roots(num_vertices, ((edges[e1][0], edges[e2][1])
                                        for e1, e2 in nxt.items()))

    in_matched = set(ins)
    composite = []
    visited = set()
    for start in range(len(edges)):
        if start in in_matched or start in visited:
            continue
        cur = start
        visited.add(cur)
        while cur in nxt:
            cur = nxt[cur]
            visited.add(cur)
        composite.append((vroot[edges[cur][0]], vroot[edges[start][1]]))
    n_loops = 0
    for e in range(len(edges)):
        if e in visited:
            continue
        n_loops += 1
        cur = e
        while cur not in visited:
            visited.add(cur)
            cur = nxt[cur]

    classes = set(vroot)
    used = {v for edge in composite for v in edge}
    free_vertices = len(classes - used)
    if not composite:
        return None, n_loops, free_vertices
    relabel = {v: i for i, v in enumerate(sorted(used))}
    final = tuple(sorted((relabel[s], relabel[t]) for s, t in composite))
    return canonical_graph_of(len(used), final), n_loops, free_vertices


# ---------------------------------------------------------------------------
# scaling-bound tracking along the flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    graph: str
    t_order: int
    part: str  # "gaussian" or "perturbation"
    eulerian: bool
    half_grade: Fraction | None  # grade of N^(v-c-e/2) C at n^0, in units of N^(1/2)
    exact: bool  # both the full flow and the Gaussian re-flow certify the coefficient
    ok: bool


@dataclass(frozen=True)
class FlowBoundsReport:
    entries: tuple[BoundEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)



def check_bounds_flow(state: FlowState, spec: CumulantSpec) -> FlowBoundsReport:
    """Grade check of the flown cumulants against the scaling bounds.

    The Gaussian part is re-flown alone and subtracted to isolate the
    perturbation.  For each graph and t-order the n^0 grade of
    N^(v-c-e/2) C_G(t) must be non-positive (strictly negative for Eulerian
    perturbations).
    """
    from .graphs import connected_components, is_eulerian

    gauss_state = integrate_flow(initial_potential(spec.gaussian_only(), state.max_edges),
                                 state.order_t, state.cone_edges)
    full_d = to_distinct_basis(state)
    gauss_d = to_distinct_basis(gauss_state)
    entries: list[BoundEntry] = []
    graphs = sorted(set(full_d.table) | set(gauss_d.table), key=lambda g: g.to_text())
    for g in graphs:
        vc2 = 2 * (g.num_vertices - len(connected_components(g)))
        euler = is_eulerian(g)
        for k in range(state.order_t + 1):
            exact = state.is_exact(g, k) and gauss_state.is_exact(g, k)
            gauss_c = gauss_d.coefficient(g, k)
            pert_c = full_d.coefficient(g, k) - gauss_c
            for part, coeff in (("gaussian", gauss_c), ("perturbation", pert_c)):
                if not coeff:
                    continue
                strict = part == "perturbation" and euler
                n0 = coeff.n_grade(0)
                grade = None
                ok = True
                if n0:
                    grade = Fraction(max(b for (_, b), _ in n0.terms) + vc2, 2)
                    ok = grade < 0 if strict else grade <= 0
                entries.append(BoundEntry(g.to_text(), k, part, euler, grade, exact, ok))
    return FlowBoundsReport(tuple(entries))
