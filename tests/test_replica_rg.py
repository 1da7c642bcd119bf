import itertools
import time
from collections import Counter
from fractions import Fraction
from math import factorial, inf

import pytest

from rmtlab import replica_rg
from rmtlab.graphs import (MAX_CANONICAL_EDGES, CapacityError, CumulantGraph, _union_roots,
                           canonical_graph)
from rmtlab.replica_rg import (DOUBLE_SELF_LOOP, TADPOLE, TWO_CYCLE, CumulantSpec,
                               FlowInvariantError, FlowState, _edge_budget, _series,
                               _wick_pattern, _zero_series, check_bounds_flow, extract_resolvent,
                               initial_potential, integrate_flow, rg_derivative,
                               to_distinct_basis, to_free_basis, wick_oracle, FREE_SUM)
from rmtlab.ring import RingElement

SIGMA1 = CumulantSpec.gaussian_spec(Fraction(1))
DOUBLE_EDGE = CumulantGraph(2, ((0, 1), (0, 1)))
TWO_TWO_CYCLES = CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))


def ring(**kw):
    """Shorthand: ring(c00=..., c1_m2=...) -> RingElement terms (a, b)."""
    terms = {}
    for key, val in kw.items():
        a, b = key[1:].split("_") if "_" in key else (key[1:], "0")
        b = b.replace("m", "-")
        terms[(int(a), int(b))] = Fraction(val)
    return RingElement(terms)


def state_add(x: FlowState, y: FlowState) -> FlowState:
    """The sum, on the narrower of the two cones."""
    assert x.order_t == y.order_t and x.basis == y.basis
    zero = _zero_series(x.order_t)
    table = {g: [a + b for a, b in zip(x.table.get(g, zero), y.table.get(g, zero))]
             for g in set(x.table) | set(y.table)}
    vac = [a + b for a, b in zip(x.vacuum, y.vacuum)]
    cones = [c for c in (x.cone_edges, y.cone_edges) if c is not None]
    return FlowState(x.order_t, x.basis, table, vac, {}, min(cones, default=None))


def state_scale(x: FlowState, c) -> FlowState:
    table = {g: [coeff.scale(c) for coeff in series] for g, series in x.table.items()}
    return FlowState(x.order_t, x.basis, table, [v.scale(c) for v in x.vacuum], {},
                     x.cone_edges)


# --- initial potential ----------------------------------------------------------

def test_initial_gaussian_free_basis_merges_diagonal():
    state = initial_potential(SIGMA1)
    # distinct-index 2-cycle and paired self-loops fuse into one free-sum term
    assert state.coefficient(TWO_CYCLE, 0) == ring(c0_m2=Fraction(1, 2))
    assert not state.coefficient(DOUBLE_SELF_LOOP, 0)
    assert state.basis == FREE_SUM


def test_initial_gaussian_distinct_basis_weights():
    state = to_distinct_basis(initial_potential(SIGMA1))
    # both graphs carry sigma^2 / (|Aut| N^(e/2)) = sigma^2 / (2N)
    assert state.coefficient(TWO_CYCLE, 0) == ring(c0_m2=Fraction(1, 2))
    assert state.coefficient(DOUBLE_SELF_LOOP, 0) == ring(c0_m2=Fraction(1, 2))


def test_initial_empty_spec():
    state = initial_potential(CumulantSpec())
    assert not state.table
    assert not state.vacuum[0]


def test_initial_perturbation_weight():
    eps = Fraction(3, 7)
    spec = CumulantSpec().with_perturbation(DOUBLE_EDGE, RingElement.scalar(eps))
    state = to_distinct_basis(initial_potential(spec))
    # |Aut| = 2 (parallel pair), e = 2
    assert state.coefficient(DOUBLE_EDGE, 0) == ring(c0_m2=eps / 2)


def test_initial_rejects_oversized_graph():
    # past graphs.MAX_CANONICAL_EDGES = 8 no class can be formed
    big = CumulantGraph(2, tuple((0, 1) for _ in range(9)))
    with pytest.raises(CapacityError):
        initial_potential(CumulantSpec(perturbation=((big, RingElement.one()),)))


def test_flow_refuses_a_budget_past_the_canonical_limit():
    # a 7-edge graph is a t^0 potential, but one tree step could build
    # 7 + 7 - 1 = 13 edges
    big = CumulantGraph(2, tuple((0, 1) for _ in range(7)))
    s0 = initial_potential(CumulantSpec().with_perturbation(big, RingElement.one()))
    assert _edge_budget(s0, 1, inf) == 13
    assert integrate_flow(s0, 0) == s0
    with pytest.raises(CapacityError, match="13 edges"):
        integrate_flow(s0, 1)


def test_gaussian_spec_guard():
    with pytest.raises(ValueError):
        CumulantSpec(gaussian=((DOUBLE_EDGE, RingElement.one()),))


def test_basis_conversion_roundtrip():
    spec = SIGMA1.with_perturbation(TWO_TWO_CYCLES, RingElement.N_half(-1))
    state = integrate_flow(initial_potential(spec), 2, 4)
    assert to_free_basis(to_distinct_basis(state)) == state


# --- derivative rewrites ----------------------------------------------------------

def test_loop_term_on_gaussian_quartic_monomial():
    state = initial_potential(SIGMA1)
    deriv = rg_derivative(state)
    # sum over the four half-edge pairs of the 2-cycle: 2(N + n) * sigma^2/(2N)
    assert deriv.coefficient(TADPOLE, 0) == ring(c0=1, c1_m2=1)


def test_tree_of_two_self_loop_terms_returns_self_loop():
    # d/dX of c Tr(XX+) leaves c X bar; the tree product re-forms one edge,
    # so two linear terms contract to c^2 Tr(XX+), not to a constant
    c = Fraction(5, 3)
    table = {TADPOLE: [RingElement.scalar(c)]}
    state = FlowState(0, FREE_SUM, table, [RingElement.zero()])
    deriv = rg_derivative(state)
    assert deriv.coefficient(TADPOLE, 0) == RingElement.scalar(c * c)
    # while the loop term on the same state empties the graph: n N c vacuum
    assert deriv.vacuum[0] == ring(c1_2=c)


def test_derivative_of_empty_state_is_empty():
    empty = FlowState(0, FREE_SUM, {}, [RingElement.zero()])
    deriv = rg_derivative(empty)
    assert not deriv.table
    assert not deriv.vacuum[0]


def test_integration_preserves_boundary():
    state0 = initial_potential(SIGMA1)
    state = integrate_flow(state0, 4)
    for g, series in state0.table.items():
        assert state.coefficient(g, 0) == series[0]
    for g, series in state.table.items():
        if g not in state0.table:
            assert not series[0]


def test_first_order_tadpole():
    state = integrate_flow(initial_potential(SIGMA1), 1)
    assert state.coefficient(TADPOLE, 1) == ring(c0=1, c1_m2=1)


def test_integrate_empty():
    empty = FlowState(0, FREE_SUM, {}, [RingElement.zero()])
    out = integrate_flow(empty, 5)
    assert not out.table


def test_vacuum_series_from_gaussian_flow():
    state = integrate_flow(initial_potential(SIGMA1), 2)
    # loop contraction of the t^1 tadpole: (n N + n^2) sigma^2 t^2 / 2
    assert state.vacuum[2] == ring(c1_2=Fraction(1, 2), c2=Fraction(1, 2))
    assert not state.vacuum[0] and not state.vacuum[1]


def test_flow_ode_holds_on_series():
    state = integrate_flow(initial_potential(SIGMA1), 4)
    deriv = rg_derivative(state)
    for g in set(state.table) | set(deriv.table):
        for k in range(state.order_t):
            assert deriv.coefficient(g, k) == state.coefficient(g, k + 1).scale(k + 1), \
                (g.to_text(), k)


def test_second_order_semigroup_by_polarization():
    """d^2V/dt^2 from the series equals the differentiated flow equation.

    With R(X) = loop(X) + tree(X, X), linear loop and bilinear tree give
    loop(D) + tree(V, D) + tree(D, V) = R(V+D) - R(V) + R(D) - R(2D)/2.
    A cone of 5 edges holds the whole flow to t^3; each derivative narrows
    it by one edge, so the second one builds no graph past 6 edges.
    """
    order = 3
    state = integrate_flow(initial_potential(SIGMA1), order, 5)
    assert state == integrate_flow(initial_potential(SIGMA1), order)
    d1 = rg_derivative(state)
    rhs = state_add(
        state_add(rg_derivative(state_add(state, d1)), state_scale(rg_derivative(state), -1)),
        state_add(rg_derivative(d1), state_scale(rg_derivative(state_scale(d1, 2)), Fraction(-1, 2))))
    assert rhs.cone_edges == 3
    checked = 0
    for g in set(state.table) | set(rhs.table):
        for k in range(order - 1):
            if in_cone(rhs, g, k):
                want = state.coefficient(g, k + 2).scale((k + 1) * (k + 2))
                assert rhs.coefficient(g, k) == want, (g.to_text(), k)
                checked += 1
    assert checked > 10


# --- flow vs wick oracle -----------------------------------------------------------

def test_wick_order_zero_is_initial_potential():
    spec = SIGMA1.with_perturbation(DOUBLE_EDGE, RingElement.one())
    assert wick_oracle(spec, 0) == initial_potential(spec)


def test_wick_matches_flow_first_order_tadpole():
    wick = wick_oracle(SIGMA1, 1)
    flow = integrate_flow(initial_potential(SIGMA1), 1)
    assert wick.coefficient(TADPOLE, 1) == flow.coefficient(TADPOLE, 1) == ring(c0=1, c1_m2=1)


def test_wick_equals_flow_order_two_with_sigma_variation():
    spec = CumulantSpec.gaussian_spec(Fraction(1, 4))
    assert integrate_flow(initial_potential(spec), 2) == wick_oracle(spec, 2)


def test_wick_equals_flow_perturbation_only():
    spec = CumulantSpec().with_perturbation(DOUBLE_EDGE, RingElement.scalar(Fraction(2, 3)))
    assert integrate_flow(initial_potential(spec), 2) == wick_oracle(spec, 2)


def test_wick_equals_flow_order_three_with_sigma_variation():
    spec = CumulantSpec.gaussian_spec(Fraction(1, 4))
    assert integrate_flow(initial_potential(spec), 3) == wick_oracle(spec, 3)


def test_wick_equals_flow_perturbation_only_order_three():
    spec = CumulantSpec().with_perturbation(DOUBLE_EDGE, RingElement.scalar(Fraction(2, 3)))
    assert integrate_flow(initial_potential(spec), 3) == wick_oracle(spec, 3)


def test_wick_capacity():
    with pytest.raises(CapacityError):
        wick_oracle(SIGMA1, 4)


def test_wick_refuses_negative_order():
    with pytest.raises(ValueError, match="non-negative"):
        wick_oracle(SIGMA1, -1)


def ordered_wick_reference(spec: CumulantSpec, order: int, max_edges: int) -> FlowState:
    """Brute-force Wick sum: every ordered tuple of m insertions with weight
    1/m!, every injective pattern of k out-halves onto k in-halves, and one
    ring update (or one tally) per connected pattern."""
    base = initial_potential(spec)
    classes = [(g, series[0]) for g, series in base.table.items() if series[0]]
    table = {g: series + [RingElement.zero()] * order for g, series in base.table.items()}
    vacuum = _zero_series(order)
    trunc = Counter()
    for k in range(1, order + 1):
        for m in range(1, k + 2):
            for combo in itertools.product(range(len(classes)), repeat=m):
                pref = RingElement.scalar(Fraction(1, factorial(m)))
                edges, insertion_of, offset = [], [], 0
                for slot, ci in enumerate(combo):
                    g, w = classes[ci]
                    pref = pref * w
                    edges.extend((s + offset, t + offset) for s, t in g.edges)
                    insertion_of.extend([slot] * g.num_edges)
                    offset += g.num_vertices
                for outs in itertools.combinations(range(len(edges)), k):
                    for ins in itertools.permutations(range(len(edges)), k):
                        links = ((insertion_of[e1], insertion_of[e2]) for e1, e2 in zip(outs, ins))
                        if len(set(_union_roots(m, links))) != 1:
                            continue
                        graph, n_loops, free_vertices = _wick_pattern(edges, offset, outs, ins)
                        coeff = pref
                        for _ in range(n_loops):
                            coeff = coeff * RingElement.n()
                        coeff = coeff.shift_N(2 * free_vertices)
                        if graph is None:
                            vacuum[k] = vacuum[k] + coeff
                        elif graph.num_edges > max_edges:
                            trunc[k, graph.num_edges] += 1
                        else:
                            series = _series(table, graph, order)
                            series[k] = series[k] + coeff
    return FlowState(order, FREE_SUM, table, vacuum, dict(trunc))


# name -> (spec, number of insertion classes in the free-sum basis)
WICK_REFERENCE_SPECS = {
    "gaussian": (SIGMA1, 1),
    "perturbation_only": (CumulantSpec().with_perturbation(
        DOUBLE_EDGE, RingElement.scalar(Fraction(2, 3))), 2),
    "perturbed": (SIGMA1.with_perturbation(DOUBLE_EDGE, RingElement.one()), 3),
}


@pytest.mark.parametrize("max_edges", [3, 6])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", sorted(WICK_REFERENCE_SPECS))
def test_wick_equals_ordered_reference(name, order, max_edges):
    spec, num_classes = WICK_REFERENCE_SPECS[name]
    assert sum(1 for series in initial_potential(spec).table.values() if series[0]) == num_classes
    wick = wick_oracle(spec, order, max_edges)
    reference = ordered_wick_reference(spec, order, max_edges)
    assert wick == reference
    assert wick.vacuum == reference.vacuum
    assert wick.truncation_events == reference.truncation_events


def test_wick_tallies_ordered_patterns():
    wick = wick_oracle(WICK_REFERENCE_SPECS["perturbed"][0], 2, max_edges=3)
    assert wick.truncation_events == {(2, 4): 3888}


# --- resolvent extraction -----------------------------------------------------------

def test_resolvent_catalan_series():
    state = integrate_flow(initial_potential(SIGMA1), 7, TADPOLE.num_edges)
    assert extract_resolvent(state, 7) == [1, 0, 1, 0, 2, 0, 5]


def test_resolvent_sigma_scaling():
    spec = CumulantSpec.gaussian_spec(Fraction(4))  # sigma = 2
    state = integrate_flow(initial_potential(spec), 5)
    assert extract_resolvent(state, 5) == [1, 0, 4, 0, 32]


def test_resolvent_truncated_low_order():
    state = integrate_flow(initial_potential(SIGMA1), 3)
    assert extract_resolvent(state, 3) == [1, 0, 1]


def test_resolvent_of_empty_potential_is_free():
    state = integrate_flow(initial_potential(CumulantSpec()), 5)
    assert extract_resolvent(state, 5) == [1, 0, 0, 0, 0]


def test_resolvent_leading_coefficient_always_one():
    spec = SIGMA1.with_perturbation(TWO_TWO_CYCLES, RingElement.N_half(-1))
    state = integrate_flow(initial_potential(spec), 3, TADPOLE.num_edges)
    assert extract_resolvent(state, 3)[0] == 1


def test_resolvent_needs_enough_orders():
    state = integrate_flow(initial_potential(SIGMA1), 2)
    with pytest.raises(ValueError):
        extract_resolvent(state, 7)


def test_resolvent_flags_positive_grade():
    bad = FlowState(1, FREE_SUM, {TADPOLE: [RingElement.zero(), RingElement.N_half(1)]},
                    [RingElement.zero(), RingElement.zero()])
    with pytest.raises(FlowInvariantError):
        extract_resolvent(bad, 3)


def test_full_flow_past_the_budget_is_refused_before_any_term(monkeypatch):
    def no_term(*args):
        raise AssertionError("a term was flown")

    monkeypatch.setattr(replica_rg, "_derivative_order", no_term)
    s0 = initial_potential(SIGMA1)
    assert _edge_budget(s0, 7, inf) == 9
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="9 edges"):
        integrate_flow(s0, 7)
    assert time.perf_counter() - t0 < 0.5


def test_flow_order_capacity():
    with pytest.raises(CapacityError):
        integrate_flow(initial_potential(SIGMA1), 9)


# --- scaling bounds ------------------------------------------------------------------

def test_pure_gaussian_bounds_hold_to_order_five():
    state = integrate_flow(initial_potential(SIGMA1), 5)
    report = check_bounds_flow(state, SIGMA1)
    assert report.entries
    assert all(e.part == "gaussian" for e in report.entries)
    assert report.all_ok
    # the tadpole n^0 series is exactly the Catalan data used by the resolvent
    assert extract_resolvent(state, 5) == [1, 0, 1, 0, 2]


def test_eulerian_perturbation_grade_stays_negative():
    pert_value = RingElement.N_half(-1)  # strictly negative initial grade
    spec = SIGMA1.with_perturbation(TWO_TWO_CYCLES, pert_value)
    state = integrate_flow(initial_potential(spec), 3, TADPOLE.num_edges)
    report = check_bounds_flow(state, spec)
    pert_entries = [e for e in report.entries if e.part == "perturbation"]
    assert pert_entries
    for entry in pert_entries:
        assert entry.ok
        if entry.eulerian and entry.half_grade is not None:
            assert entry.half_grade < 0
    assert report.all_ok


def test_empty_perturbation_report_has_no_perturbation_rows():
    state = integrate_flow(initial_potential(SIGMA1), 2)
    report = check_bounds_flow(state, SIGMA1)
    assert not [e for e in report.entries if e.part == "perturbation"]


# --- serialization --------------------------------------------------------------------

def test_flow_state_json_roundtrip():
    for coeff, order, cone in [(Fraction(1), 2, None), (Fraction(1, 2), 7, TADPOLE.num_edges)]:
        spec = SIGMA1.with_perturbation(DOUBLE_EDGE, RingElement.scalar(coeff))
        state = integrate_flow(initial_potential(spec), order, cone)
        doc = state.to_json()
        # a flow drops nothing; the keys stay for the Wick oracle's tally
        assert doc["truncated"] is False and doc["truncation_events"] == []
        assert "max_edges" not in doc
        again = FlowState.from_json(doc)
        assert again == state
        assert not again.truncation_events
        assert again.dumps() == state.dumps()


# --- light cone and edge budget ------------------------------------------------------------

QUARTIC = RingElement.scalar(Fraction(1, 2))
FOUR_EDGES = CumulantGraph(3, ((0, 1), (0, 2), (1, 0), (2, 0)))
SIX_EDGES = CumulantGraph(3, ((0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)))
CONE_SPECS = [
    SIGMA1,
    SIGMA1.with_perturbation(DOUBLE_EDGE, QUARTIC),
    SIGMA1.with_perturbation(FOUR_EDGES, RingElement.scalar(Fraction(1, 4))),
    SIGMA1.with_perturbation(TWO_TWO_CYCLES, RingElement.N_half(-1)),
    SIGMA1.with_perturbation(SIX_EDGES, RingElement.scalar(Fraction(1, 3))),
]


def in_cone(state: FlowState, g: CumulantGraph, k: int) -> bool:
    return k == 0 or g.num_edges <= state.cone_edges + state.order_t - k


def largest_graph(state: FlowState) -> int:
    return max(g.num_edges for g, series in state.table.items() if any(series))


def assert_cone_matches(cone: FlowState, reference: FlowState) -> int:
    """Every read inside ``cone`` equals ``reference``; every read outside
    it raises.  Returns the number of coefficients compared."""
    checked = 0
    for g in set(reference.table) | set(cone.table):
        for k in range(cone.order_t + 1):
            if in_cone(cone, g, k):
                assert cone.coefficient(g, k) == reference.coefficient(g, k), (g.to_text(), k)
                checked += 1
            else:
                with pytest.raises(ValueError, match="outside the cone"):
                    cone.coefficient(g, k)
    assert cone.vacuum == reference.vacuum
    return checked


def test_light_cone_equals_full_flow():
    # the full flow where its budget stays small: at most 6 edges by t^4 for
    # the two-edge specs, 7 edges at t^1 for the four-edge ones
    for spec in CONE_SPECS:
        s0 = initial_potential(spec)
        order = {2: 4, 4: 1}.get(largest_graph(s0))
        if order is None:
            continue
        cone = integrate_flow(s0, order, TADPOLE.num_edges)
        assert cone.cone_edges == 1
        assert assert_cone_matches(cone, integrate_flow(s0, order)) > 10


def test_light_cone_equals_a_wider_cone():
    # at t^7 a full flow is past the canonical limit for every spec; a cone one
    # edge wider holds every coefficient of the tadpole's cone
    for spec in CONE_SPECS:
        s0 = initial_potential(spec)
        cone = integrate_flow(s0, 7, TADPOLE.num_edges)
        wide = integrate_flow(s0, 7, 2)
        assert assert_cone_matches(cone, wide) > 50


@pytest.mark.parametrize("order, cone", [(7, 1), (8, 1), (7, 2), (3, 3), (2, 4), (1, None),
                                         (4, None)])
def test_edge_budget_bounds_the_largest_graph(order, cone):
    for spec in CONE_SPECS:
        s0 = initial_potential(spec)
        budget = _edge_budget(s0, order, inf if cone is None else cone + order)
        if budget > MAX_CANONICAL_EDGES:
            with pytest.raises(CapacityError, match=f"{budget} edges"):
                integrate_flow(s0, order, cone)
            continue
        built = largest_graph(integrate_flow(s0, order, cone))
        # the six-edge spec's t^0 classes have 6 or 2 edges: a t^1 tree term
        # builds 11 edges, past the cone, or 7, short of the budget's 8
        assert built == (7 if largest_graph(s0) == 6 and budget == 8 else budget)


def test_cone_coefficient_outside_the_cone_raises():
    state = integrate_flow(initial_potential(SIGMA1.with_perturbation(DOUBLE_EDGE, QUARTIC)),
                           5, TADPOLE.num_edges)
    assert state.coefficient(TWO_CYCLE, 4)
    with pytest.raises(ValueError, match=r"t\^5 of v=2;e=0->1,1->0 lies outside the cone"):
        state.coefficient(TWO_CYCLE, 5)
    # every graph keeps its t^0 coefficient, and orders past the state read zero
    assert state.coefficient(DOUBLE_EDGE, 0)
    assert not state.coefficient(TADPOLE, 6)
    # the tadpole's cone covers the tadpole at every order; the derivative's
    # cone is one edge narrower and leaves out its last one
    assert extract_resolvent(state, 7) == [1, 0, 1, 0, 2, 0, 5]
    with pytest.raises(ValueError, match=r"t\^5 of v=1;e=0->0 lies outside the cone"):
        extract_resolvent(rg_derivative(state), 7)


def test_derivative_narrows_the_cone():
    s0 = initial_potential(SIGMA1.with_perturbation(DOUBLE_EDGE, QUARTIC))
    # against the full derivative, and past t^3 against a wider cone's
    for order, reference in ((3, None), (5, 3)):
        cone = rg_derivative(integrate_flow(s0, order, 1))
        assert cone.cone_edges == 0
        assert assert_cone_matches(cone, rg_derivative(integrate_flow(s0, order, reference))) > 10


@pytest.mark.parametrize("cone", [None, 0, 1, 2])
def test_flow_refuses_a_state_flown_past_t0(cone):
    # resuming would integrate t^0..t^2 again on top of the coefficients held
    s0 = initial_potential(SIGMA1)
    for flown in (integrate_flow(s0, 3), integrate_flow(s0, 3, 1)):
        with pytest.raises(ValueError, match=r"t\^0"):
            integrate_flow(flown, 4, cone)


def test_flow_from_a_t0_state_equals_flow_from_the_potential():
    s0 = initial_potential(SIGMA1.with_perturbation(DOUBLE_EDGE, QUARTIC))
    for cone in (None, 1):
        want = integrate_flow(s0, 4, cone)
        for start in (integrate_flow(s0, 0), integrate_flow(s0, 0, 1),
                      FlowState.from_json(s0.to_json())):
            assert start.order_t == 0
            assert integrate_flow(start, 4, cone) == want
    gauss = integrate_flow(integrate_flow(initial_potential(SIGMA1), 0), 4)
    assert gauss.coefficient(TADPOLE, 3) == ring(c0=2, c0_m4=1, c1_m2=5, c2_m4=2)


def test_flow_refuses_negative_order():
    with pytest.raises(ValueError, match="non-negative"):
        integrate_flow(initial_potential(SIGMA1), -1)


def test_flow_state_json_refuses_a_capped_flow():
    # a file that carries max_edges comes from a flow that capped its graphs
    # and could drop terms, so it must not read back as a complete state
    doc = integrate_flow(initial_potential(SIGMA1), 7, 1).to_json()
    with pytest.raises(ValueError, match="max_edges"):
        FlowState.from_json({**doc, "max_edges": 6})
    del doc["truncation_events"]
    with pytest.raises(ValueError, match="truncation_events"):
        FlowState.from_json(doc)


def test_cone_flow_state_json_roundtrip():
    spec = SIGMA1.with_perturbation(DOUBLE_EDGE, QUARTIC)
    state = integrate_flow(initial_potential(spec), 7, 1)
    doc = state.to_json()
    assert doc["cone_edges"] == 1
    # series stop at each graph's last in-cone order
    assert {len(series) for series in doc["graphs"].values()} == set(range(4, 9))
    again = FlowState.from_json(doc)
    assert again == state
    assert again.cone_edges == 1
    assert again.dumps() == state.dumps()
    assert "cone_edges" not in integrate_flow(initial_potential(spec), 2).to_json()
