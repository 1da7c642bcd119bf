import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from rmtlab.graphs import CapacityError, CumulantGraph, _union_roots, canonical_graph
from rmtlab.replica_rg import (DOUBLE_SELF_LOOP, TADPOLE, TWO_CYCLE, CumulantSpec,
                               FlowInvariantError, FlowState, _series, _wick_pattern,
                               _zero_series, check_bounds_flow, extract_resolvent,
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
    assert x.order_t == y.order_t and x.basis == y.basis
    table = {}
    for g in set(x.table) | set(y.table):
        table[g] = [x.coefficient(g, k) + y.coefficient(g, k)
                    for k in range(x.order_t + 1)]
    vac = [a + b for a, b in zip(x.vacuum, y.vacuum)]
    return FlowState(x.order_t, x.basis, table, vac, x.max_edges)


def state_scale(x: FlowState, c) -> FlowState:
    table = {g: [coeff.scale(c) for coeff in series] for g, series in x.table.items()}
    return FlowState(x.order_t, x.basis, table, [v.scale(c) for v in x.vacuum], x.max_edges)


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
    big = CumulantGraph(2, tuple((0, 1) for _ in range(7)))
    with pytest.raises(CapacityError):
        initial_potential(CumulantSpec().with_perturbation(big, RingElement.one()))


def test_gaussian_spec_guard():
    with pytest.raises(ValueError):
        CumulantSpec(gaussian=((DOUBLE_EDGE, RingElement.one()),))


def test_basis_conversion_roundtrip():
    spec = SIGMA1.with_perturbation(TWO_TWO_CYCLES, RingElement.N_half(-1))
    state = integrate_flow(initial_potential(spec), 2)
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
    """
    order = 3
    state = integrate_flow(initial_potential(SIGMA1), order)
    d1 = rg_derivative(state)
    rhs = state_add(
        state_add(rg_derivative(state_add(state, d1)), state_scale(rg_derivative(state), -1)),
        state_add(rg_derivative(d1), state_scale(rg_derivative(state_scale(d1, 2)), Fraction(-1, 2))))
    for g in set(state.table) | set(rhs.table):
        for k in range(order - 1):
            want = state.coefficient(g, k + 2).scale((k + 1) * (k + 2))
            assert rhs.coefficient(g, k) == want, (g.to_text(), k)


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
    base = initial_potential(spec, max_edges)
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
    return FlowState(order, FREE_SUM, table, vacuum, max_edges, dict(trunc))


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
    state = integrate_flow(initial_potential(SIGMA1), 7)
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
    state = integrate_flow(initial_potential(spec), 3)
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


def test_truncation_flag():
    assert not integrate_flow(initial_potential(SIGMA1), 3).truncated
    state = integrate_flow(initial_potential(SIGMA1), 7)
    assert state.truncated
    # dropped terms are tallied per (t-order, edge count)
    assert state.truncation_events == {(5, 7): 5, (6, 8): 4, (7, 7): 28, (7, 9): 3}


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
    state = integrate_flow(initial_potential(spec), 3)
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
    for coeff, order, tally in [
            (Fraction(1), 2, {}),
            (Fraction(1, 2), 7, {(5, 7): 2368, (6, 8): 4832, (7, 7): 8018, (7, 9): 11776})]:
        spec = SIGMA1.with_perturbation(DOUBLE_EDGE, RingElement.scalar(coeff))
        state = integrate_flow(initial_potential(spec), order)
        assert state.truncation_events == tally
        again = FlowState.from_json(state.to_json())
        assert again == state
        assert again.truncation_events == tally
        assert again.dumps() == state.dumps()


# --- light cone and exactness certificate -----------------------------------------------

QUARTIC = RingElement.scalar(Fraction(1, 2))
SIX_EDGES = CumulantGraph(3, ((0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)))
CONE_SPECS = [
    (SIGMA1, 6),
    (SIGMA1.with_perturbation(DOUBLE_EDGE, QUARTIC), 6),
    (SIGMA1.with_perturbation(DOUBLE_EDGE, QUARTIC), 4),
    (SIGMA1.with_perturbation(CumulantGraph(3, ((0, 1), (0, 2), (1, 0), (2, 0))),
                              RingElement.scalar(Fraction(1, 4))), 6),
    (SIGMA1.with_perturbation(TWO_TWO_CYCLES, RingElement.N_half(-1)), 6),
    (SIGMA1.with_perturbation(SIX_EDGES, RingElement.scalar(Fraction(1, 3))), 6),
]


def in_cone(state: FlowState, g: CumulantGraph, k: int) -> bool:
    return k == 0 or g.num_edges <= state.cone_edges + state.order_t - k


def test_light_cone_equals_full_flow():
    order = 7
    for spec, max_edges in CONE_SPECS:
        full = integrate_flow(initial_potential(spec, max_edges), order)
        cone = integrate_flow(initial_potential(spec, max_edges), order, TADPOLE.num_edges)
        assert cone.cone_edges == 1
        checked = 0
        for g in set(full.table) | set(cone.table):
            for k in range(order + 1):
                if in_cone(cone, g, k):
                    assert cone.coefficient(g, k) == full.coefficient(g, k), (g.to_text(), k)
                    checked += 1
                else:
                    assert not cone.coefficient(g, k) and not cone.is_exact(g, k)
        assert checked > 50
        assert cone.vacuum == full.vacuum
        # the cone tallies exactly the full flow's drops that lie inside it
        assert cone.truncation_events == {
            (j, e): n for (j, e), n in full.truncation_events.items() if e <= 1 + order - j}


def test_certificate_marks_what_a_cap_changes():
    spec = SIGMA1.with_perturbation(SIX_EDGES, RingElement.scalar(Fraction(1, 3)))
    capped = integrate_flow(initial_potential(spec, 6), 7, 1)
    wide = integrate_flow(initial_potential(spec, 8), 7, 1)
    assert capped.truncation_events == {(1, 7): 6}
    assert not wide.truncation_events
    certified = uncertified = changed = 0
    for g in set(capped.table) | set(wide.table):
        for k in range(8):
            if not in_cone(wide, g, k):
                continue
            assert wide.is_exact(g, k)
            same = capped.coefficient(g, k) == wide.coefficient(g, k)
            if capped.is_exact(g, k):
                certified += 1
                assert same, (g.to_text(), k)
            else:
                uncertified += 1
                changed += not same
    assert certified > 100 and uncertified > 0 and changed > 0
    assert capped.is_exact(TADPOLE, 6) and not capped.is_exact(TADPOLE, 7)
    report = check_bounds_flow(capped, spec)
    assert any(not e.exact for e in report.entries)
    assert all(e.exact for e in check_bounds_flow(wide, spec).entries)


def test_resolvent_refuses_inexact_tadpole():
    for max_edges, first_inexact in ((2, 3), (3, 5), (4, 7)):
        state = integrate_flow(initial_potential(SIGMA1, max_edges), 7, 1)
        assert [k for k in range(8) if not state.is_exact(TADPOLE, k)] == \
            list(range(first_inexact, 8))
        with pytest.raises(CapacityError, match=rf"t\^{first_inexact} .*max_edges={max_edges}"):
            extract_resolvent(state, first_inexact + 2)
        assert extract_resolvent(state, first_inexact + 1) == \
            [1, 0, 1, 0, 2, 0, 5, 0][:first_inexact + 1]


def test_derivative_certificate():
    spec = SIGMA1.with_perturbation(DOUBLE_EDGE, QUARTIC)
    cone = rg_derivative(integrate_flow(initial_potential(spec), 5, 1))
    full = rg_derivative(integrate_flow(initial_potential(spec), 5))
    assert cone.cone_edges == 0
    for g in set(full.table) | set(cone.table):
        for k in range(6):
            assert cone.is_exact(g, k) == in_cone(cone, g, k)
            if in_cone(cone, g, k):
                assert cone.coefficient(g, k) == full.coefficient(g, k), (g.to_text(), k)
    # the t^k derivative is (k+1) times the flow's t^(k+1): under max_edges 2
    # the tadpole is inexact from t^3, so its derivative from t^2
    capped = rg_derivative(integrate_flow(initial_potential(SIGMA1, 2), 4))
    wide = rg_derivative(integrate_flow(initial_potential(SIGMA1), 4))
    assert [k for k in range(5) if capped.is_exact(TADPOLE, k)] == [0, 1]
    assert capped.coefficient(TADPOLE, 2) != wide.coefficient(TADPOLE, 2)
    for g in capped.table:
        for k in range(5):
            assert wide.is_exact(g, k)
            if capped.is_exact(g, k):
                assert capped.coefficient(g, k) == wide.coefficient(g, k), (g.to_text(), k)


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


@pytest.mark.parametrize("key", ["max_edges", "truncation_events"])
def test_flow_state_json_requires_certificate_inputs(key):
    # under max_edges 2 the tadpole's t^7 coefficient is not certified; a file
    # that lost either input must not read back as a certified state
    state = integrate_flow(initial_potential(SIGMA1, 2), 7, 1)
    with pytest.raises(CapacityError):
        extract_resolvent(state, 7)
    doc = state.to_json()
    del doc[key]
    with pytest.raises(ValueError, match=key):
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
