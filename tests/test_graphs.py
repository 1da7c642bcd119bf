import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab.graphs import (BoundVerdict, CapacityError, CumulantGraph, aut_order,
                           canonical_form, canonical_graph, canonical_graph_of, classify_bound,
                           connected_components, enumerate_graphs, graph_from_monomial,
                           is_eulerian, scaling_exponent)


# --- brute-force oracles -----------------------------------------------------

def brute_isomorphic(g: CumulantGraph, h: CumulantGraph) -> bool:
    if g.num_vertices != h.num_vertices or g.num_edges != h.num_edges:
        return False
    target = tuple(sorted(h.edges))
    for perm in itertools.permutations(range(g.num_vertices)):
        if tuple(sorted((perm[s], perm[t]) for s, t in g.edges)) == target:
            return True
    return False


def brute_aut_order(g: CumulantGraph) -> int:
    from math import factorial

    from collections import Counter
    count = 0
    target = tuple(sorted(g.edges))
    for perm in itertools.permutations(range(g.num_vertices)):
        if tuple(sorted((perm[s], perm[t]) for s, t in g.edges)) == target:
            count += 1
    for mult in Counter(g.edges).values():
        count *= factorial(mult)
    return count


def random_graph(rng, max_vertices=5, max_edges=5) -> CumulantGraph:
    import random
    r = random.Random(rng)
    while True:
        v = r.randint(1, max_vertices)
        e = r.randint(1, max_edges)
        edges = tuple((r.randrange(v), r.randrange(v)) for _ in range(e))
        used = {x for edge in edges for x in edge}
        if len(used) == v:
            return CumulantGraph(v, edges)
        if used:
            relabel = {x: i for i, x in enumerate(sorted(used))}
            return CumulantGraph(len(used), tuple((relabel[s], relabel[t]) for s, t in edges))


# --- construction -------------------------------------------------------------

def test_graph_from_monomial_two_cycle():
    g = graph_from_monomial([("i", "j"), ("j", "i")])
    assert g.num_vertices == 2
    assert g.edges == ((0, 1), (1, 0))


def test_graph_from_monomial_self_loop():
    g = graph_from_monomial([("i", "i")])
    assert (g.num_vertices, g.edges) == (1, ((0, 0),))


def test_graph_from_monomial_four_distinct_indices():
    # the mixed cumulant <(M_ij)^2 M_jk M_ll> has four distinct indices
    g = graph_from_monomial([("i", "j"), ("i", "j"), ("j", "k"), ("l", "l")])
    assert g.num_vertices == 4
    assert g.num_edges == 4
    assert len(connected_components(g)) == 2


def test_isolated_vertices_rejected():
    with pytest.raises(ValueError):
        CumulantGraph(3, ((0, 1),))
    with pytest.raises(ValueError):
        graph_from_monomial([])


def test_text_roundtrip():
    g = CumulantGraph(3, ((0, 1), (1, 2), (2, 0)))
    assert CumulantGraph.from_text(g.to_text()) == g
    assert g.to_text() == "v=3;e=0->1,1->2,2->0"


# --- eulerian / exponent -------------------------------------------------------

def test_eulerian_double_two_cycle():
    g = CumulantGraph(2, ((0, 1), (1, 0), (0, 1), (1, 0)))
    assert is_eulerian(g)
    assert (g.num_vertices, g.num_edges, len(connected_components(g))) == (2, 4, 1)


def test_not_eulerian_mixed():
    assert not is_eulerian(CumulantGraph(4, ((0, 1), (0, 1), (1, 2), (3, 3))))


def test_self_loop_eulerian():
    assert is_eulerian(CumulantGraph(1, ((0, 0),)))


def test_scaling_exponent_values():
    # v=3, e=4, c=2 as in the non-Eulerian bound example
    g = CumulantGraph(3, ((0, 1), (0, 1), (1, 0), (2, 2)))
    assert scaling_exponent(g) == Fraction(-1)
    assert scaling_exponent(CumulantGraph(2, ((0, 1), (1, 0)))) == 0
    assert scaling_exponent(CumulantGraph(1, ((0, 0),))) == Fraction(-1, 2)
    # two disjoint 2-cycles
    assert scaling_exponent(CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))) == 0


def test_exponent_additive_over_disjoint_union():
    a = CumulantGraph(2, ((0, 1), (1, 0)))
    b = CumulantGraph(1, ((0, 0),))
    union = CumulantGraph(3, ((0, 1), (1, 0), (2, 2)))
    assert scaling_exponent(union) == scaling_exponent(a) + scaling_exponent(b)


# --- canonical forms -----------------------------------------------------------

def test_canonical_form_same_class():
    g = CumulantGraph(2, ((0, 1), (1, 0)))
    h = CumulantGraph(2, ((1, 0), (0, 1)))
    assert canonical_form(g) == canonical_form(h)


def test_canonical_form_distinguishes():
    two_cycle = CumulantGraph(2, ((0, 1), (1, 0)))
    double_edge = CumulantGraph(2, ((0, 1), (0, 1)))
    assert canonical_form(two_cycle) != canonical_form(double_edge)


def test_canonical_partition_matches_brute_force_three_edges():
    classes = [g for g in enumerate_graphs(3) if g.num_edges == 3 and g.num_vertices <= 3]
    for g, h in itertools.combinations(classes, 2):
        assert not brute_isomorphic(g, h), (g, h)
    for g in classes:
        assert canonical_graph(g) == g


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.randoms())
def test_canonical_form_relabeling_invariant(seed, pyrandom):
    g = random_graph(seed)
    perm = list(range(g.num_vertices))
    pyrandom.shuffle(perm)
    relabeled = CumulantGraph(g.num_vertices,
                              tuple((perm[s], perm[t]) for s, t in g.edges))
    assert canonical_form(g) == canonical_form(relabeled)


def test_canonical_memo_serves_graphs_and_components(monkeypatch):
    # a double edge beside a directed 3-cycle: canonicalising the union stores
    # each component under the key it has as a graph of its own
    union = CumulantGraph(5, ((0, 1), (0, 1), (2, 3), (3, 4), (4, 2)))
    first = canonical_graph(union)
    builds = []
    original = CumulantGraph.__post_init__
    monkeypatch.setattr(CumulantGraph, "__post_init__",
                        lambda self: builds.append(self) or original(self))
    assert canonical_graph_of(5, union.edges) is first
    assert canonical_graph(union) is first
    double_edge = canonical_graph_of(2, ((0, 1), (0, 1)))
    cycle = canonical_graph_of(3, ((0, 1), (1, 2), (2, 0)))
    assert builds == []
    assert (double_edge.num_vertices, cycle.num_vertices) == (2, 3)
    assert first.edges == double_edge.edges + tuple((s + 2, t + 2) for s, t in cycle.edges)


def test_canonical_capacity():
    g = CumulantGraph(2, tuple((0, 1) for _ in range(9)))
    with pytest.raises(CapacityError):
        canonical_form(g)
    with pytest.raises(CapacityError):
        aut_order(g)


# --- automorphisms ---------------------------------------------------------------

@pytest.mark.parametrize("graph, order", [
    (CumulantGraph(1, ((0, 0),)), 1),
    (CumulantGraph(2, ((0, 1), (0, 1))), 2),
    (CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2))), 8),
    (CumulantGraph(2, ((0, 1), (1, 0))), 2),
    (CumulantGraph(1, ((0, 0), (0, 0))), 2),
    # a component class repeated m times multiplies in m!; the last graph's
    # two components are of different classes
    (CumulantGraph.from_text("v=6;e=0->1,2->3,4->5"), 6),
    (CumulantGraph.from_text("v=6;e=0->1,1->0,2->3,3->2,4->5,5->4"), 48),
    (CumulantGraph.from_text("v=2;e=0->0,1->1,1->1"), 2),
])
def test_aut_order_examples(graph, order):
    assert aut_order(graph) == order
    assert brute_aut_order(graph) == order


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_aut_order_matches_brute_force(seed):
    g = random_graph(seed, max_vertices=4, max_edges=4)
    assert aut_order(g) == brute_aut_order(g)


def test_aut_order_product_over_non_isomorphic_parts():
    a = CumulantGraph(2, ((0, 1), (1, 0)))
    b = CumulantGraph(1, ((0, 0),))
    union = CumulantGraph(3, ((0, 1), (1, 0), (2, 2)))
    assert aut_order(union) == aut_order(a) * aut_order(b)


def test_aut_order_and_labels_match_brute_force_on_five_edge_classes():
    classes = [g for g in enumerate_graphs(5) if g.num_vertices <= 8]
    assert len(classes) == 2080
    for g in classes:
        assert aut_order(g) == brute_aut_order(g), g
    # a disconnected class is ordered by component, which need not be the
    # lexicographic minimum of the whole graph
    for g in classes:
        if len(connected_components(g)) == 1:
            assert canonical_graph(g).edges == min(
                tuple(sorted((perm[s], perm[t]) for s, t in g.edges))
                for perm in itertools.permutations(range(g.num_vertices)))


def test_aut_order_reads_the_canonical_memo(monkeypatch):
    g = CumulantGraph.from_text("v=7;e=0->1,1->0,2->3,3->2,4->5,5->6,6->4")
    canonical_graph(g)

    def no_search(*args):
        raise AssertionError("aut_order started a permutation search")

    monkeypatch.setattr(itertools, "permutations", no_search)
    assert aut_order(g) == 2 * 2 * 2 * 3


# --- enumeration ------------------------------------------------------------------

def test_enumerate_one_edge():
    labels = [g.to_text() for g in enumerate_graphs(1)]
    assert labels == ["v=1;e=0->0", "v=2;e=0->1"]


def test_enumerate_two_edges_matches_brute_force():
    classes = enumerate_graphs(2)
    assert all(g.num_edges <= 2 for g in classes)
    two_edge = [g for g in classes if g.num_edges == 2]
    # brute force: all 2-edge graphs on <= 4 labelled vertices, deduplicated
    seen = set()
    for v in range(1, 5):
        for e1 in itertools.product(range(v), repeat=2):
            for e2 in itertools.product(range(v), repeat=2):
                try:
                    g = CumulantGraph(v, (tuple(e1), tuple(e2)))
                except ValueError:
                    continue
                seen.add(canonical_graph(g))
    assert set(two_edge) == seen
    expected = {"v=2;e=0->1,1->0", "v=2;e=0->1,0->1", "v=3;e=0->1,1->2",
                "v=2;e=0->0,1->1", "v=1;e=0->0,0->0"}
    assert expected <= {g.to_text() for g in two_edge}


def test_enumerate_no_isolated_vertices_and_deterministic():
    classes = enumerate_graphs(3)
    for g in classes:
        used = {x for edge in g.edges for x in edge}
        assert used == set(range(g.num_vertices))
    assert [g.to_text() for g in classes] == [g.to_text() for g in enumerate_graphs(3)]


def test_enumerate_capacity():
    with pytest.raises(CapacityError):
        enumerate_graphs(7)


# --- bound classification ------------------------------------------------------------

def test_classify_constant_eulerian_violates():
    g = CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
    out = classify_bound(g, [(32, 0.25), (64, 0.25), (128, 0.25)])
    assert out is BoundVerdict.VIOLATING


def test_classify_decaying_eulerian_vanishes():
    g = CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
    out = classify_bound(g, [(8, 4.0 / 8), (32, 4.0 / 32), (128, 4.0 / 128)])
    assert out is BoundVerdict.CONSISTENT_VANISHING
    # damped common factor (alpha = 1) estimates of its exact 4/N cumulant
    out = classify_bound(g, [(32, 0.111), (64, 0.072), (128, 0.035)])
    assert out is BoundVerdict.CONSISTENT_VANISHING


def test_classify_zero_vanishes():
    g = CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
    out = classify_bound(g, [(8, 0.0), (16, 0.0), (32, 0.0)])
    assert out is BoundVerdict.CONSISTENT_VANISHING


def test_classify_noise_with_stderr_vanishes():
    g = CumulantGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
    values = [(8, 2e-3), (32, -1e-3), (128, 1.5e-3)]
    noisy = classify_bound(g, values, stderrs=[1e-3, 1e-3, 1e-3])
    assert noisy is BoundVerdict.CONSISTENT_VANISHING
    assert classify_bound(g, values) is BoundVerdict.VIOLATING


def test_classify_non_eulerian_bounded_and_growing():
    g = CumulantGraph(2, ((0, 1), (0, 1)))
    assert classify_bound(g, [(8, 1.0), (16, 1.1), (32, 0.9)]) \
        is BoundVerdict.CONSISTENT_BOUNDED
    assert classify_bound(g, [(8, 1.0), (16, 4.0), (32, 16.0)]) \
        is BoundVerdict.VIOLATING


def test_classify_needs_three_points():
    g = CumulantGraph(1, ((0, 0),))
    with pytest.raises(ValueError):
        classify_bound(g, [(8, 1.0), (16, 0.5)])
