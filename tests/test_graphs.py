"""Graph structure: validation, enumeration, rate condition, classification."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from matchq.errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    NotConnectedError,
    SelfLoopError,
    TooLargeError,
)
from matchq.graphs import (
    Graph,
    bfs_levels,
    classify,
    complete_graph,
    cycle_graph,
    find_induced_odd_cycle,
    find_induced_pendant,
    five_cycle_graph,
    independent_sets,
    is_bipartite,
    is_connected,
    ncond_check,
    neighbors_of_set,
    pendant_graph,
    separability,
    two_coloring,
    validate_edges,
)

TRIANGLE = complete_graph(3)
PENDANT = pendant_graph()
FIVE_CYCLE = five_cycle_graph()

# Separable graph on 6 nodes whose complement is the perfect matching
# {1-4, 2-5, 3-6}.
SEPARABLE6 = Graph.from_edges(
    6,
    [(1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6),
     (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
)


# -- oracles -------------------------------------------------------------------


def brute_independent_sets(graph):
    """Exhaustive bitmask scan over all non-empty subsets."""
    nodes = list(graph.nodes)
    out = []
    for mask in range(1, 2 ** len(nodes)):
        subset = [nodes[i] for i in range(len(nodes)) if mask >> i & 1]
        if all(
            not graph.has_edge(a, b) for a, b in itertools.combinations(subset, 2)
        ):
            out.append(frozenset(subset))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_separable(graph):
    """Backtracking partition search: independent groups, all cross edges."""
    p = graph.node_count
    groups: list[list[int]] = []

    def rec(v):
        if v > p:
            return len(groups) >= 2
        for g in groups:
            ok = all(not graph.has_edge(v, w) for w in g) and all(
                graph.has_edge(v, w) for h in groups if h is not g for w in h
            )
            if ok:
                g.append(v)
                if rec(v + 1):
                    return True
                g.pop()
        if all(graph.has_edge(v, w) for h in groups for w in h):
            groups.append([v])
            if rec(v + 1):
                return True
            groups.pop()
        return False

    return rec(1)


@st.composite
def small_connected_graphs(draw, max_nodes=7):
    p = draw(st.integers(2, max_nodes))
    perm = draw(st.permutations(range(1, p + 1)))
    edges = set()
    for i in range(1, p):
        j = draw(st.integers(0, i - 1))
        a, b = perm[i], perm[j]
        edges.add((min(a, b), max(a, b)))
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=12)):
        edges.add((a, b))
    return Graph.from_edges(p, sorted(edges))


# -- validation -----------------------------------------------------------------


def test_validate_accepts_triangle():
    validate_edges(3, [(1, 2), (2, 3), (1, 3)])


def test_validate_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        validate_edges(2, [(1, 1)])


def test_validate_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        validate_edges(3, [(1, 4)])


def test_validate_rejects_duplicate():
    with pytest.raises(DuplicateEdgeError):
        validate_edges(3, [(1, 2), (2, 1)])


# -- connectivity and coloring -----------------------------------------------


def test_connectivity():
    assert is_connected(TRIANGLE)
    assert is_connected(PENDANT)
    assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))


def test_bfs_levels_hop_distance_from_nearest_source():
    path = Graph.from_edges(6, [(i, i + 1) for i in range(1, 6)])
    assert bfs_levels(path, [1]) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}
    assert bfs_levels(path, {1, 6}) == {1: 0, 6: 0, 2: 1, 5: 1, 3: 2, 4: 2}
    assert bfs_levels(PENDANT, [4]) == {4: 0, 3: 1, 1: 2, 2: 2}
    # unreachable nodes are absent
    assert bfs_levels(Graph.from_edges(4, [(1, 2), (3, 4)]), [3]) == {3: 0, 4: 1}
    assert bfs_levels(PENDANT, []) == {}


def test_two_coloring_colors_each_component_from_its_smallest_node():
    forest = Graph.from_edges(6, [(1, 4), (4, 2), (3, 6), (5, 6)])
    assert two_coloring(forest) == {1: 0, 4: 1, 2: 0, 3: 0, 6: 1, 5: 0}
    # an odd cycle in the second component only
    assert two_coloring(Graph.from_edges(5, [(1, 2), (3, 4), (4, 5), (3, 5)])) is None


def test_bipartite():
    assert is_bipartite(Graph.from_edges(2, [(1, 2)]))
    assert not is_bipartite(TRIANGLE)
    assert not is_bipartite(FIVE_CYCLE)
    coloring = two_coloring(cycle_graph(6))
    assert coloring is not None
    for i, j in cycle_graph(6).edges:
        assert coloring[i] != coloring[j]


# -- independent sets ------------------------------------------------------------


def test_independent_sets_triangle():
    assert independent_sets(TRIANGLE) == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]


def test_independent_sets_pendant_matches_brute_force():
    got = independent_sets(PENDANT)
    assert got == brute_independent_sets(PENDANT)
    assert got == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
        frozenset({1, 4}),
        frozenset({2, 4}),
    ]


def test_independent_sets_five_cycle_matches_brute_force():
    got = independent_sets(FIVE_CYCLE)
    assert got == brute_independent_sets(FIVE_CYCLE)
    assert len([s for s in got if len(s) == 1]) == 5
    assert len([s for s in got if len(s) == 2]) == 5


def test_independent_sets_cap():
    path = Graph.from_edges(21, [(i, i + 1) for i in range(1, 21)])
    with pytest.raises(TooLargeError):
        independent_sets(path)


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs())
def test_independent_sets_agree_with_brute_force(graph):
    assert independent_sets(graph) == brute_independent_sets(graph)


def test_neighbors_of_set():
    assert neighbors_of_set(PENDANT, {4}) == frozenset({3})
    assert neighbors_of_set(PENDANT, {1, 4}) == frozenset({2, 3})
    assert neighbors_of_set(PENDANT, set()) == frozenset()
    with pytest.raises(IndexOutOfRangeError):
        neighbors_of_set(PENDANT, {4, 5})


# -- rate condition ---------------------------------------------------------------


def test_ncond_triangle_uniform_rates():
    assert ncond_check(TRIANGLE, (1.0, 1.0, 1.0)).satisfied


def test_ncond_pendant_instance_agrees_with_explicit_inequalities():
    lam = (0.1, 0.1, 0.45, 0.35)
    res = ncond_check(PENDANT, lam)
    l1, l2, l3, l4 = lam
    explicit = (
        l4 < l3 < l4 + l1 + l2 and l4 + l1 < l3 + l2 and l4 + l2 < l3 + l1
    )
    assert res.satisfied == explicit is True
    assert res.min_margin == pytest.approx(0.1)


def test_ncond_single_edge_always_violated():
    edge = Graph.from_edges(2, [(1, 2)])
    res = ncond_check(edge, (0.5, 0.5))
    assert not res.satisfied
    assert res.witness == frozenset({1})
    res2 = ncond_check(edge, (0.7, 0.3))
    assert res2.witness == frozenset({1})


def test_ncond_tie_goes_to_the_lexicographically_smallest_set():
    # {3} and {1, 2, 4} both have margin exactly 0; {3} comes first by
    # size, but the witness is the smaller sorted set [1, 2, 4]
    star = Graph.from_edges(4, [(1, 3), (2, 3), (3, 4)])
    res = ncond_check(star, (0.25, 0.25, 1.0, 0.5))
    assert res.min_margin == 0.0
    assert res.witness == frozenset({1, 2, 4})


def test_ncond_requires_connected():
    with pytest.raises(NotConnectedError):
        ncond_check(Graph.from_edges(4, [(1, 2), (3, 4)]), (1, 1, 1, 1))


def test_bipartite_graphs_never_satisfy_ncond():
    import numpy as np

    rng = np.random.default_rng(7)
    for graph in [
        Graph.from_edges(2, [(1, 2)]),
        cycle_graph(6),
        Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)]),  # star
        Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),  # path
    ]:
        for _ in range(25):
            lam = rng.uniform(0.05, 1.0, size=graph.node_count)
            assert not ncond_check(graph, lam).satisfied


# -- separability ------------------------------------------------------------------


def test_separability_complete_graph():
    sep = separability(TRIANGLE)
    assert sep.order == 3
    assert sep.partition == (frozenset({1}), frozenset({2}), frozenset({3}))


def test_separability_order3_example():
    sep = separability(SEPARABLE6)
    assert sep.order == 3
    assert set(sep.partition) == {
        frozenset({1, 4}),
        frozenset({2, 5}),
        frozenset({3, 6}),
    }


def test_pendant_not_separable():
    assert separability(PENDANT) is None


def test_separability_agrees_with_partition_search_on_all_5_node_graphs():
    pairs = list(itertools.combinations(range(1, 6), 2))
    for mask in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        graph = Graph.from_edges(5, edges)
        assert (separability(graph) is not None) == brute_separable(graph)


# -- induced subgraphs ----------------------------------------------------------------


def test_induced_pendant_identity():
    assert find_induced_pendant(PENDANT) == (1, 2, 3, 4)


def test_induced_pendant_absent():
    assert find_induced_pendant(FIVE_CYCLE) is None
    assert find_induced_pendant(complete_graph(4)) is None


def test_induced_pendant_role_order():
    # star center 2 with triangle 2-3-4 and tail 1 attached at node 2
    graph = Graph.from_edges(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
    t1, t2, hub, tail = find_induced_pendant(graph)
    assert {t1, t2, hub} == {2, 3, 4} and tail == 1 and hub == 2


def test_induced_odd_cycle():
    assert find_induced_odd_cycle(FIVE_CYCLE) == (1, 2, 4, 5, 3)
    seven = cycle_graph(7)
    found = find_induced_odd_cycle(seven)
    assert found is not None and len(found) == 7
    assert find_induced_odd_cycle(complete_graph(5)) is None


def test_induced_searches_prefer_first_and_smallest():
    # two pendant copies joined tail-to-tail: the lexicographically first
    # 4-subset wins
    two_pendants = Graph.from_edges(
        8,
        [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
         (5, 6), (6, 7), (6, 8), (7, 8)],
    )
    assert find_induced_pendant(two_pendants) == (1, 2, 3, 4)
    # a 7-cycle next to a 5-cycle: the shorter induced cycle is returned
    both = Graph.from_edges(
        12,
        [(i, i + 1) for i in range(1, 7)] + [(1, 7)]
        + [(i, i + 1) for i in range(8, 12)] + [(8, 12)],
    )
    found = find_induced_odd_cycle(both)
    assert len(found) == 5 and set(found) == {8, 9, 10, 11, 12}
    # a 9-cycle has no shorter induced odd cycle, so the search climbs
    nine = cycle_graph(9)
    assert len(find_induced_odd_cycle(nine)) == 9


# -- classification ---------------------------------------------------------------------


def test_classify_examples():
    assert classify(TRIANGLE).kind == "separable"
    pend = classify(PENDANT)
    assert pend.kind == "non_separable_g7c"
    assert pend.witness_kind == "pendant"
    assert pend.witness == (1, 2, 3, 4)
    seven = classify(cycle_graph(7))
    assert seven.kind == "non_separable_g7"
    assert len(seven.witness) == 7
    assert classify(Graph.from_edges(3, [(1, 2), (2, 3)])).kind == "bipartite"


def test_classify_five_cycle_witness():
    cls = classify(FIVE_CYCLE)
    assert cls.kind == "non_separable_g7c"
    assert cls.witness_kind == "five_cycle"
    assert len(cls.witness) == 5


def test_classify_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        classify(Graph.from_edges(4, [(1, 2), (3, 4)]))


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs())
def test_classify_always_produces_a_witness_or_structure(graph):
    cls = classify(graph)  # NoWitnessFoundError would signal a bug
    if cls.kind == "separable":
        assert cls.order >= 2
        assert find_induced_pendant(graph) is None
        assert find_induced_odd_cycle(graph) is None
    elif cls.kind.startswith("non_separable"):
        assert cls.witness is not None
