"""Graph structure: validation, enumeration, rate condition, classification."""

import functools
import itertools
import random
import tracemalloc

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
    pendant_graph,
    rate_of_set,
    separability,
    two_coloring,
    _neighborhood,
)

import oracles
from iso_enum import KNOWN_CONNECTED_COUNTS, connected_graphs_up_to

TRIANGLE = complete_graph(3)
PENDANT = pendant_graph()
FIVE_CYCLE = five_cycle_graph()

# Separable graph on 6 nodes whose complement is the perfect matching
# {1-4, 2-5, 3-6}.
SEPARABLE6 = Graph(
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
    return Graph(p, sorted(edges))


# -- validation -----------------------------------------------------------------


def test_validate_accepts_triangle():
    assert Graph(3, [(1, 2), (2, 3), (1, 3)]) == TRIANGLE


def test_validate_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        Graph(2, [(1, 1)])


def test_validate_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        Graph(3, [(1, 4)])


def test_validate_rejects_duplicate():
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [(1, 2), (2, 1)])


def test_from_edges_is_the_constructor():
    # the benchmark builds its graphs through this alias
    edges = [(3, 4), (2, 1), (1, 3), (3, 2)]
    assert Graph.from_edges(4, edges) == Graph(4, edges) == PENDANT


# -- connectivity and coloring -----------------------------------------------


def test_connectivity():
    assert is_connected(TRIANGLE)
    assert is_connected(PENDANT)
    assert not is_connected(Graph(4, [(1, 2), (3, 4)]))


def test_bfs_levels_hop_distance_from_nearest_source():
    path = Graph(6, [(i, i + 1) for i in range(1, 6)])
    assert bfs_levels(path, [1]) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}
    assert bfs_levels(path, {1, 6}) == {1: 0, 6: 0, 2: 1, 5: 1, 3: 2, 4: 2}
    assert bfs_levels(PENDANT, [4]) == {4: 0, 3: 1, 1: 2, 2: 2}
    # unreachable nodes are absent
    assert bfs_levels(Graph(4, [(1, 2), (3, 4)]), [3]) == {3: 0, 4: 1}
    assert bfs_levels(PENDANT, []) == {}


def test_two_coloring_colors_each_component_from_its_smallest_node():
    forest = Graph(6, [(1, 4), (4, 2), (3, 6), (5, 6)])
    assert two_coloring(forest) == {1: 0, 4: 1, 2: 0, 3: 0, 6: 1, 5: 0}
    # an odd cycle in the second component only
    assert two_coloring(Graph(5, [(1, 2), (3, 4), (4, 5), (3, 5)])) is None


def test_bipartite():
    assert is_bipartite(Graph(2, [(1, 2)]))
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
    path = Graph(21, [(i, i + 1) for i in range(1, 21)])
    with pytest.raises(TooLargeError):
        independent_sets(path)


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs())
def test_independent_sets_agree_with_brute_force(graph):
    assert independent_sets(graph) == brute_independent_sets(graph)


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
    edge = Graph(2, [(1, 2)])
    res = ncond_check(edge, (0.5, 0.5))
    assert not res.satisfied
    assert res.witness == frozenset({1})
    res2 = ncond_check(edge, (0.7, 0.3))
    assert res2.witness == frozenset({1})


def test_ncond_tie_goes_to_the_lexicographically_smallest_set():
    # {3} and {1, 2, 4} both have margin exactly 0; {3} comes first by
    # size, but the witness is the smaller sorted set [1, 2, 4]
    star = Graph(4, [(1, 3), (2, 3), (3, 4)])
    res = ncond_check(star, (0.25, 0.25, 1.0, 0.5))
    assert res.min_margin == 0.0
    assert res.witness == frozenset({1, 2, 4})


def test_ncond_requires_connected():
    with pytest.raises(NotConnectedError):
        ncond_check(Graph(4, [(1, 2), (3, 4)]), (1, 1, 1, 1))


def test_bipartite_graphs_never_satisfy_ncond():
    import numpy as np

    rng = np.random.default_rng(7)
    for graph in [
        Graph(2, [(1, 2)]),
        cycle_graph(6),
        Graph(4, [(1, 2), (1, 3), (1, 4)]),  # star
        Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]),  # path
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
        graph = Graph(5, edges)
        assert (separability(graph) is not None) == brute_separable(graph)


# -- induced subgraphs ----------------------------------------------------------------


def test_induced_pendant_identity():
    assert find_induced_pendant(PENDANT) == (1, 2, 3, 4)


def test_induced_pendant_absent():
    assert find_induced_pendant(FIVE_CYCLE) is None
    assert find_induced_pendant(complete_graph(4)) is None


def test_induced_pendant_role_order():
    # star center 2 with triangle 2-3-4 and tail 1 attached at node 2
    graph = Graph(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
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
    two_pendants = Graph(
        8,
        [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
         (5, 6), (6, 7), (6, 8), (7, 8)],
    )
    assert find_induced_pendant(two_pendants) == (1, 2, 3, 4)
    # a 7-cycle next to a 5-cycle: the shorter induced cycle is returned
    both = Graph(
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
    assert classify(Graph(3, [(1, 2), (2, 3)])).kind == "bipartite"


def test_classify_five_cycle_witness():
    cls = classify(FIVE_CYCLE)
    assert cls.kind == "non_separable_g7c"
    assert cls.witness_kind == "five_cycle"
    assert len(cls.witness) == 5


def test_classify_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        classify(Graph(4, [(1, 2), (3, 4)]))


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


# -- the bitmask searches against the direct ones in tests/oracles.py -------------


@functools.lru_cache(maxsize=None)
def _graphs_up_to_7_nodes():
    return tuple(graph for _, graph in connected_graphs_up_to(7))


def _rate_vector(graph, scheme, seed):
    if scheme == "equal":
        return (1.0 / graph.node_count,) * graph.node_count
    if scheme == "random":
        rng = random.Random(seed)
        return tuple(rng.uniform(0.05, 1.0) for _ in graph.nodes)
    # on one node the degree is 0, which is not a rate
    return tuple(float(max(1, len(graph.neighbors(v)))) for v in graph.nodes)


def _assert_rate_condition_matches_oracle(graph, rates):
    got, want = ncond_check(graph, rates), oracles.ncond_check(graph, rates)
    assert got.min_margin.hex() == want.min_margin.hex()
    assert got.argmin == want.argmin
    assert got.witness == want.witness
    assert got.satisfied is want.satisfied


@pytest.mark.parametrize("scheme", ["equal", "random", "degree"])
def test_rate_condition_matches_the_oracle_on_every_graph_up_to_7_nodes(scheme):
    graphs = _graphs_up_to_7_nodes()
    assert len(graphs) == sum(KNOWN_CONNECTED_COUNTS[p] for p in range(1, 8)) == 996
    for k, graph in enumerate(graphs):
        _assert_rate_condition_matches_oracle(graph, _rate_vector(graph, scheme, k))


def test_enumeration_and_odd_cycles_match_the_oracles_on_every_graph_up_to_7_nodes():
    for graph in _graphs_up_to_7_nodes():
        assert independent_sets(graph) == oracles.independent_sets(graph)
        assert find_induced_pendant(graph) == oracles.find_induced_pendant(graph)
        assert find_induced_odd_cycle(graph) == oracles.find_induced_odd_cycle(graph)


def test_bitmask_searches_match_the_oracles_on_random_graphs_of_8_to_16_nodes():
    rng = random.Random(13)
    tried = 0
    while tried < 45:
        p = rng.randint(8, 16)
        pairs = list(itertools.combinations(range(1, p + 1), 2))
        graph = Graph(p, rng.sample(pairs, rng.randint(p - 1, 3 * p)))
        if not is_connected(graph):
            continue
        tried += 1
        for scheme in ("equal", "random", "degree"):
            _assert_rate_condition_matches_oracle(graph, _rate_vector(graph, scheme, tried))
        assert find_induced_pendant(graph) == oracles.find_induced_pendant(graph)
        assert find_induced_odd_cycle(graph) == oracles.find_induced_odd_cycle(graph)
        if p <= 12:
            assert independent_sets(graph) == oracles.independent_sets(graph)


def test_pendant_search_matches_the_oracle_on_sparse_and_dense_graphs_of_17_to_20_nodes():
    # at density 0.2 the 4-subset scan meets few triangles and may run to
    # the end; at 0.85 nearly every triple is a triangle or a path
    rng = random.Random(29)
    outcomes = set()
    for density in (0.2, 0.85):
        tried = 0
        while tried < 40:
            p = rng.randint(17, 20)
            pairs = itertools.combinations(range(1, p + 1), 2)
            graph = Graph(p, [e for e in pairs if rng.random() < density])
            if not is_connected(graph):
                continue
            tried += 1
            want = oracles.find_induced_pendant(graph)
            assert find_induced_pendant(graph) == want
            outcomes.add((density, want is None))
    assert outcomes == {(0.2, True), (0.2, False), (0.85, False)}


def test_rate_condition_rescores_the_screened_minimum():
    # the `ncond-random-4` golden case with seeded random rates: the
    # margin of the argmin {3, 6, 9, 10} is -0x1.53b8e69adf808p-2 when
    # its sums run over the frozensets, and a few ulps away in any other
    # order, so only an exact re-score gives it
    graph = Graph(11, [
        (1, 3), (1, 6), (1, 8), (1, 9), (2, 3), (2, 4), (2, 6), (3, 8), (4, 6), (4, 7),
        (4, 10), (5, 10), (7, 9), (7, 10), (8, 11), (9, 11),
    ])
    rates = (0.8237542381754199, 0.14122179623843956, 0.9281745987502135,
             0.7439010171445403, 0.2944730185436358, 0.45610960651408067,
             0.08243901224986205, 0.18992660932938704, 0.6688751606693584,
             0.78357952520344, 0.22926317137706065)
    res = ncond_check(graph, rates)
    assert res.argmin == res.witness == frozenset({3, 6, 9, 10})
    assert res.min_margin.hex() == "-0x1.53b8e69adf808p-2"
    _assert_rate_condition_matches_oracle(graph, rates)
    ascending = (rate_of_set(rates, sorted(_neighborhood(graph.adjacency, res.argmin)))
                 - rate_of_set(rates, sorted(res.argmin)))
    assert ascending.hex() == "-0x1.53b8e69adf7f8p-2"


def test_rate_condition_on_the_20_node_star_stays_small():
    star = Graph(20, [(1, v) for v in range(2, 21)])
    leaves = frozenset(range(2, 21))
    tracemalloc.start()
    try:
        res = ncond_check(star, (1.0,) * 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.argmin == res.witness == leaves
    assert res.min_margin == rate_of_set((1.0,) * 20, {1}) - rate_of_set((1.0,) * 20, leaves)
    assert peak < 150 * 2**20


def test_odd_cycle_search_reaches_c31():
    # C31 has no shorter induced odd cycle; by subsets that is every
    # odd-sized subset of 31 nodes, by induced paths a few thousand steps
    assert find_induced_odd_cycle(cycle_graph(31)) == tuple(range(1, 32))
