"""Simple undirected matching graphs and their structural classification.

Nodes are labeled 1..p. Edges are unordered pairs. The module provides
connectivity and bipartiteness tests on one breadth-first traversal
(`bfs_levels`), exhaustive independent-set enumeration, the necessary
stability condition on arrival rates (every independent set must receive
strictly less arrival mass than its neighborhood), separability, and
exact induced-subgraph searches for the pendant graph and for odd cycles.
`classify` combines these into the four-way split used by the stability
tooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    NotConnectedError,
    NoWitnessFoundError,
    SelfLoopError,
    TooLargeError,
    ValidationError,
)

# Independent-set enumeration is exponential; larger graphs are refused.
ENUMERATION_CAP = 20

# Canonical pendant layout: triangle on 1,2,3 with node 4 hanging off node 3.
PENDANT_EDGES = ((1, 2), (1, 3), (2, 3), (3, 4))
# Canonical 5-cycle layout: the cycle is 1-2-4-5-3-1.
FIVE_CYCLE_EDGES = ((1, 2), (1, 3), (2, 4), (3, 5), (4, 5))


def validate_edges(node_count: int, edges: Iterable[Sequence[int]]) -> None:
    """Check simplicity and index range; raise a ValidationError subclass."""
    if node_count < 1:
        raise ValidationError(f"node_count must be positive, got {node_count}")
    seen = set()
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise SelfLoopError(i)
        for v in (i, j):
            if not 1 <= v <= node_count:
                raise IndexOutOfRangeError(v, node_count)
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdgeError(*key)
        seen.add(key)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on nodes 1..node_count."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[Sequence[int]]) -> "Graph":
        edges = list(edges)
        validate_edges(node_count, edges)
        canon = tuple(sorted((min(int(i), int(j)), max(int(i), int(j))) for i, j in edges))
        return cls(node_count, canon)

    @property
    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {i: [] for i in self.nodes}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {i: tuple(sorted(v)) for i, v in adj.items()}

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edge_set

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def induced_edges(self, nodes: Iterable[int]) -> frozenset[tuple[int, int]]:
        s = set(nodes)
        return frozenset(e for e in self.edges if e[0] in s and e[1] in s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(p={self.node_count}, edges={list(self.edges)})"


# -- small builders used throughout ----------------------------------------


def pendant_graph() -> Graph:
    """Triangle on nodes 1,2,3 with node 4 attached to node 3."""
    return Graph(4, PENDANT_EDGES)


def five_cycle_graph() -> Graph:
    """The 5-cycle in its canonical labeling (cycle order 1,2,4,5,3)."""
    return Graph(5, FIVE_CYCLE_EDGES)


def cycle_graph(length: int) -> Graph:
    """Cycle with consecutive labels 1-2-...-length-1."""
    if length < 3:
        raise ValidationError("cycle needs at least 3 nodes")
    edges = [(i, i + 1) for i in range(1, length)] + [(1, length)]
    return Graph.from_edges(length, edges)


def complete_graph(size: int) -> Graph:
    return Graph(size, tuple(combinations(range(1, size + 1), 2)))


def check_rates(graph: Graph, rates: Sequence[float]) -> tuple[float, ...]:
    """Validate an arrival-rate vector: length p, finite, strictly positive."""
    rates = tuple(float(r) for r in rates)
    if len(rates) != graph.node_count:
        raise ValidationError(
            f"expected {graph.node_count} rates, got {len(rates)}"
        )
    if not all(math.isfinite(r) and r > 0 for r in rates):
        raise ValidationError("arrival rates must be finite and strictly positive")
    return rates


def rate_of_set(rates: Sequence[float], nodes: Iterable[int]) -> float:
    return sum(rates[i - 1] for i in nodes)


# -- connectivity and coloring ----------------------------------------------


def bfs_levels(graph: Graph, sources: Iterable[int]) -> dict[int, int]:
    """Hop distance from the nearest source, for every node reachable from one."""
    dist = {v: 0 for v in sources}
    frontier = list(dist)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in graph.neighbors(v):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(graph: Graph) -> bool:
    """True iff every pair of nodes is joined by a path."""
    return len(bfs_levels(graph, graph.nodes[:1])) == graph.node_count


def two_coloring(graph: Graph) -> Optional[dict[int, int]]:
    """A proper 2-coloring (values 0/1), or None if the graph is odd-cyclic.

    Each component is colored by the parity of the hop distance from its
    smallest node."""
    color: dict[int, int] = {}
    for start in graph.nodes:
        if start not in color:
            color.update((v, d % 2) for v, d in bfs_levels(graph, (start,)).items())
    if any(color[i] == color[j] for i, j in graph.edges):
        return None
    return color


def is_bipartite(graph: Graph) -> bool:
    return two_coloring(graph) is not None


# -- independent sets and the necessary rate condition ----------------------


def independent_sets(graph: Graph) -> list[frozenset[int]]:
    """All non-empty independent sets, ordered by size then lexicographically.

    Refuses graphs beyond ENUMERATION_CAP nodes.
    """
    if graph.node_count > ENUMERATION_CAP:
        raise TooLargeError(
            f"independent-set enumeration capped at {ENUMERATION_CAP} nodes, "
            f"graph has {graph.node_count}"
        )
    adj = {i: set(graph.neighbors(i)) for i in graph.nodes}
    out: list[frozenset[int]] = []

    def extend(current: list[int], candidates: list[int]) -> None:
        for idx, v in enumerate(candidates):
            current.append(v)
            out.append(frozenset(current))
            extend(current, [w for w in candidates[idx + 1 :] if w not in adj[v]])
            current.pop()

    extend([], list(graph.nodes))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def neighbors_of_set(graph: Graph, nodes: Iterable[int]) -> frozenset[int]:
    """Union of the neighborhoods of the given nodes."""
    nodes = tuple(nodes)
    for i in nodes:
        if not 1 <= i <= graph.node_count:
            raise IndexOutOfRangeError(i, graph.node_count)
    return _neighborhood(graph.adjacency, nodes)


def _neighborhood(adjacency, nodes) -> frozenset[int]:
    result: set[int] = set()
    for i in nodes:
        result.update(adjacency[i])
    return frozenset(result)


def independent_set_rates(
    graph: Graph, rates: Sequence[float]
) -> Iterator[tuple[frozenset[int], float, float]]:
    """(set, rate into the set, rate into its neighborhood) for every
    independent set, in the order of `independent_sets`. Checks nothing:
    every caller validates its own inputs."""
    adjacency = graph.adjacency
    for ind in independent_sets(graph):
        yield ind, rate_of_set(rates, ind), rate_of_set(rates, _neighborhood(adjacency, ind))


@dataclass(frozen=True)
class NcondResult:
    """Outcome of the independent-set rate check.

    `min_margin` is the smallest value of (rate into the neighborhood)
    minus (rate into the set) over all independent sets; the condition is
    satisfied iff that margin is strictly positive. `witness` is the worst
    set when violated (ties broken by the lexicographically smallest set).
    """

    satisfied: bool
    min_margin: float
    argmin: frozenset[int]
    witness: Optional[frozenset[int]]


def ncond_check(graph: Graph, rates: Sequence[float]) -> NcondResult:
    """Check that every independent set is strictly out-rated by its neighborhood."""
    rates = check_rates(graph, rates)
    if not is_connected(graph):
        raise NotConnectedError("rate condition is defined for connected graphs")
    # the smallest (margin, sorted set); members are sorted only on a tie
    margin = worst = None
    for ind, own, neighborhood in independent_set_rates(graph, rates):
        m = neighborhood - own
        if worst is None or m < margin or (m == margin and sorted(ind) < sorted(worst)):
            margin, worst = m, ind
    satisfied = margin > 0.0
    return NcondResult(
        satisfied=satisfied,
        min_margin=margin,
        argmin=worst,
        witness=None if satisfied else worst,
    )


# -- separability ------------------------------------------------------------


@dataclass(frozen=True)
class Separability:
    order: int
    partition: tuple[frozenset[int], ...]


def separability(graph: Graph) -> Optional[Separability]:
    """Partition into maximal independent sets with all cross edges present.

    The parts are the closed non-neighborhoods N̄[u] = {u} plus the nodes
    not adjacent to u: the graph is separable iff there are at least two
    distinct ones and they are pairwise disjoint, i.e. their sizes sum to
    p. Returns None when the graph is not separable.
    """
    nodes = frozenset(graph.nodes)
    parts = {nodes.difference(graph.neighbors(u)) for u in graph.nodes}
    if len(parts) < 2 or sum(map(len, parts)) != graph.node_count:
        return None
    return Separability(order=len(parts), partition=tuple(sorted(parts, key=min)))


# -- induced-subgraph searches ------------------------------------------------


def find_induced_pendant(graph: Graph) -> Optional[tuple[int, int, int, int]]:
    """First 4-subset (lexicographic) inducing a triangle plus one hanging node.

    The result is ordered by role: (t1, t2, hub, tail) where t1,t2,hub form
    the triangle and tail is attached to hub only. t1 < t2.
    """
    for subset in combinations(graph.nodes, 4):
        induced = graph.induced_edges(subset)
        if len(induced) != 4:
            continue
        deg = {v: 0 for v in subset}
        for i, j in induced:
            deg[i] += 1
            deg[j] += 1
        degs = sorted(deg.values())
        if degs != [1, 2, 2, 3]:
            continue
        # the degree-3 node is adjacent to the other three, the tail included
        hub = next(v for v in subset if deg[v] == 3)
        tail = next(v for v in subset if deg[v] == 1)
        t1, t2 = sorted(v for v in subset if deg[v] == 2)
        return (t1, t2, hub, tail)
    return None


def _induced_cycle_order(graph: Graph, subset: tuple[int, ...]) -> Optional[list[int]]:
    """Cycle order of `subset` if it induces exactly one cycle, else None."""
    sset = set(subset)
    deg_ok = all(
        sum(1 for w in graph.neighbors(v) if w in sset) == 2 for v in subset
    )
    if not deg_ok:
        return None
    # All degrees are 2; a connected such subset is a single induced cycle.
    start = min(subset)
    nbrs_in = [w for w in graph.neighbors(start) if w in sset]
    order = [start, min(nbrs_in)]
    while len(order) < len(subset):
        prev, cur = order[-2], order[-1]
        # cur has degree 2 in the subset and prev is one of its neighbors
        order.append(next(w for w in graph.neighbors(cur) if w in sset and w != prev))
    if not graph.has_edge(order[-1], start):
        return None
    return order


def find_induced_odd_cycle(graph: Graph) -> Optional[tuple[int, ...]]:
    """Smallest induced odd cycle of length >= 5, as an ordered node tuple.

    Within a length, the lexicographically first qualifying subset wins.
    """
    length = 5
    while length <= graph.node_count:
        for subset in combinations(graph.nodes, length):
            order = _induced_cycle_order(graph, subset)
            if order is not None:
                return tuple(order)
        length += 2
    return None


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class GraphClass:
    """Structural class of a connected graph.

    kind is one of:
      "bipartite"            - coloring carries the 2-coloring
      "separable"            - order/partition carry the decomposition
      "non_separable_g7c"    - induces a pendant graph or a 5-cycle; the
                               witness and witness_kind identify which
      "non_separable_g7"     - induces an odd cycle of length >= 7 but no
                               pendant graph and no 5-cycle
    """

    kind: str
    coloring: Optional[dict[int, int]] = None
    order: Optional[int] = None
    partition: Optional[tuple[frozenset[int], ...]] = None
    witness_kind: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None


def classify(graph: Graph) -> GraphClass:
    """Classify a connected graph for matching-stability purposes."""
    if not is_connected(graph):
        raise NotConnectedError("classification is defined for connected graphs")
    coloring = two_coloring(graph)
    if coloring is not None:
        return GraphClass(kind="bipartite", coloring=coloring)
    sep = separability(graph)
    if sep is not None:
        return GraphClass(kind="separable", order=sep.order, partition=sep.partition)
    pend = find_induced_pendant(graph)
    if pend is not None:
        return GraphClass(kind="non_separable_g7c", witness_kind="pendant", witness=pend)
    cyc = find_induced_odd_cycle(graph)
    if cyc is not None and len(cyc) == 5:
        return GraphClass(kind="non_separable_g7c", witness_kind="five_cycle", witness=cyc)
    if cyc is not None:
        return GraphClass(kind="non_separable_g7", witness_kind="odd_cycle", witness=cyc)
    raise NoWitnessFoundError(
        "connected non-bipartite non-separable graph with no induced pendant "
        "or odd cycle; this should be impossible"
    )
