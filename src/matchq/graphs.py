"""Simple undirected matching graphs and their structural classification.

Nodes are labeled 1..p. Edges are unordered pairs. The module provides
connectivity and bipartiteness tests on one breadth-first traversal
(`bfs_levels`), exhaustive independent-set enumeration on bitmasks, the
necessary stability condition on arrival rates (every independent set
must receive strictly less arrival mass than its neighborhood),
separability, and exact induced-subgraph searches on the neighbor
bitmasks `Graph.neighbor_masks`: for the pendant graph by extending
triples within two hops of their smallest node, and for odd cycles by
growing induced paths.
`classify` combines these into the four-way split used by the stability
tooling.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Optional, Sequence

import numpy as np

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


def check_int(value, name: str) -> int:
    """value as an int; a bool or a non-integer raises ValidationError, and
    numpy integers pass. A plain int, the common case, skips the ABC check."""
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(value, name: str, finite: bool = True) -> float:
    """value as a float; a bool, a string or any other non-real value raises
    ValidationError, and so do NaN and the infinities when `finite`. numpy
    floats and integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be a float, got {value!r}") from None
    if finite and not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def check_sequence(values, name: str, of: str, ordered: bool = True):
    """values, unless it is a string, a mapping, a set where `ordered` or not
    iterable: then ValidationError, which says that name must be a sequence
    of `of`. A mapping would be read as its keys and a set in its hash order;
    callers that sort or de-duplicate what they read pass ordered=False and
    take a set."""
    if (isinstance(values, (str, bytes, Mapping)) or (ordered and isinstance(values, Set))
            or not isinstance(values, Iterable)):
        raise ValidationError(f"{name} must be a sequence of {of}, got {values!r}")
    return values


def check_reals(values, name: str) -> tuple[float, ...]:
    """values as a tuple of floats read by check_real, NaN and the infinities
    let through; a string or a non-iterable raises ValidationError. A plain
    float, the common case, skips check_real."""
    return tuple(v if type(v) is float else check_real(v, name, False)
                 for v in check_sequence(values, name, "real numbers"))


def check_ints(values, name: str, ordered: bool = True) -> tuple[int, ...]:
    """values as a tuple of ints read by check_int; a string or a
    non-iterable raises ValidationError, and so does a set where `ordered`
    (check_sequence). A plain int, the common case, skips check_int."""
    return tuple(v if type(v) is int else check_int(v, name)
                 for v in check_sequence(values, name, "integers", ordered))


def check_node(v, node_count: int, name: str = "node") -> int:
    """v as a node id: an integer in 1..node_count, else a ValidationError."""
    v = check_int(v, name)
    if not 1 <= v <= node_count:
        raise IndexOutOfRangeError(v, node_count, name)
    return v


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on nodes 1..node_count. The
    constructor refuses a node count below 1, an endpoint outside 1..node_count,
    a self-loop and a repeated edge, and keeps the edges as a sorted tuple of
    (min, max) pairs, so equal graphs compare equal. Disconnected graphs pass."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        p = check_int(self.node_count, "node_count")
        if p < 1:
            raise ValidationError(f"node_count must be positive, got {p}")
        seen = set()
        for e in check_sequence(self.edges, "edges", "node pairs", ordered=False):
            try:
                i, j = e
            except (TypeError, ValueError):
                raise ValidationError(f"edge {e!r} is not a pair of nodes") from None
            i, j = check_node(i, p), check_node(j, p)
            if i == j:
                raise SelfLoopError(i)
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise DuplicateEdgeError(*key)
            seen.add(key)
        object.__setattr__(self, "node_count", p)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Graph(node_count, edges), under the name the benchmark scripts call."""
        return cls(node_count, edges)

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
    def neighbor_masks(self) -> dict[int, int]:
        """Each node v's neighborhood as an int: bit w - 1 is set for w in N(v)."""
        masks = dict.fromkeys(self.nodes, 0)
        for i, j in self.edges:
            masks[i] |= 1 << (j - 1)
            masks[j] |= 1 << (i - 1)
        return masks

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.neighbor_masks[i] >> (j - 1) & 1)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

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
    if check_int(length, "cycle length") < 3:
        raise ValidationError("cycle needs at least 3 nodes")
    edges = [(i, i + 1) for i in range(1, length)] + [(1, length)]
    return Graph(length, edges)


def complete_graph(size: int) -> Graph:
    return Graph(size, combinations(range(1, check_int(size, "size") + 1), 2))


def check_rates(graph: Graph, rates: Sequence[float]) -> tuple[float, ...]:
    """Validate an arrival-rate vector: p reals (check_reals), finite, strictly positive."""
    rates = check_reals(rates, "rates")
    if len(rates) != graph.node_count:
        raise ValidationError(
            f"expected {graph.node_count} rates, got {len(rates)}"
        )
    if not all(math.isfinite(r) and r > 0 for r in rates):
        raise ValidationError("arrival rates must be finite and strictly positive")
    if not math.isfinite(sum(rates)):
        raise ValidationError("arrival rates must have a finite sum")
    return rates


def rate_of_set(rates: Sequence[float], nodes: Iterable[int]) -> float:
    return sum(rates[i - 1] for i in nodes)


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum of a 1-d array.

    np.sum adds pairwise, and `@` or np.dot hand the sum to BLAS, which
    splits a long vector across its threads; either moves the last bits,
    the second with the machine's thread count. The truncation tail mass,
    the guard sums and the drift fit's sums go through here.
    """
    return float(np.cumsum(values)[-1]) if values.size else 0.0


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


def _independent_masks(graph: Graph) -> np.ndarray:
    """Every non-empty independent set I as one int64 word: bit v - 1 is
    set for v in I, and bit p + v - 1 for v in N(I). Refuses graphs beyond
    ENUMERATION_CAP nodes.

    The sets are built one node at a time: node v joins every set so far
    that holds none of its neighbors, and brings its neighborhood along.
    The words are Python ints until the end, since at the 4-7 nodes of a
    construct_nonmaximal graph one numpy call per step costs more than the
    whole step on a short list."""
    p = graph.node_count
    if p > ENUMERATION_CAP:
        raise TooLargeError(
            f"independent-set enumeration capped at {ENUMERATION_CAP} nodes, "
            f"graph has {p}"
        )
    words = [0]  # the empty set
    for v, nbrs in graph.neighbor_masks.items():
        join = 1 << (v - 1) | nbrs << p
        words += [w | join for w in words if not w & nbrs]
    return np.array(words[1:], dtype=np.int64)


def _mask(nodes: Iterable[int]) -> int:
    return sum(1 << (v - 1) for v in nodes)


def _members(mask: int, node_count: int) -> list[int]:
    return [v for v in range(1, node_count + 1) if mask >> (v - 1) & 1]


def independent_sets(graph: Graph) -> list[frozenset[int]]:
    """All non-empty independent sets, ordered by size then lexicographically.

    Refuses graphs beyond ENUMERATION_CAP nodes.
    """
    p = graph.node_count
    sets = [frozenset(_members(w, p)) for w in _independent_masks(graph).tolist()]
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


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


# The screen in ncond_check adds rates in another order than
# independent_set_rates, so its margins can differ from the reference ones
# in the last bits. A margin is built from at most p <= 20 rates, each
# taken once (a set and its neighborhood are disjoint), added in any order:
# so the screened and the reference margin both lie within
# (2p + 1) * 2**-53 * L of the exact one, where L = sum(rates). The
# reference argmin therefore screens within 4 * (2p + 1) * 2**-53 * L
# < 2e-14 * L of the screened minimum, and re-scoring every set within
# _SCREEN_SLACK * L of it covers that about 50 times over. check_rates
# keeps L finite.
_SCREEN_SLACK = 1e-12
# The screen reads margins from lookup tables over chunks of this many bits.
_CHUNK = 8
_CHUNK_BITS = ((np.arange(1 << _CHUNK)[:, None] >> np.arange(_CHUNK)) & 1).astype(float)


def ncond_check(graph: Graph, rates: Sequence[float]) -> NcondResult:
    """Check that every independent set is strictly out-rated by its neighborhood.

    Every set's margin is screened with table sums; the sets whose margin
    lies within _SCREEN_SLACK * sum(rates) of the smallest are re-scored
    with the sums of independent_set_rates, so the result is the same to
    the last bit."""
    rates = check_rates(graph, rates)
    if not is_connected(graph):
        raise NotConnectedError("rate condition is defined for connected graphs")
    words = _independent_masks(graph)
    # a word's margin is its bits' weights summed: -rate for a member,
    # +rate for a neighbor
    weights = np.array(tuple(-r for r in rates) + rates)
    screened = 0.0
    for shift in range(0, weights.size, _CHUNK):
        width = min(_CHUNK, weights.size - shift)
        table = _CHUNK_BITS[: 1 << width, :width] @ weights[shift : shift + width]
        screened = screened + table[words >> shift & (1 << width) - 1]
    close = words[screened <= screened.min() + _SCREEN_SLACK * sum(rates)]
    # the smallest (margin, sorted set) among the re-scored sets
    p, adjacency = graph.node_count, graph.adjacency
    margin = worst = None
    for word in close.tolist():
        ind = frozenset(_members(word, p))
        m = rate_of_set(rates, _neighborhood(adjacency, ind)) - rate_of_set(rates, ind)
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

    A pendant has diameter 2, so with s its smallest node the other three
    lie above s and within two hops of it. The triples s < x < y are tried
    in order, and the edges among them fix what the fourth node z > y must
    touch: exactly one node of a triangle, the middle and exactly one end
    of a path, all three when there is one edge. The lowest such z is read
    from the neighbor masks; a triple with no edge can take none.
    """
    nbrs = graph.neighbor_masks
    for s, ns in nbrs.items():
        reach = ns
        for low in _bits(ns):
            reach |= nbrs[low.bit_length()]
        rest = reach & -1 << s  # the candidates above s
        while rest:
            bx = rest & -rest
            rest ^= bx
            x = bx.bit_length()
            nx = nbrs[x]
            sx = ns & bx
            # with s and x apart, y must touch one of them
            for by in _bits(rest if sx else rest & (ns | nx)):
                y = by.bit_length()
                ny = nbrs[y]
                sy, xy = ns & by, nx & by
                if sx and sy and xy:  # a triangle
                    fit = (ns ^ nx ^ ny) & ~(ns & nx & ny)
                elif sx and sy:  # the path x - s - y
                    fit = ns & (nx ^ ny)
                elif sx and xy:  # the path s - x - y
                    fit = nx & (ns ^ ny)
                elif sy and xy:  # the path s - y - x
                    fit = ny & (ns ^ nx)
                else:  # one edge
                    fit = ns & nx & ny
                fit &= -1 << y
                if fit:
                    return _pendant_roles(nbrs, (s, x, y, (fit & -fit).bit_length()))
    return None


def _pendant_roles(nbrs: dict[int, int], quad: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(t1, t2, hub, tail) of four ascending nodes that induce a pendant."""
    inside = _mask(quad)
    # induced degrees 1, 2, 2, 3; the stable sort keeps t1 < t2
    tail, t1, t2, hub = sorted(quad, key=lambda v: (nbrs[v] & inside).bit_count())
    return (t1, t2, hub, tail)


def find_induced_odd_cycle(graph: Graph) -> Optional[tuple[int, ...]]:
    """Smallest induced odd cycle of length >= 5, as an ordered node tuple.

    Within a length, the lexicographically first qualifying subset wins.
    Its smallest node s is the first start from which an induced path of
    that length over larger nodes closes back to s. The order starts at s,
    goes to the smaller of s's two neighbours on the cycle and continues
    round, read off the cycle's mask.
    """
    nbrs = graph.neighbor_masks
    for length in range(5, graph.node_count + 1, 2):
        for s in graph.nodes:
            cycles = _induced_cycles_from(nbrs, s, length)
            if cycles:
                cycle = min(cycles, key=lambda c: _members(c, graph.node_count))
                ring = nbrs[s] & cycle
                order = [s, (ring & -ring).bit_length()]
                # every node has two neighbours on the cycle: the one it
                # came from and the next
                while len(order) < length:
                    order.append((nbrs[order[-1]] & cycle & ~(1 << (order[-2] - 1))).bit_length())
                return tuple(order)
    return None


def _induced_cycles_from(nbrs: dict[int, int], s: int, length: int) -> list[int]:
    """Node masks of the induced cycles of `length` whose smallest node is s.

    An induced path s, a, ... grows over nodes above s; a new node may touch
    no earlier path node but its predecessor, and only the last one may
    (and must) touch s. Each cycle is found once per direction."""
    ring = nbrs[s]
    found = []

    def grow(path: int, last: int, forbidden: int, left: int) -> None:
        step = nbrs[last] & ~forbidden
        if left == 1:
            found.extend(path | low for low in _bits(step & ring))
            return
        for low in _bits(step & ~ring):
            grow(path | low, low.bit_length(), forbidden | low | nbrs[last], left - 1)

    below = (1 << s) - 1  # s and every smaller node
    for low in _bits(ring & ~below):
        grow(1 << (s - 1) | low, low.bit_length(), below | low, length - 2)
    return found


def _bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, lowest first, each as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


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
