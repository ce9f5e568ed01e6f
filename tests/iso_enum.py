"""Enumerate connected graphs up to isomorphism by vertex augmentation.

Every connected graph on p nodes arises from a connected graph on p-1
nodes by adding one node joined to a nonempty subset (remove any
non-cut vertex to see this). A candidate is kept, in the order it is
made, iff its canonical code is new. Known class counts for p = 1..8:
1, 1, 2, 6, 21, 112, 853, 11117.
"""

from matchq.graphs import Graph

KNOWN_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def _members(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refine(adj, cells):
    """Split every non-singleton cell (a vertex bitmask) by each member's
    neighbour count in every cell, until no cell splits."""
    while True:
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            groups = {}
            for v in _members(cell):
                key = tuple([(adj[v] & c).bit_count() for c in cells])
                groups[key] = groups.get(key, 0) | 1 << v
            split.extend(groups[key] for key in sorted(groups))
        if len(split) == len(cells):
            return split
        cells = split


def _canonical_code(adj, p):
    """The largest adjacency code over the leaves of the search that
    refines, then individualises each member of the first non-singleton
    cell in turn; equal for two graphs iff they are isomorphic."""
    best = ()
    pending = [[(1 << p) - 1]]
    while pending:
        cells = _refine(adj, pending.pop())
        at = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if at is None:
            order = [c.bit_length() - 1 for c in cells]
            code = tuple([sum([1 << j for j, w in enumerate(order) if adj[v] >> w & 1])
                          for v in order])
            best = max(best, code)
            continue
        cell = cells[at]
        for v in _members(cell):
            pending.append(cells[:at] + [1 << v, cell ^ 1 << v] + cells[at + 1:])
    return best


def connected_graphs_up_to(max_nodes):
    """Yield (p, Graph) for one representative of every isomorphism class."""
    # adjacency as bitmasks over 0-based vertices
    current = [(0,)]  # the single-vertex graph
    yield 1, Graph(1, ())
    for p in range(2, max_nodes + 1):
        seen = set()
        reps = []
        for base in current:
            for subset_bits in range(1, 1 << (p - 1)):
                adj = list(base) + [subset_bits]
                for v in range(p - 1):
                    if subset_bits >> v & 1:
                        adj[v] |= 1 << (p - 1)
                code = _canonical_code(adj, p)
                if code not in seen:
                    seen.add(code)
                    reps.append(tuple(adj))
        current = reps
        for adj in reps:
            edges = [
                (u + 1, v + 1)
                for u in range(p)
                for v in range(u + 1, p)
                if adj[u] >> v & 1
            ]
            yield p, Graph(p, edges)


def brute_force_separable(graph):
    """Partition search oracle: independent groups with all cross edges."""
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
