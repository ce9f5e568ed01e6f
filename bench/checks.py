"""Checkers that judge matchq's outputs without calling matchq.

Every checker here is written from the model's definition, not from the
package's code: a policy-rule replay of trace CSVs, a bitmask brute force
of the rate condition, structural verifiers for `classify` results, exact
`Fraction` drifts from the family formulas, and the reducibility rule for
marginal chains. Graphs are passed as (node count, edge list) with nodes
1..p, so nothing from the package is needed. Each checker raises
`CheckError` with a reason when an output is wrong.

`self_test()` feeds every checker one corrupted output and confirms that
it refuses it.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction


class CheckError(AssertionError):
    """An output failed an independent check."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


# -- graphs as bitmasks --------------------------------------------------------


def adjacency(p, edges):
    """Neighbour sets indexed 1..p (index 0 unused)."""
    adj = [set() for _ in range(p + 1)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _masks(p, edges):
    """Neighbour bitmask per node, bit v-1 standing for node v."""
    masks = [0] * p
    for i, j in edges:
        masks[i - 1] |= 1 << (j - 1)
        masks[j - 1] |= 1 << (i - 1)
    return masks


def _nodes_of(mask):
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def is_connected(p, edges):
    masks = _masks(p, edges)
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in _nodes_of(frontier):
            nxt |= masks[v - 1]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << p) - 1


def is_bipartite(p, edges):
    adj = adjacency(p, edges)
    colour = {}
    for s in range(1, p + 1):
        if s in colour:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def is_complete(p, edges):
    return len(set(map(tuple, map(sorted, edges)))) == p * (p - 1) // 2


def _complement_components(p, edges):
    adj = adjacency(p, edges)
    left = set(range(1, p + 1))
    comps = []
    while left:
        start = min(left)
        block = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(1, p + 1):
                if w != v and w not in adj[v] and w not in block:
                    block.add(w)
                    stack.append(w)
        left -= block
        comps.append(block)
    return comps


def is_separable(p, edges):
    """Complement components are cliques and there are at least two of them."""
    adj = adjacency(p, edges)
    comps = _complement_components(p, edges)
    if len(comps) < 2:
        return False
    return all(
        w not in adj[v] for c in comps for v, w in itertools.combinations(c, 2)
    )


def _induces_pendant(adj, nodes):
    """True when the 4 nodes induce a triangle with one node hanging off it."""
    degs = sorted(sum(1 for w in nodes if w in adj[v]) for v in nodes)
    return degs == [1, 2, 2, 3]


def _induces_cycle(adj, nodes):
    """True when the nodes induce one cycle through all of them."""
    s = set(nodes)
    if any(sum(1 for w in adj[v] if w in s) != 2 for v in s):
        return False
    start = min(s)
    seen = {start}
    cur = start
    while True:
        nxt = [w for w in adj[cur] if w in s and w not in seen]
        if not nxt:
            break
        cur = nxt[0]
        seen.add(cur)
    return seen == s


def has_induced_pendant(p, edges):
    adj = adjacency(p, edges)
    return any(
        _induces_pendant(adj, sub)
        for sub in itertools.combinations(range(1, p + 1), 4)
    )


def has_induced_five_cycle(p, edges):
    adj = adjacency(p, edges)
    return any(
        _induces_cycle(adj, sub)
        for sub in itertools.combinations(range(1, p + 1), 5)
    )


def graph_class(p, edges):
    """The four-way split by definition: bipartite, separable, g7c or g7."""
    if is_bipartite(p, edges):
        return "bipartite"
    if is_separable(p, edges):
        return "separable"
    if has_induced_pendant(p, edges) or has_induced_five_cycle(p, edges):
        return "non_separable_g7c"
    return "non_separable_g7"


# -- the rate condition by brute force -------------------------------------------


def ncond_brute(p, edges, rates):
    """Exact minimum of rate(N(I)) - rate(I) over non-empty independent sets I.

    Rates are taken as exact `Fraction`s of the given floats. Returns
    (min margin, argmin as a sorted node list), ties broken by the sorted
    node list, the documented tie rule of `ncond_check`.
    """
    masks = _masks(p, edges)
    exact = [Fraction(r) for r in rates]
    denom = math.lcm(*(f.denominator for f in exact))
    lam = [f.numerator * (denom // f.denominator) for f in exact]
    best = None

    def visit(ind_mask, nbr_mask, rate_in, start):
        nonlocal best
        for v in range(start, p):
            if nbr_mask >> v & 1:
                continue
            new_ind = ind_mask | 1 << v
            new_nbr = nbr_mask | masks[v]
            r_in = rate_in + lam[v]
            r_nbr = sum(lam[k] for k in range(p) if new_nbr >> k & 1)
            key = (r_nbr - r_in, _nodes_of(new_ind))
            if best is None or key < best:
                best = key
            visit(new_ind, new_nbr, r_in, v + 1)

    visit(0, 0, 0, 0)
    return Fraction(best[0], denom), best[1]


def check_ncond(p, edges, rates, satisfied, min_margin, argmin, tol=1e-12):
    """Compare an `ncond_check` result with the brute force."""
    margin, arg = ncond_brute(p, edges, rates)
    require(
        abs(Fraction(min_margin) - margin) <= tol,
        f"min_margin {min_margin!r} differs from brute force {float(margin)!r}",
    )
    require(
        sorted(argmin) == arg,
        f"argmin {sorted(argmin)} differs from brute force {arg}",
    )
    require(
        bool(satisfied) == (margin > 0),
        f"satisfied={satisfied} but exact min margin is {float(margin)!r}",
    )


# -- classify results verified by structure ---------------------------------------


def check_classification(p, edges, kind, coloring=None, partition=None,
                         witness_kind=None, witness=None):
    """Verify a `classify` result from the structure it claims."""
    adj = adjacency(p, edges)
    if kind == "bipartite":
        require(coloring is not None and set(coloring) == set(range(1, p + 1)),
                "bipartite result without a full colouring")
        require(all(coloring[i] != coloring[j] for i, j in edges),
                "colouring is not proper")
        return
    require(not is_bipartite(p, edges), f"{kind} claimed for a bipartite graph")
    if kind == "separable":
        parts = [set(x) for x in partition]
        require(len(parts) >= 2, "separable with fewer than two parts")
        require(sorted(v for part in parts for v in part) == list(range(1, p + 1)),
                "partition does not cover the nodes exactly once")
        comps = sorted(map(sorted, _complement_components(p, edges)))
        require(sorted(map(sorted, parts)) == comps,
                "parts are not the complement's components")
        for part in parts:
            require(all(w not in adj[v] for v, w in itertools.combinations(part, 2)),
                    "a part is not independent")
        for a, b in itertools.combinations(parts, 2):
            require(all(w in adj[v] for v in a for w in b), "a cross edge is missing")
        return
    require(not is_separable(p, edges), f"{kind} claimed for a separable graph")
    nodes = list(witness)
    require(len(set(nodes)) == len(nodes) and all(1 <= v <= p for v in nodes),
            "witness nodes are not distinct nodes of the graph")
    if kind == "non_separable_g7c" and witness_kind == "pendant":
        require(len(nodes) == 4, "pendant witness needs 4 nodes")
        t1, t2, hub, tail = nodes
        want = {(t1, t2), (t1, hub), (t2, hub), (hub, tail)}
        got = {(a, b) for a, b in itertools.combinations(nodes, 2) if b in adj[a]}
        require(got == want, f"witness {nodes} does not induce the pendant in role order")
        return
    if kind == "non_separable_g7c" and witness_kind == "five_cycle":
        _check_cycle_witness(adj, nodes, 5)
        return
    require(kind == "non_separable_g7" and witness_kind == "odd_cycle",
            f"unknown class {kind}/{witness_kind}")
    _check_cycle_witness(adj, nodes, len(nodes))
    require(len(nodes) >= 7, "g7 witness shorter than 7")
    require(not has_induced_pendant(p, edges), "g7 graph has an induced pendant")
    require(not has_induced_five_cycle(p, edges), "g7 graph has an induced 5-cycle")


def _check_cycle_witness(adj, nodes, length):
    require(len(nodes) == length and length % 2 == 1, "cycle witness has the wrong length")
    for k, v in enumerate(nodes):
        require(nodes[(k + 1) % length] in adj[v], f"witness {nodes} is not a cycle in order")
    s = set(nodes)
    require(all(sum(1 for w in adj[v] if w in s) == 2 for v in nodes),
            f"witness {nodes} has a chord")


# -- exact family drifts -------------------------------------------------------------


def pendant_alpha(l1, l2, l3):
    """Empty probability of the glued-rays chain of the pendant base."""
    d1 = l3 + l2 - l1
    d2 = l3 + l1 - l2
    require(d1 > 0 and d2 > 0, "pendant base outside the geometric region")
    return 1 / (1 + l1 / d1 + l2 / d2)


def exact_drift(family, rates):
    """Fluid drift of the growing node, exact in the given rates.

    family is one of the four counterexample families, or
    "pendant-priority+leaf": the pendant-priority instance on the pendant
    with one more node hanging off the tail, whose arrivals always match
    the tail first (the AC-09 transplant).
    """
    lam = [Fraction(r) for r in rates]
    if family in ("pendant-priority", "pendant-priority+leaf"):
        l1, l2, l3, l4 = lam[:4]
        drift = l4 - l3 * pendant_alpha(l1, l2, l3)
        return drift - (lam[4] if family.endswith("+leaf") else 0)
    if family == "pendant-uniform":
        l1, l2, l3, l4 = lam
        return l4 - (l3 / 2) * (1 + pendant_alpha(l1, l2, l3 / 2))
    l1, l2, l3, l4, l5 = lam
    if family == "five-cycle-priority":
        d1, d2 = l2 + l3 - l1, l1 + l4 - l2
        a = l3 * (l1 + l4) / d2 + l4 * (l2 + l3) / d1
        return l5 - a / (1 + l1 / d1 + l2 / d2)
    require(family == "five-cycle-uniform", f"unknown family {family}")
    h3, h4 = l3 / 2, l4 / 2
    alpha = 1 / (1 + l1 / (l2 + h3 - l1) + l2 / (l1 + h4 - l2))
    r1 = l1 / (h3 + l2)
    r2 = l2 / (l1 + h4)
    return (l5 - l3 * alpha / (1 - r2) - h3 * alpha * r1 / (1 - r1)
            - l4 * alpha / (1 - r1) - h4 * alpha * r2 / (1 - r2))


def check_drift(value, exact, tol=1e-9, what="drift"):
    require(abs(Fraction(value) - exact) <= tol,
            f"{what} {value!r} differs from exact {float(exact)!r}")


# -- reducibility of the marginal chain ----------------------------------------------


def reducible_coordinate(p, edges, order, i0):
    """A node outside N[i0] that can only grow while i0 is busy, or None.

    Its neighbours all lie next to i0 and serve i0 first, so no arrival
    ever drains it and the marginal chain has no stationary law.
    """
    adj = adjacency(p, edges)
    closed = adj[i0] | {i0}
    for v in range(1, p + 1):
        if v in closed:
            continue
        if all(w in adj[i0] and order[w].index(i0) < order[w].index(v) for w in adj[v]):
            return v
    return None


# -- trace replay against the policy rule ------------------------------------------------


def replay_trace_rows(p, edges, kind, order, initial, rows):
    """Replay (t, class, matched, state) rows from `initial` under the rule.

    priority: matched is the first positive neighbour in the order;
    ml: matched is one of the longest positive neighbours;
    uniform: matched is a positive neighbour.
    matched is 0 only when no neighbour is positive. Each row's state
    differs from the previous one by exactly that move, and no two
    adjacent queues are both positive. Returns per-class arrival counts
    (index 0 unused), the event count and the final state.
    """
    adj = [sorted(a) for a in adjacency(p, edges)]
    prev = list(initial)
    arrivals = [0] * (p + 1)
    last_t = 0.0
    n = 0
    for t, c, j, state in rows:
        n += 1
        require(1 <= c <= p, f"row {n}: class {c} out of range")
        require(t >= last_t, f"row {n}: time goes back")
        last_t = t
        positive = [w for w in adj[c] if prev[w - 1] > 0]
        if j == 0:
            require(not positive, f"row {n}: class {c} queued beside positive {positive}")
            prev[c - 1] += 1
        else:
            require(j in positive, f"row {n}: matched {j} is not a positive neighbour of {c}")
            if kind == "priority":
                first = next(w for w in order[c] if prev[w - 1] > 0)
                require(j == first, f"row {n}: priority picks {first}, trace has {j}")
            elif kind == "ml":
                longest = max(prev[w - 1] for w in positive)
                require(prev[j - 1] == longest, f"row {n}: {j} is not a longest queue")
            prev[j - 1] -= 1
        require(list(state) == prev, f"row {n}: state {list(state)} is not the move's result {prev}")
        require(all(prev[a - 1] == 0 or prev[b - 1] == 0 for a, b in edges),
                f"row {n}: adjacent queues both positive")
        arrivals[c] += 1
    return arrivals, n, prev


def read_trace_csv(path, p):
    """Rows of a trace CSV as (t, class, matched, state) tuples."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        require(header == ["t", "class", "matched"] + [f"q_{i}" for i in range(1, p + 1)],
                f"unexpected trace header {header}")
        for row in reader:
            yield float(row[0]), int(row[1]), int(row[2]), [int(x) for x in row[3:]]


def check_growth(template_p, template_edges, node_types, pairs, checkpoints, queue):
    """Pairs disjoint and type-adjacent; matched = n - unmatched at every checkpoint."""
    adj = adjacency(template_p, template_edges)
    used = set()
    for u, v in pairs:
        require(u != v and u not in used and v not in used, f"pair ({u}, {v}) reuses a node")
        used.update((u, v))
        require(node_types[v] in adj[node_types[u]], f"pair ({u}, {v}) joins non-adjacent types")
    for n, matched, unmatched in checkpoints:
        require(matched == n - sum(unmatched), f"checkpoint {n}: matched != n - unmatched")
    counts = [0] * (template_p + 1)
    for k, t in enumerate(node_types):
        if k not in used:
            counts[t] += 1
    require(counts[1:] == list(queue), "unmatched counts per type disagree with the pairs")
    require(2 * len(pairs) == len(node_types) - sum(queue), "matched count disagrees with the pairs")


# -- self-test ---------------------------------------------------------------------------


def _refuses(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except CheckError:
        return True
    return False


PENDANT = (4, [(1, 2), (1, 3), (2, 3), (3, 4)])


def self_test():
    """Feed each checker one good and one corrupted output; raise if fooled."""
    p, edges = PENDANT
    order = {1: (2, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3,)}
    # Trace replay: a priority path from (0, 0, 0, 2), then one row's
    # matched class changed.
    rows = [(0.5, 3, 4, [0, 0, 0, 1]), (0.9, 1, 0, [1, 0, 0, 1]),
            (1.2, 3, 1, [0, 0, 0, 1]), (1.4, 3, 4, [0, 0, 0, 0])]
    replay_trace_rows(p, edges, "priority", order, (0, 0, 0, 2), rows)
    bad = list(rows)
    bad[2] = (1.2, 3, 4, [0, 0, 0, 1])
    require(_refuses(replay_trace_rows, p, edges, "priority", order, (0, 0, 0, 2), bad),
            "trace replay accepted a changed matched class")
    # Rate condition: the exact margin, then one off by 1e-6.
    rates = (0.1, 0.1, 0.45, 0.35)
    margin, arg = ncond_brute(p, edges, rates)
    check_ncond(p, edges, rates, True, float(margin), arg)
    require(_refuses(check_ncond, p, edges, rates, True, float(margin) + 1e-6, arg),
            "rate-condition check accepted a margin off by 1e-6")
    # Witness: the pendant in role order, then one node swapped for another.
    g = (5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    check_classification(*g, "non_separable_g7c", witness_kind="pendant", witness=(1, 2, 3, 4))
    require(_refuses(check_classification, *g, "non_separable_g7c",
                     witness_kind="pendant", witness=(1, 2, 3, 5)),
            "witness check accepted a swapped node")
    # Drift: the exact family value, then one off by 1e-6.
    exact = exact_drift("pendant-priority", (0.1, 0.1, 0.45, 0.35))
    require(abs(exact - Fraction(1, 26)) < Fraction(1, 10**15), "pendant drift is not 1/26")
    check_drift(float(exact), exact)
    require(_refuses(check_drift, float(exact) + 1e-6, exact),
            "drift check accepted a value off by 1e-6")
    # Reducibility at i0 = 3: node 5's only neighbour 4 serves 3 first, so
    # 5 can only grow; with 4 serving 5 first it drains.
    require(reducible_coordinate(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
                                 {1: (2, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3, 5), 5: (4,)},
                                 3) == 5,
            "reducibility rule missed a coordinate that can only grow")
    require(reducible_coordinate(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
                                 {1: (2, 3), 2: (1, 3), 3: (1, 2, 4), 4: (5, 3), 5: (4,)},
                                 3) is None,
            "reducibility rule flagged a coordinate that drains")
    # Growth: a valid matching, then one pair joining non-adjacent types.
    types = [1, 2, 4, 3, 4]
    check_growth(p, edges, types, [(0, 1), (2, 3)], [(5, 4, (0, 0, 0, 1))], (0, 0, 0, 1))
    require(_refuses(check_growth, p, edges, types, [(0, 4), (2, 3)],
                     [(5, 4, (0, 0, 0, 1))], (0, 0, 0, 1)),
            "growth check accepted a pair of non-adjacent types")
    return "ok"

