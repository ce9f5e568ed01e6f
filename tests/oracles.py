"""Helpers the tests share.

pendant_alpha_quotient, apply_transition, dense_row_stationary,
triplet_generator, rates_at, split, sliced_pinned_system, independent_sets,
ncond_check, find_induced_pendant, find_induced_odd_cycle, grow_with_deques,
simulate_per_event, coupled_per_event, matching_edges and matching_is_valid
restate what the package computes another way, so a test that agrees with
them checks the package by a second route. HandGluedRays and the hand tables
PENDANT_TABLE, FIVE_CYCLE_TABLE and FIVE_CYCLE_NODE3_TABLE write out the
glued-rays laws of the canonical marginal chains from the graph alone, with
no MarginalChain; stationary_closed_pendant, stationary_closed_5cycle and
fivecycle_alpha read them, and are the references the numeric solve and the
package's own closed forms are checked against. law reads a stationary law
as a dict keyed by state, and law_gap compares two laws state by state.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from matchq.errors import (
    InvalidStateError,
    NotConnectedError,
    NotConvergedError,
    RatesOutsideRegionError,
    ReducibleError,
    TooLargeError,
)
from matchq.graphs import (
    ENUMERATION_CAP,
    Graph,
    NcondResult,
    _neighborhood,
    check_rates,
    five_cycle_graph,
    is_connected,
    pendant_graph,
    rate_of_set,
)
from matchq.marginal import (
    CLOSED_FORM_FIVE_CYCLE,
    CLOSED_FORM_PENDANT,
    DEFAULT_TOL,
    DEFAULT_TRUNCATION,
    NUMERIC_TRUNCATED,
    SOLVER_CLOSED,
    SOLVER_LU,
    MarginalChain,
    StationaryDist,
    _MAX_STATES,
    _check_truncation,
)
from matchq.policies import PRIORITY, Policy, _arrivals, _decision_step
from matchq.randgraph import GrowthResult
from matchq.simulate import SimTrace, _prepare

SOLVER_POWER = "power-iteration"


def pendant_alpha_quotient(rates):
    """The pendant chain's empty-state probability written as a single
    quotient; the package writes it as a sum over the two arms."""
    l1, l2, l3, _ = rates
    return (l3 * l3 - (l1 - l2) ** 2) / (l3 * (l3 + l1 + l2))


class HandGluedRays:
    """The marginal chain on two adjacent coordinates, from hand-written
    rates.

    At most one coordinate is positive, so the chain lives on two arms
    glued at the empty state. Arm k climbs at rate up[k] and falls at rate
    down[k]; the chain is reversible, with pi(empty) = alpha and
    pi(level n on arm k) = alpha * r_k**n for the arm ratio
    r_k = up[k] / down[k]. alpha exists only while both ratios are below
    one; reading it outside that region raises RatesOutsideRegionError
    with the message `outside`.
    """

    def __init__(self, up, down, outside: str):
        self.up, self.down, self.outside = up, down, outside
        self.gaps = (down[0] - up[0], down[1] - up[1])

    @cached_property
    def ratios(self) -> tuple[float, float]:
        return (self.up[0] / self.down[0], self.up[1] / self.down[1])

    @cached_property
    def alpha(self) -> float:
        if self.gaps[0] <= 0 or self.gaps[1] <= 0:
            raise RatesOutsideRegionError(self.outside)
        return 1.0 / (1.0 + self.up[0] / self.gaps[0] + self.up[1] / self.gaps[1])

    def guard(self, arms: tuple[int, ...], share: float) -> float:
        """Expected weight with which a class-j arrival matches i0, where j
        waits on the given arms and takes `share` of a match while one of
        them is positive."""
        if len(arms) == 2:
            return share + (1.0 - share) * self.alpha
        k = arms[0]
        r = self.ratios[k]
        return self.alpha / (1.0 - self.ratios[1 - k]) + share * (self.alpha * r / (1.0 - r))

    def tail_mass(self, truncation: int) -> float:
        """Probability of the levels beyond `truncation` on either arm."""
        r1, r2 = self.ratios
        return self.alpha * (
            r1 ** (truncation + 1) / (1.0 - r1) + r2 ** (truncation + 1) / (1.0 - r2)
        )


@dataclass(frozen=True)
class HandGluedTable:
    """A node i0 of a canonical graph whose marginal chain is glued rays,
    written out by hand.

    arms gives each coordinate as (its node, the two nodes whose arrivals
    drain it), and waits maps each neighbour j of i0 to the arms j must
    find empty before a class-j arrival reaches i0. That holds under a
    priority rule in which every such j serves those arms before i0 (the
    guard then takes no share of a positive arm), and under the uniform
    rule, where j splits its arrivals evenly between i0 and a positive
    arm: its rate is halved in the down rates, and its guard takes half a
    match there.
    """

    name: str
    graph: Graph
    i0: int
    arms: tuple
    waits: dict

    def law(self, rates, uniform: bool = False) -> HandGluedRays:
        rates = check_rates(self.graph, rates)
        rate = [r / 2.0 if uniform and v in self.waits else r for v, r in enumerate(rates, 1)]
        return HandGluedRays(
            tuple(rates[v - 1] for v, _ in self.arms),
            tuple(rate[a - 1] + rate[b - 1] for _, (a, b) in self.arms),
            self.outside,
        )

    @cached_property
    def outside(self) -> str:
        conditions = (f"l{v} < l{a} + l{b}" for v, (a, b) in self.arms)
        return f"{self.name} closed form needs " + " and ".join(conditions)

    def serves_first(self, policy: Policy) -> bool:
        """Whether every neighbour of i0 serves the arms it waits on first."""
        if policy.kind != PRIORITY:
            return False
        return all(
            policy.order[j].index(self.arms[k][0]) < policy.order[j].index(self.i0)
            for j, arms in self.waits.items()
            for k in arms
        )

    def service(self, rates) -> tuple[float, float]:
        """(c, alpha) with i0's drift rate(i0) - c * alpha under priority,
        where each neighbour j waits on one arm: c sums rate(j) * D / (D - u)
        of the other arm."""
        law = self.law(rates)
        alpha = law.alpha
        c = sum(
            rates[j - 1] * law.down[1 - k] / law.gaps[1 - k]
            for j, (k,) in self.waits.items()
        )
        return c, alpha


# The canonical pendant graph at its tail, and the 5-cycle at its apex and
# at node 3.
PENDANT_TABLE = HandGluedTable(
    "pendant", pendant_graph(), i0=4,
    arms=((1, (2, 3)), (2, (1, 3))), waits={3: (0, 1)},
)
FIVE_CYCLE_TABLE = HandGluedTable(
    "5-cycle", five_cycle_graph(), i0=5,
    arms=((1, (2, 3)), (2, (1, 4))), waits={3: (0,), 4: (1,)},
)
FIVE_CYCLE_NODE3_TABLE = HandGluedTable(
    "5-cycle node-3", five_cycle_graph(), i0=3,
    arms=((2, (1, 4)), (4, (2, 5))), waits={1: (0,), 5: (1,)},
)


def fivecycle_alpha(rates):
    """Empty-state probability of the 5-cycle marginal chain at the apex."""
    return FIVE_CYCLE_TABLE.law(rates).alpha


def glued_rays_stationary(law, truncation: int, method: str):
    """alpha, and a glued-rays law (HandGluedRays) on the empty state
    and levels 1..truncation of each arm: level n of arm k has probability
    alpha * r_k**n."""
    _check_truncation(truncation)
    if 2 * truncation + 1 > _MAX_STATES:
        raise TooLargeError(f"truncated marginal space exceeds {_MAX_STATES} states")
    alpha, (r1, r2) = law.alpha, law.ratios
    probs = [alpha]
    for i in range(1, truncation + 1):
        probs.append(alpha * r1**i)
    for j in range(1, truncation + 1):
        probs.append(alpha * r2**j)
    # (0, 0), then (i, 0) and (0, j) for i, j = 1..truncation
    arm = np.arange(1, truncation + 1)
    flat = np.zeros_like(arm)
    states = np.vstack([[0, 0], np.column_stack([arm, flat]), np.column_stack([flat, arm])])
    return alpha, StationaryDist(
        state_array=states,
        probs=np.asarray(probs, dtype=float),
        tail_mass=law.tail_mass(truncation),
        method=method,
        solver=SOLVER_CLOSED,
        residual=None,
    )


def stationary_closed_pendant(rates, truncation: int = DEFAULT_TRUNCATION):
    """Geometric stationary law for the pendant marginal chain at the tail.

    Coordinates are the two triangle base queues. The arms have ratios
    l1/(l3+l2) and l2/(l3+l1); both must be below one.
    """
    return glued_rays_stationary(PENDANT_TABLE.law(rates), truncation, CLOSED_FORM_PENDANT)


def stationary_closed_5cycle(rates, truncation: int = DEFAULT_TRUNCATION):
    """Geometric stationary law for the 5-cycle marginal chain at the apex.

    Coordinates are the two base queues; arm ratios l1/(l3+l2) and
    l2/(l1+l4).
    """
    return glued_rays_stationary(FIVE_CYCLE_TABLE.law(rates), truncation, CLOSED_FORM_FIVE_CYCLE)


def apply_transition(state, arriving, decision):
    """Next queue vector: enqueue the arrival or remove the matched item."""
    out = list(int(q) for q in state)
    if decision is None:
        out[arriving - 1] += 1
    else:
        if out[decision - 1] <= 0:
            raise InvalidStateError(
                f"cannot match against empty queue of class {decision}"
            )
        out[decision - 1] -= 1
    return tuple(out)


def law(dist):
    """A stationary law as {state tuple: probability}, from its state array
    and probability vector."""
    return dict(zip(map(tuple, dist.state_array.tolist()), dist.probs.tolist()))


def law_gap(numeric, closed):
    """Largest |numeric - closed| probability over the numeric law's states;
    a state the closed law lacks counts as probability 0 there."""
    closed = law(closed)
    return max(abs(p - closed.get(s, 0.0)) for s, p in law(numeric).items())


def dense_row_stationary(
    chain: MarginalChain, truncation: int = DEFAULT_TRUNCATION
) -> StationaryDist:
    """stationary_numeric by the dense-row route: the same assembly and
    gates, but the last balance equation is replaced by a row of ones for
    sum(pi) = 1, solved with SuperLU's default ordering. It keeps every
    state's equation but that one, where stationary_numeric drops the
    empty state's, so the two agree up to the rounding in Q's row sums.

    Stationary law of the chain truncated to a box of side `truncation`.

    Transitions leaving the box are suppressed, which keeps the generator
    conservative. Solves the global balance equations by a direct sparse
    factorization with one balance row replaced by normalization; falls
    back to power iteration on the uniformized kernel if the direct solve
    misbehaves. The reported tail mass is the probability of the boundary
    layer (some coordinate equal to the truncation level).
    """
    _check_truncation(truncation)
    states = chain.enumerate_states(truncation)
    n = len(states)
    if n == 1:
        return StationaryDist(
            state_array=states,
            probs=np.array([1.0]),
            tail_mass=0.0,
            method=NUMERIC_TRUNCATED,
            solver=SOLVER_CLOSED,
            residual=0.0,
        )
    q, rows, cols, vals, diag = triplet_generator(chain, states, truncation)
    every = np.arange(n)

    ncomp, _ = connected_components(q, directed=True, connection="strong")
    if ncomp != 1:
        raise ReducibleError(
            f"truncated chain splits into {ncomp} communicating classes"
        )

    # Balance equations pi Q = 0 as Q^T pi = 0, with the last one replaced
    # by sum(pi) = 1.
    keep = cols != n - 1
    a = sp.coo_matrix(
        (
            np.concatenate([vals[keep], diag[:-1], np.ones(n)]),
            (
                np.concatenate([cols[keep], every[:-1], np.full(n, n - 1)]),
                np.concatenate([rows[keep], every[:-1], every]),
            ),
        ),
        shape=(n, n),
    ).tocsr()
    b = np.zeros(n)
    b[n - 1] = 1.0
    solver = SOLVER_LU
    with np.errstate(all="ignore"):
        pi = spsolve(a, b)
    if not np.all(np.isfinite(pi)):
        pi = _power_iteration(q)
        solver = SOLVER_POWER
    pi = np.where(np.abs(pi) < 1e-300, 0.0, pi)
    if pi.min() < -1e-9:
        raise NotConvergedError(f"negative mass {pi.min():.3e} in stationary solve")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ q)))
    if residual > max(DEFAULT_TOL, 1e3 * np.finfo(float).eps * float(np.abs(q).max())):
        raise NotConvergedError(f"balance residual {residual:.3e} above {DEFAULT_TOL:.1e}")
    boundary = (states >= truncation).any(axis=1).astype(float)
    tail = float(pi @ boundary)
    return StationaryDist(
        state_array=states,
        probs=pi,
        tail_mass=tail,
        method=NUMERIC_TRUNCATED,
        solver=solver,
        residual=residual,
    )


def split(chain: MarginalChain, pos: np.ndarray, target: int):
    """(j, divisor) for each class j in the target's split, where a class-j
    arrival reaches the target with weight 1 / divisor at the states whose
    positive coordinates are the rows of `pos`: one numpy pass per class
    over every state, where MarginalChain.split works once per support
    pattern in Python floats."""
    for j, mask, busy, step in chain._splits[target]:
        coords = [c for c in range(pos.shape[1]) if mask >> c & 1]
        yield j, busy + np.where(pos[:, coords], step, 0.0).sum(axis=1)


def rates_at(chain: MarginalChain, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Up and down rates of every coordinate at every state, computed state
    by state with numpy, where MarginalChain.pattern_rates computes them
    once per support pattern.

    `states` is an (n, m) int array; both results are (n, m) float arrays.
    A down rate adds the classes of the coordinate's split in neighbor
    order.
    """
    index = {v: k for k, v in enumerate(chain.s_nodes)}
    adjacency = np.zeros((len(index), len(index)), dtype=np.int64)
    for k, v in enumerate(chain.s_nodes):
        adjacency[k, [index[w] for w in chain.graph.neighbors(v) if w in index]] = 1
    coord_rates = np.array([chain.rates[v - 1] for v in chain.s_nodes], dtype=float)
    pos = states > 0
    blocked = pos.astype(np.int64) @ adjacency > 0
    up = np.where(blocked, 0.0, coord_rates)
    down = np.zeros(states.shape)
    for coord, v in enumerate(chain.s_nodes):
        rows = np.flatnonzero(pos[:, coord])
        total = np.zeros(len(rows))
        for j, divisor in split(chain, pos[rows], v):
            total += chain.rates[j - 1] / divisor
        down[rows, coord] = total
    return up, down


def triplet_generator(chain: MarginalChain, states: np.ndarray, truncation: int):
    """The generator Q of the truncated chain on `states`, assembled from
    COO triplets and converted to CSR, with the triplets: (q, rows, cols,
    vals, diag), the off-diagonal entries and the diagonal. stationary_numeric
    writes Q's CSR arrays directly in column order."""
    n, m = states.shape
    # Mixed-radix codes: the states are sorted lexicographically, so their
    # codes are sorted and a neighbor is found by binary search. Python
    # integers take over when the codes would overflow int64.
    radix = truncation + 1
    wide = radix**m > np.iinfo(np.int64).max
    place = np.array([radix ** (m - 1 - k) for k in range(m)],
                     dtype=object if wide else np.int64)
    codes = states.astype(place.dtype) @ place
    up, down = rates_at(chain, states)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    # Per state, the diagonal subtracts the rates in coordinate order, up
    # before down; rows without a move subtract nothing.
    for k in range(m):
        for delta, rate in ((+1, up[:, k]), (-1, down[:, k])):
            src = np.flatnonzero(rate > 0.0)
            if delta > 0:
                src = src[states[src, k] < truncation]  # suppressed: leaves the box
            rows.append(src)
            cols.append(np.searchsorted(codes, codes[src] + delta * place[k]))
            vals.append(rate[src])
            diag[src] -= rate[src]
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    every = np.arange(n)
    q = sp.coo_matrix(
        (np.concatenate([vals, diag]), (np.concatenate([rows, every]),
                                        np.concatenate([cols, every]))),
        shape=(n, n),
    ).tocsr()
    return q, rows, cols, vals, diag


def sliced_pinned_system(q):
    """The system stationary_numeric solves, sliced from Q: Q^T[1:, 1:] as
    CSC and the right-hand side -Q[0, 1:]."""
    return q[1:, 1:].T.tocsc(), -q[0, 1:].toarray().ravel()


def _power_iteration(q: sp.csr_matrix, max_iter: int = 2_000_000):
    """The stationary law of the uniformized kernel I + Q / lam, iterated
    until successive laws agree to DEFAULT_TOL / lam."""
    n = q.shape[0]
    lam = 1.05 * float(np.abs(q.diagonal()).max()) + 1e-12
    p = sp.eye(n) + q / lam
    pt = p.T.tocsr()
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = pt @ pi
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) < DEFAULT_TOL / lam:
            return nxt
        pi = nxt
    raise NotConvergedError("power iteration did not converge")


# -- the graph layer's exponential searches, written the direct way ------------


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


def independent_set_rates(
    graph: Graph, rates: Sequence[float]
) -> Iterator[tuple[frozenset[int], float, float]]:
    """(set, rate into the set, rate into its neighborhood) for every
    independent set, in the order of `independent_sets`. Checks nothing:
    every caller validates its own inputs."""
    adjacency = graph.adjacency
    for ind in independent_sets(graph):
        yield ind, rate_of_set(rates, ind), rate_of_set(rates, _neighborhood(adjacency, ind))


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


def find_induced_pendant(graph: Graph) -> Optional[tuple[int, int, int, int]]:
    """First 4-subset (lexicographic) inducing a triangle plus one hanging node,
    ordered by role: (t1, t2, hub, tail) with t1 < t2."""
    for subset in combinations(graph.nodes, 4):
        induced = [e for e in graph.edges if e[0] in subset and e[1] in subset]
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
    """Cycle order of `subset` if it induces exactly one cycle, else None:
    from its smallest node towards the smaller of that node's neighbours."""
    inside = set(subset)
    if any(sum(w in inside for w in graph.neighbors(v)) != 2 for v in subset):
        return None
    # every degree is 2, so the subset is a union of cycles; it is one
    # cycle when the walk from its smallest node covers it
    start = min(subset)
    order = [start, min(w for w in graph.neighbors(start) if w in inside)]
    while True:
        prev, cur = order[-2], order[-1]
        nxt = next(w for w in graph.neighbors(cur) if w in inside and w != prev)
        if nxt == start:
            return order if len(order) == len(subset) else None
        order.append(nxt)


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


# -- the growth matching, read one node at a time -------------------------------


def matching_edges(result) -> list[tuple[int, int]]:
    """Matched pairs of a GrowthResult as (smaller id, larger id), 0-based ids."""
    out = []
    for u in range(result.n_nodes):
        v = int(result.partner[u])
        if v > u:
            out.append((u, v))
    return out


def matching_is_valid(result) -> bool:
    """Check the pairing is an involution on matched nodes along template edges."""
    partner = result.partner
    types = result.node_types
    n = result.n_nodes
    matched_ids = np.nonzero(partner >= 0)[0]
    if len(matched_ids) != result.matched_count:
        return False
    if np.any(partner[matched_ids] == matched_ids):
        return False
    if not np.all(partner[partner[matched_ids]] == matched_ids):
        return False
    p = result.template.node_count
    adj = np.zeros((p + 1, p + 1), dtype=bool)
    for i, j in result.template.edges:
        adj[i, j] = adj[j, i] = True
    if len(matched_ids) and not np.all(
        adj[types[matched_ids], types[partner[matched_ids]]]
    ):
        return False
    counts = np.bincount(types[partner < 0], minlength=p + 1)[1:]
    if tuple(int(c) for c in counts) != result.queue:
        return False
    return result.matched_count == n - int(sum(result.queue))


def grow_with_deques(template, mu, policy, n_nodes, seed, checkpoints=None):
    """grow_and_match pairing node by node inside its loop: per-type FIFO
    deques of unmatched ids, and the checkpoints taken as the run passes
    them. Takes only valid inputs."""
    p = template.node_count
    mu = tuple(float(m) for m in mu)
    if checkpoints is None:
        step = max(1, n_nodes // 100)
        checkpoints = list(range(step, n_nodes + 1, step))
        if n_nodes and (not checkpoints or checkpoints[-1] != n_nodes):
            checkpoints.append(n_nodes)
    cps = set(int(c) for c in checkpoints if 0 < int(c) <= n_nodes)
    decide, _ = _decision_step(policy, template)
    types = np.zeros(n_nodes, dtype=np.int16)
    partner = np.full(n_nodes, -1, dtype=np.int64)
    unmatched = [deque() for _ in range(p + 1)]
    q = [0] * (p + 1)
    matched = 0
    records = []
    n = 0
    for _, cls, us in _arrivals(mu, seed, 1, policy.kind != PRIORITY, max_events=n_nodes):
        types[n : n + len(cls)] = cls
        for c, u in zip(cls.tolist(), us):
            j = 0 if q[c] else decide(q, c, u)
            if j:
                v = unmatched[j].popleft()
                q[j] -= 1
                partner[v] = n
                partner[n] = v
                matched += 2
            else:
                unmatched[c].append(n)
                q[c] += 1
            n += 1
            if n in cps:
                records.append((n, matched, tuple(q[1:])))
    return GrowthResult(
        template=template, mu=mu, seed=seed, node_types=types, partner=partner,
        matched_count=matched, queue=tuple(q[1:]), checkpoints=records,
    )


# -- the sample path, recorded one event at a time ----------------------------------


def simulate_per_event(graph, rates, policy, config) -> SimTrace:
    """simulate with its bookkeeping inside the event loop: the count of
    nonempty queues, the first-zero and empty times, and each recorded row
    are updated event by event as the run passes them."""
    rates, state, horizon = _prepare(graph, rates, policy, config)
    p = graph.node_count
    t_end = horizon * config.scale
    decide, _ = _decision_step(policy, graph)

    q = [0] + list(state)
    nnz = sum(1 for v in state if v > 0)
    first_zero: list = [None] * (p + 1)
    for i in range(1, p + 1):
        if q[i] == 0:
            first_zero[i] = 0.0
    empty_time = 0.0 if nnz == 0 else None
    arrivals = np.zeros(p + 1, dtype=np.int64)

    stride = config.trace_stride
    stop_node = config.stop_node
    stop_empty = config.stop_when_empty
    max_events = config.max_events

    rec_t: list[float] = []
    rec_c: list[int] = []
    rec_m: list[int] = []
    rec_s: list[int] = []      # the whole of q per snapshot, index 0 included

    t = 0.0
    events = 0
    stop = (stop_node is not None and q[stop_node] == 0) or (stop_empty and nnz == 0)
    chunks = () if stop else _arrivals(
        rates, config.seed, 1, policy.kind != PRIORITY, t_end, max_events
    )
    for times, cls, us in chunks:
        start = events
        for t, c, u in zip(times.tolist(), cls.tolist(), us):
            j = 0 if q[c] else decide(q, c, u)
            if j:
                v = q[j] - 1
                q[j] = v
                if v == 0:
                    nnz -= 1
                    if first_zero[j] is None:
                        first_zero[j] = t
                    if nnz == 0 and empty_time is None:
                        empty_time = t
                    stop = j == stop_node or (stop_empty and nnz == 0)
            else:
                if q[c] == 0:
                    nnz += 1
                q[c] += 1
            events += 1
            if stride and events % stride == 0:
                rec_t.append(t)
                rec_c.append(c)
                rec_m.append(j)
                rec_s.extend(q)
            if stop:
                break
        arrivals += np.bincount(cls[: events - start], minlength=p + 1)
        if stop:
            break
    if not stop and (max_events is None or events < max_events):
        t = t_end  # the stream ended at the horizon, not at the event cap

    fz = np.array(
        [math.nan if v is None else v for v in first_zero[1:]], dtype=float
    )
    return SimTrace(
        node_count=p,
        scale=config.scale,
        seed=config.seed,
        horizon=horizon,
        times=np.asarray(rec_t, dtype=float),
        classes=np.asarray(rec_c, dtype=np.int64),
        matched=np.asarray(rec_m, dtype=np.int64),
        states=np.ascontiguousarray(
            np.fromiter(rec_s, dtype=np.int64, count=len(rec_s)).reshape(-1, p + 1)[:, 1:]
        ),
        final_state=tuple(q[1:]),
        end_time=t,
        n_events=events,
        arrivals=arrivals,
        first_zero=fz,
        empty_time=math.nan if empty_time is None else empty_time,
    )


# -- the coupled replicas, stepped one event at a time to the end ------------------


def coupled_per_event(rates, config, randomized, steps, qa, qb, kept):
    """Drive two replicas qa and qb (lists, index 0 unused) on one stream.

    steps holds each replica's (decide, choices). For randomized kinds the
    replicas' uniforms come from independent streams and are then glued:
    when each one's pick is among the other's choices, replica b copies
    replica a's pick, which keeps each replica's own decision law. The gap
    is the 1-norm distance over the kept coordinates, and the excess is the
    gap less the arrivals at nodes outside them. Returns (events, removed
    arrivals, the initial gap, largest excess or -inf without events,
    events whose excess is above the initial gap).
    """
    (decide_a, choices_a), (decide_b, choices_b) = steps
    in_kept = [False] + [i in kept for i in range(1, len(qa))]
    bound = gap = sum(abs(qa[i] - qb[i]) for i in kept)
    removed = 0
    worst = -math.inf
    violations = 0
    events = 0
    for _, cls, uas, ubs in _arrivals(
        rates, config.seed, 2, randomized, config.horizon * config.scale, config.max_events
    ):
        for c, ua, ub in zip(cls.tolist(), uas, ubs):
            ja = 0 if qa[c] else decide_a(qa, c, ua)
            jb = 0 if qb[c] else decide_b(qb, c, ub)
            if (
                randomized and ja and jb and ja != jb
                and ja in choices_b(qb, c) and jb in choices_a(qa, c)
            ):
                jb = ja
            j = ja or c
            old = qa[j]
            new = old - 1 if ja else old + 1
            qa[j] = new
            if in_kept[j]:
                gap += abs(new - qb[j]) - abs(old - qb[j])
            j = jb or c
            old = qb[j]
            new = old - 1 if jb else old + 1
            qb[j] = new
            if in_kept[j]:
                gap += abs(new - qa[j]) - abs(old - qa[j])
            if not in_kept[c]:
                removed += 1
            excess = gap - removed
            if excess > worst:
                worst = excess
            if excess > bound:
                violations += 1
        del uas, ubs
        events += len(cls)
    return events, removed, bound, worst, violations
