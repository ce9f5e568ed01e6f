"""Marginal chains and fluid drifts.

Fix a node i0 and condition on its queue staying positive. The queues of
i0's neighbors are then pinned at zero, and the remaining coordinates
evolve as an autonomous CTMC (the marginal chain). Its stationary law
determines the fluid drift of node i0: the arrival rate into i0 minus,
for each neighbor j, the rate of class-j arrivals that get matched with
i0. Under a priority policy that happens exactly when every class j
serves before i0 is empty (a "guard" event); under the uniform policy
class j splits its rate evenly among i0 and the available others. The
same rule drains the chain's own coordinates, so it is written once, as
a per-node table (`MarginalChain._splits`) that both the guard
probabilities and the chain's down-rates read.

For the canonical pendant graph and 5-cycle the marginal chain lives on
two glued rays and is reversible, so the stationary law is an explicit
pair of geometric arms. Everything else goes through a truncated sparse
solve of the balance equations, assembled over an (n, m) int array of
states with rates computed for all states at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from .errors import (
    NotConvergedError,
    RatesOutsideRegionError,
    ReducibleError,
    TooLargeError,
    UnsupportedPolicyError,
    ValidationError,
)
from .graphs import (
    FIVE_CYCLE_EDGES,
    PENDANT_EDGES,
    Graph,
    check_rates,
)
from .policies import PRIORITY, UNIFORM, Policy, priority_set, validate_policy

CLOSED_FORM_PENDANT = "closed-form-pendant"
CLOSED_FORM_FIVE_CYCLE = "closed-form-five-cycle"
NUMERIC_TRUNCATED = "numeric-truncated"

SOLVER_LU = "lu"
SOLVER_POWER = "power-iteration"
SOLVER_CLOSED = "closed-form"

DEFAULT_TRUNCATION = 200
DEFAULT_TOL = 1e-12
_MAX_STATES = 500_000


# -- closed-form constants ----------------------------------------------------


def pendant_alpha(rates: Sequence[float]) -> float:
    """Empty-state probability of the pendant marginal chain (sum form)."""
    l1, l2, l3, _ = rates
    d1 = l3 + l2 - l1
    d2 = l3 + l1 - l2
    if d1 <= 0 or d2 <= 0:
        raise RatesOutsideRegionError(
            "pendant closed form needs l1 < l2 + l3 and l2 < l1 + l3"
        )
    return 1.0 / (1.0 + l1 / d1 + l2 / d2)


def pendant_alpha_quotient(rates: Sequence[float]) -> float:
    """The same constant written as a single quotient; used for cross-checks."""
    l1, l2, l3, _ = rates
    return (l3 * l3 - (l1 - l2) ** 2) / (l3 * (l3 + l1 + l2))


def fivecycle_alpha(rates: Sequence[float]) -> float:
    """Empty-state probability of the 5-cycle marginal chain at the apex."""
    l1, l2, l3, l4, _ = rates
    d1 = l2 + l3 - l1
    d2 = l1 + l4 - l2
    if d1 <= 0 or d2 <= 0:
        raise RatesOutsideRegionError(
            "5-cycle closed form needs l1 < l2 + l3 and l2 < l1 + l4"
        )
    return 1.0 / (1.0 + l1 / d1 + l2 / d2)


def fivecycle_a(rates: Sequence[float]) -> float:
    """Aggregate service weight multiplying the apex empty probability."""
    l1, l2, l3, l4, _ = rates
    d2 = l1 + l4 - l2
    d1 = l2 + l3 - l1
    if d1 <= 0 or d2 <= 0:
        raise RatesOutsideRegionError("ratios outside the geometric region")
    return l3 * (l1 + l4) / d2 + l4 * (l2 + l3) / d1


# -- closed-form drifts for the four analyzed families ------------------------


def pendant_priority_drift(rates: Sequence[float]) -> float:
    """Fluid slope of the tail queue under the destabilizing priority rule."""
    l3, l4 = rates[2], rates[3]
    return l4 - pendant_alpha(rates) * l3


def pendant_uniform_drift(rates: Sequence[float]) -> float:
    """Fluid slope of the tail queue under the uniform rule.

    The uniform marginal chain equals the priority one with the hub rate
    halved, so the constant is evaluated at the substituted rates.
    """
    l1, l2, l3, l4 = rates
    a = pendant_alpha((l1, l2, l3 / 2.0, l4))
    return l4 - (l3 / 2.0) * (1.0 + a)


def fivecycle_priority_drift(rates: Sequence[float]) -> float:
    """Fluid slope of the apex queue under the destabilizing priority rule."""
    return rates[4] - fivecycle_a(rates) * fivecycle_alpha(rates)


def fivecycle_uniform_drift(rates: Sequence[float]) -> float:
    """Fluid slope of the apex queue under the uniform rule."""
    l1, l2, l3, l4, l5 = rates
    sub = (l1, l2, l3 / 2.0, l4 / 2.0, l5)
    a = fivecycle_alpha(sub)
    r1 = l1 / (l3 / 2.0 + l2)
    r2 = l2 / (l1 + l4 / 2.0)
    p_x1_zero = a / (1.0 - r2)
    p_x1_pos = a * r1 / (1.0 - r1)
    p_x2_zero = a / (1.0 - r1)
    p_x2_pos = a * r2 / (1.0 - r2)
    return (
        l5
        - l3 * p_x1_zero
        - (l3 / 2.0) * p_x1_pos
        - l4 * p_x2_zero
        - (l4 / 2.0) * p_x2_pos
    )


# -- stationary distributions --------------------------------------------------


@dataclass(frozen=True)
class StationaryDist:
    """Probabilities over a finite (truncated) list of marginal states.

    The states are the rows of `state_array`, an (n, m) int array; `states`
    lists them as tuples. `solver` says how the law was found: "lu" (sparse
    direct solve), "power-iteration" (its fallback) or "closed-form".
    `residual` is max |pi Q| over the balance equations of a numeric solve,
    and None for a geometric closed form.
    """

    state_array: np.ndarray
    probs: np.ndarray
    tail_mass: float
    method: str
    solver: str
    residual: Optional[float]

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.state_array.tolist()))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {s: i for i, s in enumerate(self.states)}

    def prob(self, state: tuple[int, ...]) -> float:
        i = self.index.get(tuple(state))
        return 0.0 if i is None else float(self.probs[i])

    def mass(self, predicate: Callable[[tuple[int, ...]], bool]) -> float:
        return float(
            sum(p for s, p in zip(self.states, self.probs) if predicate(s))
        )


def _check_truncation(truncation: int) -> None:
    if truncation < 1:
        raise ValidationError(f"truncation must be at least 1, got {truncation}")


def _glued_rays(
    alpha: float, r1: float, r2: float, truncation: int, method: str
) -> StationaryDist:
    probs = [alpha]
    for i in range(1, truncation + 1):
        probs.append(alpha * r1**i)
    for j in range(1, truncation + 1):
        probs.append(alpha * r2**j)
    tail = alpha * (
        r1 ** (truncation + 1) / (1.0 - r1) + r2 ** (truncation + 1) / (1.0 - r2)
    )
    # (0, 0), then (i, 0) and (0, j) for i, j = 1..truncation
    arm = np.arange(1, truncation + 1)
    flat = np.zeros_like(arm)
    states = np.vstack([[0, 0], np.column_stack([arm, flat]), np.column_stack([flat, arm])])
    return StationaryDist(
        state_array=states,
        probs=np.asarray(probs, dtype=float),
        tail_mass=tail,
        method=method,
        solver=SOLVER_CLOSED,
        residual=None,
    )


def stationary_closed_pendant(
    rates: Sequence[float], truncation: int = DEFAULT_TRUNCATION
) -> tuple[float, StationaryDist]:
    """Geometric stationary law for the pendant marginal chain at the tail.

    Coordinates are the two triangle base queues. The arms have ratios
    l1/(l3+l2) and l2/(l3+l1); both must be below one.
    """
    if len(rates) != 4:
        raise ValidationError("pendant closed form needs 4 rates")
    _check_truncation(truncation)
    l1, l2, l3, _ = rates
    alpha = pendant_alpha(rates)
    r1 = l1 / (l3 + l2)
    r2 = l2 / (l3 + l1)
    return alpha, _glued_rays(alpha, r1, r2, truncation, CLOSED_FORM_PENDANT)


def stationary_closed_5cycle(
    rates: Sequence[float], truncation: int = DEFAULT_TRUNCATION
) -> tuple[float, StationaryDist]:
    """Geometric stationary law for the 5-cycle marginal chain at the apex.

    Coordinates are the two base queues; arm ratios l1/(l3+l2) and
    l2/(l1+l4).
    """
    if len(rates) != 5:
        raise ValidationError("5-cycle closed form needs 5 rates")
    _check_truncation(truncation)
    l1, l2, l3, l4, _ = rates
    alpha = fivecycle_alpha(rates)
    r1 = l1 / (l3 + l2)
    r2 = l2 / (l1 + l4)
    return alpha, _glued_rays(alpha, r1, r2, truncation, CLOSED_FORM_FIVE_CYCLE)


# -- the general marginal chain -------------------------------------------------


@dataclass(frozen=True)
class MarginalChain:
    """Rate oracle for the queue dynamics seen while node i0 stays busy.

    Coordinates are the nodes outside i0 and its neighborhood, in
    ascending label order. A coordinate can grow only while all of its
    in-chain neighbors are empty; it shrinks at the combined rate of the
    neighboring classes whose arrivals it would absorb.
    """

    graph: Graph
    rates: tuple[float, ...]
    policy: Policy
    i0: int
    s_nodes: tuple[int, ...]

    @cached_property
    def _index(self) -> dict[int, int]:
        return {v: k for k, v in enumerate(self.s_nodes)}

    @cached_property
    def _s_adjacent(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for v in self.s_nodes:
            out.append(
                tuple(self._index[w] for w in self.graph.neighbors(v) if w in self._index)
            )
        return tuple(out)

    @cached_property
    def _splits(self) -> dict[int, tuple]:
        """The class split, per target node: every coordinate, then i0.

        An entry (j, coords, busy, step) says that a class-j arrival matches
        the target with weight 1 / (busy + step for each positive coordinate
        in coords). Priority: coords are those j serves first, busy is 1 and
        step infinite, so the weight is 1 or 0; j is left out when i0 is
        ahead. Uniform: coords are j's in-chain neighbors, busy counts j's
        always-busy neighbors (i0) and step is 1.
        """
        priority = self.policy.kind == PRIORITY
        out = {}
        for target in self.s_nodes + (self.i0,):
            entries = []
            for j in self.graph.neighbors(target):
                if priority:
                    nodes = priority_set(self.policy, self.graph, j, target)
                    if self.i0 in nodes:
                        continue
                    busy, step = 1.0, math.inf
                else:
                    nodes = self.graph.neighbors(j)
                    busy, step = float(self.graph.has_edge(j, self.i0)), 1.0
                coords = [self._index[k] for k in nodes if k in self._index]
                entries.append((j, coords, busy, step))
            out[target] = tuple(entries)
        return out

    def split(self, pos: np.ndarray, target: int):
        """(j, divisor) for each class j in the target's split, where a
        class-j arrival reaches the target with weight 1 / divisor at the
        states whose positive coordinates are the rows of `pos`."""
        for j, coords, busy, step in self._splits[target]:
            yield j, busy + np.where(pos[:, coords], step, 0.0).sum(axis=1)

    def is_valid_state(self, x: Sequence[int]) -> bool:
        if len(x) != len(self.s_nodes) or any(v < 0 for v in x):
            return False
        return all(
            x[k] == 0 or all(x[m] == 0 for m in self._s_adjacent[k])
            for k in range(len(x))
        )

    @cached_property
    def _coord_rates(self) -> np.ndarray:
        return np.array([self.rates[v - 1] for v in self.s_nodes], dtype=float)

    @cached_property
    def _adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix among the coordinates."""
        m = len(self.s_nodes)
        adj = np.zeros((m, m), dtype=np.int64)
        for k, nbrs in enumerate(self._s_adjacent):
            adj[k, list(nbrs)] = 1
        return adj

    def rates_at(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Up and down rates of every coordinate at every state.

        `states` is an (n, m) int array; both results are (n, m) float
        arrays. A down rate adds the classes of the coordinate's split in
        neighbor order, so it is the same float for one state or many.
        """
        pos = states > 0
        blocked = pos.astype(np.int64) @ self._adjacency > 0
        up = np.where(blocked, 0.0, self._coord_rates)
        down = np.zeros(states.shape)
        for coord, v in enumerate(self.s_nodes):
            rows = np.flatnonzero(pos[:, coord])
            total = np.zeros(len(rows))
            for j, divisor in self.split(pos[rows], v):
                total += self.rates[j - 1] / divisor
            down[rows, coord] = total
        return up, down

    def transitions(self, x: tuple[int, ...]):
        """All positive-rate moves from x as (coordinate, delta, rate)."""
        up, down = self.rates_at(np.array([x], dtype=np.int64).reshape(1, -1))
        out = []
        for coord in range(len(self.s_nodes)):
            if up[0, coord] > 0.0:
                out.append((coord, +1, float(up[0, coord])))
            if down[0, coord] > 0.0:
                out.append((coord, -1, float(down[0, coord])))
        return out

    def enumerate_states(
        self, truncation: int, max_states: int = _MAX_STATES
    ) -> np.ndarray:
        """All states with every coordinate at most `truncation`, as the rows
        of an (n, m) int array in lexicographic order.

        Built one coordinate at a time: a prefix extends by 0..truncation
        when no earlier neighbor of the new coordinate is positive, else by
        0 alone, so the rows stay sorted.
        """
        states = np.zeros((1, 0), dtype=np.int64)
        for k, nbrs in enumerate(self._s_adjacent):
            earlier = [j for j in nbrs if j < k]
            counts = np.where((states[:, earlier] > 0).any(axis=1), 1, truncation + 1)
            n = int(counts.sum())
            if n > max_states:
                raise TooLargeError(
                    f"truncated marginal space exceeds {max_states} states"
                )
            offsets = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
            states = np.column_stack([np.repeat(states, counts, axis=0), offsets])
        return states


def build_marginal(
    graph: Graph, rates, policy: Policy, i0: int
) -> MarginalChain:
    """Construct the marginal chain of node i0; only priority and uniform
    policies have one."""
    rates = check_rates(graph, rates)
    validate_policy(policy, graph)
    if policy.kind not in (PRIORITY, UNIFORM):
        raise UnsupportedPolicyError(
            f"no marginal chain for policy kind {policy.kind!r}"
        )
    if not 1 <= i0 <= graph.node_count:
        raise ValidationError(f"node {i0} out of range")
    excluded = {i0} | set(graph.neighbors(i0))
    s_nodes = tuple(v for v in graph.nodes if v not in excluded)
    return MarginalChain(
        graph=graph, rates=rates, policy=policy, i0=i0, s_nodes=s_nodes
    )


def stationary_numeric(
    chain: MarginalChain, truncation: int = DEFAULT_TRUNCATION
) -> StationaryDist:
    """Stationary law of the chain truncated to a box of side `truncation`.

    Transitions leaving the box are suppressed, which keeps the generator
    conservative. Solves the global balance equations by a direct sparse
    factorization with one balance row replaced by normalization; falls
    back to power iteration on the uniformized kernel if the direct solve
    misbehaves. The reported tail mass is the probability of the boundary
    layer (some coordinate equal to the truncation level).
    """
    _check_truncation(truncation)
    states = chain.enumerate_states(truncation)
    n, m = states.shape
    if n == 1:
        return StationaryDist(
            state_array=states,
            probs=np.array([1.0]),
            tail_mass=0.0,
            method=NUMERIC_TRUNCATED,
            solver=SOLVER_CLOSED,
            residual=0.0,
        )
    # Mixed-radix codes: the states are sorted lexicographically, so their
    # codes are sorted and a neighbor is found by binary search. Python
    # integers take over when the codes would overflow int64.
    radix = truncation + 1
    wide = radix**m > np.iinfo(np.int64).max
    place = np.array([radix ** (m - 1 - k) for k in range(m)],
                     dtype=object if wide else np.int64)
    codes = states.astype(place.dtype) @ place
    up, down = chain.rates_at(states)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    # Per state, the diagonal subtracts the rates in coordinate order, up
    # before down; rows without a move subtract nothing, so each entry is
    # the same float as a state-by-state sum.
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


def _power_iteration(q: sp.csr_matrix, max_iter: int = 2_000_000):
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


# -- fluid reports ---------------------------------------------------------------


@dataclass(frozen=True)
class FluidReport:
    """Fluid drift of one node and the time its scaled queue needs to empty.

    guard_probs maps each neighbor j of i0 to the stationary probability
    (priority) or the expected split weight (uniform) with which a class-j
    arrival is matched against i0. drift = rate(i0) - sum_j rate(j) * w_j.
    rho is the emptying time from scaled level q0, infinite when the drift
    is nonnegative. solver and residual are those of the stationary law
    (see StationaryDist).
    """

    i0: int
    guard_probs: dict[int, float]
    drift: float
    rho: float
    method: str
    tail_mass: float
    q0: float
    solver: str
    residual: Optional[float]


def _is_pendant_priority(policy: Policy) -> bool:
    if policy.kind != PRIORITY:
        return False
    o3 = policy.order[3]
    return o3.index(4) == len(o3) - 1


def _is_fivecycle_priority(policy: Policy) -> bool:
    if policy.kind != PRIORITY:
        return False
    o3, o4 = policy.order[3], policy.order[4]
    return o3.index(1) < o3.index(5) and o4.index(2) < o4.index(5)


def fluid_report(
    graph: Graph,
    rates,
    policy: Policy,
    i0: int,
    q0: float,
    truncation: int = DEFAULT_TRUNCATION,
) -> FluidReport:
    """Guard probabilities, drift, and emptying time for node i0.

    Uses the explicit geometric laws on the canonical pendant graph
    (i0 = 4) and 5-cycle (i0 = 5) under policies that keep those chains
    intact; anything else is a truncated numeric solve.
    """
    rates = check_rates(graph, rates)
    validate_policy(policy, graph)
    if not (math.isfinite(q0) and q0 > 0):
        raise ValidationError(f"q0 must be positive and finite, got {q0}")

    if graph.edges == PENDANT_EDGES and i0 == 4:
        if _is_pendant_priority(policy):
            alpha, dist = stationary_closed_pendant(rates, truncation)
            return _assemble(rates, i0, {3: alpha}, dist, q0)
        if policy.kind == UNIFORM:
            l1, l2, l3, l4 = rates
            alpha, dist = stationary_closed_pendant(
                (l1, l2, l3 / 2.0, l4), truncation
            )
            return _assemble(rates, i0, {3: (1.0 + alpha) / 2.0}, dist, q0)
    if graph.edges == FIVE_CYCLE_EDGES and i0 == 5:
        if _is_fivecycle_priority(policy):
            alpha, dist = stationary_closed_5cycle(rates, truncation)
            l1, l2, l3, l4, _ = rates
            r1 = l1 / (l3 + l2)
            r2 = l2 / (l1 + l4)
            guard = {3: alpha / (1.0 - r2), 4: alpha / (1.0 - r1)}
            return _assemble(rates, i0, guard, dist, q0)
        if policy.kind == UNIFORM:
            l1, l2, l3, l4, l5 = rates
            sub = (l1, l2, l3 / 2.0, l4 / 2.0, l5)
            alpha, dist = stationary_closed_5cycle(sub, truncation)
            r1 = l1 / (l3 / 2.0 + l2)
            r2 = l2 / (l1 + l4 / 2.0)
            guard = {
                3: alpha / (1.0 - r2) + (alpha * r1 / (1.0 - r1)) / 2.0,
                4: alpha / (1.0 - r1) + (alpha * r2 / (1.0 - r2)) / 2.0,
            }
            return _assemble(rates, i0, guard, dist, q0)

    chain = build_marginal(graph, rates, policy, i0)
    dist = stationary_numeric(chain, truncation)
    guard = {
        j: _sequential_sum(dist.probs / divisor)
        for j, divisor in chain.split(dist.state_array > 0, i0)
    }
    return _assemble(rates, i0, guard, dist, q0)


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum; np.sum adds pairwise, which moves the last bits."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _assemble(rates, i0, guard, dist: StationaryDist, q0) -> FluidReport:
    drift = rates[i0 - 1] - sum(rates[j - 1] * w for j, w in guard.items())
    rho = q0 / (-drift) if drift < 0 else math.inf
    return FluidReport(
        i0=i0,
        guard_probs=guard,
        drift=drift,
        rho=rho,
        method=dist.method,
        tail_mass=dist.tail_mass,
        q0=q0,
        solver=dist.solver,
        residual=dist.residual,
    )


# -- per-node constants for the 5-cycle ------------------------------------------


@dataclass(frozen=True)
class FiveCycleNodeReports:
    """Drift constants for the two interior nodes of the canonical 5-cycle."""

    alpha24: float
    c: float
    node3_drift: float
    alpha13: float
    node4_drift: float


def fivecycle_node_reports(rates: Sequence[float]) -> FiveCycleNodeReports:
    """Stability constants of nodes 3 and 4 under the canonical priority rule.

    Node 3: while its queue is large, the (2,4)-marginal chain is the
    glued-rays chain with ratios l2/(l1+l4) and l4/(l5+l2); the drift is
    l3 - c * alpha24. Node 4: class-5 arrivals always feed it and class-2
    arrivals feed it while node 1 is empty; alpha13 bounds that idle
    fraction from below, giving drift l4 - l5 - l2 * alpha13.
    """
    if len(rates) != 5:
        raise ValidationError("expected 5 rates")
    l1, l2, l3, l4, l5 = rates
    d24_1 = l1 + l4 - l2
    d24_2 = l5 + l2 - l4
    if d24_1 <= 0 or d24_2 <= 0:
        raise RatesOutsideRegionError("node-3 constants need the base ratios below one")
    alpha24 = 1.0 / (1.0 + l2 / d24_1 + l4 / d24_2)
    c = l5 * (l1 + l4) / d24_1 + l1 * (l5 + l2) / d24_2
    alpha13 = 1.0 - l1 / (l2 + l3)
    return FiveCycleNodeReports(
        alpha24=alpha24,
        c=c,
        node3_drift=l3 - c * alpha24,
        alpha13=alpha13,
        node4_drift=l4 - l5 - l2 * alpha13,
    )
