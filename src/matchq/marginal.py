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
pair of geometric arms. That law is written once (`_GluedRays`) and reads
everything off the chain: each arm's up and down rates from
`pattern_rates` at the pattern where that arm alone is positive, and
each neighbour of i0's arms and share of a match from `_splits`, so the
rule that drains the chain has one copy. Its guard sum (`matched`) is
what fluid_report's closed route takes from rate(i0) and what each region
row, rate(i0) < matched(), compares rate(i0) with, so their signs agree.
`_CLOSED_FORMS` names, by graph, the node, the priority rule and the region
row's label of each canonical chain: the pendant at its tail, and the
5-cycle at its apex and at node 3. It is the one copy of each graph's
canonical rule: fluid_report's closed route, pendant_alpha, the
counterexample families and `stability.exact_region` read it, and
`exact_region` refuses any other rule by comparing with it.
Everything else goes through a truncated sparse solve of the balance
equations, assembled over an (n, m) int array of states; it is the
independent check of the closed forms. A state's rates depend on it only
through its support pattern, the set of positive coordinates, which is
kept as a bitmask (bit k for coordinate k) from the state space to
`pattern_rates` and `split`; each up rate, down rate and guard divisor is
computed once per pattern in Python floats and gathered by the pattern of
each state. The state space itself (the states, their mixed-radix codes,
pattern indices and support bitmasks) depends only on the coordinate
graph and the truncation: it is built once per chain, and small spaces
are cached across chains, read-only (`_state_space`). Every chain, the
closed forms' included, comes from `build_marginal`, which checks the
instance. Only the solve needs SciPy, so SciPy is imported when a chain
is first solved, not when this module loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    NotConnectedError,
    NotConvergedError,
    RatesOutsideRegionError,
    ReducibleError,
    TooLargeError,
    UnsupportedPolicyError,
    ValidationError,
)
from .graphs import (
    Graph,
    check_int,
    check_node,
    check_rates,
    check_real,
    five_cycle_graph,
    is_connected,
    pendant_graph,
    sequential_sum,
)
from .policies import (PRIORITY, UNIFORM, Policy, five_cycle_priority_policy,
                       pendant_priority_policy, validate_policy)

CLOSED_FORM_PENDANT = "closed-form-pendant"
CLOSED_FORM_FIVE_CYCLE = "closed-form-five-cycle"
NUMERIC_TRUNCATED = "numeric-truncated"

SOLVER_LU = "lu"
SOLVER_CLOSED = "closed-form"

DEFAULT_TRUNCATION = 200
DEFAULT_TOL = 1e-12
_MAX_STATES = 500_000


# -- closed-form constants ----------------------------------------------------


def pendant_alpha(rates: Sequence[float]) -> float:
    """Empty-state probability of the pendant marginal chain (sum form)."""
    return _PENDANT.law(rates).alpha


# -- stationary distributions --------------------------------------------------


@dataclass(frozen=True)
class StationaryDist:
    """Probabilities over a finite (truncated) list of marginal states.

    The states are the rows of `state_array`, an (n, m) int array that is
    read-only and may be shared with other laws of the same state space;
    `states` lists them as tuples. `solver` says how the law was found:
    "lu" (sparse direct solve) or "closed-form".
    `residual` is max |pi Q| over the balance equations of a numeric solve,
    and None for a geometric closed form.
    `tail_mass` near rounding level is noise, and its value depends on the
    solve route: C7 with equal rates under descending orders at truncation
    200 reads 2.95e-20 with a dense normalization row and 1.2e-31 with the
    pinned solve, while pi itself moves by at most 2.5e-15. Compare such
    values against an absolute floor, not relative to each other.
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


def _check_truncation(truncation) -> int:
    """The truncation as an int; anything but an integer of at least 1
    (a bool included) raises ValidationError."""
    truncation = check_int(truncation, "truncation")
    if truncation < 1:
        raise ValidationError(f"truncation must be at least 1, got {truncation}")
    return truncation


class _GluedRays:
    """The marginal chain of a node i0 whose two coordinates are adjacent,
    read off the chain itself.

    At most one coordinate is positive, so the chain lives on two arms
    glued at the empty state. Arm k climbs at rate up[k] and falls at rate
    down[k], the chain's rates at the pattern where k alone is positive;
    the chain is reversible, with pi(empty) = alpha and
    pi(level n on arm k) = alpha * r_k**n for the arm ratio
    r_k = up[k] / down[k]. alpha exists only while both ratios are below
    one; reading it outside that region raises RatesOutsideRegionError.
    splits maps each neighbour j of i0 to the arms in its split of i0
    (MarginalChain._splits) and the share 1 / (busy + step) of a match it
    gives i0 while one of them is positive: 0 under priority, 1/2 under
    the uniform rule.
    """

    def __init__(self, chain: MarginalChain, name: str):
        up, down = chain.pattern_rates((1, 2))
        # Python floats, so every comparison on them is a plain bool
        self.up, self.down = tuple(up.diagonal().tolist()), tuple(down.diagonal().tolist())
        self.gaps = (self.down[0] - self.up[0], self.down[1] - self.up[1])
        self.ratios = (self.up[0] / self.down[0], self.up[1] / self.down[1])
        self.splits = {
            j: (tuple(k for k in (0, 1) if coords >> k & 1), 1.0 / (busy + step))
            for j, coords, busy, step in chain._splits[chain.i0]
        }
        self.chain, self._name = chain, name

    @cached_property
    def alpha(self) -> float:
        if self.gaps[0] <= 0 or self.gaps[1] <= 0:
            chain = self.chain
            raise RatesOutsideRegionError(f"{self._name} closed form needs " + " and ".join(
                f"l{v} < " + " + ".join(f"l{w}" for w in chain.graph.neighbors(v))
                for v in chain.s_nodes))
        return 1.0 / (1.0 + self.up[0] / self.gaps[0] + self.up[1] / self.gaps[1])

    def guard(self, j: int) -> float:
        """Expected weight with which a class-j arrival matches i0: its share,
        plus the rest of a match while none of j's arms is positive, which has
        probability alpha for two arms, alpha * D / (D - u) of the other arm
        for one, and 1 for none."""
        arms, share = self.splits[j]
        empty = self.alpha if arms else 1.0
        if len(arms) == 1:
            other = 1 - arms[0]
            empty = self.alpha * self.down[other] / self.gaps[other]
        return share + (1.0 - share) * empty

    def matched(self) -> float:
        """rate(j) * guard(j) added up over the splits in split order."""
        rates = self.chain.rates
        return sum(rates[j - 1] * self.guard(j) for j in self.splits)

    def tail_mass(self, truncation: int) -> float:
        """Probability of the levels beyond `truncation` on either arm."""
        r1, r2 = self.ratios
        return self.alpha * (
            r1 ** (truncation + 1) / (1.0 - r1) + r2 ** (truncation + 1) / (1.0 - r2)
        )


@dataclass(frozen=True)
class _GluedFamily:
    """A node i0 of a canonical graph whose marginal chain is glued rays,
    with the graph's canonical priority rule, under which every neighbour
    of i0 serves its in-chain neighbours before i0. inequality labels the
    stability region's row rate(i0) < matched() at i0. method names
    fluid_report's closed route at i0; None where it solves the chain
    numerically."""

    name: str
    graph: Graph
    i0: int
    policy: Policy
    inequality: str
    method: Optional[str] = None

    def law(self, rates) -> _GluedRays:
        """The glued-rays law under the family's priority rule."""
        return _GluedRays(build_marginal(self.graph, rates, self.policy, self.i0), self.name)


# The canonical glued-rays chains by graph, keyed by the whole graph, so an
# extra node finds none; each holds its graph's canonical priority rule.
# fluid_report solves the pendant at its tail and the 5-cycle at its apex in
# closed form, and node 3 of the 5-cycle numerically, which checks the
# node-3 constants of the 5-cycle region.
_PENDANT = _GluedFamily("pendant", pendant_graph(), 4, pendant_priority_policy(),
                        "pendant:tail<alpha*hub", CLOSED_FORM_PENDANT)
_FIVE_CYCLE = _GluedFamily("5-cycle", five_cycle_graph(), 5, five_cycle_priority_policy(),
                           "five_cycle:apex<a*alpha", CLOSED_FORM_FIVE_CYCLE)
_FIVE_CYCLE_NODE3 = _GluedFamily("5-cycle node-3", five_cycle_graph(), 3,
                                 five_cycle_priority_policy(), "five_cycle:node3<c*alpha24")
_CLOSED_FORMS = {
    _PENDANT.graph: (_PENDANT,),
    _FIVE_CYCLE.graph: (_FIVE_CYCLE, _FIVE_CYCLE_NODE3),
}


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
    def _coordinate_graph(self) -> tuple[int, ...]:
        """Each coordinate's neighbouring coordinates, as a bitmask."""
        return tuple(
            sum(1 << self._index[w] for w in self.graph.neighbors(v) if w in self._index)
            for v in self.s_nodes
        )

    @cached_property
    def _splits(self) -> dict[int, tuple]:
        """The class split, per target node: every coordinate, then i0.

        An entry (j, coords, busy, step) says that a class-j arrival matches
        the target with weight 1 / (busy + step for each positive coordinate
        in coords), a bitmask of coordinates. Priority: coords are those j
        serves first, busy is 1 and step infinite, so the weight is 1 or 0;
        j is left out when i0 is ahead. Uniform: coords are j's in-chain
        neighbors, busy counts j's always-busy neighbors (i0) and step is 1.
        """
        priority = self.policy.kind == PRIORITY
        out = {}
        for target in self.s_nodes + (self.i0,):
            entries = []
            for j in self.graph.neighbors(target):
                if priority:
                    order = self.policy.order[j]
                    nodes = order[: order.index(target)]
                    if self.i0 in nodes:
                        continue
                    busy, step = 1.0, math.inf
                else:
                    nodes = self.graph.neighbors(j)
                    busy, step = float(self.graph.has_edge(j, self.i0)), 1.0
                coords = sum(1 << self._index[k] for k in nodes if k in self._index)
                entries.append((j, coords, busy, step))
            out[target] = tuple(entries)
        return out

    def split(self, supports: Sequence[int], target: int):
        """(j, divisors) for each class j in the target's split, where a
        class-j arrival reaches the target with weight 1 / divisors[p] at
        the states whose positive coordinates are the bitmask supports[p]."""
        for j, coords, busy, step in self._splits[target]:
            yield j, np.array([_divisor(b, coords, busy, step) for b in supports], dtype=float)

    def pattern_rates(self, supports: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Up and down rates of every coordinate at every support pattern.

        Each of the P `supports` is a bitmask of positive coordinates (bit k
        for coordinate k); both results are (P, m) float arrays. A coordinate
        climbs at its own rate while no neighbouring coordinate is positive.
        A positive one falls at rate(j) / divisor, added up over its split
        in order, so each rate is the same float whichever states share the
        pattern.
        """
        rates = self.rates
        coords = [
            (1 << k, near, rates[v - 1], self._splits[v])
            for k, (v, near) in enumerate(zip(self.s_nodes, self._coordinate_graph))
        ]
        up, down = [], []
        for b in supports:
            for own, near, rate, classes in coords:
                up.append(0.0 if b & near else rate)
                total = 0.0
                if b & own:
                    for j, mask, busy, step in classes:
                        total += rates[j - 1] / _divisor(b, mask, busy, step)
                down.append(total)
        shape = (len(supports), len(coords))
        return np.array(up, dtype=float).reshape(shape), np.array(down, dtype=float).reshape(shape)

    @cached_property
    def _spaces(self) -> dict[int, "_StateSpace"]:
        return {}

    def _space(self, truncation: int) -> "_StateSpace":
        """The truncated state space, built once per chain and truncation
        and shared with every chain of the same coordinate graph while it is
        small (see _state_space). The state cap is checked on every call."""
        space = self._spaces.get(truncation)
        if space is None:
            space = self._spaces[truncation] = _state_space(self._coordinate_graph, truncation)
        _check_size(len(space.states))
        return space

    def enumerate_states(self, truncation: int) -> np.ndarray:
        """All states with every coordinate at most `truncation`, as the rows
        of a read-only (n, m) int array in lexicographic order."""
        return self._space(truncation).states


def _divisor(bits: int, mask: int, busy: float, step: float) -> float:
    """busy plus one step for each coordinate of `mask` that is positive in
    `bits`: the same float as adding the steps one by one, since a sum of
    ones is exact and a sum of infinities is infinite."""
    count = (bits & mask).bit_count()
    return busy + step * count if count else busy


@dataclass(frozen=True)
class _StateSpace:
    """A truncated marginal state space, which depends only on the coordinate
    graph and the truncation.

    states holds the states as the rows of an (n, m) int array in
    lexicographic order, and codes their mixed-radix codes with place values
    `place` (Python ints when (truncation + 1)**m would overflow int64), so
    the codes are sorted too. supports holds the support patterns, the
    independent sets of the coordinate graph, each as the bitmask of its
    positive coordinates, and pattern[i] the index of state i's pattern in
    supports. Every array is read-only, and supports is a tuple.
    """

    states: np.ndarray
    codes: np.ndarray
    place: np.ndarray
    pattern: np.ndarray
    supports: tuple[int, ...]


# Spaces of at most _CACHED_STATES states, where building them costs as much
# as solving them, are kept for reuse: the _CACHED_SPACES most recently used,
# keyed by coordinate graph and truncation.
_CACHED_STATES = 4096
_CACHED_SPACES = 128
_SPACES: dict[tuple, _StateSpace] = {}


def _check_size(n: int) -> None:
    if n > _MAX_STATES:
        raise TooLargeError(f"truncated marginal space exceeds {_MAX_STATES} states")


def _state_space(graph: tuple[int, ...], truncation: int) -> _StateSpace:
    """The truncated state space of a coordinate graph (each coordinate's
    neighbours as a bitmask), from the cache when it holds it."""
    key = (graph, truncation)
    space = _SPACES.pop(key, None)
    if space is None:
        space = _build_space(graph, truncation)
        if len(space.states) > _CACHED_STATES:
            return space
        if len(_SPACES) >= _CACHED_SPACES:
            del _SPACES[next(iter(_SPACES))]
    _SPACES[key] = space
    return space


def _build_space(graph: tuple[int, ...], truncation: int) -> _StateSpace:
    """Built one coordinate at a time: a prefix extends by 0..truncation
    when its pattern holds no neighbour of the new coordinate k, else by 0
    alone, so the rows stay sorted, and a positive level of k moves the
    prefix to its pattern with k added."""
    m = len(graph)
    states = np.zeros((1, 0), dtype=np.int64)
    pattern = np.zeros(1, dtype=np.intp)
    supports = [0]  # each pattern's positive coordinates, as a bitmask
    for k, near in enumerate(graph):
        joined = np.full(len(supports), -1)
        for p in range(len(supports)):
            if not supports[p] & near:
                joined[p] = len(supports)
                supports.append(supports[p] | 1 << k)
        counts = np.where(joined[pattern] >= 0, truncation + 1, 1)
        n = int(counts.sum())
        _check_size(n)
        offsets = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
        pattern = np.repeat(pattern, counts)
        pattern = np.where(offsets > 0, joined[pattern], pattern)
        states = np.column_stack([np.repeat(states, counts, axis=0), offsets])
    radix = truncation + 1
    wide = radix**m > np.iinfo(np.int64).max
    place = np.array([radix ** (m - 1 - k) for k in range(m)],
                     dtype=object if wide else np.int64)
    space = _StateSpace(
        states=states,
        codes=states.astype(place.dtype) @ place,
        place=place,
        pattern=pattern.astype(np.min_scalar_type(len(supports) - 1)),
        supports=tuple(supports),
    )
    for array in (space.states, space.codes, space.place, space.pattern):
        array.flags.writeable = False
    return space


def build_marginal(
    graph: Graph, rates, policy: Policy, i0: int
) -> MarginalChain:
    """Construct the marginal chain of node i0 of a connected graph; only
    priority and uniform policies have one. Checks, in order, the rates,
    the policy, connectivity, the node id and the policy kind."""
    rates = check_rates(graph, rates)
    validate_policy(policy, graph)
    if not is_connected(graph):
        raise NotConnectedError("a marginal chain needs a connected graph")
    i0 = check_node(i0, graph.node_count)
    if policy.kind not in (PRIORITY, UNIFORM):
        raise UnsupportedPolicyError(
            f"no marginal chain for policy kind {policy.kind!r}"
        )
    excluded = {i0} | set(graph.neighbors(i0))
    s_nodes = tuple(v for v in graph.nodes if v not in excluded)
    return MarginalChain(
        graph=graph, rates=rates, policy=policy, i0=i0, s_nodes=s_nodes
    )


def spsolve(a, b, **kwargs):
    """scipy.sparse.linalg.spsolve, imported when first called."""
    from scipy.sparse import linalg

    return linalg.spsolve(a, b, **kwargs)


def connected_components(csgraph, **kwargs):
    """scipy.sparse.csgraph.connected_components, imported when first called."""
    from scipy.sparse import csgraph as cs

    return cs.connected_components(csgraph, **kwargs)


def stationary_numeric(
    chain: MarginalChain, truncation: int = DEFAULT_TRUNCATION
) -> StationaryDist:
    """Stationary law of the chain truncated to a box of side `truncation`.

    Transitions leaving the box are suppressed, which keeps the generator
    conservative. Solves the global balance equations by a direct sparse
    factorization with the empty state pinned at pi = 1 and its own
    equation dropped, then normalizes. SuperLU orders the columns by
    minimum degree on A^T + A (MMD_AT_PLUS_A), which keeps the factors
    sparse: on C7 at truncation 200, nnz(L+U) is 6.5M against 14.3M under
    COLAMD. A dense normalization row in place of the pin would couple
    every unknown and fill the factors in. A non-finite solution raises
    NotConvergedError. The reported tail mass is the probability of the
    boundary layer (some coordinate equal to the truncation level).

    Q is written in CSR form straight from the rate tables: each row's
    moves fall in a fixed column order, so flattening the tables row by
    row gives Q's arrays with no triplet sort. The pinned system is read
    off those arrays, Q^T[1:, 1:] as CSC with int32 indices and -Q[0, 1:]
    from row 0, and max |Q| from the stored values; the result is the
    same, bit for bit, as converting COO triplets and slicing Q.
    """
    import scipy.sparse as sp

    truncation = _check_truncation(truncation)
    states = chain.enumerate_states(truncation)
    space = chain._space(truncation)  # the space enumerate_states built
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
    # Each rate is computed once per support pattern and gathered by the
    # pattern of each state.
    up, down = chain.pattern_rates(space.supports)
    up, down = up[space.pattern], down[space.pattern]
    up[states >= truncation] = 0.0  # suppressed: leaves the box
    # Per state, the diagonal subtracts the rates in coordinate order, up
    # before down; a zero rate leaves it as it was, so each entry is the
    # same float as a state-by-state sum.
    diag = np.zeros(n)
    for k in range(m):
        diag -= up[:, k]
        diag -= down[:, k]
    # Row r of Q in column order: the moves down in coordinates 0..m-1, the
    # diagonal, the moves up in coordinates m-1..0, since a larger place
    # value moves the code further. Flattening these (n, 2m + 1) tables
    # row by row over the moves that exist gives Q in CSR form directly;
    # the diagonal is always stored.
    rate = np.column_stack([down, diag, up[:, ::-1]])
    del up, down
    # The states are sorted lexicographically, so their mixed-radix codes
    # are sorted and a neighbor is found by binary search.
    place, codes = space.place, space.codes
    step = np.concatenate([-place, np.zeros(1, dtype=place.dtype), place[::-1]])
    present = rate != 0.0
    present[:, m] = True
    row, move = np.nonzero(present)
    data = rate[present]
    cols = np.searchsorted(codes, codes[row] + step[move]).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    # The assembly tables go before the factorization, which sets the peak
    # memory of a large solve.
    del rate, present, move
    q = sp.csr_matrix((data, cols, indptr), shape=(n, n))

    ncomp, _ = connected_components(q, directed=True, connection="strong")
    if ncomp != 1:
        raise ReducibleError(
            f"truncated chain splits into {ncomp} communicating classes"
        )

    # Balance equations pi Q = 0 as Q^T pi = 0. The empty state (row 0) is
    # pinned at pi = 1 and its equation dropped, which leaves
    # Q^T[1:, 1:] x = -Q[0, 1:] on the other states. Column j of
    # Q^T[1:, 1:] in CSC form is row j + 1 of Q without column 0, so both
    # sides are read off the CSR arrays.
    head = indptr[1]
    first = cols[:head] > 0
    b = np.zeros(n - 1)
    b[cols[:head][first] - 1] = data[:head][first]
    b = -b  # negated whole, so its zeros are -0.0 as in -Q[0, 1:]
    keep = cols[head:] > 0
    a_ptr = np.zeros(n, dtype=np.int32)
    np.cumsum(np.bincount(row[head:][keep] - 1, minlength=n - 1), out=a_ptr[1:])
    a = sp.csc_matrix((data[head:][keep], cols[head:][keep] - 1, a_ptr), shape=(n - 1, n - 1))
    scale = float(np.abs(data).max())
    del row, keep
    with np.errstate(all="ignore"):
        pi = np.concatenate([[1.0], spsolve(a, b, permc_spec="MMD_AT_PLUS_A")])
        pi /= pi.sum()
    if not np.all(np.isfinite(pi)):
        raise NotConvergedError("sparse LU solve returned a non-finite law")
    pi = np.where(np.abs(pi) < 1e-300, 0.0, pi)
    if pi.min() < -1e-9:
        raise NotConvergedError(f"negative mass {pi.min():.3e} in stationary solve")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    # pi Q, adding pi[i] * Q[i, j] into column j row by row as SciPy's
    # product does, so it is the same float.
    row = np.repeat(np.arange(n), np.diff(indptr))
    residual = float(np.max(np.abs(np.bincount(cols, weights=data * pi[row], minlength=n))))
    if residual > max(DEFAULT_TOL, 1e3 * np.finfo(float).eps * scale):
        raise NotConvergedError(f"balance residual {residual:.3e} above {DEFAULT_TOL:.1e}")
    tail = sequential_sum(pi[(states >= truncation).any(axis=1)])
    return StationaryDist(
        state_array=states,
        probs=pi,
        tail_mass=tail,
        method=NUMERIC_TRUNCATED,
        solver=SOLVER_LU,
        residual=residual,
    )


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
    chain = build_marginal(graph, rates, policy, i0)
    rates, i0 = chain.rates, chain.i0
    q0 = check_real(q0, "q0")
    if not q0 > 0:
        raise ValidationError(f"q0 must be positive and finite, got {q0}")

    # The closed route needs every neighbour j of i0 to split only over
    # its in-chain neighbours: under priority, j serves them all first.
    index = chain._index
    family = next((f for f in _CLOSED_FORMS.get(graph, ()) if f.i0 == i0 and f.method), None)
    if family is not None and all(
        coords == sum(1 << index[w] for w in graph.neighbors(j) if w in index)
        for j, coords, _, _ in chain._splits[i0]
    ):
        truncation = _check_truncation(truncation)
        law = _GluedRays(chain, family.name)
        guard = {j: law.guard(j) for j in law.splits}
        method, tail_mass, solver, residual = (family.method, law.tail_mass(truncation),
                                               SOLVER_CLOSED, None)
    else:
        dist = stationary_numeric(chain, truncation)
        space = chain._space(_check_truncation(truncation))
        guard = {
            j: sequential_sum(dist.probs / divisors[space.pattern])
            for j, divisors in chain.split(space.supports, i0)
        }
        method, tail_mass, solver, residual = (dist.method, dist.tail_mass, dist.solver,
                                               dist.residual)
    drift = rates[i0 - 1] - sum(rates[j - 1] * w for j, w in guard.items())
    rho = q0 / (-drift) if drift < 0 else math.inf
    return FluidReport(
        i0=i0,
        guard_probs=guard,
        drift=drift,
        rho=rho,
        method=method,
        tail_mass=tail_mass,
        q0=q0,
        solver=solver,
        residual=residual,
    )
