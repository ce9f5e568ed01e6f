"""Online construction of a random typed graph together with a matching.

Nodes arrive one by one; each gets an i.i.d. type drawn from a fixed
distribution over the template graph's nodes, and connects to every
earlier node whose type is a template neighbor of its own. On arrival the
matching policy picks at most one unmatched neighbor to pair with, chosen
exactly as the matching queue picks a class: the per-type counts of
unmatched nodes ARE the queue vector of the corresponding matching queue
driven by the same randomness, which this module exploits by consuming
its random streams in the same order as the simulator. Within the chosen
type the oldest unmatched node is paired (first in, first out).

Edges of the growing graph are implicit (full type adjacency); only the
matching itself is materialized.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NotConnectedError, ValidationError
from .graphs import Graph, check_rates, independent_set_rates, is_connected
from .policies import (
    PRIORITY,
    Policy,
    _arrivals,
    _decision_step,
    check_seed,
    validate_policy,
)


def type_distribution(rates: Sequence[float]) -> tuple[float, ...]:
    """Normalize an arrival-rate vector into a type distribution."""
    rates = [float(r) for r in rates]
    if not all(math.isfinite(r) and r > 0 for r in rates):
        raise ValidationError("rates must be finite and strictly positive")
    total = sum(rates)
    return tuple(r / total for r in rates)


@dataclass
class GrowthResult:
    """Final state of one growth run plus the matched-count trajectory."""

    template: Graph
    mu: tuple[float, ...]
    seed: int
    node_types: np.ndarray        # type of node id k (1-based types)
    partner: np.ndarray           # partner id or -1 when unmatched
    matched_count: int            # number of matched NODES (2 per pair)
    queue: tuple[int, ...]        # unmatched counts per type at the end
    checkpoints: list[tuple[int, int, tuple[int, ...]]]
    # checkpoints entries: (n, matched_count, unmatched per type)
    total_time: float             # arrival clock at the last node

    @property
    def n_nodes(self) -> int:
        return len(self.node_types)

    def matched_fraction(self) -> float:
        if self.n_nodes == 0:
            raise ValidationError("empty growth has no matched fraction")
        return self.matched_count / self.n_nodes

    def matching_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Matched pairs as two id arrays u < v, 0-based, sorted by u."""
        u = np.flatnonzero(self.partner > np.arange(self.n_nodes))
        return u, self.partner[u]

    def matching_edges(self) -> list[tuple[int, int]]:
        """Matched pairs as (smaller id, larger id), 0-based ids."""
        u, v = self.matching_arrays()
        return list(zip(u.tolist(), v.tolist()))


def grow_and_match(
    template: Graph,
    mu: Sequence[float],
    policy: Policy,
    n_nodes: int,
    seed: int,
    checkpoints: Optional[Sequence[int]] = None,
) -> GrowthResult:
    """Grow a typed random graph of n_nodes nodes and match it online.

    mu must be a strictly positive probability vector over the template's
    nodes (use type_distribution to build one from rates). checkpoints
    lists node counts at which to record (n, matched, unmatched-by-type);
    None records 100 evenly spaced points.
    """
    mu = tuple(float(m) for m in mu)
    if len(mu) != template.node_count or not all(m > 0 for m in mu):
        raise ValidationError("mu must be strictly positive over the template nodes")
    if abs(sum(mu) - 1.0) > 1e-9:
        raise ValidationError("mu must sum to one; see type_distribution")
    validate_policy(policy, template)
    if template.node_count < 2 or not is_connected(template):
        raise NotConnectedError("template must be connected with >= 2 nodes")
    if n_nodes < 0:
        raise ValidationError("n_nodes must be nonnegative")
    check_seed(seed)

    p = template.node_count
    if checkpoints is None:
        step = max(1, n_nodes // 100)
        checkpoints = list(range(step, n_nodes + 1, step))
        if n_nodes and (not checkpoints or checkpoints[-1] != n_nodes):
            checkpoints.append(n_nodes)
    cps = sorted(set(int(c) for c in checkpoints if 0 < int(c) <= n_nodes))
    cp_iter = iter(cps + [-1])
    next_cp = next(cp_iter)

    decide, _ = _decision_step(policy, template)
    types = np.zeros(n_nodes, dtype=np.int16)
    partner = np.full(n_nodes, -1, dtype=np.int64)
    unmatched: list[deque] = [deque() for _ in range(p + 1)]
    q = [0] * (p + 1)
    matched = 0
    records: list[tuple[int, int, tuple[int, ...]]] = []

    # the growth clock counts unit-rate gaps: mu sums to one only to
    # within rounding, and dividing by its sum would change the bits
    t = 0.0
    n = 0
    for times, cls, us in _arrivals(
        mu, seed, 1, policy.kind != PRIORITY, max_events=n_nodes, unit_clock=True
    ):
        types[n : n + len(cls)] = cls
        if len(times):
            t = float(times[-1])
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
            if n == next_cp:
                records.append((n, matched, tuple(q[1:])))
                next_cp = next(cp_iter)

    return GrowthResult(
        template=template,
        mu=mu,
        seed=seed,
        node_types=types,
        partner=partner,
        matched_count=matched,
        queue=tuple(q[1:]),
        checkpoints=records,
        total_time=t,
    )


def tutte_condition_estimate(
    template: Graph, mu: Sequence[float]
) -> dict[frozenset, float]:
    """Per-independent-set margins mu(I) - mu(E(I)).

    Nonpositive margins everywhere is the limiting necessary condition for
    the online matching to be asymptotically perfect; a positive margin
    names a set of types that must accumulate unmatched nodes.
    """
    mu = check_rates(template, mu)
    return {
        ind: own - neighborhood
        for ind, own, neighborhood in independent_set_rates(template, mu)
    }
