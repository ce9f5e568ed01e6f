"""Online construction of a random typed graph together with a matching.

Nodes arrive one by one; each gets an i.i.d. type drawn from a fixed
distribution over the template graph's nodes, and connects to every
earlier node whose type is a template neighbor of its own. On arrival the
matching policy picks at most one unmatched neighbor to pair with, chosen
exactly as the matching queue picks a class: the per-type counts of
unmatched nodes ARE the queue vector of the corresponding matching queue
driven by the same randomness, which this module exploits by running
the simulator's own event loop, policies._queue_run, clock included.
Within the chosen type the oldest unmatched node is paired (first in,
first out), so the run keeps only each node's decision and reads the
pairs and the checkpoints off them at the end.

Edges of the growing graph are implicit (full type adjacency); only the
matching itself is materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NotConnectedError, TooLargeError, ValidationError
from .graphs import (Graph, check_int, check_rates, check_reals, check_sequence,
                     independent_set_rates, is_connected)
from .policies import Policy, _queue_run, check_seed, validate_policy

# node types and kept decisions are stored as int16
_MAX_TYPES = np.iinfo(np.int16).max


def type_distribution(rates: Sequence[float]) -> tuple[float, ...]:
    """Normalize a nonempty arrival-rate vector into a type distribution."""
    rates = check_reals(rates, "rates")
    if not rates or not all(math.isfinite(r) and r > 0 for r in rates):
        raise ValidationError("rates must be nonempty, finite and strictly positive")
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
    mu = check_reals(mu, "mu")
    if len(mu) != template.node_count or not all(m > 0 for m in mu):
        raise ValidationError("mu must be strictly positive over the template nodes")
    if abs(sum(mu) - 1.0) > 1e-9:
        raise ValidationError("mu must sum to one; see type_distribution")
    validate_policy(policy, template)
    if template.node_count < 2 or not is_connected(template):
        raise NotConnectedError("template must be connected with >= 2 nodes")
    if template.node_count > _MAX_TYPES:
        raise TooLargeError(f"template has {template.node_count} nodes; growth stores "
                            f"types as int16 and takes at most {_MAX_TYPES}")
    if check_int(n_nodes, "n_nodes") < 0:
        raise ValidationError("n_nodes must be nonnegative")
    check_seed(seed)

    if checkpoints is None:
        step = max(1, n_nodes // 100)
        checkpoints = list(range(step, n_nodes + 1, step))
        if n_nodes and (not checkpoints or checkpoints[-1] != n_nodes):
            checkpoints.append(n_nodes)
    cps = [check_int(c, "checkpoint")
           for c in check_sequence(checkpoints, "checkpoints", "integers", ordered=False)]
    cps = np.array(sorted(set(c for c in cps if 0 < c <= n_nodes)), dtype=np.int64)

    types = np.zeros(n_nodes, dtype=np.int16)
    took = np.zeros(n_nodes, dtype=np.int16)   # class each node matched, 0 = queued
    q = [0] * (template.node_count + 1)
    n = 0
    for _, cls, kept, _, _ in _queue_run(policy, template, mu, seed, q, max_events=n_nodes):
        types[n : n + len(cls)] = cls
        took[n : n + len(cls)] = kept
        n += len(cls)

    # Within a type the oldest unmatched node goes first, so the k-th node
    # that takes type j pairs with the k-th type-j node that queued.
    partner = np.full(n_nodes, -1, dtype=np.int64)
    queued = took == 0
    unmatched = np.zeros((len(cps), template.node_count), dtype=np.int64)
    for j in template.nodes:
        waiting = np.flatnonzero(queued & (types == j))
        takers = np.flatnonzero(took == j)
        partner[takers] = waiting[: len(takers)]
        partner[waiting[: len(takers)]] = takers
        unmatched[:, j - 1] = np.searchsorted(waiting, cps) - np.searchsorted(takers, cps)

    return GrowthResult(
        template=template,
        mu=mu,
        seed=seed,
        node_types=types,
        partner=partner,
        matched_count=n_nodes - sum(q),
        queue=tuple(q[1:]),
        checkpoints=[(c, c - sum(row), tuple(row))
                     for c, row in zip(cps.tolist(), unmatched.tolist())],
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
