"""Matching-policy decision logic.

A policy answers one question: given the current queue vector and an
arriving class, which neighboring class (if any) supplies the match.
Three kinds are supported:

  priority - each node carries a fixed total order over its neighbors and
             arrivals match the first neighbor with a positive queue;
  ml       - match the longest neighbor queue, ties broken uniformly;
  uniform  - match a uniformly random neighbor among those with items.

All policies are admissible: a match happens whenever some neighbor queue
is positive, and decisions depend only on the current queue vector.

The rule is written once, in _decision_step, and every driver (simulate,
the coupled runs, the online growth) and match_decision call it; the
drivers read their events from the one chunked stream in _arrivals. One
replica's queue runs through that stream in one loop, _queue_run, which
simulate and grow_and_match both read; the coupled runs keep their own
two-replica loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    InvalidStateError,
    PolicyGraphMismatchError,
    ValidationError,
)
from .graphs import Graph, check_int, check_ints, check_node, check_sequence

PRIORITY = "priority"
MATCH_LONGEST = "ml"
UNIFORM = "uniform"
_KINDS = (PRIORITY, MATCH_LONGEST, UNIFORM)


@dataclass(frozen=True)
class Policy:
    kind: str
    order: Optional[Mapping[int, tuple[int, ...]]] = field(default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown policy kind {self.kind!r}")
        if self.kind == PRIORITY and self.order is None:
            raise ValidationError("priority policy needs an order map")
        if self.kind != PRIORITY and self.order is not None:
            raise ValidationError(f"{self.kind} policy takes no order map")
        if self.order is not None:
            if not isinstance(self.order, Mapping):
                raise ValidationError(
                    f"priority order must map nodes to orders, got {self.order!r}")
            object.__setattr__(self, "order", {check_int(k, "order key"): check_ints(
                v, f"order of node {k}") for k, v in self.order.items()})


def priority_policy(order: Mapping[int, Sequence[int]]) -> Policy:
    return Policy(PRIORITY, order)


def ml_policy() -> Policy:
    return Policy(MATCH_LONGEST)


def uniform_policy() -> Policy:
    return Policy(UNIFORM)


def pendant_priority_policy() -> Policy:
    """The destabilizing priority rule on the canonical pendant graph.

    The hub (node 3) serves the triangle nodes 1 and 2 before the tail
    node 4; the remaining orders are fixed ascending for determinism.
    """
    return priority_policy({1: (2, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3,)})


def five_cycle_priority_policy() -> Policy:
    """The destabilizing priority rule on the canonical 5-cycle.

    Nodes 1 and 2 prefer each other, node 3 prefers 1 over 5, node 4
    prefers 2 over 5, and node 5 prefers 4 over 3.
    """
    return priority_policy({1: (2, 3), 2: (1, 4), 3: (1, 5), 4: (2, 5), 5: (4, 3)})


def validate_policy(policy: Policy, graph: Graph) -> None:
    """Check that policy is a Policy, and that a priority order map matches
    the graph's neighbor sets."""
    if not isinstance(policy, Policy):
        raise ValidationError(f"policy must be a Policy, got {policy!r}")
    if policy.kind != PRIORITY:
        return
    assert policy.order is not None
    for node in graph.nodes:
        declared = policy.order.get(node)
        if declared is None:
            raise PolicyGraphMismatchError(f"no priority order for node {node}")
        if sorted(declared) != sorted(graph.neighbors(node)):
            raise PolicyGraphMismatchError(
                f"order for node {node} is {declared}, not a permutation of "
                f"neighbors {graph.neighbors(node)}"
            )
    extra = set(policy.order) - set(graph.nodes)
    if extra:
        raise PolicyGraphMismatchError(f"orders declared for unknown nodes {sorted(extra)}")


def in_state_space(graph: Graph, state: Sequence[int]) -> bool:
    """Membership in the state space: adjacent queues never both positive."""
    if len(state) != graph.node_count:
        return False
    if any(q < 0 for q in state):
        return False
    return all(state[i - 1] == 0 or state[j - 1] == 0 for i, j in graph.edges)


def check_state(graph: Graph, state: Sequence[int]) -> tuple[int, ...]:
    state = tuple(q if type(q) is int else check_int(q, f"queue of node {i}")
                  for i, q in enumerate(check_sequence(state, "queue vector", "integers"), 1))
    if not in_state_space(graph, state):
        raise InvalidStateError(f"queue vector {state} leaves the state space")
    return state


def match_decision(
    policy: Policy,
    graph: Graph,
    state: Sequence[int],
    arriving: int,
    rng: Optional[np.random.Generator] = None,
) -> Optional[int]:
    """The class matched by an arriving item, or None when it must queue.

    `rng` is required for the randomized kinds (ml ties and uniform draws)
    and is drawn from only when there is more than one choice; priority
    decisions never touch it.
    """
    state = check_state(graph, state)
    arriving = check_node(arriving, graph.node_count, "arriving class")
    validate_policy(policy, graph)
    _, choices = _decision_step(policy, graph)
    options = choices((0,) + state, arriving)
    if len(options) < 2:
        return options[0] if options else None
    if rng is None:
        raise ValidationError(f"{policy.kind} policy needs an rng to choose")
    return options[int(rng.random() * len(options))]


def _decision_step(policy: Policy, graph: Graph):
    """The policy's rule compiled for one graph, as (decide, choices).

    Both take the queue list q (q[0] unused) and the arriving class c.
    decide(q, c, u) returns the matched class, or 0 when the arrival
    queues; on ties it returns choices(q, c)[int(u * n)] for a uniform u in
    [0, 1), and priority ignores u. choices(q, c) lists the candidates:
    the available neighbours (uniform), the longest ones (ml) or the one
    priority picks. decide counts the n candidates in one pass over the
    neighbours and, on a tie, walks a second pass to the int(u * n)-th of
    them, so it builds no list; choices is for the coupled runs' glue and
    match_decision.

    Adjacent queues are never both positive, so when q[c] is positive
    every neighbour of c is empty and each kind queues the arrival: the
    event loops (_queue_run and simulate._coupled_pair) write
    `0 if q[c] else decide(q, c, u)` and skip the call.
    """
    nbrs = [()] + [graph.neighbors(i) for i in graph.nodes]
    if policy.kind == PRIORITY:
        orders = [()] + [policy.order[i] for i in graph.nodes]

        def decide(q, c, u):
            for w in orders[c]:
                if q[w]:
                    return w
            return 0

        def choices(q, c):
            j = decide(q, c, 0.0)
            return [j] if j else []

    elif policy.kind == UNIFORM:

        def choices(q, c):
            return [w for w in nbrs[c] if q[w]]

        def decide(q, c, u):
            j = n = 0
            for w in nbrs[c]:
                if q[w]:
                    j = w
                    n += 1
            if n < 2:
                return j
            k = int(u * n)
            for w in nbrs[c]:
                if q[w]:
                    if not k:
                        return w
                    k -= 1

    else:

        def choices(q, c):
            best = 0
            out = []
            for w in nbrs[c]:
                v = q[w]
                if v > best:
                    best = v
                    out = [w]
                elif v == best and v:
                    out.append(w)
            return out

        def decide(q, c, u):
            best = j = n = 0
            for w in nbrs[c]:
                v = q[w]
                if v > best:
                    best = v
                    j = w
                    n = 1
                elif v == best and v:
                    n += 1
            if n < 2:
                return j
            k = int(u * n)
            for w in nbrs[c]:
                if q[w] == best:
                    if not k:
                        return w
                    k -= 1

    return decide, choices


_CHUNK = 8192


def check_seed(seed) -> None:
    """Seeds feed numpy's SeedSequence, which takes nonnegative integers."""
    if check_int(seed, "seed") < 0:
        raise ValidationError(f"seed {seed} must be nonnegative")


def _arrivals(rates, seed, replicas, randomized, t_end=math.inf, max_events=None):
    """The event stream every driver consumes, yielded in chunks.

    One Philox stream per seed child: child 0 draws, per 8192 events, a
    chunk of exponential gaps and then a chunk of class uniforms; children
    1..replicas each draw a chunk of decision uniforms when `randomized`.
    Gaps are divided by the total rate: every driver runs on this one
    clock. Each chunk is (times, classes, *uniforms): event times (ndarray,
    summed one after another from the previous chunk's last time),
    arriving classes (ndarray, 1-based), and one list of uniforms per
    replica (zeros when not randomized). A chunk cut by the horizon t_end
    or by max_events in total is the last one. The stream lets go of a
    chunk's uniforms before it draws the next; a driver that deletes its
    own names for them once its event loop is done keeps one chunk of them
    alive at a time, not two.
    """
    seeds = np.random.SeedSequence(int(seed)).spawn(1 + replicas)
    arrival, *deciders = (np.random.Generator(np.random.Philox(s)) for s in seeds)
    # cumulative class probabilities with the top pinned to exactly 1.0:
    # rounding can leave it a few ulps short, and a draw above it would
    # index past the last class
    cum = np.cumsum(np.asarray(rates, dtype=float))
    cum /= cum[-1]
    cum[-1] = 1.0
    inv_rate = 1.0 / float(sum(rates))
    left = math.inf if max_events is None else max_events
    t = 0.0
    while True:
        gaps = arrival.standard_exponential(_CHUNK) * inv_rate
        classes = np.searchsorted(cum, arrival.random(_CHUNK), side="right") + 1
        times = np.cumsum(np.concatenate(([t], gaps)))
        n = min(int(np.searchsorted(times, t_end, side="right")) - 1, left)
        if randomized:
            us = [d.random(_CHUNK)[:n].tolist() for d in deciders]
        else:
            us = [repeat(0.0)] * replicas
        yield (times[1 : n + 1], classes[:n], *us)
        del us
        if n < _CHUNK:
            return
        left -= n
        t = float(times[-1])


def _queue_run(policy, graph, rates, seed, q, t_end=math.inf, max_events=None,
               stop_node=None, stop_empty=False):
    """The one single-replica event loop, yielded a chunk at a time.

    Drives the queue list q (index 0 unused) through the stream of
    _arrivals: per event it decides, updates q in place and keeps the
    matched class (0 when the arrival queues). It stops after the event
    that empties stop_node, or the whole vector when stop_empty is set.
    Each chunk is (times, classes, took, q0, stopped): the chunk's times
    and classes cut to the events run, the kept decisions as an array
    (uint8 when there are fewer than 256 classes, else int64), the queue
    vector at the chunk's start (int64, index 0 unused) and whether the
    run stopped in this chunk.
    """
    decide, _ = _decision_step(policy, graph)
    for times, cls, us in _arrivals(rates, seed, 1, policy.kind != PRIORITY, t_end, max_events):
        q0 = np.array(q, dtype=np.int64)
        kept = []
        stopped = False
        for c, u in zip(cls.tolist(), us):
            j = 0 if q[c] else decide(q, c, u)
            if j:
                v = q[j] - 1
                q[j] = v
                if not v and (j == stop_node or stop_empty and not any(q)):
                    kept.append(j)
                    stopped = True
                    break
            else:
                q[c] += 1
            kept.append(j)
        del us
        n = len(kept)
        # bytes() reads a list of small ints at C speed
        took = np.frombuffer(bytes(kept), np.uint8) if len(q) <= 256 else np.array(kept, np.int64)
        yield times[:n], cls[:n], took, q0, stopped
        if stopped:
            return
