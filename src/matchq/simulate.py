"""Event-driven simulation of matching queues.

The engine superposes the per-class Poisson streams into a single
exponential clock with rate equal to the total arrival rate and draws the
arriving class categorically; this is exact in law and keeps one arrival
stream that coupled replicas can share. Queues change only at arrival
epochs, so hitting times are detected exactly at event granularity.

simulate runs the one single-replica loop, policies._queue_run, which per
event only decides, updates the queue list and keeps the matched class,
and stops at the event that empties the stop node or the whole vector.
After each chunk of the stream, numpy reads the trace off the kept
decisions, the chunk's classes and the queue vector at the chunk's start:
the recorded rows and their states, the first time each queue and the
whole vector are zero, the end time and the arrival counts.

Randomness is split into an arrival stream and a decision stream derived
from one seed, so priority runs and randomized-policy runs with the same
seed see identical arrivals. Replications across seeds are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InsufficientSamplesError,
    InvalidStateError,
    NotConnectedError,
    UnsupportedPolicyError,
    ValidationError,
)
from .graphs import (Graph, check_int, check_ints, check_node, check_rates, check_real,
                     is_connected, sequential_sum)
from .policies import (
    MATCH_LONGEST,
    PRIORITY,
    Policy,
    _CHUNK,
    _arrivals,
    _decision_step,
    _queue_run,
    check_seed,
    check_state,
    validate_policy,
)


def _spawn_seeds(entropy, count: int) -> list[int]:
    """count independent 64-bit seeds spawned from one SeedSequence entropy."""
    return [int(c.generate_state(1, np.uint64)[0])
            for c in np.random.SeedSequence(entropy).spawn(count)]


def replication_seeds(master_seed: int, count: int) -> list[int]:
    """Independent per-replication seeds derived from one master seed."""
    check_seed(master_seed)
    if check_int(count, "count") < 1:
        raise ValidationError(f"need at least 1 replication, got {count}")
    return _spawn_seeds(int(master_seed), count)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.

    horizon is measured in scaled time units: the raw clock runs to
    horizon * scale. initial_state None means the all-zero vector.
    trace_stride k records every k-th event (0 disables snapshots;
    hitting times are still tracked exactly). stop_node ends the run once
    that node's queue empties; stop_when_empty ends it once the whole
    vector is zero. max_events is a hard event cap.
    """

    horizon: float
    seed: int
    initial_state: Optional[tuple[int, ...]] = None
    scale: int = 1
    trace_stride: int = 1
    stop_node: Optional[int] = None
    stop_when_empty: bool = False
    max_events: Optional[int] = None


@dataclass
class SimTrace:
    """Recorded sample path. Snapshot arrays are aligned by index."""

    node_count: int
    scale: int
    seed: int
    horizon: float
    times: np.ndarray          # raw event times at stride points
    classes: np.ndarray        # arriving class per snapshot
    matched: np.ndarray        # matched class per snapshot, 0 = queued
    states: np.ndarray         # (snapshots, p) queue vectors
    final_state: tuple[int, ...]
    end_time: float            # raw time the run stopped
    n_events: int
    arrivals: np.ndarray       # per-class arrival counts, index 0 unused
    first_zero: np.ndarray     # raw first time each queue is 0, nan if never
    empty_time: float          # raw first time all queues are 0, nan if never


@dataclass(frozen=True)
class DriftEstimate:
    node: int
    slope: float
    stderr: float
    window: tuple[float, float]
    samples: int


@dataclass(frozen=True)
class NonexpansiveReport:
    policy_kind: str
    events: int
    initial_gap: int
    max_gap: int
    violations: int


@dataclass(frozen=True)
class NonchaoticReport:
    policy_kind: str
    events: int
    removed_arrivals: int      # arrivals routed to the removed node set
    max_excess: int            # max over events of (restricted gap - arrivals)
    violations: int


def _prepare(graph: Graph, rates, policy: Policy, config: SimConfig):
    rates = check_rates(graph, rates)
    validate_policy(policy, graph)
    check_seed(config.seed)
    for name in ("scale", "trace_stride", "max_events"):
        if getattr(config, name) is not None:
            check_int(getattr(config, name), name)
    if graph.node_count < 2 or not is_connected(graph):
        raise NotConnectedError("simulation needs a connected graph with >= 2 nodes")
    if config.initial_state is None:
        state = (0,) * graph.node_count
    else:
        state = check_state(graph, config.initial_state)
    horizon = check_real(config.horizon, "horizon", finite=False)
    if not horizon > 0:
        raise ValidationError("horizon must be positive")
    if config.scale < 1:
        raise ValidationError("scale must be >= 1")
    # the raw clock runs to horizon * scale, which can overflow a finite horizon
    if math.isinf(horizon * config.scale) and config.max_events is None and (
        config.stop_node is None and not config.stop_when_empty
    ):
        raise ValidationError("infinite horizon * scale needs max_events or a stop condition")
    if config.stop_node is not None:
        check_node(config.stop_node, graph.node_count, "stop_node")
    if config.max_events is not None and config.max_events < 0:
        raise ValidationError("max_events must be nonnegative")
    if config.trace_stride < 0:
        raise ValidationError("trace_stride must be nonnegative")
    return rates, state, horizon


def simulate(graph: Graph, rates, policy: Policy, config: SimConfig) -> SimTrace:
    """Run one matching-queue sample path; reproducible from (inputs, seed)."""
    rates, state, horizon = _prepare(graph, rates, policy, config)
    p = graph.node_count
    t_end = horizon * config.scale
    q = [0] + list(state)
    first_zero: list = [0.0 if v == 0 else None for v in q]
    empty_time = None if any(state) else 0.0
    arrivals = np.zeros(p + 1, dtype=np.int64)

    stride = config.trace_stride
    stop_node = config.stop_node
    max_events = config.max_events

    # recorded rows per chunk, each list seeded with an empty block of its dtype
    rec_t = [np.zeros(0)]
    rec_c = [np.zeros(0, dtype=np.int64)]
    rec_m = [np.zeros(0, dtype=np.int64)]
    rec_s = [np.zeros((0, p), dtype=np.int64)]

    t = 0.0
    events = 0
    stop = (stop_node is not None and q[stop_node] == 0) or (
        config.stop_when_empty and not any(state))
    chunks = () if stop else _queue_run(
        policy, graph, rates, config.seed, q, t_end, max_events, stop_node, config.stop_when_empty
    )
    buf = np.empty((_CHUNK, p + 1), dtype=np.int32)
    for times, cls, took, q0, stop in chunks:
        n = len(took)
        if n:
            matched = took > 0
            arrivals += np.bincount(cls, minlength=p + 1)
            t = float(times[-1])
            # Each event moves one queue by one: the matched class down, or
            # the arriving class up when it queues. After chunk event k the
            # total is q0.sum() + k + 1 less twice the matches so far.
            if empty_time is None:
                hit = np.flatnonzero(2 * np.cumsum(matched) - np.arange(1, n + 1) == q0.sum())
                if hit.size:
                    empty_time = float(times[hit[0]])
            pending = [i for i in range(1, p + 1) if first_zero[i] is None]
            if stride or pending:
                # moves[k] is the queue vector after chunk event k less q0
                moves = buf[:n]
                moves.fill(0)
                moves[np.arange(n), np.where(matched, took, cls)] = 1 - 2 * matched.view(np.int8)
                np.cumsum(moves, axis=0, out=moves)
                for i in pending:
                    hit = np.flatnonzero(moves[:, i] == -q0[i])
                    if hit.size:
                        first_zero[i] = float(times[hit[0]])
                if stride:
                    # chunk event k is event events + k + 1 of the run
                    rows = slice((-events - 1) % stride, n, stride)
                    rec_s.append(moves[rows, 1:] + q0[1:])
                    rec_t.append(times[rows].copy())
                    rec_c.append(cls[rows].copy())
                    rec_m.append(took[rows].copy())
        events += n
    if not stop and (max_events is None or events < max_events):
        t = float(t_end)  # the stream ended at the horizon, not at the event cap

    fz = np.array(
        [math.nan if v is None else v for v in first_zero[1:]], dtype=float
    )
    return SimTrace(
        node_count=p,
        scale=config.scale,
        seed=config.seed,
        horizon=horizon,
        times=np.concatenate(rec_t),
        classes=np.concatenate(rec_c),
        matched=np.concatenate(rec_m),
        states=np.concatenate(rec_s),
        final_state=tuple(q[1:]),
        end_time=t,
        n_events=events,
        arrivals=arrivals,
        first_zero=fz,
        empty_time=math.nan if empty_time is None else empty_time,
    )


def hitting_time(trace: SimTrace, node: int) -> float:
    """First scaled time the node's queue reaches zero; inf if never observed."""
    raw = trace.first_zero[check_node(node, trace.node_count) - 1]
    if math.isnan(raw):
        return math.inf
    return raw / trace.scale


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    n = len(x)
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    sxx = sequential_sum(dx * dx)
    if sxx == 0.0:
        raise InsufficientSamplesError("degenerate fit window")
    slope = sequential_sum(dx * (y - ym)) / sxx
    resid = y - ym - slope * dx
    dof = max(n - 2, 1)
    stderr = math.sqrt(sequential_sum(resid * resid) / dof / sxx)
    return slope, stderr


# fewest recorded snapshots in the fit window for a slope worth reporting
_MIN_SAMPLES = 100


def drift_estimate(
    trace: SimTrace,
    node: int,
    window: Optional[tuple[float, float]] = None,
) -> DriftEstimate:
    """Least-squares slope of the node's scaled queue over a scaled window.

    The default window is [0.1 T, min(T, 0.9 rho)] where T is the observed
    scaled length of the run and rho the node's observed hitting time, to
    avoid the initial transient and the boundary behavior after emptying.
    Slopes are invariant under fluid scaling, so the fit runs on raw data.
    """
    node = check_node(node, trace.node_count)
    t_scaled = trace.times / trace.scale
    if window is None:
        total = trace.end_time / trace.scale
        rho = hitting_time(trace, node)
        hi = total if math.isinf(rho) else min(total, 0.9 * rho)
        window = (0.1 * total, hi)
    try:
        w0, w1 = window
    except (TypeError, ValueError):
        raise ValidationError(f"window must be a pair of real numbers, got {window!r}") from None
    w0, w1 = check_real(w0, "window", finite=False), check_real(w1, "window", finite=False)
    mask = (t_scaled >= w0) & (t_scaled <= w1)
    n = int(mask.sum())
    if n < _MIN_SAMPLES:
        raise InsufficientSamplesError(
            f"{n} samples in window {window}, need {_MIN_SAMPLES}"
        )
    x = trace.times[mask]
    y = trace.states[mask, node - 1].astype(float)
    slope, stderr = _ols(x, y)
    return DriftEstimate(node=node, slope=slope, stderr=stderr, window=(w0, w1), samples=n)


# -- coupled experiments -----------------------------------------------------


def _coupled_pair(rates, config, randomized, steps, qa, qb, kept):
    """Drive two replicas qa and qb (lists, index 0 unused) on one stream.

    steps holds each replica's (decide, choices). For randomized kinds the
    replicas' uniforms come from independent streams and are then glued:
    when each one's pick is among the other's choices, replica b copies
    replica a's pick, which keeps each replica's own decision law. The gap
    is the 1-norm distance over the kept coordinates, and the excess is the
    gap less the arrivals at nodes outside them. Returns (events, removed
    arrivals, the initial gap, largest excess or -inf without events,
    events whose excess is above the initial gap).

    Each replica moves one queue by one per event, so the gap moves by
    exactly one on a kept coordinate: a step away from the other replica's
    queue adds one and a step towards it takes one off. Replica a moves
    first and replica b is compared with a's updated queue.

    When both replicas run the one rule (steps[0] is steps[1]) on every
    node, a zero gap means equal queue vectors, and equal vectors stay
    equal: priority is deterministic, and for ml and uniform each
    replica's pick is among the other's equal choices, so the glue copies
    a's pick. From then on the excess stays 0 and no arrival is removed,
    so the loop stops stepping and only counts the rest of the stream's
    events, which keeps a horizon cut exact. Each event moves each
    replica's item total by one, so the difference of the totals keeps
    its parity, and replicas whose totals differ by an odd number never
    meet.
    """
    (decide_a, choices_a), (decide_b, choices_b) = steps
    in_kept = [False] + [i in kept for i in range(1, len(qa))]
    bound = gap = sum(abs(qa[i] - qb[i]) for i in kept)
    coalesce = steps[0] is steps[1] and all(in_kept[1:])
    removed = 0
    worst = -math.inf
    violations = 0
    events = 0
    chunks = _arrivals(
        rates, config.seed, 2, randomized, config.horizon * config.scale, config.max_events
    )
    for _, cls, uas, ubs in chunks:
        events += len(cls)
        for c, ua, ub in zip(cls.tolist(), uas, ubs):
            ja = 0 if qa[c] else decide_a(qa, c, ua)
            jb = 0 if qb[c] else decide_b(qb, c, ub)
            if (
                randomized and ja and jb and ja != jb
                and ja in choices_b(qb, c) and jb in choices_a(qa, c)
            ):
                jb = ja
            if ja:
                old = qa[ja]
                qa[ja] = old - 1
                if in_kept[ja]:
                    gap += 1 if old <= qb[ja] else -1
            else:
                old = qa[c]
                qa[c] = old + 1
                if in_kept[c]:
                    gap += 1 if old >= qb[c] else -1
            if jb:
                old = qb[jb]
                qb[jb] = old - 1
                if in_kept[jb]:
                    gap += 1 if old <= qa[jb] else -1
            else:
                old = qb[c]
                qb[c] = old + 1
                if in_kept[c]:
                    gap += 1 if old >= qa[c] else -1
            if not in_kept[c]:
                removed += 1
            excess = gap - removed
            if excess > worst:
                worst = excess
            if excess > bound:
                violations += 1
            if not gap and coalesce:
                break
        del uas, ubs
        if not gap and coalesce:
            events += sum(len(chunk[1]) for chunk in chunks)
            break
    return events, removed, bound, worst, violations


def coupled_nonexpansive(
    graph: Graph,
    rates,
    policy: Policy,
    x: Sequence[int],
    y: Sequence[int],
    config: SimConfig,
) -> NonexpansiveReport:
    """Drive two replicas from states x and y on one arrival stream.

    The replicas' randomized decisions are drawn from independent streams
    and then glued: whenever both draws land in the intersection of the two
    available sets, the second replica copies the first replica's draw.
    This preserves each replica's decision law while keeping the 1-norm
    gap from ever exceeding the initial gap. The report counts violations
    of that bound (expected: zero).
    """
    rates, _, _ = _prepare(graph, rates, policy, config)
    qx = [0] + list(check_state(graph, x))
    qy = [0] + list(check_state(graph, y))
    step = _decision_step(policy, graph)
    events, _, bound, worst, violations = _coupled_pair(
        rates, config, policy.kind != PRIORITY, (step, step), qx, qy, set(graph.nodes)
    )
    return NonexpansiveReport(
        policy_kind=policy.kind,
        events=events,
        initial_gap=bound,
        max_gap=max(bound, worst),
        violations=violations,
    )


def restricted_policy(policy: Policy, graph: Graph, kept: frozenset[int]) -> Policy:
    """The policy induced on the graph with all kept/removed cross edges erased."""
    if policy.kind != PRIORITY:
        return policy
    new_order = {}
    for node, order in policy.order.items():
        if node in kept:
            new_order[node] = tuple(w for w in order if w in kept)
        else:
            new_order[node] = tuple(w for w in order if w not in kept)
    return Policy(PRIORITY, new_order)


def disconnected_graph(graph: Graph, kept: frozenset[int]) -> Graph:
    """Erase every edge joining the kept set and its complement."""
    edges = [(i, j) for i, j in graph.edges if (i in kept) == (j in kept)]
    return Graph(graph.node_count, edges)


def coupled_nonchaotic(
    graph: Graph,
    kept_nodes: Sequence[int],
    rates,
    policy: Policy,
    config: SimConfig,
) -> NonchaoticReport:
    """Compare the full system against the cross-edge-erased system.

    Both replicas share the arrival stream and start from the same state
    with zero queues outside the kept set. The 1-norm gap restricted to the
    kept coordinates must never exceed the number of arrivals routed to
    the removed nodes. Supports priority and uniform policies; there is no
    coupling recipe for match-the-longest here.
    """
    kept = frozenset(check_node(v, graph.node_count, "kept node")
                     for v in check_ints(kept_nodes, "kept nodes", ordered=False))
    if not kept:
        raise ValidationError("kept node set must be nonempty")
    rates, state, _ = _prepare(graph, rates, policy, config)
    if policy.kind == MATCH_LONGEST:
        raise UnsupportedPolicyError(
            "no product coupling for match-the-longest in the cross-edge experiment"
        )
    for i in graph.nodes:
        if i not in kept and state[i - 1] != 0:
            raise InvalidStateError("removed nodes must start with empty queues")
    tilde = disconnected_graph(graph, kept)
    policy_b = restricted_policy(policy, graph, kept)
    validate_policy(policy_b, tilde)

    events, removed, _, worst, violations = _coupled_pair(
        rates,
        config,
        policy.kind != PRIORITY,
        (_decision_step(policy, graph), _decision_step(policy_b, tilde)),
        [0] + list(state),
        [0] + list(state),
        kept,
    )
    return NonchaoticReport(
        policy_kind=policy.kind,
        events=events,
        removed_arrivals=removed,
        max_excess=worst if events else 0,
        violations=violations,
    )
