"""Golden outputs: fixed (graph, policy, seed) runs pinned by sha256 digests.

Every driver of the event kernel (simulate, both coupled experiments and
the online growth) and the public match_decision are run on fixed inputs,
and their outputs are hashed field by field. So is the numeric marginal
path: the stationary law (states, probabilities, tail mass) and the fluid
report (drift, guard probabilities, tail mass, method) of fixed chains,
or the type of the error they raise, and the independent-set rate
condition as `ncond_check`, the exact region verdicts and the online
matching's margins report it. So are the closed forms of the pendant
graph and the 5-cycle: both geometric laws, fluid_report's closed route,
the node-3 and node-4 constants, the four counterexample families and
construct_nonmaximal on graphs whose witness is a 5-cycle. So is the
command line: each `matchq` run is hashed by its exit code, stdout,
stderr and every file under --out, and each subcommand's option table by
its flags, types and defaults. The digests in golden_digests.json were
recorded once; a change that alters any output bit, or the order in
which random draws are consumed, fails here.

To print the digests of the current code (only to inspect a deliberate
change of behaviour, never to refresh the fixtures silently):

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from matchq.cli import build_parser, main
import matchq.marginal
from matchq.errors import MatchQError, NotApplicableError, NotConnectedError, ReducibleError
from matchq.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    five_cycle_graph,
    is_connected,
    ncond_check,
    pendant_graph,
)
from matchq.marginal import (
    build_marginal,
    fluid_report,
    stationary_numeric,
)
from matchq.policies import (
    five_cycle_priority_policy,
    match_decision,
    ml_policy,
    pendant_priority_policy,
    priority_policy,
    uniform_policy,
)
from matchq.randgraph import (
    grow_and_match,
    tutte_condition_estimate,
    type_distribution,
)
from matchq.serialize import verdict_to_obj
from matchq.stability import (
    FAMILY_EPS_BOUND,
    FIVE_CYCLE_PRIORITY,
    FIVE_CYCLE_UNIFORM,
    PENDANT_PRIORITY,
    PENDANT_UNIFORM,
    construct_nonmaximal,
    counterexample,
    fivecycle_region,
    pendant_region,
)
from matchq.simulate import (
    SimConfig,
    coupled_nonchaotic,
    coupled_nonexpansive,
    simulate,
)
from oracles import (
    dense_row_stationary,
    rates_at,
    sliced_pinned_system,
    split,
    stationary_closed_5cycle,
    stationary_closed_pendant,
    triplet_generator,
)

DIGESTS = Path(__file__).with_name("golden_digests.json")

PENDANT = pendant_graph()
C5 = five_cycle_graph()
LAM = (0.1, 0.1, 0.45, 0.35)
C5_LAM = (0.1, 0.1, 0.225, 0.225, 0.35)
PENDANT_PLUS = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
PENDANT_PLUS_POLICY = priority_policy(
    {1: (2, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3, 5), 5: (4,)}
)
POLICIES = {
    "priority": pendant_priority_policy(),
    "ml": ml_policy(),
    "uniform": uniform_policy(),
}
C5_POLICIES = {
    "priority": five_cycle_priority_policy(),
    "ml": ml_policy(),
    "uniform": uniform_policy(),
}


def _digest(*parts) -> str:
    """sha256 over arrays (little-endian 8-byte values, with shape) and reprs."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            dtype = "<f8" if part.dtype.kind == "f" else "<i8"
            arr = np.ascontiguousarray(part, dtype=dtype)
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _trace_digest(graph, rates, policy, **config) -> str:
    tr = simulate(graph, rates, policy, SimConfig(**config))
    return _digest(
        tr.times, tr.classes, tr.matched, tr.states, tr.arrivals, tr.first_zero,
        tr.final_state, tr.end_time, tr.n_events, tr.empty_time,
        tr.node_count, tr.scale, tr.seed, tr.horizon,
    )


def _simulate_cases():
    inf = math.inf
    for name, pol in POLICIES.items():
        for stride in (1, 0):
            # horizon cutoff across two chunk boundaries, from a scaled start
            yield f"sim-{name}-horizon-s{stride}", lambda pol=pol, stride=stride: (
                _trace_digest(PENDANT, LAM, pol, horizon=2000.0, seed=11, scale=10,
                              initial_state=(0, 0, 0, 40), trace_stride=stride)
            )
            # run until the tail node empties
            yield f"sim-{name}-stopnode-s{stride}", lambda pol=pol, stride=stride: (
                _trace_digest(PENDANT, (0.2, 0.2, 0.4, 0.2), pol, horizon=inf,
                              seed=12, initial_state=(0, 0, 0, 300),
                              trace_stride=stride, stop_node=4, max_events=10**6)
            )
            # run until the whole vector is zero
            yield f"sim-{name}-empty-s{stride}", lambda pol=pol, stride=stride: (
                _trace_digest(PENDANT, (0.3, 0.3, 0.35, 0.05), pol, horizon=inf,
                              seed=13, initial_state=(0, 0, 0, 60),
                              trace_stride=stride, stop_when_empty=True,
                              max_events=10**5)
            )
            # event cap one past a chunk
            yield f"sim-{name}-cap8193-s{stride}", lambda pol=pol, stride=stride: (
                _trace_digest(PENDANT, LAM, pol, horizon=inf, seed=14,
                              trace_stride=stride, max_events=8193)
            )
    for name, pol in C5_POLICIES.items():
        # the 5-cycle has two available neighbours, so uniform and ml draw;
        # test_simulate checks every state of these paths at stride 1
        yield f"sim-c5-{name}-stride3-checked", lambda pol=pol: (
            _trace_digest(C5, C5_LAM, pol, horizon=12000.0, seed=15,
                          initial_state=(3, 0, 0, 0, 2), trace_stride=3)
        )
        yield f"sim-c5-{name}-stride50", lambda pol=pol: (
            _trace_digest(C5, (0.2,) * 5, pol, horizon=30.0, seed=16, scale=1000,
                          initial_state=(1000, 0, 0, 1000, 0), trace_stride=50)
        )
    yield "sim-k4-uniform-cap1", lambda: _trace_digest(
        complete_graph(4), (0.25,) * 4, uniform_policy(), horizon=10.0, seed=17,
        max_events=1,
    )


def _coupled_cases():
    nonexp = {
        "priority": (PENDANT, LAM, POLICIES["priority"], (0, 0, 0, 5), (0, 0, 0, 0)),
        "ml": (PENDANT, LAM, ml_policy(), (7, 0, 0, 3), (0, 4, 0, 0)),
        "uniform": (C5, C5_LAM, uniform_policy(), (3, 0, 0, 0, 2), (0, 4, 0, 0, 0)),
    }
    for name, (graph, lam, pol, x, y) in nonexp.items():
        yield f"nonexpansive-{name}", lambda a=(graph, lam, pol, x, y): _digest(
            coupled_nonexpansive(*a, SimConfig(horizon=math.inf, seed=21,
                                               max_events=30_000))
        )
    yield "nonexpansive-ml-horizon", lambda: _digest(
        coupled_nonexpansive(PENDANT, LAM, ml_policy(), (2, 0, 0, 9), (0, 0, 0, 4),
                             SimConfig(horizon=9000.0, seed=22, scale=2))
    )
    yield "nonexpansive-ml-equal", lambda: _digest(
        coupled_nonexpansive(PENDANT, LAM, ml_policy(), (0, 0, 0, 3), (0, 0, 0, 3),
                             SimConfig(horizon=math.inf, seed=23, max_events=20_000))
    )
    chaos = {
        "priority": (PENDANT_PLUS_POLICY, (0.1, 0.1, 0.45, 0.35, 0.02)),
        "uniform": (uniform_policy(), (0.2, 0.2, 0.4, 0.35, 0.05)),
    }
    for name, (pol, lam) in chaos.items():
        yield f"nonchaotic-{name}", lambda pol=pol, lam=lam: _digest(
            coupled_nonchaotic(PENDANT_PLUS, [1, 2, 3, 4], lam, pol,
                               SimConfig(horizon=math.inf, seed=24,
                                         initial_state=(0, 0, 0, 6, 0),
                                         max_events=30_000))
        )
    yield "nonchaotic-uniform-horizon", lambda: _digest(
        coupled_nonchaotic(PENDANT_PLUS, [1, 2, 3, 4], (0.2, 0.2, 0.4, 0.35, 0.05),
                           uniform_policy(), SimConfig(horizon=5000.0, seed=25))
    )


def _growth_digest(template, rates, policy, n, seed, checkpoints=None) -> str:
    g = grow_and_match(template, type_distribution(rates), policy, n, seed,
                       checkpoints=checkpoints)
    return _digest(g.partner, g.node_types, g.checkpoints, g.matched_count,
                   g.queue, g.mu)


def _growth_cases():
    for name, pol in POLICIES.items():
        yield f"growth-{name}", lambda pol=pol: _growth_digest(
            PENDANT, (0.2, 0.2, 0.4, 0.35), pol, 20_000, 31
        )
    yield "growth-c5-uniform-every", lambda: _growth_digest(
        C5, (1, 1, 1, 1, 1), uniform_policy(), 9000, 32, checkpoints=range(1, 9001)
    )
    yield "growth-c5-ml-8193", lambda: _growth_digest(
        C5, (1, 2, 1, 2, 1), ml_policy(), 8193, 33
    )


def _decision_digest() -> str:
    rng = np.random.default_rng(41)
    states = {
        "pendant": (PENDANT, [(0, 0, 0, 0), (2, 0, 0, 5), (3, 0, 0, 3), (0, 4, 0, 1),
                              (0, 0, 6, 0), (1, 0, 0, 1)]),
        "c5": (C5, [(0, 0, 0, 0, 0), (2, 0, 0, 2, 0), (0, 3, 3, 0, 0),
                    (1, 0, 0, 0, 4), (0, 0, 5, 5, 0)]),
    }
    out = []
    for gname, (graph, vectors) in states.items():
        pols = POLICIES if gname == "pendant" else C5_POLICIES
        for pname, pol in pols.items():
            for state in vectors:
                for arriving in graph.nodes:
                    if state[arriving - 1]:
                        continue
                    for _ in range(3):
                        out.append(match_decision(pol, graph, state, arriving, rng))
    # the stream position shows how many draws were taken
    out.append(rng.random())
    return _digest(out)


def _marginal_digest(graph, rates, policy, node, truncation) -> str:
    """The stationary law and the fluid report of one chain, or the type of
    the error both raise; floats enter as float.hex."""
    try:
        chain = build_marginal(graph, rates, policy, node)
        dist = stationary_numeric(chain, truncation)
        report = fluid_report(graph, rates, policy, node, 1.0, truncation=truncation)
    except MatchQError as exc:
        return _digest(type(exc).__name__)
    states = np.array(dist.states, dtype=np.int64).reshape(len(dist.states), -1)
    return _digest(
        states,
        hashlib.sha256(dist.probs.tobytes()).hexdigest(),
        dist.tail_mass.hex(),
        report.drift.hex(),
        [(j, w.hex()) for j, w in sorted(report.guard_probs.items())],
        report.tail_mass.hex(),
        report.method,
    )


def _relabel(graph, rates, policy, node, perm):
    """The instance with node v renamed perm[v]."""
    edges = [(perm[a], perm[b]) for a, b in graph.edges]
    new_rates = [0.0] * graph.node_count
    for v in graph.nodes:
        new_rates[perm[v] - 1] = rates[v - 1]
    if policy.kind == "priority":
        policy = priority_policy(
            {perm[v]: tuple(perm[w] for w in order) for v, order in policy.order.items()}
        )
    return Graph(graph.node_count, edges), tuple(new_rates), policy, perm[node]


def _nonmaximal_graphs(count, seed=51):
    """The first `count` seeded random connected 5-7-node graphs that
    construct_nonmaximal accepts."""
    rng = random.Random(seed)
    while count:
        p = rng.randint(5, 7)
        pairs = [(a, b) for a in range(1, p + 1) for b in range(a + 1, p + 1)]
        edges = rng.sample(pairs, rng.randint(p, len(pairs) - 1))
        graph = Graph(p, edges)
        try:
            inst = construct_nonmaximal(graph)
        except (NotApplicableError, NotConnectedError):
            continue
        count -= 1
        yield inst


def _marginal_chains():
    """Every chain the marginal digests pin, as (case name, graph, rates,
    policy, node, truncation): 96 chains under 56 names, since each
    nonmaximal case pins its instance under its own policy and under the
    uniform rule."""
    c7 = cycle_graph(7)
    orders = {
        "descending": priority_policy(
            {v: tuple(sorted(c7.neighbors(v), reverse=True)) for v in c7.nodes}
        ),
        # the transient case: the chain drifts to the truncation boundary
        "ascending": priority_policy({v: tuple(sorted(c7.neighbors(v))) for v in c7.nodes}),
        "uniform": uniform_policy(),
    }
    for rname, rates in (("equal", (1 / 7,) * 7), ("skewed", (0.22,) + (0.13,) * 6)):
        for oname, pol in orders.items():
            for t in (20, 60):
                yield f"marginal-c7-{rname}-{oname}-T{t}", c7, rates, pol, 1, t
    for family, bound in sorted(FAMILY_EPS_BOUND.items()):
        inst = counterexample(family, bound / 2)
        p = inst.graph.node_count
        rotation = {v: v % p + 1 for v in inst.graph.nodes}
        yield (f"marginal-family-{family}-T200",
               *_relabel(inst.graph, inst.rates, inst.policy, inst.node, rotation), 200)
    for k, inst in enumerate(_nonmaximal_graphs(40)):
        for pol in (inst.policy, uniform_policy()):
            yield f"marginal-nonmaximal-{k:02d}-T6", inst.graph, inst.rates, pol, inst.node, 6


MARGINAL_CHAINS = list(_marginal_chains())


def _marginal_cases():
    groups = {}
    for name, *chain in MARGINAL_CHAINS:
        groups.setdefault(name, []).append(chain)
    for name, chains in groups.items():
        if len(chains) == 1:
            yield name, lambda c=chains[0]: _marginal_digest(*c)
        else:
            yield name, lambda cs=chains: _digest(*(_marginal_digest(*c) for c in cs))


@pytest.mark.parametrize("graph, rates, policy, node, truncation", [
    pytest.param(*chain, id=f"{name}-{chain[2].kind}") for name, *chain in MARGINAL_CHAINS
])
def test_pinned_solve_agrees_with_dense_row_solve(graph, rates, policy, node, truncation,
                                                  monkeypatch):
    # stationary_numeric pins the empty state and drops its balance
    # equation; the oracle drops the last one for a row of ones. Q's row
    # sums vanish only to rounding, so the two systems have different
    # exact answers: within 1e-14 while the law sits inside the box, and
    # within 5e-14 once 1% or more of it lies on the truncation boundary.
    chain = build_marginal(graph, rates, policy, node)
    try:
        pinned = stationary_numeric(chain, truncation)
    except ReducibleError as exc:
        with pytest.raises(ReducibleError) as dense_exc:
            dense_row_stationary(chain, truncation)
        assert str(dense_exc.value) == str(exc)
        return
    dense = dense_row_stationary(chain, truncation)
    assert pinned.solver == dense.solver
    assert pinned.residual <= 1e-15 and dense.residual <= 1e-15
    gap = np.max(np.abs(pinned.probs - dense.probs))
    assert gap <= (1e-14 if max(pinned.tail_mass, dense.tail_mass) < 0.01 else 5e-14)
    drift = fluid_report(graph, rates, policy, node, 1.0, truncation=truncation).drift
    monkeypatch.setattr(matchq.marginal, "stationary_numeric", dense_row_stationary)
    dense_drift = fluid_report(graph, rates, policy, node, 1.0, truncation=truncation).drift
    assert np.sign(drift) == np.sign(dense_drift)
    assert abs(drift - dense_drift) <= 1e-12



def _c7_small_chains():
    """C7 at truncation 4 under the three orders MARGINAL_CHAINS pins at 20
    and 60."""
    for name, graph, rates, policy, node, truncation in MARGINAL_CHAINS:
        if name.startswith("marginal-c7-") and truncation == 20:
            yield name.replace("-T20", "-T4"), graph, rates, policy, node, 4


def _same_arrays(new, old):
    """Whether two scipy sparse matrices hold the same class, shape and CSR or
    CSC arrays, dtype and bits."""
    return type(new) is type(old) and new.shape == old.shape and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((new.data, old.data), (new.indices, old.indices),
                     (new.indptr, old.indptr))
    )


@pytest.mark.parametrize("graph, rates, policy, node, truncation", [
    pytest.param(*chain, id=f"{name}-{chain[2].kind}")
    for name, *chain in list(_c7_small_chains()) + MARGINAL_CHAINS
])
def test_direct_assembly_matches_the_sliced_route(graph, rates, policy, node, truncation,
                                                   monkeypatch):
    # stationary_numeric writes Q's CSR arrays and the pinned system straight
    # from the rate tables; the oracle assembles Q from COO triplets and
    # slices Q^T[1:, 1:] and -Q[0, 1:] from it. Q, a, b and the residual
    # must agree bit for bit.
    seen = {}
    components, solve = matchq.marginal.connected_components, matchq.marginal.spsolve

    def spy_components(q, **kw):
        seen["q"] = q
        return components(q, **kw)

    def spy_solve(a, b, **kw):
        seen["a"], seen["b"] = a, b
        return solve(a, b, **kw)

    monkeypatch.setattr(matchq.marginal, "connected_components", spy_components)
    monkeypatch.setattr(matchq.marginal, "spsolve", spy_solve)
    chain = build_marginal(graph, rates, policy, node)
    q, *_ = triplet_generator(chain, chain.enumerate_states(truncation), truncation)
    try:
        dist = stationary_numeric(chain, truncation)
    except ReducibleError:
        assert _same_arrays(seen["q"], q) and "a" not in seen
        return
    a, b = sliced_pinned_system(q)
    assert _same_arrays(seen["q"], q)
    assert _same_arrays(seen["a"], a)
    assert seen["b"].dtype == b.dtype and seen["b"].tobytes() == b.tobytes()
    assert dist.residual == float(np.max(np.abs(dist.probs @ q)))


def _wide_chain():
    """Nine pairwise adjacent coordinates behind node 2, the one neighbor of
    node 1: 201**9 overflows int64, so the state codes are Python ints."""
    outer = range(3, 12)
    edges = [(1, 2)] + [(2, v) for v in outer]
    edges += [(u, v) for u in outer for v in outer if u < v]
    rates = tuple([0.3, 0.4] + [0.01 * k for k in range(1, 10)])
    return Graph(11, edges), rates, uniform_policy(), 1, 200


def _other_kind(graph, policy):
    """The uniform rule for a priority policy, and for the uniform rule the
    priority policy that serves every node's neighbors in descending order."""
    if policy.kind == "priority":
        return uniform_policy()
    return priority_policy({v: tuple(sorted(graph.neighbors(v), reverse=True))
                            for v in graph.nodes})


@pytest.mark.parametrize("graph, rates, policy, node, truncation", [
    pytest.param(*chain, id=f"{name}-{chain[2].kind}") for name, *chain in MARGINAL_CHAINS
] + [pytest.param(*_wide_chain(), id="wide-codes")])
def test_pattern_tables_match_the_per_state_oracle(graph, rates, policy, node, truncation):
    # stationary_numeric and fluid_report compute every rate and guard
    # divisor once per support pattern and gather them by each state's
    # pattern; the oracle computes them state by state with numpy. The
    # gathered tables must agree bit for bit, under both policy kinds.
    for pol in (policy, _other_kind(graph, policy)):
        chain = build_marginal(graph, rates, pol, node)
        states = chain.enumerate_states(truncation)
        space = chain._space(truncation)
        assert np.array_equal(space.patterns[space.pattern], states > 0)
        assert np.array_equal(np.unique(space.pattern), np.arange(len(space.patterns)))
        up, down = chain.pattern_rates(space.patterns)
        want_up, want_down = rates_at(chain, states)
        assert up[space.pattern].tobytes() == want_up.tobytes()
        assert down[space.pattern].tobytes() == want_down.tobytes()
        got = [(j, d[space.pattern].tobytes()) for j, d in chain.split(space.patterns, node)]
        want = [(j, d.tobytes()) for j, d in split(chain, states > 0, node)]
        assert got == want


def _rate_graphs():
    """The pendant, the 5-cycle, C7 and K4, then the first eight seeded
    random connected graphs on 6-12 nodes."""
    yield "pendant", PENDANT
    yield "c5", C5
    yield "c7", cycle_graph(7)
    yield "k4", complete_graph(4)
    rng = random.Random(61)
    k = 0
    while k < 8:
        p = rng.randint(6, 12)
        pairs = [(a, b) for a in range(1, p + 1) for b in range(a + 1, p + 1)]
        graph = Graph(p, rng.sample(pairs, rng.randint(p - 1, 2 * p)))
        if is_connected(graph):
            yield f"random-{k}", graph
            k += 1


def _rate_vectors(graph, seed):
    """Equal rates (many tied margins), seeded random rates, rates
    proportional to the degree, and on the pendant and the 5-cycle the
    family points and one rate vector that violates the condition."""
    rng = random.Random(seed)
    p = graph.node_count
    out = [
        (1.0 / p,) * p,
        tuple(rng.uniform(0.05, 1.0) for _ in graph.nodes),
        tuple(float(len(graph.neighbors(v))) for v in graph.nodes),
    ]
    if graph in (PENDANT, C5):
        out += [inst.rates for inst in _family_instances() if inst.graph == graph]
        out.append((0.5, 0.1, 0.1, 0.3) if graph == PENDANT else (0.1,) * 4 + (0.6,))
    return out


def _family_instances():
    for family, bound in sorted(FAMILY_EPS_BOUND.items()):
        for eps in (bound / 4, bound / 2, 0.9 * bound):
            yield counterexample(family, eps)


def _ncond_digest(graph, vectors) -> str:
    out = []
    for rates in vectors:
        res = ncond_check(graph, rates)
        witness = None if res.witness is None else sorted(res.witness)
        out.append((res.satisfied, res.min_margin.hex(), sorted(res.argmin), witness))
    return _digest(out)


def _tutte_digest(graph, vectors) -> str:
    out = []
    for rates in vectors:
        margins = tutte_condition_estimate(graph, type_distribution(rates))
        out.append([(sorted(s), m.hex()) for s, m in margins.items()])
    return _digest(out)


def _region_digest(region, points) -> str:
    out = []
    for rates in points:
        try:
            out.append(verdict_to_obj(region(rates)))
        except MatchQError as exc:
            out.append(type(exc).__name__)
    return _digest(out)


def _rate_condition_cases():
    for k, (name, graph) in enumerate(_rate_graphs()):
        vectors = _rate_vectors(graph, 70 + k)
        yield f"ncond-{name}", lambda a=(graph, vectors): _ncond_digest(*a)
        yield f"tutte-{name}", lambda a=(graph, vectors): _tutte_digest(*a)
    regions = {
        "pendant": (pendant_region, (PENDANT_PRIORITY, PENDANT_UNIFORM),
                    [(0.3, 0.3, 0.35, 0.05), LAM, (0.5, 0.1, 0.1, 0.3)]),
        "c5": (fivecycle_region, (FIVE_CYCLE_PRIORITY, FIVE_CYCLE_UNIFORM),
               [(0.2,) * 5, C5_LAM, (0.1,) * 4 + (0.6,)]),
    }
    for name, (region, families, others) in regions.items():
        for family in families:
            points = [i.rates for i in _family_instances() if i.family == family]
            yield f"region-{name}-{family}", lambda a=(region, points): _region_digest(*a)
        # a stable point, an unstable one off the families, and one that
        # fails the rate condition
        yield f"region-{name}-off-family", lambda a=(region, others): _region_digest(*a)


def _hexed(value):
    """Floats as float.hex, inside tuples, lists and dicts."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_hexed(v) for v in value]
    if isinstance(value, dict):
        return sorted((k, _hexed(v)) for k, v in value.items())
    return value


def _closed_digest(fn, *args) -> str:
    """The fields of fn(*args), floats as float.hex, or its error's type and text."""
    try:
        out = fn(*args)
    except MatchQError as exc:
        return _digest(type(exc).__name__, str(exc))
    if isinstance(out, tuple):  # (alpha, StationaryDist)
        alpha, dist = out
        return _digest(alpha.hex(), dist.state_array, dist.probs, dist.tail_mass.hex(),
                       dist.method, dist.solver, dist.residual)
    return _digest(_hexed(vars(out)))


def _instance_digest(inst) -> str:
    order = inst.policy.order and sorted(inst.policy.order.items())
    return _digest(inst.graph.edges, _hexed(inst.rates), inst.policy.kind, order,
                   inst.node, inst.drift.hex(), inst.family, _hexed(inst.eps),
                   _hexed(inst.notes))


# The closed forms: the glued-rays laws of the pendant graph and the
# 5-cycle, every drift read from them, and transplants of the 5-cycle.
CLOSED_POINTS = {
    "pendant": (PENDANT, 4, {"priority": pendant_priority_policy(), "uniform": uniform_policy()},
                [LAM, (0.3, 0.3, 0.35, 0.05), (0.12, 0.21, 0.4, 0.3), (0.35, 0.2, 0.3, 0.25)]),
    "c5": (C5, 5, {"priority": five_cycle_priority_policy(), "uniform": uniform_policy()},
           [C5_LAM, (0.13, 0.21, 0.3, 0.27, 0.3), (0.3, 0.15, 0.2, 0.3, 0.25),
            (0.5, 0.1, 0.1, 0.1, 0.2)]),
}


def _c5_witness_graphs():
    """The 5-cycle, the 5-cycle with a node on a chordless 4-cycle, and the
    Petersen graph: each classifies with an induced 5-cycle as witness."""
    yield "c5", C5
    yield "c5-plus", Graph(6, list(C5.edges) + [(1, 6), (4, 6)])
    ring = [(v, v % 5 + 1) for v in range(1, 6)]
    star = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    yield "petersen", Graph(10, ring + star + [(v, v + 5) for v in range(1, 6)])


def _closed_form_cases():
    for name, (graph, node, policies, points) in CLOSED_POINTS.items():
        for pname, pol in policies.items():
            for t in (5, 200):
                yield f"closed-fluid-{name}-{pname}-T{t}", lambda a=(graph, node, pol, points, t): (
                    _digest([_closed_digest(fluid_report, a[0], r, a[2], a[1], 2.0, a[4])
                             for r in a[3]])
                )
        closed = stationary_closed_pendant if name == "pendant" else stationary_closed_5cycle
        yield f"closed-stationary-{name}", lambda a=(closed, points): _digest(
            [_closed_digest(a[0], r, t) for r in a[1] for t in (1, 3, 7)]
        )
    for family, bound in sorted(FAMILY_EPS_BOUND.items()):
        yield f"closed-counterexample-{family}", lambda f=family, b=bound: _digest(
            [_instance_digest(counterexample(f, x * b)) for x in (0.01, 0.125, 0.25, 0.5, 0.9)]
        )
    for name, graph in _c5_witness_graphs():
        yield f"closed-construct-{name}", lambda g=graph: _digest(
            _instance_digest(construct_nonmaximal(g)),
            _instance_digest(construct_nonmaximal(g, 0.05)),
        )

# -- the command line -------------------------------------------------------------

# Instance files, written into a fresh working directory for each run and
# named by relative paths, so the manifest bytes do not depend on where
# the test runs.
CLI_FILES = {
    "pendant.json": {"nodes": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]]},
    "g5.json": {"nodes": 5, "edges": [[1, 2], [1, 3], [2, 3], [3, 4], [4, 5]]},
    "square.json": {"nodes": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
    "k3.json": {"nodes": 3, "edges": [[1, 2], [1, 3], [2, 3]]},
    "rates.json": {"rates": list(LAM)},
    "far.json": {"rates": [0.5, 0.1, 0.05, 0.3]},
    "priority.json": {"kind": "priority",
                      "order": {"1": [2, 3], "2": [1, 3], "3": [1, 2, 4], "4": [3]}},
    "ml.json": {"kind": "ml"},
    "uniform.json": {"kind": "uniform"},
}
_INSTANCE = ["--graph", "pendant.json", "--rates", "rates.json"]
CLI_RUNS = {
    "analyze": ["analyze", "--graph", "pendant.json"],
    "ncond": ["ncond"] + _INSTANCE,
    "fluid": ["fluid"] + _INSTANCE + ["--policy", "priority.json", "--node", "4"],
    "simulate": ["simulate"] + _INSTANCE + [
        "--policy", "priority.json", "--seed", "7", "--horizon", "1", "--scale", "400",
        "--init-node", "4", "--node", "4"],
    "stability": ["stability"] + _INSTANCE,
    "counterexample": ["counterexample", "pendant-priority", "0.2"],
    "construct-nonmaximal": ["construct-nonmaximal", "--graph", "g5.json"],
    "randgraph": ["randgraph"] + _INSTANCE + [
        "--policy", "uniform.json", "--n", "300", "--seed", "4"],
}
CLI_EXTRA = {
    "simulate-replications": CLI_RUNS["simulate"] + ["--replications", "3"],
    "simulate-ml-init": ["simulate"] + _INSTANCE + [
        "--policy", "ml.json", "--seed", "11", "--horizon", "2", "--scale", "50",
        "--init", "0,0,0,30", "--stride", "3"],
    "randgraph-matching": CLI_RUNS["randgraph"] + ["--matching-out"],
    "stability-empirical": ["stability"] + _INSTANCE + [
        "--policy", "priority.json", "--empirical", "--seed", "5",
        "--replications", "2", "--scales", "20", "40", "--horizon", "1"],
    "construct-eps": ["construct-nonmaximal", "--graph", "g5.json", "--eps", "0.1"],
}
CLI_ERRORS = {
    "exit2-eps": ["counterexample", "pendant-priority", "0.9"],
    "exit2-eps-at-bound": ["counterexample", "pendant-priority", "0.4"],
    "exit2-missing-file": ["analyze", "--graph", "absent.json"],
    "exit2-truncation": CLI_RUNS["fluid"] + ["--truncation", "0"],
    "exit2-node": CLI_RUNS["fluid"][:-1] + ["9"],
    "exit2-empirical-seed": ["stability"] + _INSTANCE + [
        "--policy", "priority.json", "--empirical"],
    "exit2-init": CLI_RUNS["simulate"] + ["--init", "1,x", "--out", "out"],
    "exit3-stability": ["stability", "--graph", "square.json", "--rates", "rates.json"],
    "exit3-construct": ["construct-nonmaximal", "--graph", "k3.json", "--out", "out"],
    "exit3-policy": ["fluid"] + _INSTANCE + ["--policy", "ml.json", "--node", "4"],
    "exit3-region": ["fluid", "--graph", "pendant.json", "--rates", "far.json",
                     "--policy", "priority.json", "--node", "4"],
    "exit4-budget": ["stability"] + _INSTANCE + [
        "--policy", "priority.json", "--empirical", "--seed", "1",
        "--replications", "2", "--scales", "100000000", "200000000", "--horizon", "1"],
}


def _cli_digest(argv) -> str:
    """Run `matchq argv` in a fresh working directory; hash its exit code,
    stdout, stderr and every file it wrote, by relative path."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, obj in CLI_FILES.items():
                Path(name).write_text(json.dumps(obj))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            written = sorted(
                (str(f), hashlib.sha256(f.read_bytes()).hexdigest())
                for f in Path().rglob("*") if f.is_file() and f.name not in CLI_FILES
            )
        finally:
            os.chdir(cwd)
    return _digest(code, out.getvalue(), err.getvalue(), written)


def _options_digest(command) -> str:
    """A subcommand's option table; --help is not hashed, as its line
    width follows the terminal."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    rows = sorted(
        (a.dest, a.option_strings, getattr(a.type, "__name__", a.type), a.default,
         a.choices, a.required, a.nargs)
        for a in sub.choices[command]._actions
    )
    return _digest(rows)


def _cli_cases():
    for command, argv in CLI_RUNS.items():
        for fmt in ("json", "csv"):
            yield f"cli-{command}-{fmt}", lambda a=argv + ["--format", fmt]: _cli_digest(a)
            yield f"cli-{command}-{fmt}-out", lambda a=argv + [
                "--format", fmt, "--out", "out"]: _cli_digest(a)
        yield f"cli-options-{command}", lambda c=command: _options_digest(c)
    for name, argv in CLI_EXTRA.items():
        yield f"cli-{name}", lambda a=argv: _cli_digest(a)
        for fmt in ("json", "csv"):
            yield f"cli-{name}-{fmt}-out", lambda a=argv + [
                "--format", fmt, "--out", "out"]: _cli_digest(a)
    for name, argv in CLI_ERRORS.items():
        yield f"cli-{name}", lambda a=argv: _cli_digest(a)


CASES = dict(_simulate_cases())
CASES.update(_coupled_cases())
CASES.update(_growth_cases())
CASES["match-decision-sequence"] = _decision_digest
CASES.update(_marginal_cases())
CASES.update(_rate_condition_cases())
CASES.update(_closed_form_cases())
CASES.update(_cli_cases())


def _expected() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_case_has_a_digest():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == _expected()[name]


# The C7 tail mass sums 11,041 state probabilities and the fit 18,063 rows,
# both long enough for BLAS to split a dot product across its threads.
_THREAD_PROBE = """
import math
from matchq.graphs import cycle_graph, pendant_graph
from matchq.marginal import build_marginal, stationary_numeric
from matchq.policies import pendant_priority_policy, priority_policy
from matchq.simulate import SimConfig, drift_estimate, simulate
c7 = cycle_graph(7)
order = priority_policy({v: tuple(sorted(c7.neighbors(v))) for v in c7.nodes})
tail = stationary_numeric(build_marginal(c7, (1 / 7,) * 7, order, 1), 60).tail_mass
trace = simulate(pendant_graph(), (0.1, 0.1, 0.45, 0.35), pendant_priority_policy(),
                 SimConfig(horizon=math.inf, seed=1, initial_state=(0, 0, 0, 100),
                           max_events=20000))
fit = drift_estimate(trace, 4)
print(tail.hex(), fit.slope.hex(), fit.stderr.hex(), fit.samples)
"""


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # a dot product split across BLAS threads adds in another order, so
    # every float sum that reaches a report must be order-fixed
    src = str(Path(matchq.marginal.__file__).parents[1])
    seen = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        seen.add(run.stdout)
    assert len(seen) == 1, seen


if __name__ == "__main__":
    print(json.dumps({name: CASES[name]() for name in sorted(CASES)}, indent=1))
