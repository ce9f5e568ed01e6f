"""Event engine: reproducibility, law checks, hitting times, couplings."""

import dataclasses
import importlib
import math

import numpy as np
import pytest
from oracles import coupled_per_event, simulate_per_event

from matchq.errors import (
    InsufficientSamplesError,
    NotConnectedError,
    UnsupportedPolicyError,
    ValidationError,
)
from matchq.graphs import Graph, complete_graph, cycle_graph, five_cycle_graph, pendant_graph
from matchq.marginal import pendant_alpha
from matchq.policies import (
    _CHUNK,
    five_cycle_priority_policy,
    ml_policy,
    pendant_priority_policy,
    priority_policy,
    uniform_policy,
)
from matchq.simulate import (
    SimConfig,
    SimTrace,
    coupled_nonchaotic,
    coupled_nonexpansive,
    drift_estimate,
    hitting_time,
    replication_seeds,
    simulate,
)

PENDANT = pendant_graph()
FIG_POLICY = pendant_priority_policy()
LAM = (0.1, 0.1, 0.45, 0.35)

PENDANT_PLUS = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
PENDANT_PLUS_POLICY = priority_policy(
    {1: (2, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3, 5), 5: (4,)}
)


def _cfg(**kw):
    base = dict(horizon=1.0, seed=1, initial_state=(0, 0, 0, 0), scale=1)
    base.update(kw)
    return SimConfig(**base)


def test_reproducible_bit_for_bit():
    for policy in (FIG_POLICY, ml_policy(), uniform_policy()):
        runs = [
            simulate(PENDANT, LAM, policy, _cfg(horizon=2000.0, seed=99))
            for _ in range(2)
        ]
        a, b = runs
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.classes, b.classes)
        assert np.array_equal(a.matched, b.matched)
        assert np.array_equal(a.states, b.states)
        assert a.final_state == b.final_state
        assert a.n_events == b.n_events


def _no_edge_both_positive(graph, states):
    pos = states > 0
    return not any((pos[:, a - 1] & pos[:, b - 1]).any() for a, b in graph.edges)


def test_visited_states_stay_in_state_space():
    # at stride 1 the trace records the state after every event
    c5 = five_cycle_graph()
    for policy in (FIG_POLICY, ml_policy(), uniform_policy()):
        for seed in (0, 1):
            trace = simulate(PENDANT, LAM, policy,
                             _cfg(horizon=3000.0, seed=seed, trace_stride=1))
            assert len(trace.states) == trace.n_events
            assert _no_edge_both_positive(PENDANT, trace.states)
    # the sample paths of the sim-c5-*-stride3-checked golden cases
    for policy in (five_cycle_priority_policy(), ml_policy(), uniform_policy()):
        trace = simulate(c5, (0.1, 0.1, 0.225, 0.225, 0.35), policy,
                         SimConfig(horizon=12000.0, seed=15, initial_state=(3, 0, 0, 0, 2),
                                   trace_stride=1))
        assert len(trace.states) == trace.n_events
        assert _no_edge_both_positive(c5, trace.states)


def test_triangle_at_most_one_positive_queue():
    tri = complete_graph(3)
    for policy in (
        priority_policy({1: (2, 3), 2: (1, 3), 3: (1, 2)}),
        ml_policy(),
        uniform_policy(),
    ):
        trace = simulate(tri, (1, 1, 1), policy, _cfg(horizon=2000.0, seed=5,
                                                      initial_state=(0, 0, 0)))
        assert int((trace.states > 0).sum(axis=1).max()) <= 1


def test_single_node_graph_rejected():
    with pytest.raises(NotConnectedError):
        simulate(Graph(1, ()), (1.0,), ml_policy(), SimConfig(1.0, 0, (0,)))
    with pytest.raises(NotConnectedError):
        simulate(
            Graph(4, [(1, 2), (3, 4)]),
            (1, 1, 1, 1),
            ml_policy(),
            SimConfig(1.0, 0, (0, 0, 0, 0)),
        )


def test_trace_internal_consistency():
    trace = simulate(PENDANT, LAM, FIG_POLICY, _cfg(horizon=3000.0, seed=6))
    assert np.all(np.diff(trace.times) > 0)
    # with stride 1 the snapshot classes account for every arrival
    counted = np.bincount(trace.classes, minlength=5)
    assert np.array_equal(counted, trace.arrivals)
    assert trace.n_events == len(trace.times)
    assert trace.final_state == tuple(trace.states[-1])


def test_arrival_counts_concentrate():
    horizon = 20000.0
    trace = simulate(PENDANT, LAM, FIG_POLICY, _cfg(horizon=horizon, seed=3,
                                                    trace_stride=0))
    for i, lam_i in enumerate(LAM, start=1):
        mean = lam_i * horizon
        sd = math.sqrt(mean)
        assert abs(trace.arrivals[i] - mean) < 4 * sd


def test_hitting_time_zero_start():
    trace = simulate(PENDANT, LAM, FIG_POLICY, _cfg(seed=2))
    assert hitting_time(trace, 4) == 0.0


def test_hitting_time_unstable_instance_never_within_horizon():
    trace = simulate(
        PENDANT,
        LAM,
        FIG_POLICY,
        _cfg(horizon=1.0, seed=4, initial_state=(0, 0, 0, 2000), scale=2000),
    )
    assert hitting_time(trace, 4) == math.inf
    assert trace.end_time == pytest.approx(2000.0)


def test_hitting_time_stable_instance_near_fluid_prediction():
    lam = (0.25, 0.25, 0.3, 0.1)
    rho = 1.0 / (pendant_alpha(lam) * lam[2] - lam[3])  # = 80
    hits = []
    for seed in range(5):
        trace = simulate(
            PENDANT,
            lam,
            FIG_POLICY,
            _cfg(
                horizon=160.0,
                seed=seed,
                initial_state=(0, 0, 0, 2000),
                scale=2000,
                trace_stride=0,
                stop_node=4,
            ),
        )
        hits.append(hitting_time(trace, 4))
    assert np.mean(hits) == pytest.approx(rho, rel=0.15)


def _synthetic_linear_trace(slope, n=200):
    times = np.arange(1, n + 1, dtype=float)
    states = np.zeros((n, 4), dtype=np.int64)
    states[:, 3] = 1000 + slope * times
    return SimTrace(
        node_count=4,
        scale=1,
        seed=0,
        horizon=float(n),
        times=times,
        classes=np.ones(n, dtype=np.int64),
        matched=np.zeros(n, dtype=np.int64),
        states=states,
        final_state=tuple(states[-1]),
        end_time=float(n),
        n_events=n,
        arrivals=np.zeros(5, dtype=np.int64),
        first_zero=np.array([0.0, 0.0, 0.0, np.nan]),
        empty_time=math.nan,
    )


def test_drift_estimate_exact_on_synthetic_line():
    est = drift_estimate(_synthetic_linear_trace(3), 4, window=(0.0, 200.0))
    assert est.slope == pytest.approx(3.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-9)


def test_drift_estimate_requires_samples():
    with pytest.raises(InsufficientSamplesError):
        drift_estimate(_synthetic_linear_trace(3, n=50), 4, window=(0.0, 200.0))


def test_unstable_pendant_drift_positive():
    trace = simulate(
        PENDANT,
        LAM,
        FIG_POLICY,
        _cfg(horizon=1.0, seed=11, initial_state=(0, 0, 0, 20000), scale=20000),
    )
    est = drift_estimate(trace, 4)
    assert est.slope == pytest.approx(0.0384615, rel=0.5)
    assert est.slope > 0


def test_concurrent_runs_match_serial_results():
    # the engine keeps no shared mutable state, so threaded replications
    # must reproduce serial ones exactly
    from concurrent.futures import ThreadPoolExecutor

    configs = [
        _cfg(horizon=2000.0, seed=s, initial_state=(0, 0, 0, 50)) for s in range(4)
    ]
    serial = [simulate(PENDANT, LAM, FIG_POLICY, c) for c in configs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(
            pool.map(lambda c: simulate(PENDANT, LAM, FIG_POLICY, c), configs)
        )
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.states, b.states)
        assert a.final_state == b.final_state


def test_replication_seeds_deterministic_and_distinct():
    seeds = replication_seeds(42, 10)
    assert seeds == replication_seeds(42, 10)
    assert len(set(seeds)) == 10


def test_config_validation():
    with pytest.raises(ValidationError):
        simulate(PENDANT, LAM, FIG_POLICY, SimConfig(horizon=-1, seed=0))
    with pytest.raises(ValidationError):
        simulate(PENDANT, LAM, FIG_POLICY, SimConfig(horizon=math.inf, seed=0))


# -- coupled runs -------------------------------------------------------------


def test_nonexpansive_equal_starts_stay_identical():
    # with equal states the glued decisions must coincide forever, for
    # every policy kind, so the gap stays exactly zero
    for policy in (FIG_POLICY, ml_policy(), uniform_policy()):
        rep = coupled_nonexpansive(
            PENDANT, LAM, policy, (0, 0, 0, 3), (0, 0, 0, 3),
            _cfg(horizon=math.inf, max_events=20000),
        )
        assert rep.initial_gap == 0
        assert rep.max_gap == 0
        assert rep.violations == 0


@pytest.mark.parametrize(
    "graph,policy,lam,x,y",
    [
        (PENDANT, FIG_POLICY, LAM, (0, 0, 0, 5), (0, 0, 0, 0)),
        (PENDANT, ml_policy(), LAM, (7, 0, 0, 3), (0, 4, 0, 0)),
        (
            five_cycle_graph(),
            uniform_policy(),
            (0.1, 0.1, 0.225, 0.225, 0.35),
            (3, 0, 0, 0, 2),
            (0, 4, 0, 0, 0),
        ),
    ],
)
def test_nonexpansive_bound_holds(graph, policy, lam, x, y):
    rep = coupled_nonexpansive(
        graph, lam, policy, x, y, _cfg(horizon=math.inf, max_events=100_000,
                                       initial_state=None),
    )
    assert rep.violations == 0
    assert rep.max_gap <= rep.initial_gap


def test_nonchaotic_bound_holds_on_pendant_extension():
    rep = coupled_nonchaotic(
        PENDANT_PLUS,
        [1, 2, 3, 4],
        (0.1, 0.1, 0.45, 0.35, 0.02),
        PENDANT_PLUS_POLICY,
        SimConfig(horizon=math.inf, seed=8, max_events=100_000),
    )
    assert rep.violations == 0
    assert rep.max_excess <= 0


def test_nonchaotic_uniform_policy():
    rep = coupled_nonchaotic(
        PENDANT_PLUS,
        [1, 2, 3, 4],
        (0.2, 0.2, 0.4, 0.35, 0.05),
        uniform_policy(),
        SimConfig(horizon=math.inf, seed=9, max_events=100_000),
    )
    assert rep.violations == 0


def test_nonchaotic_without_removed_arrivals_keeps_systems_identical():
    rep = coupled_nonchaotic(
        PENDANT_PLUS,
        [1, 2, 3, 4],
        (0.1, 0.1, 0.45, 0.35, 1e-15),
        PENDANT_PLUS_POLICY,
        SimConfig(horizon=math.inf, seed=10, max_events=20_000),
    )
    assert rep.removed_arrivals == 0
    assert rep.max_excess == 0  # gap stayed identically zero


def test_nonchaotic_rejects_match_longest():
    with pytest.raises(UnsupportedPolicyError):
        coupled_nonchaotic(
            PENDANT_PLUS,
            [1, 2, 3, 4],
            (0.1, 0.1, 0.45, 0.35, 0.02),
            ml_policy(),
            SimConfig(horizon=1.0, seed=0),
        )


def test_nonexpansive_on_randomized_graphs_and_states():
    rng = np.random.default_rng(23)
    policies = [ml_policy(), uniform_policy()]
    for _ in range(10):
        p = int(rng.integers(3, 7))
        # random connected graph: spanning tree plus extras
        edges = set()
        order = rng.permutation(np.arange(1, p + 1))
        for i in range(1, p):
            j = int(rng.integers(0, i))
            a, b = int(order[i]), int(order[j])
            edges.add((min(a, b), max(a, b)))
        for _ in range(p):
            a, b = sorted(rng.choice(np.arange(1, p + 1), 2, replace=False))
            edges.add((int(a), int(b)))
        graph = Graph(p, sorted(edges))
        prio = priority_policy({v: tuple(sorted(graph.neighbors(v))) for v in graph.nodes})

        def random_state():
            state = [0] * p
            for v in rng.permutation(np.arange(1, p + 1)):
                if all(state[w - 1] == 0 for w in graph.neighbors(int(v))):
                    state[int(v) - 1] = int(rng.integers(0, 6))
            return tuple(state)

        lam = tuple(rng.uniform(0.2, 1.0, p))
        for policy in policies + [prio]:
            rep = coupled_nonexpansive(
                graph, lam, policy, random_state(), random_state(),
                SimConfig(horizon=math.inf, seed=int(rng.integers(2**31)),
                          max_events=2000),
            )
            assert rep.violations == 0


def test_triangle_empty_state_recurs():
    tri = complete_graph(3)
    medians = []
    for seed in (21, 22):
        trace = simulate(tri, (1, 1, 1), ml_policy(),
                         _cfg(horizon=4000.0, seed=seed, initial_state=(0, 0, 0)))
        empty = np.where((trace.states == 0).all(axis=1))[0]
        assert len(empty) > 100
        gaps = np.diff(trace.times[empty])
        medians.append(float(np.median(gaps)))
    assert 0.3 < medians[0] / medians[1] < 3.0


# -- the decision loop against the per-event loop ---------------------------------

C5 = five_cycle_graph()
C5_RATES = (0.1, 0.1, 0.225, 0.225, 0.35)
K4 = complete_graph(4)
# (graph, rates, policy, a start with queues that empty at different times)
ORACLE_CASES = {
    "pendant-priority": (PENDANT, LAM, FIG_POLICY, (5, 0, 0, 40)),
    "pendant-ml": (PENDANT, LAM, ml_policy(), (5, 0, 0, 40)),
    "pendant-uniform": (PENDANT, LAM, uniform_policy(), (5, 0, 0, 40)),
    "c5-priority": (C5, C5_RATES, five_cycle_priority_policy(), (3, 0, 0, 0, 2)),
    "c5-ml": (C5, C5_RATES, ml_policy(), (3, 0, 0, 0, 2)),
    "c5-uniform": (C5, C5_RATES, uniform_policy(), (3, 0, 0, 0, 2)),
    "k4-uniform": (K4, (0.25,) * 4, uniform_policy(), (0, 0, 0, 30)),
}
ORACLE_STRIDES = (0, 1, 2, 3, 7, _CHUNK, _CHUNK + 1)


def _assert_same_trace(got, want):
    """Every SimTrace field equal, with the same dtype and shape for arrays
    and the same type and repr for everything else."""
    for f in dataclasses.fields(SimTrace):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), f.name
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.flags.c_contiguous, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert (type(a), repr(a)) == (type(b), repr(b)), f.name


def _same_as_per_event(graph, rates, policy, config):
    trace = simulate(graph, rates, policy, config)
    _assert_same_trace(trace, simulate_per_event(graph, rates, policy, config))
    return trace


@pytest.mark.parametrize("stride", ORACLE_STRIDES)
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_event_caps_and_horizon_match_per_event_loop(case, stride):
    graph, rates, policy, start = ORACLE_CASES[case]
    for cap in (0, 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK):
        trace = _same_as_per_event(graph, rates, policy, SimConfig(
            horizon=math.inf, seed=11, initial_state=start, trace_stride=stride,
            max_events=cap))
        assert trace.n_events == cap
    # cut by the horizon after about 10 000 events
    trace = _same_as_per_event(graph, rates, policy, SimConfig(
        horizon=10_000 / sum(rates), seed=12, initial_state=start, trace_stride=stride))
    assert _CHUNK < trace.n_events < 2 * _CHUNK
    assert trace.end_time == trace.horizon * trace.scale


@pytest.mark.parametrize("stride", (0, 1, 7, _CHUNK + 1))
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stop_conditions_match_per_event_loop(case, stride):
    graph, rates, policy, start = ORACLE_CASES[case]
    config = dict(horizon=20_000 / sum(rates), seed=13, trace_stride=stride)
    emptying = start.index(max(start)) + 1
    already_empty = start.index(0) + 1
    stopped = _same_as_per_event(graph, rates, policy, SimConfig(
        initial_state=start, stop_node=emptying, **config))
    assert stopped.final_state[emptying - 1] == 0 or stopped.end_time == 20_000 / sum(rates)
    trace = _same_as_per_event(graph, rates, policy, SimConfig(
        initial_state=start, stop_node=already_empty, **config))
    assert (trace.n_events, trace.end_time) == (0, 0.0)
    _same_as_per_event(graph, rates, policy, SimConfig(
        initial_state=start, stop_when_empty=True, **config))
    trace = _same_as_per_event(graph, rates, policy, SimConfig(
        initial_state=(0,) * graph.node_count, stop_when_empty=True, **config))
    assert (trace.n_events, trace.empty_time) == (0, 0.0)


@pytest.mark.parametrize("stride", (1, 7, _CHUNK + 1))
def test_stops_in_a_later_chunk_match_per_event_loop(stride):
    # K4 under uniform drains 5000 items on node 4 in about 10 000 events
    graph, rates, policy, _ = ORACLE_CASES["k4-uniform"]
    for stop in (dict(stop_node=4), dict(stop_when_empty=True)):
        trace = _same_as_per_event(graph, rates, policy, SimConfig(
            horizon=math.inf, seed=14, initial_state=(0, 0, 0, 5000), trace_stride=stride,
            **stop))
        assert _CHUNK < trace.n_events < 2 * _CHUNK
        assert trace.final_state == (0, 0, 0, 0)


@pytest.mark.parametrize("stride", (1, 3))
def test_more_than_255_classes_match_per_event_loop(stride):
    # a matched class above 255 does not fit the byte-wide kept decisions
    graph = cycle_graph(300)
    start = tuple(40 if v in (1, 3, 299) else 0 for v in graph.nodes)
    trace = _same_as_per_event(graph, (1.0,) * 300, uniform_policy(), SimConfig(
        horizon=math.inf, seed=15, initial_state=start, trace_stride=stride,
        max_events=_CHUNK + 500))
    assert trace.matched.max() > 255


# -- the coupled loop against the per-event loop -------------------------------------

SIM = importlib.import_module("matchq.simulate")
K4_PRIORITY = priority_policy({v: tuple(sorted(K4.neighbors(v))) for v in K4.nodes})
# (graph, rates, policy, x, y): replicas whose item totals differ by an even
# number can meet, and by an odd number never can
NONEXPANSIVE_CASES = {
    "pendant-priority-odd": (PENDANT, LAM, FIG_POLICY, (0, 0, 0, 5), (0, 0, 0, 0)),
    "k4-priority-even": (K4, (0.25,) * 4, K4_PRIORITY, (0, 0, 0, 4), (2, 0, 0, 0)),
    "pendant-ml-even": (PENDANT, LAM, ml_policy(), (7, 0, 0, 3), (0, 4, 0, 0)),
    "pendant-ml-odd": (PENDANT, LAM, ml_policy(), (7, 0, 0, 3), (0, 5, 0, 0)),
    "c5-uniform-even": (C5, C5_RATES, uniform_policy(), (3, 0, 0, 0, 2), (0, 3, 0, 0, 0)),
    "c5-uniform-odd": (C5, C5_RATES, uniform_policy(), (3, 0, 0, 0, 2), (0, 4, 0, 0, 0)),
    "k4-uniform-even": (K4, (0.25,) * 4, uniform_policy(), (0, 0, 0, 4), (2, 0, 0, 0)),
    "pendant-priority-equal": (PENDANT, LAM, FIG_POLICY, (0, 0, 0, 3), (0, 0, 0, 3)),
    "pendant-ml-equal": (PENDANT, LAM, ml_policy(), (0, 0, 0, 3), (0, 0, 0, 3)),
    "c5-uniform-equal": (C5, C5_RATES, uniform_policy(), (3, 0, 0, 0, 2), (3, 0, 0, 0, 2)),
}
# (kept nodes, rates, policy, common start) on the pendant plus an edge 4-5
NONCHAOTIC_CASES = {
    "priority": ((1, 2, 3, 4), (0.1, 0.1, 0.45, 0.35, 0.02), PENDANT_PLUS_POLICY, (0, 0, 0, 3, 0)),
    "uniform": ((1, 2, 3, 4), (0.2, 0.2, 0.4, 0.35, 0.05), uniform_policy(), (2, 0, 0, 0, 0)),
}
COUPLED_CAPS = (0, 1, _CHUNK, _CHUNK + 1)


def _coupled_configs(rates, seed):
    """The event caps, then a horizon that ends mid-chunk after about
    10 000 events."""
    for cap in COUPLED_CAPS:
        yield SimConfig(horizon=math.inf, seed=seed, max_events=cap)
    yield SimConfig(horizon=10_000 / sum(rates), seed=seed)


def _per_event(monkeypatch, run, *args):
    """run's report with the coupled loop replaced by the per-event oracle."""
    with monkeypatch.context() as m:
        m.setattr(SIM, "_coupled_pair", coupled_per_event)
        return run(*args)


def _assert_same_report(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (type(a), repr(a)) == (type(b), repr(b)), f.name


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("case", sorted(NONEXPANSIVE_CASES))
def test_nonexpansive_matches_per_event_loop(case, seed, monkeypatch):
    graph, rates, policy, x, y = NONEXPANSIVE_CASES[case]
    for config in _coupled_configs(rates, seed):
        rep = coupled_nonexpansive(graph, rates, policy, x, y, config)
        _assert_same_report(rep, _per_event(
            monkeypatch, coupled_nonexpansive, graph, rates, policy, x, y, config))
        if config.max_events is not None:
            assert rep.events == config.max_events
    assert _CHUNK < rep.events < 2 * _CHUNK


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("case", sorted(NONCHAOTIC_CASES))
def test_nonchaotic_matches_per_event_loop(case, seed, monkeypatch):
    kept, rates, policy, start = NONCHAOTIC_CASES[case]
    for config in _coupled_configs(rates, seed):
        config = dataclasses.replace(config, initial_state=start)
        rep = coupled_nonchaotic(PENDANT_PLUS, kept, rates, policy, config)
        _assert_same_report(rep, _per_event(
            monkeypatch, coupled_nonchaotic, PENDANT_PLUS, kept, rates, policy, config))
    assert rep.removed_arrivals > 0


@pytest.mark.parametrize("case", sorted(NONEXPANSIVE_CASES))
def test_coupled_replicas_stop_stepping_once_they_meet(case, monkeypatch):
    # in a run of about 10 000 events, replicas whose item totals differ by
    # an even number meet within a few hundred and then make no decisions;
    # by an odd number they never meet, and make more decisions than there
    # are events
    graph, rates, policy, x, y = NONEXPANSIVE_CASES[case]
    calls = [0]
    real = SIM._decision_step

    def counting_step(policy, graph):
        decide, choices = real(policy, graph)

        def counted(q, c, u):
            calls[0] += 1
            return decide(q, c, u)

        return counted, choices

    monkeypatch.setattr(SIM, "_decision_step", counting_step)
    rep = coupled_nonexpansive(graph, rates, policy, x, y,
                               SimConfig(horizon=10_000 / sum(rates), seed=2))
    assert rep.events > _CHUNK
    if (sum(x) - sum(y)) % 2:
        assert calls[0] > rep.events
    else:
        assert calls[0] < 1000


def test_met_replicas_under_an_event_cap_draw_no_further_chunk(monkeypatch):
    # with an infinite horizon the stream holds exactly max_events events,
    # so replicas that have met read no further chunk of it; with a finite
    # horizon the rest of the stream is still read for its length
    graph, rates, policy, x, y = NONEXPANSIVE_CASES["pendant-ml-even"]
    drawn = []
    real = SIM._arrivals

    def counting(*args):
        for chunk in real(*args):
            drawn.append(len(chunk[1]))
            yield chunk

    monkeypatch.setattr(SIM, "_arrivals", counting)
    configs = [SimConfig(horizon=math.inf, seed=2, max_events=cap)
               for cap in (1, _CHUNK, _CHUNK + 1)]
    for config in configs + [SimConfig(horizon=10_000 / sum(rates), seed=2)]:
        drawn.clear()
        rep = coupled_nonexpansive(graph, rates, policy, x, y, config)
        chunks = list(drawn)
        _assert_same_report(rep, _per_event(
            monkeypatch, coupled_nonexpansive, graph, rates, policy, x, y, config))
        if config.max_events is None:
            assert len(chunks) == 2 and chunks[1] < _CHUNK and rep.events == sum(chunks)
        else:
            assert rep.events == config.max_events and chunks == [min(config.max_events, _CHUNK)]


@pytest.mark.parametrize("stop", [dict(stop_when_empty=True), dict(stop_node=4)],
                         ids=["stop-when-empty", "stop-node"])
@pytest.mark.parametrize("horizon, scale", [(math.inf, 1), (1e305, 10_000)],
                         ids=["inf", "overflow"])
def test_coupled_runs_refuse_an_endless_stream(stop, horizon, scale, monkeypatch):
    # the coupled loops read neither stop condition, so only max_events could
    # end such a run; it is refused before the event stream is opened
    def no_events(*args, **kwargs):
        raise AssertionError("the event stream was opened")

    monkeypatch.setattr(SIM, "_arrivals", no_events)
    config = SimConfig(horizon=horizon, seed=0, scale=scale, **stop)
    with pytest.raises(ValidationError, match="max_events"):
        coupled_nonexpansive(PENDANT, LAM, ml_policy(), (0, 0, 0, 5), (0, 0, 0, 0), config)
    for case in sorted(NONCHAOTIC_CASES):
        kept, rates, policy, start = NONCHAOTIC_CASES[case]
        with pytest.raises(ValidationError, match="max_events"):
            coupled_nonchaotic(PENDANT_PLUS, kept, rates, policy,
                               dataclasses.replace(config, initial_state=start))
