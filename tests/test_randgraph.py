"""Online growth and matching: coupling with the queue, exact counting."""

import dataclasses
import math

import numpy as np
import pytest

from matchq import serialize as ser
from matchq.cli import main
from matchq.errors import TooLargeError, ValidationError
from matchq.graphs import Graph, complete_graph, cycle_graph, five_cycle_graph, pendant_graph
from matchq.policies import (
    five_cycle_priority_policy,
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
from matchq.simulate import SimConfig, simulate

from oracles import grow_with_deques, matching_edges, matching_is_valid

TRIANGLE = complete_graph(3)
EDGE = Graph(2, [(1, 2)])
# The two AC-10 templates: the triangle and the destabilised pendant.
AC10 = {
    "triangle": (TRIANGLE, (1, 1, 1)),
    "pendant": (pendant_graph(), (0.2, 0.2, 0.4, 0.35)),
}


# Templates with their rates and one policy of each kind, for the sweep
# against the node-by-node pairing.
SWEEP = {
    "triangle": (TRIANGLE, (1, 2, 3), {
        "priority": priority_policy({1: (2, 3), 2: (3, 1), 3: (1, 2)}),
        "ml": ml_policy(), "uniform": uniform_policy()}),
    "pendant": (pendant_graph(), (0.2, 0.2, 0.4, 0.35), {
        "priority": pendant_priority_policy(),
        "ml": ml_policy(), "uniform": uniform_policy()}),
    "c5": (five_cycle_graph(), (1, 2, 1, 2, 1), {
        "priority": five_cycle_priority_policy(),
        "ml": ml_policy(), "uniform": uniform_policy()}),
}


def _sweep_cases():
    """89 growth runs: the five golden inputs, each template under each
    kind at chunk-edge and larger sizes, explicit checkpoint lists, and
    default checkpoints at sizes around the step of 100."""
    pendant, c5 = SWEEP["pendant"][0], SWEEP["c5"][0]
    for kind, pol in SWEEP["pendant"][2].items():
        yield f"golden-{kind}", (pendant, (0.2, 0.2, 0.4, 0.35), pol, 20_000, 31, None)
    yield "golden-c5-uniform-every", (c5, (1, 1, 1, 1, 1), uniform_policy(), 9000, 32,
                                      range(1, 9001))
    yield "golden-c5-ml-8193", (c5, (1, 2, 1, 2, 1), ml_policy(), 8193, 33, None)
    for name, (graph, lam, pols) in SWEEP.items():
        for kind, pol in pols.items():
            for n in (0, 1, 8191, 8192, 8193, 20_000):
                yield f"{name}-{kind}-{n}", (graph, lam, pol, n, 40 + n, None)
            yield f"{name}-{kind}-listed", (graph, lam, pol, 8193, 7,
                                            [0, 5, 5, 8192, 3, 8193, 8194, 10**9])
            yield f"{name}-{kind}-every", (graph, lam, pol, 8193, 8, range(1, 8194))
        for n in (99, 100, 101, 12_345):
            yield f"{name}-uniform-default-{n}", (graph, lam, uniform_policy(), n, 9, None)


SWEEP_CASES = dict(_sweep_cases())


def test_sweep_has_89_cases():
    assert len(SWEEP_CASES) == 89


def _assert_same_growth(got, want):
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            # repr tells a numpy scalar from the oracle's Python int
            assert a == b and repr(a) == repr(b), f.name


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_growth_equals_the_node_by_node_pairing(case):
    graph, lam, pol, n, seed, cps = SWEEP_CASES[case]
    mu = type_distribution(lam)
    got = grow_and_match(graph, mu, pol, n, seed, checkpoints=cps)
    want = grow_with_deques(graph, mu, pol, n, seed, checkpoints=cps)
    _assert_same_growth(got, want)


def _path(nodes):
    return Graph(nodes, [(i, i + 1) for i in range(1, nodes)])


@pytest.mark.parametrize("template, n", [(cycle_graph(300), 20_000), (_path(32_767), 9000)])
def test_growth_past_255_types_equals_the_node_by_node_pairing(template, n):
    # past 255 types the kept decisions are not read through bytes(), and
    # 32,767 is the largest type the int16 stores hold
    mu = type_distribution([1] * template.node_count)
    got = grow_and_match(template, mu, uniform_policy(), n, 5)
    want = grow_with_deques(template, mu, uniform_policy(), n, 5)
    assert (got.partner[got.node_types > 256] >= 0).any()
    _assert_same_growth(got, want)


def test_template_past_int16_types_is_refused(tmp_path, capsys):
    # a type of 32,768 or more does not fit the int16 type store; refused
    # before any event is drawn, through the API and the CLI (exit 2)
    path = _path(32_768)
    with pytest.raises(TooLargeError, match="32767"):
        grow_and_match(path, type_distribution([1] * 32_768), uniform_policy(), 10, 0)
    ser.dump_json(ser.graph_to_obj(path), tmp_path / "path.json")
    ser.dump_json({"rates": [1] * 32_768}, tmp_path / "rates.json")
    ser.dump_json({"kind": "uniform"}, tmp_path / "uniform.json")
    argv = ["randgraph", "--graph", str(tmp_path / "path.json"), "--rates",
            str(tmp_path / "rates.json"), "--policy", str(tmp_path / "uniform.json"),
            "--seed", "1", "--n", "200000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "32767" in captured.err


def test_type_distribution():
    assert type_distribution((1, 1, 2)) == (0.25, 0.25, 0.5)
    with pytest.raises(ValidationError):
        type_distribution((1, 0, 1))


@pytest.mark.parametrize(
    "template,policy",
    [
        (TRIANGLE, uniform_policy()),
        (TRIANGLE, ml_policy()),
        (pendant_graph(), pendant_priority_policy()),
    ],
)
def test_growth_couples_exactly_with_queue_simulation(template, policy):
    mu = type_distribution([1.0] * template.node_count)
    n = 400
    growth = grow_and_match(template, mu, policy, n, seed=314,
                            checkpoints=range(1, n + 1))
    trace = simulate(
        template,
        mu,
        policy,
        SimConfig(horizon=float("inf"), seed=314, max_events=n, trace_stride=1),
    )
    assert len(growth.checkpoints) == n == len(trace.times)
    for (at_n, _, queue) in growth.checkpoints:
        assert tuple(trace.states[at_n - 1]) == queue


def test_matched_count_identity_at_every_checkpoint():
    mu = type_distribution((2, 1, 1, 1))
    growth = grow_and_match(pendant_graph(), mu, uniform_policy(), 5000, seed=5,
                            checkpoints=range(1, 5001))
    for n, matched, queue in growth.checkpoints:
        assert matched == n - sum(queue)


def test_matching_validity():
    growth = grow_and_match(TRIANGLE, type_distribution((1, 1, 1)),
                            uniform_policy(), 3000, seed=6)
    assert matching_is_valid(growth)
    empty = grow_and_match(TRIANGLE, type_distribution((1, 1, 1)),
                           uniform_policy(), 0, seed=6)
    assert matching_is_valid(empty)
    # self-partner corruption breaks the involution
    matched_ids = np.nonzero(growth.partner >= 0)[0]
    growth.partner[matched_ids[0]] = matched_ids[0]
    assert not matching_is_valid(growth)
    # partner pointing at a third node breaks symmetry
    growth2 = grow_and_match(TRIANGLE, type_distribution((1, 1, 1)),
                             uniform_policy(), 3000, seed=6)
    ids = np.nonzero(growth2.partner >= 0)[0]
    current = growth2.partner[ids[0]]
    target = next(i for i in ids if i != ids[0] and i != current)
    growth2.partner[ids[0]] = target
    assert not matching_is_valid(growth2)


def test_default_checkpoints_cover_the_run():
    growth = grow_and_match(TRIANGLE, type_distribution((1, 1, 1)),
                            uniform_policy(), 12345, seed=2)
    ns = [n for n, _, _ in growth.checkpoints]
    assert len(ns) >= 100
    assert ns[-1] == 12345
    assert ns == sorted(ns)


def test_empty_growth():
    growth = grow_and_match(TRIANGLE, type_distribution((1, 1, 1)),
                            uniform_policy(), 0, seed=1)
    assert growth.checkpoints == []
    assert growth.matched_count == 0
    with pytest.raises(ValidationError):
        growth.matched_fraction()


@pytest.mark.parametrize("n", [0, 1, 2, 300, 100_000])
@pytest.mark.parametrize("template", sorted(AC10))
def test_matching_edges_match_the_node_by_node_scan(template, n):
    graph, lam = AC10[template]
    growth = grow_and_match(graph, type_distribution(lam), uniform_policy(), n, seed=1010)
    edges = growth.matching_edges()
    assert edges == matching_edges(growth)
    assert all(type(u) is int and type(v) is int for u, v in edges)
    assert 2 * len(edges) == growth.matched_count
    u, v = growth.matching_arrays()
    assert (u.tolist(), v.tolist()) == ([e[0] for e in edges], [e[1] for e in edges])


def test_bipartite_edge_template_limited_by_scarcer_side():
    mu = (0.6, 0.4)
    growth = grow_and_match(EDGE, mu, uniform_policy(), 200_000, seed=11)
    # every item of the scarcer type is matched almost surely, so the
    # matched fraction approaches 2 * 0.4
    assert growth.matched_fraction() == pytest.approx(0.8, abs=0.02)
    assert matching_is_valid(growth)


def test_tutte_margins_triangle():
    margins = tutte_condition_estimate(TRIANGLE, (1 / 3, 1 / 3, 1 / 3))
    assert set(margins) == {frozenset({1}), frozenset({2}), frozenset({3})}
    for v in margins.values():
        assert v == pytest.approx(-1 / 3, abs=1e-12)


def test_tutte_margins_single_edge_boundary():
    margins = tutte_condition_estimate(EDGE, (0.5, 0.5))
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in margins.values())


def test_tutte_margins_pendant_family_all_negative():
    lam = (0.1, 0.1, 0.45, 0.35)
    mu = type_distribution(lam)
    margins = tutte_condition_estimate(pendant_graph(), mu)
    assert all(v < 0 for v in margins.values())
    assert min(margins.values()) == pytest.approx(-0.45, abs=1e-12)
    assert max(margins.values()) == pytest.approx(-0.1, abs=1e-12)


@pytest.mark.parametrize("mu", [(math.nan, 0.2, 0.3, 0.4), (-0.1, 0.3, 0.4, 0.4),
                                (0.3, 0.3, 0.4)])
def test_tutte_rejects_invalid_mu(mu):
    with pytest.raises(ValidationError):
        tutte_condition_estimate(pendant_graph(), mu)


def test_tutte_cap():
    path = Graph(21, [(i, i + 1) for i in range(1, 21)])
    with pytest.raises(TooLargeError):
        tutte_condition_estimate(path, [1.0 / 21] * 21)


def test_mu_must_be_normalized():
    with pytest.raises(ValidationError):
        grow_and_match(TRIANGLE, (1, 1, 1), uniform_policy(), 10, seed=0)
