"""Inputs that used to slip through: run configs, seeds, non-finite rates and
q0, CLI argv; and the exit code each error class carries through the CLI."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import matchq
import matchq.serialize as ser
from matchq.cli import main
from matchq.errors import (
    DuplicateEdgeError,
    IndexOutOfRangeError,
    MatchQError,
    NotConnectedError,
    SelfLoopError,
    ValidationError,
)
from matchq.graphs import (
    Graph,
    check_rates,
    classify,
    complete_graph,
    cycle_graph,
    ncond_check,
    pendant_graph,
)
from matchq.marginal import (
    _CLOSED_FORMS,
    CLOSED_FORM_PENDANT,
    build_marginal,
    fluid_report,
)
from matchq.policies import (
    Policy,
    match_decision,
    ml_policy,
    pendant_priority_policy,
    priority_policy,
    uniform_policy,
)
from matchq.randgraph import grow_and_match, type_distribution
from matchq.simulate import (
    SimConfig,
    coupled_nonchaotic,
    coupled_nonexpansive,
    drift_estimate,
    hitting_time,
    replication_seeds,
    simulate,
)
from matchq.stability import ClassifyBudget, empirical_classify, exact_region, pendant_region

PENDANT = pendant_graph()
LAM = (0.1, 0.1, 0.45, 0.35)


@pytest.mark.parametrize(
    "bad",
    [
        dict(stop_node=0),
        dict(stop_node=5),
        dict(stop_node=-1),
        dict(max_events=-1),
        dict(trace_stride=-1),
    ],
)
def test_run_config_out_of_range_rejected(bad):
    config = SimConfig(horizon=10.0, seed=0, initial_state=(0, 0, 0, 3), **bad)
    with pytest.raises(ValidationError):
        simulate(PENDANT, LAM, pendant_priority_policy(), config)
    with pytest.raises(ValidationError):
        coupled_nonexpansive(PENDANT, LAM, ml_policy(), (0, 0, 0, 1), (0, 0, 0, 0),
                             config)


def test_run_config_edges_still_accepted():
    config = SimConfig(horizon=10.0, seed=0, initial_state=(0, 0, 0, 3),
                       stop_node=4, max_events=0, trace_stride=0)
    trace = simulate(PENDANT, LAM, uniform_policy(), config)
    assert trace.n_events == 0 and trace.end_time == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rates_rejected(bad):
    rates = (0.1, bad, 0.45, 0.35)
    with pytest.raises(ValidationError):
        check_rates(PENDANT, rates)
    with pytest.raises(ValidationError):
        pendant_region(rates)
    with pytest.raises(ValidationError):
        type_distribution(rates)


# Each rate is finite but their sum is not. The exact margin of {1, 4} is
# -5e306, while both of its float sums overflow to inf and inf - inf is NaN,
# which a smallest-margin scan skips: the condition read as satisfied.
OVERFLOWING = (1e308, 0.9e308, 1e308, 0.95e308)


def test_rates_with_an_infinite_sum_rejected():
    with pytest.raises(ValidationError, match="finite sum"):
        check_rates(PENDANT, OVERFLOWING)
    with pytest.raises(ValidationError, match="finite sum"):
        ncond_check(PENDANT, OVERFLOWING)


# Rate vectors whose entries are not real numbers: a string or a bool
# entry used to pass through float(), a string read as its characters, an
# int too large for a float raised a bare OverflowError and a bare number
# a bare TypeError.
NON_REAL_RATES = {
    "str-entry": ("0.1", 0.1, 0.45, 0.35),
    "bool-entry": (True, 0.1, 0.45, 0.35),
    "none-entry": (None, 0.1, 0.45, 0.35),
    "str": "1234",
    "huge-int-entry": (10**400, 0.1, 0.45, 0.35),
    "int": 5,
    "none": None,
}


@pytest.mark.parametrize("rates", NON_REAL_RATES.values(), ids=NON_REAL_RATES)
def test_non_real_rates_rejected(rates):
    with pytest.raises(ValidationError):
        check_rates(PENDANT, rates)
    with pytest.raises(ValidationError):
        type_distribution(rates)
    with pytest.raises(ValidationError):
        grow_and_match(PENDANT, rates, uniform_policy(), 10, seed=0)


def test_rate_vectors_of_ints_and_numpy_reals_pass():
    assert check_rates(PENDANT, (1, np.int64(2), np.float32(0.5), 0.25)) == (1.0, 2.0, 0.5, 0.25)
    assert all(type(r) is float for r in check_rates(PENDANT, np.array(LAM)))
    assert type_distribution((1, 1, 2)) == (0.25, 0.25, 0.5)


def test_empty_type_distribution_rejected():
    with pytest.raises(ValidationError):
        type_distribution([])


def test_cli_ncond_rates_with_an_infinite_sum_exit_2(files, capsys):
    ser.dump_json({"rates": list(OVERFLOWING)}, files / "huge.json")
    argv = ["ncond", "--graph", str(files / "pendant.json"), "--rates", str(files / "huge.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "finite sum" in captured.err and captured.out == ""


def test_nan_type_distribution_rejected_by_growth():
    mu = (0.25, math.nan, 0.5, 0.25)
    with pytest.raises(ValidationError):
        grow_and_match(PENDANT, mu, uniform_policy(), 10, seed=0)


def test_infinite_rate_rejected_before_the_event_loop(monkeypatch):
    # an infinite rate makes every gap zero, so a finite horizon would
    # never be reached; the run must be refused before any event is drawn
    def no_events(*args, **kwargs):
        raise AssertionError("the event stream was opened")

    # simulate's events come from policies._queue_run, which reads _arrivals
    monkeypatch.setattr(sys.modules["matchq.policies"], "_arrivals", no_events)
    with pytest.raises(ValidationError):
        simulate(PENDANT, (0.1, math.inf, 0.45, 0.35), ml_policy(),
                 SimConfig(horizon=1.0, seed=0))


def test_horizon_overflowing_with_the_scale_is_refused(files):
    # horizon * scale overflows to inf, so the run would never reach its
    # end; a subprocess with a timeout fails instead of hanging
    env = dict(os.environ, PYTHONPATH=str(Path(matchq.__file__).parents[1]))
    argv = _simulate_argv(files, "--scale", "10000", "--stride", "0")
    argv[argv.index("--horizon") + 1] = "1e305"
    run = subprocess.run([sys.executable, "-m", "matchq.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=10)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    config = SimConfig(horizon=1e305, seed=0, scale=10000, max_events=10)
    assert simulate(PENDANT, LAM, ml_policy(), config).n_events == 10


# Instance files that used to load as something else without an error: a
# fractional or boolean number read as an integer, an edge of three
# entries cut to two, a boolean rate read as 1.0, a string read as the
# list of its characters or as the number it spells ("1_0" as 10), an
# order key that int() reads ("01" as node 1, "0_4" as node 4), an order
# that an ml or uniform policy dropped. Each one now exits 2, as does a
# file that is not JSON or lacks a required key.
PENDANT_ORDER = {"1": [2, 3], "2": [1, 3], "3": [1, 2, 4], "4": [3]}
PENDANT_EDGES = [[1, 2], [1, 3], [2, 3], [3, 4]]
BAD_FILES = {
    "graph-fractional-edge": ("graph", {"nodes": 3, "edges": [[1.9, 2.2], [2, 3]]}),
    "graph-three-entry-edge": ("graph", {"nodes": 3, "edges": [[1, 2, 3], [2, 3]]}),
    "graph-fractional-nodes": ("graph", {"nodes": 2.7, "edges": [[1, 2]]}),
    "graph-boolean-nodes": ("graph", {"nodes": True, "edges": []}),
    "graph-string-nodes": ("graph", {"nodes": "4", "edges": PENDANT_EDGES}),
    "graph-string-endpoints": (
        "graph", {"nodes": 4, "edges": [["1", "2"]] + PENDANT_EDGES[1:]}),
    "graph-no-edges-key": ("graph", {"nodes": 4}),
    "graph-not-json": ("graph", '{"nodes": 4, "edges": [[1, 2]'),
    "rates-boolean": ("rates", {"rates": [True, 0.1, 0.45, 0.35]}),
    "rates-string": ("rates", {"rates": "1234"}),
    "rates-string-entry": ("rates", {"rates": ["1_0", 0.1, 0.45, 0.35]}),
    "policy-fractional-entry": (
        "policy", {"kind": "priority", "order": {**PENDANT_ORDER, "3": [1, 2.5, 4]}}),
    "policy-padded-key": (
        "policy", {"kind": "priority", "order": {**PENDANT_ORDER, "01": [3, 2]}}),
    "policy-underscored-key": ("policy", {"kind": "priority", "order": {
        "1": [2, 3], "2": [1, 3], "3": [1, 2, 4], "0_4": [3]}}),
    "policy-ml-with-order": ("policy", {"kind": "ml", "order": PENDANT_ORDER}),
    "policy-uniform-with-order": ("policy", {"kind": "uniform", "order": PENDANT_ORDER}),
}


def _cli_argv(d, kind, path):
    """A command that reads the file at path as the given kind, with good
    files for its other inputs."""
    if kind == "graph":
        return ["analyze", "--graph", str(path)]
    if kind == "rates":
        return ["ncond", "--graph", str(d / "pendant.json"), "--rates", str(path)]
    return ["simulate", "--graph", str(d / "pendant.json"), "--rates", str(d / "rates.json"),
            "--policy", str(path), "--seed", "1", "--horizon", "1"]


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_cli_misread_instance_file_exit_2(files, capsys, case):
    kind, content = BAD_FILES[case]
    path = files / f"{case}.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main(_cli_argv(files, kind, path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_graph_with_too_few_edges_to_be_connected_is_refused_before_it_is_built():
    # a node count above the edge count plus one cannot be connected, and
    # a table with one entry per node of 10**9 would exhaust memory
    with pytest.raises(NotConnectedError):
        ser.graph_from_obj({"nodes": 10**9, "edges": [[1, 2]]})
    with pytest.raises(NotConnectedError):
        ser.graph_from_obj({"nodes": 4, "edges": [[1, 2], [2, 3]]})
    path = ser.graph_from_obj({"nodes": 3, "edges": [[1, 2], [2, 3]]})
    assert path.node_count == 3


def test_well_formed_numbers_still_parse():
    assert ser.graph_from_obj({"nodes": 4.0, "edges": [list(e) for e in PENDANT.edges]}) == PENDANT
    assert ser.rates_from_obj({"rates": [1, 0.5, 3, 2]}) == (1.0, 0.5, 3.0, 2.0)
    policy = ser.policy_from_obj({"kind": "priority", "order": PENDANT_ORDER})
    assert policy == pendant_priority_policy()


@pytest.fixture
def files(tmp_path):
    ser.dump_json(ser.graph_to_obj(PENDANT), tmp_path / "pendant.json")
    ser.dump_json({"rates": list(LAM)}, tmp_path / "rates.json")
    ser.dump_json(ser.policy_to_obj(ml_policy()), tmp_path / "ml.json")
    return tmp_path


def _simulate_argv(d, *extra):
    return [
        "simulate", "--graph", str(d / "pendant.json"), "--rates",
        str(d / "rates.json"), "--policy", str(d / "ml.json"), "--seed", "1",
        "--horizon", "1", *extra,
    ]


def test_manifest_records_the_argv_given_to_main(files, monkeypatch):
    monkeypatch.setattr("sys.argv", ["matchq", "--unrelated"])
    argv = _simulate_argv(files, "--out", str(files / "sim"))
    assert main(argv) == 0
    manifest = json.loads((files / "sim" / "manifest.json").read_text())
    assert manifest["argv"] == argv

    argv = ["ncond", "--graph", str(files / "pendant.json"), "--rates",
            str(files / "rates.json"), "--out", str(files / "nc")]
    assert main(argv) == 0
    manifest = json.loads((files / "nc" / "manifest.json").read_text())
    assert manifest["argv"] == argv


def test_cli_unparseable_initial_vector_exit_2(files, capsys):
    assert main(_simulate_argv(files, "--init", "1,x")) == 2
    assert "--init" in capsys.readouterr().err


@pytest.mark.parametrize("node", ["0", "9"])
def test_cli_initial_node_out_of_range_exit_2(files, node):
    assert main(_simulate_argv(files, "--init-node", node)) == 2


def _stability_argv(d, *extra):
    return [
        "stability", "--graph", str(d / "pendant.json"), "--rates",
        str(d / "rates.json"), "--policy", str(d / "ml.json"), "--empirical",
        "--seed", "1", "--replications", "2", "--scales", "20", "40",
        "--horizon", "1", *extra,
    ]


def _fluid_argv(d, *extra):
    return [
        "fluid", "--graph", str(d / "pendant.json"), "--rates",
        str(d / "rates.json"), "--policy", str(d / "priority.json"), "--node", "4",
        *extra,
    ]


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: _simulate_argv(d, "--node", "9"),
        lambda d: _simulate_argv(d, "--node", "0"),
        lambda d: _simulate_argv(d, "--seed", "-1"),
        lambda d: _simulate_argv(d, "--seed", "-1", "--replications", "3"),
        lambda d: _simulate_argv(d, "--replications", "-2"),
        lambda d: _simulate_argv(d, "--replications", "0"),
        lambda d: _stability_argv(d, "--horizon", "inf"),
        lambda d: _stability_argv(d, "--horizon", "nan"),
        lambda d: _stability_argv(d, "--scales", "-5", "20"),
        lambda d: _stability_argv(d, "--seed", "-1"),
        lambda d: ["stability", "--graph", str(d / "pendant.json"), "--rates",
                   str(d / "rates.json"), "--empirical", "--seed", "1"],
        lambda d: _fluid_argv(d, "--q0", "nan"),
        lambda d: _fluid_argv(d, "--q0", "inf"),
        lambda d: ["randgraph", "--graph", str(d / "pendant.json"), "--rates",
                   str(d / "rates.json"), "--policy", str(d / "ml.json"),
                   "--seed", "-1", "--n", "10"],
    ],
    ids=[
        "simulate-node-9", "simulate-node-0", "simulate-seed", "simulate-rep-seed",
        "simulate-replications-neg", "simulate-replications-0",
        "stability-horizon-inf", "stability-horizon-nan", "stability-scales",
        "stability-seed", "stability-no-policy", "fluid-q0-nan", "fluid-q0-inf", "randgraph-seed",
    ],
)
def test_cli_bad_input_is_a_typed_error(files, capsys, argv):
    ser.dump_json(ser.policy_to_obj(pendant_priority_policy()), files / "priority.json")
    out = files / "out"
    assert main(argv(files) + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("under", ["", "sub"], ids=["existing-file", "under-a-file"])
def test_cli_out_not_a_directory_exit_2(files, capsys, under):
    blocker = files / "blocker.txt"
    blocker.write_text("x")
    out = blocker / under if under else blocker
    argv = ["ncond", "--graph", str(files / "pendant.json"), "--rates",
            str(files / "rates.json"), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out}: ")
    assert captured.err.count("\n") == 1
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("q0", [math.nan, math.inf])
def test_fluid_report_rejects_non_finite_q0(q0):
    with pytest.raises(ValidationError):
        fluid_report(PENDANT, LAM, pendant_priority_policy(), 4, q0)


# The pendant with an isolated node 5, and with a separate edge 5-6: the
# first once met the closed-form table under its edges and asked for 4
# rates, the second returned a drift although {5, 6} cannot be stable.
DISCONNECTED = {
    "isolated-node": (Graph(5, PENDANT.edges), (0.1, 0.1, 0.45, 0.35, 0.2)),
    "separate-edge": (Graph(6, PENDANT.edges + ((5, 6),)),
                      (0.1, 0.1, 0.45, 0.35, 0.2, 0.2)),
}


@pytest.mark.parametrize("case", sorted(DISCONNECTED))
@pytest.mark.parametrize("kind", ["priority", "uniform"])
def test_marginal_layer_refuses_a_disconnected_graph(case, kind):
    graph, rates = DISCONNECTED[case]
    if kind == "uniform":
        policy = uniform_policy()
    else:
        order = dict(pendant_priority_policy().order)
        order.update({v: graph.neighbors(v) for v in graph.nodes if v > 4})
        policy = priority_policy(order)
    with pytest.raises(NotConnectedError):
        fluid_report(graph, rates, policy, 4, 1.0)
    with pytest.raises(NotConnectedError):
        build_marginal(graph, rates, policy, 4)


def test_closed_forms_are_keyed_by_the_whole_graph():
    assert PENDANT in _CLOSED_FORMS
    assert Graph(5, PENDANT.edges) not in _CLOSED_FORMS


def test_cli_fluid_on_a_disconnected_graph_exit_2(files, capsys):
    graph, rates = DISCONNECTED["separate-edge"]
    ser.dump_json(ser.graph_to_obj(graph), files / "split.json")
    ser.dump_json({"rates": list(rates)}, files / "split_rates.json")
    ser.dump_json(ser.policy_to_obj(uniform_policy()), files / "uniform.json")
    argv = ["fluid", "--graph", str(files / "split.json"), "--rates",
            str(files / "split_rates.json"), "--policy", str(files / "uniform.json"),
            "--node", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _sim(**config):
    return simulate(PENDANT, LAM, ml_policy(), SimConfig(horizon=1.0, **config))


def _grow(n_nodes=10, seed=0):
    return grow_and_match(PENDANT, type_distribution(LAM), uniform_policy(), n_nodes, seed)


# Integer run parameters given as a bool or a non-integer: each used to be
# truncated, or to raise a bare TypeError deep in the run.
NON_INTEGER_PARAMS = {
    "simconfig-seed": lambda: _sim(seed=1.5),
    "simconfig-seed-bool": lambda: _sim(seed=True),
    "simconfig-scale": lambda: _sim(seed=0, scale=2.5),
    "simconfig-trace-stride": lambda: _sim(seed=0, trace_stride=2.5),
    "simconfig-max-events": lambda: _sim(seed=0, max_events=10.5),
    "simconfig-max-events-bool": lambda: _sim(seed=0, max_events=True),
    "simconfig-stop-node": lambda: _sim(seed=0, stop_node=4.0),
    "coupled-seed": lambda: coupled_nonexpansive(
        PENDANT, LAM, ml_policy(), (0, 0, 0, 1), (0, 0, 0, 0),
        SimConfig(horizon=1.0, seed=1.5)),
    "growth-seed": lambda: _grow(seed=1.5),
    "growth-n-nodes": lambda: _grow(n_nodes=10.5),
    "growth-n-nodes-bool": lambda: _grow(n_nodes=True),
    "replication-seeds-count": lambda: replication_seeds(1, 2.5),
    "replication-seeds-seed": lambda: replication_seeds(1.5, 2),
    "budget-seeds": lambda: ClassifyBudget(seeds=2.5),
    "budget-scales": lambda: ClassifyBudget(scales=(10.5, 20)),
    "budget-max-events": lambda: ClassifyBudget(max_events=1e6),
    "budget-master-seed": lambda: ClassifyBudget(master_seed=1.5),
}


# A queue entry given as a bool or a non-integer used to be truncated:
# (0, 0, 0, 2.5) started from 2 and True from 1.
NON_INTEGER_QUEUES = {
    "simulate": lambda q: _sim(seed=0, initial_state=q),
    "coupled-x": lambda q: coupled_nonexpansive(
        PENDANT, LAM, ml_policy(), q, (0, 0, 0, 0), SimConfig(horizon=1.0, seed=0)),
    "coupled-y": lambda q: coupled_nonexpansive(
        PENDANT, LAM, ml_policy(), (0, 0, 0, 0), q, SimConfig(horizon=1.0, seed=0)),
    "match-decision": lambda q: match_decision(
        ml_policy(), PENDANT, q, 3, np.random.default_rng(0)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("case", sorted(NON_INTEGER_QUEUES))
def test_non_integer_queue_rejected(case, value):
    with pytest.raises(ValidationError, match="queue of node 4 must be an integer"):
        NON_INTEGER_QUEUES[case]((0, 0, 0, value))


def test_numpy_integer_queues_accepted():
    got = _sim(seed=3, initial_state=tuple(np.int64(v) for v in (0, 0, 0, 2)))
    want = _sim(seed=3, initial_state=(0, 0, 0, 2))
    assert np.array_equal(got.states, want.states) and got.final_state == want.final_state
    assert all(type(v) is int for v in got.final_state)
    assert match_decision(ml_policy(), PENDANT, (np.int32(0), 0, 0, np.uint8(2)), 3) == 4


@pytest.mark.parametrize("bad", [[2.5], [True], [3, 7.9], [np.float64(4.0)]])
def test_non_integer_checkpoint_rejected(bad):
    # [2.5, True, 7.9] on 10 nodes used to record n = 2, 1 and 7
    with pytest.raises(ValidationError, match="checkpoint must be an integer"):
        grow_and_match(PENDANT, type_distribution(LAM), uniform_policy(), 10, 0,
                       checkpoints=bad)


def test_numpy_integer_checkpoints_accepted():
    got = grow_and_match(PENDANT, type_distribution(LAM), uniform_policy(), 10, 0,
                         checkpoints=[np.int64(3), np.uint16(7)])
    assert [n for n, _, _ in got.checkpoints] == [3, 7]
    assert all(type(n) is int for n, _, _ in got.checkpoints)


@pytest.mark.parametrize("case", sorted(NON_INTEGER_PARAMS))
def test_non_integer_run_parameter_rejected(case):
    with pytest.raises(ValidationError, match="must be an integer"):
        NON_INTEGER_PARAMS[case]()


def test_numpy_integer_run_parameters_accepted():
    i = np.int64
    got = _sim(seed=i(3), scale=np.int32(2), trace_stride=i(1), max_events=i(10),
               stop_node=i(4), initial_state=(0, 0, 0, 2))
    want = _sim(seed=3, scale=2, trace_stride=1, max_events=10, stop_node=4,
                initial_state=(0, 0, 0, 2))
    assert np.array_equal(got.times, want.times) and np.array_equal(got.states, want.states)
    assert (got.final_state, got.n_events, got.end_time) == (
        want.final_state, want.n_events, want.end_time)
    assert _grow(np.int64(10), np.uint32(5)).matching_edges() == _grow(10, 5).matching_edges()
    assert replication_seeds(i(1), i(2)) == replication_seeds(1, 2)
    ClassifyBudget(seeds=i(3), scales=(i(10), i(20)), max_events=i(10**6), master_seed=i(7))


@pytest.mark.parametrize("bad", [dict(seed=-1), dict(count=0), dict(count=-2)])
def test_replication_seeds_range(bad):
    args = dict(seed=3, count=2) | bad
    with pytest.raises(ValidationError):
        replication_seeds(args["seed"], args["count"])


def test_negative_seed_rejected_by_every_driver():
    with pytest.raises(ValidationError):
        simulate(PENDANT, LAM, ml_policy(), SimConfig(horizon=1.0, seed=-1))
    with pytest.raises(ValidationError):
        grow_and_match(PENDANT, type_distribution(LAM), uniform_policy(), 10, seed=-1)
    with pytest.raises(ValidationError):
        ClassifyBudget(master_seed=-1)


@pytest.mark.parametrize(
    "bad",
    [dict(horizon=math.inf), dict(horizon=math.nan), dict(horizon=0.0),
     dict(scales=(-5, 20)), dict(scales=(0, 20))],
)
def test_classify_budget_range(bad):
    with pytest.raises(ValidationError):
        ClassifyBudget(**bad)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


EXIT_3 = {"NotApplicableError", "RatesOutsideRegionError", "UnsupportedPolicyError"}
EXIT_4 = {"BudgetExceededError"}


@pytest.mark.parametrize(
    "cls",
    [MatchQError] + sorted(set(_subclasses(MatchQError)), key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_every_error_class_exits_with_its_documented_code(files, capsys, monkeypatch,
                                                          cls):
    exc = cls.__new__(cls)
    Exception.__init__(exc, "raised on purpose")

    def fail(graph):
        raise exc

    monkeypatch.setattr("matchq.cli.classify", fail)
    expected = 3 if cls.__name__ in EXIT_3 else 4 if cls.__name__ in EXIT_4 else 2
    assert main(["analyze", "--graph", str(files / "pendant.json")]) == expected
    assert capsys.readouterr().err == "error: raised on purpose\n"


# Graphs and node ids that used to be taken as something else: a graph with
# a self-loop, an edge to a missing node or a repeated edge was built (and
# classify or ncond_check failed later with NoWitnessFoundError or a bare
# KeyError), a fractional or boolean number was read with int(), a builder
# took a float size to a bare TypeError or built a graph with no nodes, and
# a node id passed on to a run or a solve was truncated, read as node 1, or
# met a bare KeyError or IndexError. A priority order built with Policy
# itself took 2.0 as a node and met a bare TypeError in the first run.
C7 = cycle_graph(7)
SMALL_BUDGET = ClassifyBudget(seeds=2, scales=(20, 40), horizon=1.0)
BAD_GRAPHS_AND_NODES = {
    "graph-self-loop": (SelfLoopError, lambda: classify(Graph(3, ((1, 1), (1, 2), (2, 3))))),
    "graph-node-out-of-range": (
        IndexOutOfRangeError, lambda: ncond_check(Graph(3, ((1, 2), (2, 9))), (1, 1, 1))),
    "graph-repeated-edge": (DuplicateEdgeError, lambda: Graph(3, ((1, 2), (2, 3), (2, 1)))),
    "graph-fractional-endpoint": (ValidationError, lambda: Graph(3, [(1, 2.7), (2, 3)])),
    "graph-boolean-endpoint": (ValidationError, lambda: Graph(3, [(True, 2), (2, 3)])),
    "graph-boolean-node-count": (ValidationError, lambda: Graph(True, [])),
    "graph-no-nodes": (ValidationError, lambda: Graph(0, [])),
    "graph-edge-not-a-pair": (ValidationError, lambda: Graph(3, [(1, 2, 3)])),
    "cycle-fractional-length": (ValidationError, lambda: cycle_graph(5.0)),
    "complete-fractional-size": (ValidationError, lambda: complete_graph(2.5)),
    "complete-no-nodes": (ValidationError, lambda: complete_graph(0)),
    "nonchaotic-fractional-kept-node": (ValidationError, lambda: coupled_nonchaotic(
        PENDANT, [1, 2.7, 3], LAM, pendant_priority_policy(), SimConfig(horizon=1.0, seed=0))),
    "empirical-fractional-node": (ValidationError, lambda: empirical_classify(
        PENDANT, LAM, ml_policy(), SMALL_BUDGET, nodes=[3.5])),
    "fluid-boolean-node": (
        ValidationError, lambda: fluid_report(C7, (1.0,) * 7, uniform_policy(), True, 1.0)),
    "fluid-fractional-node": (
        ValidationError, lambda: fluid_report(C7, (1.0,) * 7, uniform_policy(), 2.5, 1.0)),
    "hitting-fractional-node": (ValidationError, lambda: hitting_time(_sim(seed=0), 1.5)),
    "hitting-boolean-node": (ValidationError, lambda: hitting_time(_sim(seed=0), True)),
    "drift-fractional-node": (ValidationError, lambda: drift_estimate(_sim(seed=0), 3.5)),
    "decision-fractional-class": (ValidationError, lambda: match_decision(
        ml_policy(), PENDANT, (0, 0, 0, 0), 2.5, np.random.default_rng(0))),
    "priority-fractional-order": (ValidationError, lambda: priority_policy(
        {1: (2.7, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3,)})),
    "priority-boolean-key": (ValidationError, lambda: priority_policy(
        {True: (2, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3,)})),
    "policy-float-order-entry": (ValidationError, lambda: Policy(
        "priority", {1: (2.0, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3,)})),
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPHS_AND_NODES))
def test_bad_graph_or_node_id_is_a_validation_error(case):
    error, call = BAD_GRAPHS_AND_NODES[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "edges", [[(1, 2), (1, 3), (2, 3), (3, 4)], ((3, 4), (2, 1), (1, 3), (3, 2))],
    ids=["list", "reordered"],
)
def test_pendant_written_another_way_is_the_canonical_pendant(edges):
    graph = Graph(4, edges)
    assert graph == PENDANT and hash(graph) == hash(PENDANT) and graph.edges == PENDANT.edges
    assert exact_region(graph, LAM) == exact_region(PENDANT, LAM)
    report = fluid_report(graph, LAM, pendant_priority_policy(), 4, 1.0)
    assert report.method == CLOSED_FORM_PENDANT
    assert report == fluid_report(PENDANT, LAM, pendant_priority_policy(), 4, 1.0)


def test_numpy_integer_graph_and_node_ids_accepted():
    i = np.int64
    assert Graph(i(4), [(i(3), i(4)), (1, 2), (1, 3), (2, 3)]) == PENDANT
    assert type(Graph(i(4), PENDANT.edges).node_count) is int
    assert hitting_time(_sim(seed=0), i(4)) == hitting_time(_sim(seed=0), 4)


def test_end_time_is_a_float_when_the_horizon_is_an_int():
    # the run ends at the horizon, whose raw time horizon * scale is an int
    trace = simulate(PENDANT, LAM, ml_policy(), SimConfig(horizon=2, seed=1))
    assert type(trace.end_time) is float and trace.end_time == 2.0


@pytest.mark.parametrize("horizon", [2, np.float32(2.5)], ids=["int", "float32"])
def test_trace_horizon_is_a_float(horizon):
    trace = simulate(PENDANT, LAM, ml_policy(), SimConfig(horizon=horizon, seed=1))
    assert type(trace.horizon) is float and trace.horizon == float(horizon)
    assert type(trace.end_time) is float and trace.end_time == float(horizon)


PENDANT_PLUS = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])


# Real parameters given as a bool, a string or None: each used to raise a
# bare TypeError, or to pass a bool on as a number.
NON_REAL_PARAMS = {
    **{
        f"q0-{label}": lambda v=v: fluid_report(PENDANT, LAM, pendant_priority_policy(), 4, v)
        for label, v in (("str", "1"), ("bool", True), ("none", None))
    },
    **{
        f"q0-numeric-{label}": lambda v=v: fluid_report(
            cycle_graph(7), (1 / 7,) * 7, uniform_policy(), 1, v, truncation=2)
        for label, v in (("str", "1"), ("bool", True))
    },
    **{
        f"simconfig-horizon-{label}": lambda v=v: simulate(
            PENDANT, LAM, ml_policy(), SimConfig(horizon=v, seed=0))
        for label, v in (("str", "1"), ("bool", True), ("none", None))
    },
    **{
        f"budget-horizon-{label}": lambda v=v: ClassifyBudget(horizon=v)
        for label, v in (("str", "1"), ("bool", True))
    },
    **{
        f"counterexample-eps-{label}": lambda v=v: matchq.counterexample("pendant-priority", v)
        for label, v in (("str", "0.1"), ("bool", True))
    },
    "construct-eps-str": lambda: matchq.construct_nonmaximal(PENDANT_PLUS, "0.1"),
    **{
        f"drift-window-{label}": lambda v=v: drift_estimate(_sim(seed=0), 4, window=v)
        for label, v in (("str", ("a", "b")), ("bool", (True, 40)), ("none", (0.0, None)))
    },
}


@pytest.mark.parametrize("case", sorted(NON_REAL_PARAMS))
def test_non_real_parameter_rejected(case):
    with pytest.raises(ValidationError, match="must be a real number"):
        NON_REAL_PARAMS[case]()


def test_numpy_real_parameters_accepted():
    f = np.float64
    report = fluid_report(PENDANT, LAM, pendant_priority_policy(), 4, f(2.0))
    assert report == fluid_report(PENDANT, LAM, pendant_priority_policy(), 4, 2.0)
    assert type(report.q0) is float
    assert fluid_report(PENDANT, LAM, pendant_priority_policy(), 4, np.int64(2)).q0 == 2.0
    got, want = _sim(seed=0), simulate(PENDANT, LAM, ml_policy(), SimConfig(horizon=f(1.0),
                                                                           seed=0))
    assert np.array_equal(got.times, want.times) and got.end_time == want.end_time
    assert ClassifyBudget(horizon=f(3.0)).horizon == 3.0
    assert matchq.counterexample("pendant-priority", f(0.1)).drift == matchq.counterexample(
        "pendant-priority", 0.1).drift
    # the instances carry the checked floats, as rates and as eps
    for eps in (np.float32(0.2), Fraction(1, 5)):
        for inst in (matchq.counterexample("pendant-priority", eps),
                     matchq.construct_nonmaximal(PENDANT_PLUS, eps)):
            assert all(type(x) is float for x in inst.rates + (inst.eps,))
            json.dumps(ser.instance_to_obj(inst))
    assert matchq.counterexample("pendant-priority", np.float32(0.2)).eps == float(
        np.float32(0.2))


@pytest.mark.parametrize("window", [(0.0,), (0.0, 1.0, 2.0), 5.0], ids=["one", "three", "scalar"])
def test_drift_window_must_be_a_pair(window):
    with pytest.raises(ValidationError, match="window must be a pair of real numbers"):
        drift_estimate(_sim(seed=0), 4, window=window)


def test_drift_window_numpy_and_infinite_ends_accepted():
    trace = simulate(PENDANT, LAM, ml_policy(), SimConfig(horizon=400.0, seed=0))
    want = drift_estimate(trace, 4, window=(0.0, 300.0))
    got = drift_estimate(trace, 4, window=np.array([0, 300]))
    assert got == want and [type(w) for w in got.window] == [float, float]
    assert drift_estimate(trace, 4, window=(0, math.inf)).samples == trace.times.size


def test_budget_horizon_is_stored_as_a_float():
    budget = ClassifyBudget(seeds=2, scales=(1, 2), horizon=Fraction(1, 2))
    assert type(budget.horizon) is float and budget.horizon == 0.5
    verdict = empirical_classify(PENDANT, LAM, ml_policy(), budget, nodes=[4])
    assert type(verdict.evidence["budget"]["horizon"]) is float
    json.dumps(ser.verdict_to_obj(verdict))


def test_check_real():
    from matchq.graphs import check_real

    assert check_real(np.float32(0.5), "x") == 0.5 and type(check_real(3, "x")) is float
    assert check_real(math.inf, "x", finite=False) == math.inf
    assert math.isnan(check_real(math.nan, "x", finite=False))
    for bad in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ValidationError):
            check_real(bad, "x")
    with pytest.raises(ValidationError, match="x must be a real number, got 1j"):
        check_real(1j, "x")


# Sequences given as a scalar or a string, a priority order given as a list
# of pairs and a policy given as its name: each used to raise a bare
# TypeError or AttributeError. A sequence given as a mapping or a set used
# to be read as its keys or in its hash order.
_CONFIG = SimConfig(horizon=1.0, seed=0)
NON_SEQUENCE_INPUTS = {
    "counterexample-family-list": lambda: matchq.counterexample(["x"], 0.1),
    "budget-scales-int": lambda: ClassifyBudget(scales=5),
    "empirical-nodes-int": lambda: empirical_classify(
        PENDANT, LAM, ml_policy(), ClassifyBudget(seeds=2, scales=(1, 2)), nodes=5),
    "simulate-initial-state-int": lambda: simulate(
        PENDANT, LAM, ml_policy(), SimConfig(horizon=1.0, seed=0, initial_state=5)),
    "growth-checkpoints-int": lambda: grow_and_match(
        PENDANT, type_distribution(LAM), uniform_policy(), 10, 0, checkpoints=5),
    "priority-order-int": lambda: priority_policy({1: 5}),
    "priority-order-list": lambda: priority_policy([(1, 2)]),
    "graph-edges-int": lambda: Graph(3, 5),
    "coupled-x-int": lambda: coupled_nonexpansive(
        PENDANT, LAM, ml_policy(), 5, (0, 0, 0, 0), _CONFIG),
    "nonchaotic-kept-int": lambda: coupled_nonchaotic(
        PENDANT, 5, LAM, uniform_policy(), _CONFIG),
    "match-decision-state-int": lambda: match_decision(
        pendant_priority_policy(), PENDANT, 5, 1),
    "simulate-policy-str": lambda: simulate(PENDANT, LAM, "ml", _CONFIG),
    "nonchaotic-policy-str": lambda: coupled_nonchaotic(PENDANT, [1, 2, 3], LAM, "ml", _CONFIG),
    "rates-set": lambda: check_rates(PENDANT, {0.35, 0.1, 0.45, 0.2}),
    "budget-scales-dict": lambda: ClassifyBudget(scales={10: "a", 20: "b"}),
    "graph-edges-dict": lambda: Graph(3, {(1, 2): 0, (2, 3): 1}),
    "growth-checkpoints-dict": lambda: grow_and_match(
        PENDANT, type_distribution(LAM), uniform_policy(), 10, 0, checkpoints={5: 0}),
    "nonchaotic-kept-dict": lambda: coupled_nonchaotic(
        PENDANT, {1: 0, 2: 0}, LAM, uniform_policy(), _CONFIG),
}


@pytest.mark.parametrize("case", sorted(NON_SEQUENCE_INPUTS))
def test_non_sequence_input_rejected(case):
    with pytest.raises(ValidationError):
        NON_SEQUENCE_INPUTS[case]()


def test_set_accepted_where_order_cannot_matter():
    # edges are sorted, checkpoints sorted and de-duplicated and kept nodes
    # read into a frozenset, so a set gives what the sorted list gives
    assert Graph(3, {(2, 3), (1, 2)}) == Graph(3, [(1, 2), (2, 3)])
    assert Graph(3, frozenset({(1, 2)})) == Graph(3, [(1, 2)])
    grow = [grow_and_match(PENDANT, type_distribution(LAM), uniform_policy(), 30, 4,
                           checkpoints=cps)
            for cps in ({20, 10}, frozenset({10, 20}), [10, 20])]
    assert grow[0].checkpoints == grow[1].checkpoints == grow[2].checkpoints
    assert [c[0] for c in grow[0].checkpoints] == [10, 20]
    kept = [coupled_nonchaotic(PENDANT, nodes, LAM, uniform_policy(), _CONFIG)
            for nodes in ({2, 1}, [1, 2])]
    assert kept[0] == kept[1]


def test_check_ints():
    from matchq.graphs import check_ints

    got = check_ints([np.int64(3), 4, np.uint8(5)], "x")
    assert got == (3, 4, 5) and all(type(v) is int for v in got)
    assert check_ints(range(3), "x") == (0, 1, 2)
    for bad in (5, "12", b"12", None):
        with pytest.raises(ValidationError, match="x must be a sequence of integers"):
            check_ints(bad, "x")
    for bad in ([1, 2.0], [True], ["1"]):
        with pytest.raises(ValidationError, match="x must be an integer"):
            check_ints(bad, "x")
    budget = ClassifyBudget(scales=[np.int64(10), 20])
    assert budget.scales == (10, 20) and all(type(s) is int for s in budget.scales)
