"""The benchmark's traced run wraps matchq functions at the names their
callers look them up by (bench/workloads.py, TRACE), and counts the work
of some calls from their arguments and results. A rename in the package,
or a removed attribute that a counter reads, would make
`bench/run.py --trace 1` fail; this catches it here. bench/ is only
imported, with bytecode writing off."""

import sys
from pathlib import Path

import pytest

import matchq
from matchq.marginal import build_marginal
from matchq.randgraph import type_distribution
from matchq.simulate import SimConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return workloads


WORKLOADS = _workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_traced_name_resolves_to_a_callable(name):
    trace = WORKLOADS[name].TRACE
    assert trace
    for owner, attr, span, _ in trace:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr}"


PENDANT = matchq.pendant_graph()
LAM = (0.1, 0.1, 0.45, 0.35)
TEN_EVENTS = SimConfig(horizon=100.0, seed=0, max_events=10)
SIMULATE_ARGS = (PENDANT, LAM, matchq.pendant_priority_policy(), TEN_EVENTS)


def _simulate_call(tmp_path):
    return SIMULATE_ARGS, 10


def _chain_call(tmp_path):
    # the pendant chain at truncation 3: the empty state and three levels
    # on each of two arms
    return (build_marginal(PENDANT, LAM, matchq.pendant_priority_policy(), 4), 3), 7


# Per counted span: tiny arguments for the wrapped callable, given a scratch
# directory, and the count the counter must read from that call.
COUNTED_CALLS = {
    "cli.simulate": _simulate_call,
    "stability.simulate": _simulate_call,
    "cli.grow_and_match": lambda tmp_path: (
        (PENDANT, type_distribution(LAM), matchq.uniform_policy(), 10, 0), 10),
    "serialize.write_trace_csv": lambda tmp_path: (
        (matchq.simulate(*SIMULATE_ARGS), tmp_path / "trace.csv"), 10),
    "simulate.coupled_nonexpansive": lambda tmp_path: (
        (PENDANT, LAM, matchq.ml_policy(), (0, 0, 0, 2), (0, 0, 0, 0), TEN_EVENTS), 10),
    "simulate.coupled_nonchaotic": lambda tmp_path: (
        (matchq.Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]), [1, 2, 3, 4],
         (0.2, 0.2, 0.4, 0.35, 0.05), matchq.uniform_policy(), TEN_EVENTS), 10),
    "marginal.stationary_numeric": _chain_call,
    "marginal.enumerate_states": _chain_call,
}


@pytest.mark.parametrize("owner, attr, span, count", [
    pytest.param(owner, attr, span, count, id=f"{name}-{span}")
    for name in sorted(WORKLOADS)
    for owner, attr, span, count in WORKLOADS[name].TRACE
    if count is not None
])
def test_every_trace_counter_reads_a_real_call(owner, attr, span, count, tmp_path):
    args, expected = COUNTED_CALLS[span](tmp_path)
    assert count(args, getattr(owner, attr)(*args)) == expected
