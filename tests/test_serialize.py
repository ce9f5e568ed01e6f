"""Trace CSV and matching JSON: the block writers against per-row oracles."""

import csv
import json

import numpy as np
import pytest

import matchq.serialize as ser
from matchq.graphs import Graph, complete_graph, pendant_graph
from matchq.policies import ml_policy, pendant_priority_policy, uniform_policy
from matchq.randgraph import GrowthResult, grow_and_match, type_distribution
from matchq.simulate import SimConfig, SimTrace, simulate

from oracles import matching_edges

PENDANT = pendant_graph()
LAM = (0.1, 0.1, 0.45, 0.35)


def _reference_csv(trace: SimTrace, path) -> None:
    """One csv.writer row per snapshot: the format the trace CSV promises."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "class", "matched"]
            + [f"q_{i}" for i in range(1, trace.node_count + 1)]
        )
        for k in range(len(trace.times)):
            writer.writerow(
                [f"{trace.times[k]:.9f}", int(trace.classes[k]), int(trace.matched[k])]
                + [int(v) for v in trace.states[k]]
            )


def _assert_same_bytes(trace, tmp_path):
    ser.write_trace_csv(trace, tmp_path / "trace.csv")
    _reference_csv(trace, tmp_path / "reference.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _synthetic_trace(rows, p, seed, high=1000):
    """A trace of the given shape with random times and cells below high."""
    rng = np.random.default_rng(seed)
    return SimTrace(
        node_count=p,
        scale=1,
        seed=seed,
        horizon=1.0,
        times=np.cumsum(rng.exponential(0.37, rows)),
        classes=rng.integers(1, p + 1, rows),
        matched=rng.integers(0, p + 1, rows),
        states=rng.integers(0, high, (rows, p)),
        final_state=(0,) * p,
        end_time=1.0,
        n_events=rows,
        arrivals=np.zeros(p + 1, dtype=np.int64),
        first_zero=np.full(p, np.nan),
        empty_time=np.nan,
    )


@pytest.mark.parametrize("stride", [1, 3, 0])
def test_trace_csv_matches_the_row_writer(tmp_path, stride):
    trace = simulate(PENDANT, LAM, pendant_priority_policy(), SimConfig(
        horizon=20.0, seed=5, scale=100, initial_state=(0, 0, 0, 100),
        trace_stride=stride))
    assert len(trace.times) == (trace.n_events // stride if stride else 0)
    _assert_same_bytes(trace, tmp_path)
    if stride == 0:
        assert (tmp_path / "trace.csv").read_bytes() == b"t,class,matched,q_1,q_2,q_3,q_4\r\n"


def test_trace_csv_two_nodes(tmp_path):
    edge = Graph(2, [(1, 2)])
    trace = simulate(edge, (0.5, 0.5), ml_policy(), SimConfig(
        horizon=50.0, seed=6, scale=10, initial_state=(20, 0)))
    assert trace.states.shape == (trace.n_events, 2)
    _assert_same_bytes(trace, tmp_path)


def test_trace_csv_queues_above_int32(tmp_path):
    trace = _synthetic_trace(300, 4, seed=7, high=2**40)
    trace.states[0] = [2**31, 2**31 + 1, 2**62, 0]
    _assert_same_bytes(trace, tmp_path)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_trace_csv_around_the_block_size(tmp_path, offset):
    trace = _synthetic_trace(ser._TRACE_BLOCK + offset, 5, seed=8 + offset)
    _assert_same_bytes(trace, tmp_path)


@pytest.mark.parametrize("stride", [1, 3, 50, 0])
def test_trace_states_are_a_contiguous_int64_table(stride):
    trace = simulate(PENDANT, LAM, ml_policy(), SimConfig(
        horizon=10.0, seed=9, scale=100, initial_state=(0, 0, 0, 50),
        trace_stride=stride))
    assert trace.states.dtype == np.int64
    assert trace.states.flags["C_CONTIGUOUS"]
    assert trace.states.shape == (len(trace.times), 4)


@pytest.mark.parametrize("pairs", [0, 3, ser._JSON_BLOCK])
def test_dump_json_writes_the_json_dumps_text(tmp_path, pairs):
    # each pair is several tokens, so the largest object spans several blocks
    obj = {"pairs": [[k, 2 * k] for k in range(pairs)], "n": pairs, "z": None}
    ser.dump_json(obj, tmp_path / "out.json")
    assert (tmp_path / "out.json").read_text() == (
        json.dumps(obj, indent=2, sort_keys=True) + "\n"
    )


def _assert_matching_json_is_dump_json(result, tmp_path):
    ser.write_matching_json(result, tmp_path / "matching.json")
    ser.dump_json({"pairs": [list(e) for e in matching_edges(result)]},
                  tmp_path / "reference.json")
    assert (tmp_path / "matching.json").read_bytes() == (
        tmp_path / "reference.json").read_bytes()


def _paired_growth(pairs, seed):
    """A growth result on 2 * pairs + 3 nodes whose partner array pairs
    random ids, leaving three unmatched."""
    n = 2 * pairs + 3
    ids = np.random.default_rng(seed).permutation(n)
    partner = np.full(n, -1, dtype=np.int64)
    partner[ids[0:2 * pairs:2]] = ids[1:2 * pairs:2]
    partner[ids[1:2 * pairs:2]] = ids[0:2 * pairs:2]
    return GrowthResult(
        template=complete_graph(3), mu=(1 / 3,) * 3, seed=seed,
        node_types=np.ones(n, dtype=np.int16), partner=partner,
        matched_count=2 * pairs, queue=(3, 0, 0), checkpoints=[],
    )


@pytest.mark.parametrize(
    "pairs", [0, 1, ser._TRACE_BLOCK - 1, ser._TRACE_BLOCK, ser._TRACE_BLOCK + 1])
def test_matching_json_matches_dump_json(tmp_path, pairs):
    result = _paired_growth(pairs, seed=pairs)
    assert len(matching_edges(result)) == pairs
    _assert_matching_json_is_dump_json(result, tmp_path)


def test_matching_json_of_the_ac10_triangle(tmp_path):
    result = grow_and_match(complete_graph(3), type_distribution((1, 1, 1)),
                            uniform_policy(), 100_000, seed=1010)
    _assert_matching_json_is_dump_json(result, tmp_path)
