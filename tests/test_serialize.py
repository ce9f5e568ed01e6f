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


_NEXT = np.nextafter
_TWO_53_BY_1E9 = 2.0**53 / 1e9
# Times and int cells at the edges of the block formatter: exact ties at the
# 9th decimal (k * 2**-10 with k odd), signs, the point past which a double
# holds no 9th decimal, the int64 limit of the integer route (past it, and for
# NaN and the infinities, a block goes to Python's own formatting) and each
# 3-digit group boundary.
TRACE_CASES = {
    "exact-ties": dict(times=np.arange(1, 2 * 1500, 2) * 2.0**-10 + np.repeat([0, 1, 7, 999], 375)),
    "signs": dict(times=[-0.0, 0.0, -1e-12, 1e-12, -0.5, -2.5e-10, -5e-10, -1234.5678901234,
                         -(2.0**-10), -3 * 2.0**-10, -999.9999999996]),
    "around-2**53/1e9": dict(times=[_NEXT(_TWO_53_BY_1E9, 0), _TWO_53_BY_1E9,
                                    _NEXT(_TWO_53_BY_1E9, np.inf), 2 * _TWO_53_BY_1E9,
                                    -_TWO_53_BY_1E9, 2.0**53, 2.0**53 + 2]),
    "below-2**63": dict(times=[_NEXT(2.0**63, 0), -_NEXT(2.0**63, 0), 2.0**62 + 2.0**61]),
    "at-2**63": dict(times=[1.5, 2.0**63, 2.5]),
    "past-2**63": dict(times=[-(2.0**63), 1e300, -1e300]),
    "nan": dict(times=[0.25, np.nan, 0.75]),
    "infinities": dict(times=[np.inf, 1.0, -np.inf]),
    "fallback-in-one-block": dict(
        times=np.r_[np.arange(ser._TRACE_BLOCK + 10) * 0.37, np.nan, 1.0, 2.0**70]),
    "group-boundaries": dict(cells=[0, 1, 9, 10, 99, 100, 999, 1000, 1001, 999_999, 1_000_000,
                                    1_000_001, 999_999_999, 10**9]),
    "above-int32": dict(cells=[2**31 - 1, 2**31, 2**31 + 1, 2**32, 2**40 + 999]),
    "int64-max": dict(cells=[np.iinfo(np.int64).max, np.iinfo(np.int64).max - 999, 0]),
    "negative": dict(cells=[5, -1, -1000, 0, np.iinfo(np.int64).min]),
    "empty": dict(times=[]),
}


def _edge_trace(times=None, cells=None, p=3):
    """A synthetic trace with the given times (else 0.5 apart) and with every
    int column running through the given cells (else small random ones)."""
    rows = len(times if times is not None else cells)
    trace = _synthetic_trace(rows, p, seed=rows)
    if times is not None:
        trace.times = np.asarray(times, dtype=np.float64)
    if cells is not None:
        trace.times = np.arange(rows) * 0.5
        column = np.asarray(cells, dtype=np.int64)
        trace.classes, trace.matched = column, column[::-1].copy()
        trace.states = np.stack([np.roll(column, k) for k in range(p)], axis=1)
    return trace


# the cases whose rows the integer route cannot write, each in one block
PYTHON_FORMATTED = {"at-2**63", "past-2**63", "nan", "infinities", "fallback-in-one-block",
                    "negative"}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_csv_edge_cells_match_the_row_writer(tmp_path, monkeypatch, case):
    blocks = []
    monkeypatch.setattr(ser, "_python_rows", lambda parts, rows=ser._python_rows: (
        blocks.append(len(parts[0])) or rows(parts)))
    _assert_same_bytes(_edge_trace(**TRACE_CASES[case]), tmp_path)
    assert len(blocks) == (case in PYTHON_FORMATTED)


def _tie_neighbours(rng, count):
    """Times t = j * 2**-(53 + k) whose exact product with 1e9 lies within
    2**-24 of a tie, but not on it (j * 5**9 is an odd multiple of
    2**(43 + k) plus a small d), so a rounded product can land on the tie."""
    k = rng.integers(0, 9, count)
    d = rng.integers(1, 2**18, count) * rng.choice([-1, 1], count)
    out = []
    for kk, dd, m in zip(k.tolist(), d.tolist(), rng.integers(0, 2**62, count).tolist()):
        mod = 2 ** (44 + kk)
        j = (2 ** (43 + kk) + dd) * pow(5**9, -1, mod) % mod
        j += mod * (m % (2**53 // mod))  # another odd multiple, j < 2**53
        out.append(j * 2.0 ** -(53 + kk))
    return np.array(out)


def test_nine_decimals_is_the_format_on_a_seeded_sweep():
    rng = np.random.default_rng(2027)
    n = 20_000
    ties = rng.integers(0, 2**20, n) + (2 * rng.integers(0, 512, n) + 1) * 2.0**-10
    near = _tie_neighbours(rng, n)
    times = np.concatenate([
        rng.random(n),
        np.cumsum(rng.exponential(0.37, n)),
        ties, _NEXT(ties, 0), _NEXT(ties, np.inf),
        near, -near,
        rng.integers(0, 2**53, n) + 1 - 2.0**-40 * rng.integers(1, 64, n),  # carries
        rng.random(n) * 2.0 ** rng.integers(-40, 63, n) * rng.choice([-1, 1], n),
    ])
    assert len(times) >= 10**5
    sign, whole, frac = ser._nine_decimals(times)
    got = [("-" if s else "") + f"{w}.{f:09d}"
           for s, w, f in zip(sign.tolist(), whole.tolist(), frac.tolist())]
    assert got == [f"{t:.9f}" for t in times.tolist()]
    # rounding the rounded product alone would get some of the near-ties wrong
    plain = np.rint(np.abs(near) * 1e9).astype(np.int64)
    assert (plain != ser._nine_decimals(near)[2]).any()


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
    assert (tmp_path / "out.json").read_bytes() == (
        json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _assert_matching_json_is_dump_json(result, tmp_path):
    ser.write_matching_json(result, tmp_path / "matching.json")
    obj = {"pairs": [list(e) for e in matching_edges(result)]}
    assert (tmp_path / "matching.json").read_bytes() == (
        json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _growth_with_pairs(pairs, n, checkpoints=()):
    """A growth result on n nodes matched by the given (u, v) pairs."""
    partner = np.full(n, -1, dtype=np.int64)
    for u, v in pairs:
        partner[u], partner[v] = v, u
    return GrowthResult(
        template=complete_graph(3), mu=(1 / 3,) * 3, seed=0,
        node_types=np.ones(n, dtype=np.int16), partner=partner,
        matched_count=2 * len(pairs), queue=(n - 2 * len(pairs), 0, 0),
        checkpoints=list(checkpoints),
    )


def _paired_growth(pairs, seed):
    """A growth result on 2 * pairs + 3 nodes whose partner array pairs
    random ids, leaving three unmatched."""
    n = 2 * pairs + 3
    ids = np.random.default_rng(seed).permutation(n).tolist()
    return _growth_with_pairs(list(zip(ids[0:2 * pairs:2], ids[1:2 * pairs:2])), n)


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


def test_matching_json_ids_across_the_group_boundaries(tmp_path):
    pairs = [(0, 999), (1, 1000), (2, 999_999), (3, 1_000_000), (998, 1001),
             (999_998, 1_000_001)]
    result = _growth_with_pairs(pairs, 1_000_002)
    assert matching_edges(result) == sorted(pairs)
    _assert_matching_json_is_dump_json(result, tmp_path)


def _reference_growth_csv(result, path) -> None:
    """One csv.writer row per checkpoint: the format trajectory.csv promises."""
    p = result.template.node_count
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "matched_count"] + [f"unmatched_{i}" for i in range(1, p + 1)])
        for n, matched, queue in result.checkpoints:
            writer.writerow([n, matched] + list(queue))


def _assert_growth_csv_is_the_row_writer(result, tmp_path):
    ser.write_growth_csv(result, tmp_path / "trajectory.csv")
    _reference_growth_csv(result, tmp_path / "reference.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == (
        tmp_path / "reference.csv").read_bytes()


_BOUNDARY_COUNTS = [0, 1, 999, 1000, 1001, 999_999, 1_000_000, 1_000_001, 2**31 + 1]
GROWTH_CHECKPOINTS = {
    "empty": [],
    "one": [(1, 0, (1, 0, 0))],
    "group-boundaries": [(n, m, (q, 0, n - m - q))
                         for n in _BOUNDARY_COUNTS[3:] for m in _BOUNDARY_COUNTS
                         for q in (0, 999, 1000) if m + q <= n],
    **{f"rows-{rows}": [(k + 1, 2 * (k // 2), ((k + 1) % 2, 0, 0)) for k in range(rows)]
       for rows in (ser._TRACE_BLOCK - 1, ser._TRACE_BLOCK, ser._TRACE_BLOCK + 1)},
}


@pytest.mark.parametrize("case", sorted(GROWTH_CHECKPOINTS))
def test_growth_csv_matches_the_row_writer(tmp_path, case):
    checkpoints = GROWTH_CHECKPOINTS[case]
    _assert_growth_csv_is_the_row_writer(_growth_with_pairs([], 3, checkpoints), tmp_path)
    assert (tmp_path / "trajectory.csv").read_bytes().count(b"\r\n") == len(checkpoints) + 1


def test_growth_csv_of_the_ac10_triangle(tmp_path):
    result = grow_and_match(complete_graph(3), type_distribution((1, 1, 1)),
                            uniform_policy(), 100_000, seed=1010)
    _assert_growth_csv_is_the_row_writer(result, tmp_path)
