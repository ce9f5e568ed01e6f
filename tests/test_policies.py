"""Decision logic: priority, match-the-longest, uniform."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from matchq.errors import (
    InvalidStateError,
    PolicyGraphMismatchError,
    ValidationError,
)
from matchq.graphs import Graph, complete_graph, five_cycle_graph, pendant_graph
from matchq.policies import (
    Policy,
    _decision_step,
    in_state_space,
    match_decision,
    ml_policy,
    pendant_priority_policy,
    priority_policy,
    uniform_policy,
    validate_policy,
)
from oracles import apply_transition

PENDANT = pendant_graph()
FIG_POLICY = pendant_priority_policy()


def test_priority_decision_prefers_triangle_nodes():
    # hub arrival finds both a triangle item and a big tail queue
    assert match_decision(FIG_POLICY, PENDANT, (2, 0, 0, 5), 3) == 1


def test_no_match_when_all_neighbors_empty():
    for pol in (FIG_POLICY, ml_policy(), uniform_policy()):
        rng = np.random.default_rng(0)
        assert match_decision(pol, PENDANT, (0, 0, 0, 0), 2, rng) is None


def test_ml_unique_available_neighbor():
    rng = np.random.default_rng(0)
    assert match_decision(ml_policy(), PENDANT, (0, 0, 0, 7), 3, rng) == 4


def test_ml_picks_longest():
    rng = np.random.default_rng(0)
    assert match_decision(ml_policy(), PENDANT, (2, 0, 0, 9), 3, rng) == 4


def test_apply_transition_examples():
    assert apply_transition((0, 0, 0, 5), 4, None) == (0, 0, 0, 6)
    assert apply_transition((2, 0, 0, 0), 3, 1) == (1, 0, 0, 0)
    assert apply_transition((0, 0, 0, 1), 3, 4) == (0, 0, 0, 0)


def test_apply_transition_rejects_empty_match():
    with pytest.raises(InvalidStateError):
        apply_transition((0, 0, 0, 0), 3, 1)


def test_state_space_membership():
    assert in_state_space(PENDANT, (2, 0, 0, 5))
    assert not in_state_space(PENDANT, (1, 1, 0, 0))  # nodes 1,2 adjacent
    assert not in_state_space(PENDANT, (0, 0, 1, 1))  # nodes 3,4 adjacent
    assert not in_state_space(PENDANT, (0, 0, 0))
    with pytest.raises(InvalidStateError):
        match_decision(FIG_POLICY, PENDANT, (1, 1, 0, 0), 3)


def test_policy_validation():
    with pytest.raises(PolicyGraphMismatchError):
        validate_policy(priority_policy({1: (2,), 2: (1,)}), PENDANT)
    with pytest.raises(PolicyGraphMismatchError):
        # order for node 3 misses neighbor 4
        validate_policy(
            priority_policy({1: (2, 3), 2: (1, 3), 3: (1, 2), 4: (3,)}), PENDANT
        )
    with pytest.raises(ValidationError):
        Policy("greedy")
    with pytest.raises(ValidationError):
        Policy("ml", {1: (2,)})


def test_randomized_kinds_are_deterministic_given_stream():
    state = (2, 0, 0, 5)
    for pol in (ml_policy(), uniform_policy()):
        a = [
            match_decision(pol, PENDANT, state, 3, np.random.default_rng(s))
            for s in range(50)
        ]
        b = [
            match_decision(pol, PENDANT, state, 3, np.random.default_rng(s))
            for s in range(50)
        ]
        assert a == b


@pytest.mark.parametrize(
    "policy,state,expected_support",
    [
        (ml_policy(), (3, 0, 0, 3), {1, 4}),      # two-way tie for longest
        (uniform_policy(), (2, 0, 0, 5), {1, 4}),  # two available neighbors
    ],
)
def test_tie_breaks_and_uniform_draws_are_uniform(policy, state, expected_support):
    rng = np.random.default_rng(1234)
    n = 100_000
    counts = {}
    for _ in range(n):
        j = match_decision(policy, PENDANT, state, 3, rng)
        counts[j] = counts.get(j, 0) + 1
    assert set(counts) == expected_support
    observed = [counts[j] for j in sorted(counts)]
    pvalue = stats.chisquare(observed).pvalue
    assert pvalue > 0.001


@st.composite
def pendant_states(draw):
    # one side of each adjacent pair forced to zero
    q1 = draw(st.integers(0, 5))
    q2 = 0 if q1 else draw(st.integers(0, 5))
    q4 = draw(st.integers(0, 5))
    q3 = 0 if (q1 or q2 or q4) else draw(st.integers(0, 5))
    return (q1, q2, q3, q4)


@settings(max_examples=200, deadline=None)
@given(
    pendant_states(),
    st.integers(1, 4),
    st.sampled_from(["priority", "ml", "uniform"]),
    st.integers(0, 2**32 - 1),
)
def test_transition_closure_and_admissibility(state, arriving, kind, seed):
    policy = {
        "priority": FIG_POLICY,
        "ml": ml_policy(),
        "uniform": uniform_policy(),
    }[kind]
    rng = np.random.default_rng(seed)
    decision = match_decision(policy, PENDANT, state, arriving, rng)
    neighbors_empty = all(state[j - 1] == 0 for j in PENDANT.neighbors(arriving))
    assert (decision is None) == neighbors_empty
    nxt = apply_transition(state, arriving, decision)
    assert in_state_space(PENDANT, nxt)


def test_policy_json_round_trip():
    import json

    from matchq.serialize import policy_from_obj, policy_to_obj

    for pol in (FIG_POLICY, ml_policy(), uniform_policy()):
        again = policy_from_obj(json.loads(json.dumps(policy_to_obj(pol))))
        assert again == pol
    obj = json.loads(json.dumps(policy_to_obj(FIG_POLICY)))
    assert obj["order"]["3"] == [1, 2, 4]


def test_triangle_any_policy_single_choice():
    # on a complete graph the arriving item has at most one available class
    tri = complete_graph(3)
    pol = priority_policy({1: (2, 3), 2: (1, 3), 3: (1, 2)})
    assert match_decision(pol, tri, (0, 4, 0), 1) == 2
    assert match_decision(ml_policy(), tri, (0, 4, 0), 1, np.random.default_rng(0)) == 2


@pytest.mark.parametrize("policy", [ml_policy(), uniform_policy()], ids=lambda p: p.kind)
@pytest.mark.parametrize("graph", [PENDANT, five_cycle_graph(), complete_graph(4),
                                   Graph(4, [(1, 2), (1, 3), (1, 4)])],
                         ids=["pendant", "c5", "k4", "claw"])
def test_one_pass_tie_pick_is_the_listed_pick(graph, policy):
    # decide walks the neighbours a second time to the int(u * n)-th
    # candidate, which must be the candidate choices lists at that index;
    # the claw's centre sees a tie for the longest beside a shorter queue
    decide, choices = _decision_step(policy, graph)
    us = [k / 64 for k in range(64)] + [1 / 3, 2 / 3, np.nextafter(1.0, 0.0)]
    ties = 0
    for state in product(range(4), repeat=graph.node_count):
        if not in_state_space(graph, state):
            continue
        q = [0, *state]
        for c in graph.nodes:
            options = choices(q, c)
            ties += len(options) > 1
            for u in us:
                want = options[int(u * len(options))] if options else 0
                assert decide(q, c, u) == want, (state, c, u)
    # on K4 at most one queue is positive, so only the pendant and C5 tie
    assert (ties > 0) == (graph != complete_graph(4))

