"""Marginal chains: generator tables, closed forms, numeric solves, drifts."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matchq
from matchq.errors import (
    MatchQError,
    NotConvergedError,
    RatesOutsideRegionError,
    TooLargeError,
    UnsupportedPolicyError,
    ValidationError,
)
from matchq.graphs import complete_graph, cycle_graph, five_cycle_graph, pendant_graph
from matchq.marginal import (
    CLOSED_FORM_FIVE_CYCLE,
    CLOSED_FORM_PENDANT,
    _FIVE_CYCLE,
    _FIVE_CYCLE_NODE3,
    _PENDANT,
    _GluedRays,
    build_marginal,
    fluid_report,
    pendant_alpha,
    stationary_numeric,
)
from matchq.policies import (
    five_cycle_priority_policy,
    ml_policy,
    pendant_priority_policy,
    priority_policy,
    uniform_policy,
)
from matchq.simulate import SimConfig, drift_estimate, simulate
from matchq.stability import (
    PENDANT_PRIORITY,
    PENDANT_UNIFORM,
    _fivecycle_inequalities,
    counterexample,
    fivecycle_region,
)
from oracles import (
    FIVE_CYCLE_NODE3_TABLE,
    FIVE_CYCLE_TABLE,
    PENDANT_TABLE,
    fivecycle_alpha,
    law,
    law_gap,
    pendant_alpha_quotient,
    stationary_closed_5cycle,
    stationary_closed_pendant,
)

PENDANT = pendant_graph()
FIVE_CYCLE = five_cycle_graph()
LAM_P = (0.1, 0.1, 0.45, 0.35)
LAM_5 = (0.1, 0.1, 0.225, 0.225, 0.35)


def _rates_map(chain, x):
    """Every positive-rate move from state x as {(coordinate, delta): rate}."""
    up, down = chain.pattern_rates(np.array([x]) > 0)
    out = {}
    for coord in range(len(x)):
        if up[0, coord] > 0.0:
            out[(coord, +1)] = float(up[0, coord])
        if down[0, coord] > 0.0:
            out[(coord, -1)] = float(down[0, coord])
    return out


def test_pendant_marginal_generator_table():
    chain = build_marginal(PENDANT, LAM_P, pendant_priority_policy(), 4)
    assert chain.s_nodes == (1, 2)
    l1, l2, l3, _ = LAM_P
    assert _rates_map(chain, (0, 0)) == {(0, 1): l1, (1, 1): l2}
    assert _rates_map(chain, (3, 0)) == {(0, 1): l1, (0, -1): l3 + l2}
    assert _rates_map(chain, (0, 2)) == {(1, 1): l2, (1, -1): l3 + l1}


def test_five_cycle_marginal_generator_table():
    chain = build_marginal(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 5)
    assert chain.s_nodes == (1, 2)
    l1, l2, l3, l4, _ = LAM_5
    assert _rates_map(chain, (2, 0)) == {(0, 1): l1, (0, -1): l3 + l2}
    assert _rates_map(chain, (0, 7)) == {(1, 1): l2, (1, -1): l1 + l4}


def test_pendant_uniform_marginal_halves_hub_rate():
    chain = build_marginal(PENDANT, LAM_P, uniform_policy(), 4)
    l1, l2, l3, _ = LAM_P
    assert _rates_map(chain, (3, 0))[(0, -1)] == pytest.approx(l2 + l3 / 2)
    assert _rates_map(chain, (0, 3))[(1, -1)] == pytest.approx(l1 + l3 / 2)


def test_five_cycle_uniform_marginal_halves_both_inner_rates():
    chain = build_marginal(FIVE_CYCLE, LAM_5, uniform_policy(), 5)
    l1, l2, l3, l4, _ = LAM_5
    assert _rates_map(chain, (2, 0))[(0, -1)] == pytest.approx(l2 + l3 / 2)
    assert _rates_map(chain, (0, 2))[(1, -1)] == pytest.approx(l1 + l4 / 2)


def test_marginal_rejects_match_longest():
    with pytest.raises(UnsupportedPolicyError):
        build_marginal(PENDANT, LAM_P, ml_policy(), 4)
    with pytest.raises(UnsupportedPolicyError):
        fluid_report(PENDANT, LAM_P, ml_policy(), 4, 1.0)


def test_alpha_values():
    assert pendant_alpha(LAM_P) == pytest.approx(9 / 13, abs=1e-12)
    assert fivecycle_alpha(LAM_5) == pytest.approx(9 / 17, abs=1e-12)


def test_alpha_symmetric_simplification():
    # equal base rates: the constant collapses to l3 / (l3 + 2 l1)
    lam = (0.15, 0.15, 0.5, 0.2)
    assert pendant_alpha(lam) == pytest.approx(0.5 / (0.5 + 0.3), abs=1e-12)


def _random_pendant_rates(rng):
    while True:
        l1, l2 = rng.uniform(0.05, 0.4, 2)
        l3 = rng.uniform(0.1, 0.8)
        l4 = rng.uniform(0.02, 0.8)
        lam = (l1, l2, l3, l4)
        if l3 + l2 - l1 > 1e-3 and l3 + l1 - l2 > 1e-3:
            return lam


def test_alpha_two_forms_agree_on_random_rates():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        lam = _random_pendant_rates(rng)
        assert pendant_alpha(lam) == pytest.approx(
            pendant_alpha_quotient(lam), abs=1e-12
        )


def _figures(law):
    """The figures of a glued-rays law that both routes compute alike, floats
    as float.hex: the arm rates and ratios, then alpha and the tail mass, or
    the text of the error that reading alpha raises outside the region."""
    figures = [*law.up, *law.down, *law.ratios]
    try:
        figures += [law.alpha, law.tail_mass(40)]
    except RatesOutsideRegionError as e:
        figures.append(str(e))
    assert all(type(x) in (float, str) for x in figures)
    return [x.hex() if type(x) is float else x for x in figures]


def _exact_guards(up, down, splits) -> dict:
    """Each guard of the glued-rays law with arm rates up and down, exact on
    those floats and by a route of its own: j in splits waits on its arms
    and takes share of a match while one is positive, so its guard is the
    share plus the rest of one times one less the mass alpha * u / (D - u)
    of each of its arms."""
    odds = [Fraction(u) / (Fraction(d) - Fraction(u)) for u, d in zip(up, down)]
    alpha = 1 / (1 + sum(odds))
    return {
        j: Fraction(share) + (1 - Fraction(share)) * (1 - alpha * sum(odds[k] for k in arms))
        for j, (arms, share) in splits.items()
    }


def _ulps(x: float, exact: Fraction) -> Fraction:
    """The distance of x from the exact value, in ulps of that value."""
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("family, table", [
    (_PENDANT, PENDANT_TABLE),
    (_FIVE_CYCLE, FIVE_CYCLE_TABLE),
    (_FIVE_CYCLE_NODE3, FIVE_CYCLE_NODE3_TABLE),
], ids=["pendant", "5-cycle", "5-cycle-node-3"])
@pytest.mark.parametrize("uniform", [False, True], ids=["priority", "uniform"])
def test_glued_rays_read_off_the_chain_equal_the_hand_tables(family, table, uniform):
    # The law each family reads off its marginal chain is the hand-written
    # one, bit for bit, inside the region and out of it. Its guards are
    # within 4 ulps of their exact value, and agree with the hand-written
    # guards, whose one-arm form loses bits as the other arm's ratio nears 1.
    rng = np.random.default_rng(2024)
    policy = uniform_policy() if uniform else family.policy
    share = 0.5 if uniform else 0.0
    inside = outside = 0
    for _ in range(200):
        rates = tuple(rng.uniform(0.05, 1.0, family.graph.node_count).tolist())
        derived = _GluedRays(build_marginal(family.graph, rates, policy, family.i0), family.name)
        reference = table.law(rates, uniform)
        assert {j: arms for j, (arms, _) in derived.splits.items()} == table.waits
        assert all(s == share for _, s in derived.splits.values())
        assert _figures(derived) == _figures(reference)
        if min(reference.gaps) <= 0:
            outside += 1
            continue
        inside += 1
        exact = _exact_guards(derived.up, derived.down, derived.splits)
        for j, arms in table.waits.items():
            guard = derived.guard(j)
            assert type(guard) is float and _ulps(guard, exact[j]) <= 4
            assert guard == pytest.approx(reference.guard(arms, share), rel=1e-10)
        if not uniform:
            assert family.law(rates).alpha.hex() == reference.alpha.hex()
            if all(len(arms) == 1 for arms in table.waits.values()):
                c, alpha = table.service(rates)
                assert family.law(rates).matched() == pytest.approx(c * alpha, rel=1e-10)
    assert inside > 10 and outside > 10


@pytest.mark.parametrize("table, rates, method, rules", [
    (PENDANT_TABLE, LAM_P, CLOSED_FORM_PENDANT, 24),
    (FIVE_CYCLE_TABLE, LAM_5, CLOSED_FORM_FIVE_CYCLE, 32),
], ids=["pendant", "5-cycle"])
def test_closed_route_iff_the_hand_table_serves_first(table, rates, method, rules):
    # Over every priority rule (56 in all), fluid_report takes the closed
    # route exactly where the hand table's neighbours serve their arms
    # first, and its guards there are within 4 ulps of the hand-written
    # law's exact guards and agree with its float ones.
    graph = table.graph
    orders = [itertools.permutations(graph.neighbors(v)) for v in graph.nodes]
    seen = closed = 0
    for combo in itertools.product(*orders):
        policy = priority_policy(dict(zip(graph.nodes, combo)))
        try:
            report = fluid_report(graph, rates, policy, table.i0, 1.0, truncation=8)
        except MatchQError:
            report = None
        seen += 1
        serves_first = table.serves_first(policy)
        assert (report is not None and report.method == method) == serves_first
        if serves_first:
            closed += 1
            law = table.law(rates)
            exact = _exact_guards(law.up, law.down,
                                  {j: (arms, 0.0) for j, arms in table.waits.items()})
            assert report.guard_probs.keys() == table.waits.keys()
            for j, arms in table.waits.items():
                assert _ulps(report.guard_probs[j], exact[j]) <= 4
                assert report.guard_probs[j] == pytest.approx(law.guard(arms, 0.0), rel=1e-10)
    assert seen == rules and 0 < closed < rules


def test_alpha_outside_region():
    with pytest.raises(RatesOutsideRegionError):
        pendant_alpha((0.5, 0.1, 0.3, 0.2))


def test_closed_forms_check_the_rate_count():
    for closed, rates in ((pendant_alpha, LAM_P[:3]), (fivecycle_alpha, LAM_5 + (0.1,)),
                          (fivecycle_region, LAM_5[:4]),
                          (stationary_closed_pendant, LAM_5), (stationary_closed_5cycle, LAM_P)):
        with pytest.raises(ValidationError):
            closed(rates)


def test_closed_form_detailed_balance():
    l1, l2, l3, _ = LAM_P
    alpha, dist = stationary_closed_pendant(LAM_P, truncation=60)
    prob = law(dist)
    for i in range(0, 50):
        up = prob[(i, 0)] * l1
        down = prob[(i + 1, 0)] * (l3 + l2)
        assert up == pytest.approx(down, rel=1e-12)
    for j in range(0, 50):
        up = prob[(0, j)] * l2
        down = prob[(0, j + 1)] * (l3 + l1)
        assert up == pytest.approx(down, rel=1e-12)


def test_closed_form_detailed_balance_five_cycle():
    l1, l2, l3, l4, _ = LAM_5
    _, dist = stationary_closed_5cycle(LAM_5, truncation=60)
    prob = law(dist)
    for i in range(0, 50):
        assert prob[(i, 0)] * l1 == pytest.approx(
            prob[(i + 1, 0)] * (l3 + l2), rel=1e-12
        )
        assert prob[(0, i)] * l2 == pytest.approx(
            prob[(0, i + 1)] * (l1 + l4), rel=1e-12
        )


def test_closed_form_masses_normalize():
    for fn, lam in (
        (stationary_closed_pendant, LAM_P),
        (stationary_closed_5cycle, LAM_5),
    ):
        _, dist = fn(lam, truncation=200)
        assert float(dist.probs.sum()) + dist.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_numeric_matches_closed_forms():
    chain = build_marginal(PENDANT, LAM_P, pendant_priority_policy(), 4)
    numeric = stationary_numeric(chain, truncation=200)
    _, closed = stationary_closed_pendant(LAM_P, truncation=200)
    gap = law_gap(numeric, closed)
    assert gap < 1e-10
    assert numeric.tail_mass < 1e-9

    chain5 = build_marginal(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 5)
    numeric5 = stationary_numeric(chain5, truncation=200)
    _, closed5 = stationary_closed_5cycle(LAM_5, truncation=200)
    gap5 = law_gap(numeric5, closed5)
    assert gap5 < 1e-10


def test_numeric_detects_transient_coordinate_as_reducible():
    # path 1-2-3 with node 2 serving node 1 first: while node 1 stays
    # busy, node 3 can fill but never drain, so the truncated chain has
    # absorbing top states and the balance solve is refused
    from matchq.errors import ReducibleError
    from matchq.graphs import Graph

    path = Graph(3, [(1, 2), (2, 3)])
    policy = priority_policy({1: (2,), 2: (1, 3), 3: (2,)})
    chain = build_marginal(path, (0.4, 0.5, 0.1), policy, 1)
    assert chain.s_nodes == (3,)
    with pytest.raises(ReducibleError):
        stationary_numeric(chain, truncation=30)


def test_numeric_single_state_chain():
    # probing a node of the complete graph leaves no outside coordinates
    chain = build_marginal(
        complete_graph(3), (1, 1, 1), priority_policy({1: (2, 3), 2: (1, 3), 3: (1, 2)}), 1
    )
    assert chain.s_nodes == ()
    dist = stationary_numeric(chain)
    assert dist.states == ((),)
    assert dist.probs[0] == 1.0


def test_fluid_report_guard_sets():
    report = fluid_report(PENDANT, LAM_P, pendant_priority_policy(), 4, 1.0)
    assert report.guard_probs == {3: pytest.approx(9 / 13, abs=1e-12)}
    r5 = fluid_report(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 5, 1.0)
    _, dist5 = stationary_closed_5cycle(LAM_5)
    empty = dist5.state_array == 0
    assert r5.guard_probs[3] == pytest.approx(
        float(sum(dist5.probs[empty[:, 0]])), abs=1e-9
    )
    assert r5.guard_probs[4] == pytest.approx(
        float(sum(dist5.probs[empty[:, 1]])), abs=1e-9
    )


def test_fluid_report_unstable_examples():
    rp = fluid_report(PENDANT, LAM_P, pendant_priority_policy(), 4, 1.0)
    assert rp.drift == pytest.approx(0.0384615385, abs=1e-9)
    assert math.isinf(rp.rho)

    r5 = fluid_report(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 5, 1.0)
    assert r5.drift == pytest.approx(0.0058823529, abs=1e-9)
    assert math.isinf(r5.rho)

    ru = fluid_report(PENDANT, (0.2, 0.2, 0.4, 0.35), uniform_policy(), 4, 1.0)
    assert ru.drift == pytest.approx(0.0833333333, abs=1e-9)
    assert math.isinf(ru.rho)


def test_fluid_report_stable_side_hitting_time():
    report = fluid_report(PENDANT, (0.25, 0.25, 0.3, 0.1), pendant_priority_policy(), 4, 1.0)
    assert report.drift == pytest.approx(-0.0125, abs=1e-12)
    assert report.rho == pytest.approx(80.0, abs=1e-9)


def test_fluid_report_tail_first_priority_uses_numeric_path():
    # hub serving the tail before the triangle removes the guard entirely:
    # every hub arrival matches the tail, so the drift is l4 - l3 exactly
    policy = priority_policy({1: (2, 3), 2: (1, 3), 3: (4, 1, 2), 4: (3,)})
    report = fluid_report(PENDANT, LAM_P, policy, 4, 1.0, truncation=60)
    assert report.method == "numeric-truncated"
    assert report.guard_probs[3] == pytest.approx(1.0, abs=1e-12)
    assert report.drift == pytest.approx(LAM_P[3] - LAM_P[2], abs=1e-12)
    assert report.rho == pytest.approx(10.0, abs=1e-9)


def test_fluid_report_numeric_path_matches_closed_form_after_relabeling():
    # the same 5-cycle model with consecutive labels: apex is node 4 there
    std = cycle_graph(5)
    policy = priority_policy(
        {1: (2, 5), 2: (1, 3), 3: (2, 4), 4: (3, 5), 5: (1, 4)}
    )
    rates = (0.1, 0.1, 0.225, 0.35, 0.225)
    report = fluid_report(std, rates, policy, 4, 1.0)
    assert report.method == "numeric-truncated"
    closed = fluid_report(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 5, 1.0)
    assert closed.method == "closed-form-five-cycle"
    assert report.drift == pytest.approx(closed.drift, abs=1e-9)
    assert report.tail_mass < 1e-9


def test_fluid_report_numeric_uniform_matches_closed_form():
    report = fluid_report(PENDANT, (0.2, 0.2, 0.4, 0.35), uniform_policy(), 4, 1.0,
                          truncation=150)
    chain = build_marginal(PENDANT, (0.2, 0.2, 0.4, 0.35), uniform_policy(), 4)
    numeric = stationary_numeric(chain, truncation=150)
    w = 0.0
    for s, p in zip(numeric.states, numeric.probs):
        r = 1 if (s[0] > 0 or s[1] > 0) else 0
        w += float(p) / (r + 1)
    drift_numeric = 0.35 - 0.4 * w
    assert report.drift == pytest.approx(drift_numeric, abs=1e-9)


def _node_inequalities(inequalities):
    """The node-3 and node-4 inequalities among a 5-cycle region's."""
    named = {iq.name: iq for iq in inequalities}
    return named["five_cycle:node3<c*alpha24"], named["five_cycle:node4<l2*alpha13+l5"]


@pytest.mark.parametrize("family, name", [
    (_FIVE_CYCLE, "five_cycle:apex<a*alpha"),
    (_FIVE_CYCLE_NODE3, "five_cycle:node3<c*alpha24"),
], ids=["apex", "node-3"])
def test_glued_service_reads_the_checked_rates(family, name):
    # numpy rates give the same Python float as a tuple: the guard sum, the
    # region's right-hand side, multiplies the chain's checked rates, not
    # the rates as given
    got = family.law(np.array(LAM_5)).matched()
    assert type(got) is float
    assert got == family.law(LAM_5).matched()
    named = {iq.name: iq for iq in fivecycle_region(np.array(LAM_5)).inequalities}
    assert named[name].rhs.hex() == got.hex()


def test_glued_guard_of_a_neighbour_on_no_arm_is_one():
    # Under the canonical rule node 5 serves node 4 first, so in node 4's
    # chain, glued rays on nodes 1 and 3, class 5 waits on no arm and always
    # matches node 4; every guard agrees with the numeric route.
    rates = (0.21, 0.25, 0.18, 0.27, 0.09)
    policy = five_cycle_priority_policy()
    law = _GluedRays(build_marginal(FIVE_CYCLE, rates, policy, 4), "5-cycle node-4")
    assert law.splits == {2: ((0,), 0.0), 5: ((), 0.0)}
    assert law.guard(5) == 1.0
    report = fluid_report(FIVE_CYCLE, rates, policy, 4, 1.0)
    assert report.guard_probs.keys() == law.splits.keys()
    for j, w in report.guard_probs.items():
        assert law.guard(j) == pytest.approx(w, abs=1e-12)


def _apex_inequality(rates):
    """The 5-cycle region's apex inequality at the given rates, or None where
    the node-3 law, which the region reads too, does not exist."""
    try:
        return _fivecycle_inequalities(rates)[0]
    except RatesOutsideRegionError:
        return None


def test_glued_guard_sums_are_exact_and_sign_the_closed_drift():
    # 20,000 seeded vectors in three rate ranges, each through one of the
    # 5-cycle's apex and node-3 laws under the canonical rule or uniform in
    # turn: inside the law, every guard sum is within 8 ulps of its exact
    # value. Under the canonical rule, the region's apex inequality holds
    # exactly where fluid_report's closed drift is negative, at every
    # vector and on both sides of the apex face, bisected in l5.
    rng = np.random.default_rng(26)
    pairs = [(family, policy) for family in (_FIVE_CYCLE, _FIVE_CYCLE_NODE3)
             for policy in (family.policy, uniform_policy())]
    checked = signed = faces = 0
    for n in range(20_000):
        lo, hi = ((0.02, 0.6), (0.05, 1.0), (0.1, 0.5))[n % 3]
        rates = tuple(rng.uniform(lo, hi, 5).tolist())
        family, policy = pairs[n % 4]
        law = _GluedRays(build_marginal(FIVE_CYCLE, rates, policy, family.i0), family.name)
        if min(law.gaps) <= 0:
            continue
        checked += 1
        exact = _exact_guards(law.up, law.down, law.splits)
        got = sum(rates[j - 1] * law.guard(j) for j in law.splits)
        assert _ulps(got, sum(Fraction(rates[j - 1]) * exact[j] for j in law.splits)) <= 8
        if family is not _FIVE_CYCLE or policy is not family.policy:
            continue
        apex = _apex_inequality(rates)
        if apex is not None:
            signed += 1
            assert apex.satisfied == (fluid_report(FIVE_CYCLE, rates, policy, 5, 1.0).drift < 0)
        if n % 200:
            continue
        # the largest l5 that satisfies the apex inequality, and the next
        # float up; node 3's arm 4 drains only above l4 - l2, and the right
        # side is at most l3 + l4
        floor = below = max(0.0, rates[3] - rates[1])
        above = 2.0 * (rates[2] + rates[3])
        while math.nextafter(below, math.inf) < above:
            mid = (below + above) / 2
            if _apex_inequality(rates[:4] + (mid,)).satisfied:
                below = mid
            else:
                above = mid
        if below == floor:
            continue
        faces += 1
        for l5 in (below, above):
            edge = rates[:4] + (l5,)
            drift = fluid_report(FIVE_CYCLE, edge, policy, 5, 1.0).drift
            assert _apex_inequality(edge).satisfied == (drift < 0) == (l5 == below)
    assert checked > 10_000 and signed > 1_000 and faces > 40


def test_fivecycle_node_constants_values():
    c, alpha24 = FIVE_CYCLE_NODE3_TABLE.service(LAM_5)
    assert alpha24 == pytest.approx(1 / (1 + 0.1 / 0.225 + 1.0), abs=1e-12)
    c_expected = 0.35 * 0.325 / 0.225 + 0.1 * 0.45 / 0.225
    assert c == pytest.approx(c_expected, abs=1e-12)
    node3, node4 = _node_inequalities(fivecycle_region(LAM_5).inequalities)
    assert node3.rhs.hex() == (c * alpha24).hex()
    assert node3.satisfied  # a negative node-3 drift
    assert node4.satisfied


def test_fivecycle_node3_constants_match_generic_numeric_machinery():
    # the (2,4) marginal chain: glued rays with ratios l2/(l1+l4), l4/(l5+l2)
    chain = build_marginal(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 3)
    assert chain.s_nodes == (2, 4)
    dist = stationary_numeric(chain, truncation=200)
    _, alpha24 = FIVE_CYCLE_NODE3_TABLE.service(LAM_5)
    assert law(dist)[(0, 0)] == pytest.approx(alpha24, abs=1e-9)
    report = fluid_report(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 3, 1.0)
    node3, _ = _node_inequalities(fivecycle_region(LAM_5).inequalities)
    assert report.drift == pytest.approx(node3.lhs - node3.rhs, abs=1e-9)


def test_fivecycle_node_drift_signs_match_simulation():
    for node, iq in zip((3, 4), _node_inequalities(fivecycle_region(LAM_5).inequalities)):
        scale = 4000
        initial = tuple(scale if v == node else 0 for v in FIVE_CYCLE.nodes)
        trace = simulate(
            FIVE_CYCLE,
            LAM_5,
            five_cycle_priority_policy(),
            SimConfig(horizon=1.0, seed=13, initial_state=initial, scale=scale),
        )
        est = drift_estimate(trace, node)
        assert (est.slope < 0) == iq.satisfied


def test_fivecycle_node4_limiting_cases():
    # Most of these rates break the rate condition, where fivecycle_region
    # reads no drift inequality, so the region's inequalities are read
    # directly. Node 4's bound is l2 * alpha13 + l5.
    def alpha13(node4, rates):
        return (node4.rhs - rates[4]) / rates[1]

    # tiny l1 pushes the idle bound to one
    rates = (1e-9, 0.1, 0.225, 0.225, 0.35)
    _, node4 = _node_inequalities(_fivecycle_inequalities(rates))
    assert alpha13(node4, rates) == pytest.approx(1.0, abs=1e-6)
    # l4 < l5 forces a negative node-4 drift whenever the constants exist
    rng = np.random.default_rng(5)
    for _ in range(50):
        l1, l2, l3 = rng.uniform(0.05, 0.4, 3)
        l5 = rng.uniform(0.1, 0.6)
        l4 = l5 * rng.uniform(0.2, 0.99)
        rates = tuple(map(float, (l1, l2, l3, l4, l5)))
        try:
            _, node4 = _node_inequalities(_fivecycle_inequalities(rates))
        except RatesOutsideRegionError:
            continue
        if alpha13(node4, rates) > 0:
            assert node4.satisfied


def test_guard_occupancy_matches_simulation():
    # fraction of time both base queues are empty, while the tail stays busy
    scale = 10000
    trace = simulate(
        PENDANT,
        LAM_P,
        pendant_priority_policy(),
        SimConfig(horizon=1.0, seed=17, initial_state=(0, 0, 0, scale), scale=scale),
    )
    ts = trace.times
    dt = np.diff(np.concatenate([ts, [trace.end_time]]))
    guard = (trace.states[:, 0] == 0) & (trace.states[:, 1] == 0)
    sel = ts > 0.1 * trace.end_time
    occ = float((guard[sel] * dt[sel]).sum() / dt[sel].sum())
    batches = np.array_split(np.nonzero(sel)[0], 10)
    vals = [
        float((guard[b] * dt[b]).sum() / dt[b].sum()) for b in batches
    ]
    sem = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(occ - 9 / 13) <= max(3 * sem, 0.01)


def test_uniform_drift_formulas_cross_check():
    # direct evaluation of the two closed forms at the parametric instances
    eps = 0.2
    uniform = counterexample(PENDANT_UNIFORM, eps)
    assert uniform.rates == (eps, eps, 0.5 - eps / 2, 0.5 - 0.75 * eps)
    assert uniform.drift == pytest.approx(eps * (7 - 15 * eps) / (4 * (1 + 7 * eps)), abs=1e-12)
    priority = counterexample(PENDANT_PRIORITY, eps)
    assert priority.rates == (eps / 2, eps / 2, 0.5 - eps / 4, 0.5 - 0.75 * eps)
    assert priority.drift == pytest.approx(
        (eps / 4) * (1 - 2.5 * eps) / (0.5 + 0.75 * eps), abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_closed_vs_numeric_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    lam = _random_pendant_rates(rng)
    r1 = lam[0] / (lam[2] + lam[1])
    r2 = lam[1] / (lam[2] + lam[0])
    if max(r1, r2) > 0.85:
        return
    chain = build_marginal(PENDANT, lam, pendant_priority_policy(), 4)
    numeric = stationary_numeric(chain, truncation=120)
    _, closed = stationary_closed_pendant(lam, truncation=120)
    gap = law_gap(numeric, closed)
    assert gap < 1e-8


C7_DESCENDING = priority_policy(
    {v: tuple(sorted(cycle_graph(7).neighbors(v), reverse=True)) for v in range(1, 8)}
)


def test_marginal_solve_leaves_no_garbage_cycles():
    import gc

    chain = build_marginal(cycle_graph(7), (1 / 7,) * 7, C7_DESCENDING, 1)
    gc.collect()
    gc.disable()
    try:
        states = chain.enumerate_states(60)
        assert len(states) == 1 + 4 * 60 + 3 * 60**2
        assert gc.collect() == 0
        fluid_report(cycle_graph(7), (1 / 7,) * 7, C7_DESCENDING, 1, 1.0, truncation=60)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("truncation", [0, -1, -3])
def test_stationary_numeric_rejects_truncation_below_one(truncation):
    chain = build_marginal(cycle_graph(7), (1 / 7,) * 7, C7_DESCENDING, 1)
    with pytest.raises(ValidationError):
        stationary_numeric(chain, truncation)


_ROUTES = [
    pytest.param(cycle_graph(7), (1 / 7,) * 7, C7_DESCENDING, 1, "numeric-truncated",
                 id="numeric"),
    pytest.param(PENDANT, LAM_P, pendant_priority_policy(), 4, "closed-form-pendant",
                 id="closed"),
]


@pytest.mark.parametrize("graph, rates, policy, node, method", _ROUTES)
@pytest.mark.parametrize("truncation", [2.5, 3.0, np.float64(3.0), math.inf, math.nan,
                                        True, False, "3", None])
def test_fluid_report_refuses_a_truncation_that_is_not_an_integer(graph, rates, policy, node,
                                                                   method, truncation):
    # a float truncation reached numpy as an array shape on the numeric
    # route and the closed route took it as an exponent; True passed as 1
    assert fluid_report(graph, rates, policy, node, 1.0, truncation=3).method == method
    with pytest.raises(ValidationError, match="integer"):
        fluid_report(graph, rates, policy, node, 1.0, truncation=truncation)


def _clique_chain():
    # K11 with node 12 hanging off node 1: at node 12 the ten coordinates
    # 2..11 form a clique, so 201**10 overflows int64 while the chain has
    # only 2001 states
    edges = [(a, b) for a in range(1, 12) for b in range(a + 1, 12)] + [(1, 12)]
    graph = matchq.Graph(12, edges)
    return pytest.param(graph, (0.05,) * 11 + (0.3,), uniform_policy(), 12,
                        "numeric-truncated", id="wide-codes")


@pytest.mark.parametrize("graph, rates, policy, node, method", _ROUTES + [_clique_chain()])
def test_fluid_report_takes_a_numpy_integer_truncation_as_an_int(graph, rates, policy, node,
                                                                  method):
    # a numpy integer truncation made the mixed-radix place values numpy
    # scalars, whose power wrapped round instead of switching to Python ints
    as_int = fluid_report(graph, rates, policy, node, 1.0, truncation=200)
    assert as_int.method == method
    assert fluid_report(graph, rates, policy, node, 1.0, truncation=np.int64(200)) == as_int


@pytest.mark.parametrize("closed, rates", [(stationary_closed_pendant, LAM_P),
                                           (stationary_closed_5cycle, LAM_5)])
@pytest.mark.parametrize("truncation", [0, -1, -3])
def test_closed_laws_reject_truncation_below_one(closed, rates, truncation):
    assert len(closed(rates, 1)[1].states) == 3
    with pytest.raises(ValidationError):
        closed(rates, truncation)


@pytest.mark.parametrize("closed, rates", [(stationary_closed_pendant, LAM_P),
                                           (stationary_closed_5cycle, LAM_5)])
def test_closed_laws_cap_the_state_count(closed, rates):
    # the numeric path stops at the same cap; 2 * 249_999 + 1 states fit
    assert len(closed(rates, 249_999)[1].states) == 499_999
    with pytest.raises(TooLargeError):
        closed(rates, 10**8)


def test_fluid_closed_route_builds_no_state_array(tmp_path):
    # the closed route reads the analytic tail mass and builds no state
    # array, so a huge truncation costs nothing
    env = dict(os.environ, PYTHONPATH=str(Path(matchq.__file__).parents[1]))
    (tmp_path / "g.json").write_text('{"nodes": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]]}')
    (tmp_path / "r.json").write_text('{"rates": [0.1, 0.1, 0.45, 0.35]}')
    (tmp_path / "p.json").write_text(
        '{"kind": "priority", "order": {"1": [2, 3], "2": [1, 3], "3": [1, 2, 4], "4": [3]}}'
    )
    run = subprocess.run(
        [sys.executable, "-m", "matchq.cli", "fluid", "--graph", "g.json", "--rates",
         "r.json", "--policy", "p.json", "--node", "4", "--truncation", "100000000"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["method"] == "closed-form-pendant" and report["tail_mass"] == 0.0
    assert report["drift"] == fluid_report(PENDANT, LAM_P, pendant_priority_policy(), 4,
                                           1.0).drift


@pytest.mark.parametrize("route", ["closed-form-pendant", "numeric-truncated"])
@pytest.mark.parametrize("truncation", [0, -1, -3])
def test_fluid_report_rejects_truncation_below_one(route, truncation):
    if route == "closed-form-pendant":
        args = (PENDANT, LAM_P, pendant_priority_policy(), 4)
    else:
        args = (cycle_graph(7), (1 / 7,) * 7, C7_DESCENDING, 1)
    assert fluid_report(*args, 1.0, truncation=1).method == route
    with pytest.raises(ValidationError):
        fluid_report(*args, 1.0, truncation=truncation)


def test_enumerate_states_lexicographic_and_independent():
    chain = build_marginal(cycle_graph(7), (1 / 7,) * 7, C7_DESCENDING, 1)
    states = chain.enumerate_states(5)
    assert chain.s_nodes == (3, 4, 5, 6)
    rows = [tuple(s) for s in states.tolist()]
    assert rows == sorted(set(rows))
    # no two adjacent coordinates are positive together
    adjacent = [(chain.s_nodes.index(a), chain.s_nodes.index(b))
                for a, b in chain.graph.edges if a in chain.s_nodes and b in chain.s_nodes]
    assert (states >= 0).all()
    assert not any(((states[:, a] > 0) & (states[:, b] > 0)).any() for a, b in adjacent)
    assert len(rows) == 1 + 4 * 5 + 3 * 5**2


def test_enumerate_states_cap(monkeypatch):
    import matchq.marginal as marginal

    chain = build_marginal(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 5)
    monkeypatch.setattr(marginal, "_MAX_STATES", 21)
    assert len(chain.enumerate_states(10)) == 21
    monkeypatch.setattr(marginal, "_MAX_STATES", 20)
    with pytest.raises(TooLargeError):
        chain.enumerate_states(10)


def test_numeric_records_lu_solver_and_residual():
    c7 = cycle_graph(7)
    for rates in ((1 / 7,) * 7, (0.22,) + (0.13,) * 6):
        for policy in (C7_DESCENDING, uniform_policy()):
            report = fluid_report(c7, rates, policy, 1, 1.0, truncation=40)
            assert report.solver == "lu"
            assert 0.0 <= report.residual <= 1e-12
    relabeled = fluid_report(
        cycle_graph(5), (0.1, 0.1, 0.225, 0.35, 0.225),
        priority_policy({1: (2, 5), 2: (1, 3), 3: (2, 4), 4: (3, 5), 5: (1, 4)}), 4, 1.0,
    )
    assert relabeled.method == "numeric-truncated"
    assert relabeled.solver == "lu" and relabeled.residual <= 1e-12
    closed = fluid_report(PENDANT, LAM_P, pendant_priority_policy(), 4, 1.0)
    assert closed.solver == "closed-form" and closed.residual is None


def test_numeric_refuses_a_non_finite_lu_result(monkeypatch):
    import matchq.marginal as marginal

    chain = build_marginal(PENDANT, LAM_P, pendant_priority_policy(), 4)
    assert stationary_numeric(chain, truncation=30).solver == "lu"
    monkeypatch.setattr(marginal, "spsolve", lambda a, b, **kw: np.full(len(b), np.nan))
    with pytest.raises(NotConvergedError, match="non-finite"):
        stationary_numeric(chain, truncation=30)


# Runs in a new interpreter: SciPy must stay out of sys.modules through
# the import and every CLI command that solves no marginal chain, and come
# in with the first numeric solve.
_SCIPY_ON_DEMAND = """
import contextlib, io, json, sys
import matchq, matchq.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
json.dump({"nodes": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]]}, open("g.json", "w"))
json.dump({"rates": [0.1, 0.1, 0.45, 0.35]}, open("r.json", "w"))
json.dump({"kind": "uniform"}, open("p.json", "w"))
instance = ["--graph", "g.json", "--rates", "r.json", "--policy", "p.json"]
for argv in (
    ["simulate", *instance, "--seed", "1", "--horizon", "2", "--scale", "50"],
    ["randgraph", *instance, "--seed", "1", "--n", "500"],
    ["ncond", "--graph", "g.json", "--rates", "r.json"],
    ["analyze", "--graph", "g.json"],
    ["counterexample", "pendant-priority", "0.01"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert matchq.cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
report = matchq.fluid_report(matchq.cycle_graph(7), (1 / 7,) * 7, matchq.uniform_policy(),
                             1, 1.0, truncation=10)
assert report.solver == "lu", report.solver
assert "scipy.sparse.linalg" in scipy_modules()
"""


def test_scipy_loads_only_for_a_numeric_solve(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(matchq.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _SCIPY_ON_DEMAND], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_numeric_solve_pins_the_empty_state(monkeypatch):
    import matchq.marginal as marginal

    calls = []
    solve = marginal.spsolve

    def spy(a, b, **kw):
        x = solve(a, b, **kw)
        calls.append((a.shape, b, kw, x))
        return x

    monkeypatch.setattr(marginal, "spsolve", spy)
    chain = build_marginal(cycle_graph(7), (1 / 7,) * 7, C7_DESCENDING, 1)
    dist = stationary_numeric(chain, truncation=4)
    n = len(dist.probs)
    [(shape, b, kw, x)] = calls
    assert shape == (n - 1, n - 1)
    assert kw == {"permc_spec": "MMD_AT_PLUS_A"}
    # the unknown left out is row 0, the all-zero state: the right-hand
    # side is the flow out of it, into the states one step up, and the
    # solution is every other state's mass relative to it
    assert not dist.state_array[0].any()
    assert (dist.state_array[np.flatnonzero(b) + 1].sum(axis=1) == 1).all()
    assert np.allclose(dist.probs[1:] / dist.probs[0], x, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("policy, down", [
    (priority_policy({1: (2,), 2: (3, 1), 3: (2,)}), 0.3),
    (uniform_policy(), 0.15),
])
def test_numeric_two_state_chain_matches_closed_form(policy, down):
    # the path 1-2-3 at node 1: the one coordinate, node 3, climbs at
    # l3 and falls at l2 when node 2 serves it first, at l2 / 2 when node
    # 2 splits its arrivals between it and node 1
    from matchq.graphs import Graph

    path = Graph(3, [(1, 2), (2, 3)])
    rates = (0.5, 0.3, 0.2)
    dist = stationary_numeric(build_marginal(path, rates, policy, 1), truncation=1)
    up = rates[2]
    assert dist.state_array.tolist() == [[0], [1]]
    assert dist.solver == "lu" and dist.residual <= 1e-15
    assert dist.probs == pytest.approx([down / (up + down), up / (up + down)], rel=1e-15)
    assert dist.tail_mass == pytest.approx(up / (up + down), rel=1e-15)


def test_numeric_wide_state_codes_match_glued_rays():
    # nine pairwise adjacent coordinates behind a single neighbor of i0:
    # 201**9 overflows int64, and only one coordinate is ever positive, so
    # the law is nine geometric arms glued at the empty state
    from matchq.graphs import Graph

    outer = range(3, 12)
    edges = [(1, 2)] + [(2, v) for v in outer]
    edges += [(u, v) for u in outer for v in outer if u < v]
    graph = Graph(11, edges)
    rates = tuple([0.3, 0.4] + [0.01 * k for k in range(1, 10)])
    chain = build_marginal(graph, rates, uniform_policy(), 1)
    dist = stationary_numeric(chain, truncation=200)
    assert len(dist.states) == 1 + 9 * 200
    ratio = {
        k: rates[v - 1] / (rates[1] / 2 + sum(rates[u - 1] for u in outer if u != v))
        for k, v in enumerate(outer)
    }
    prob = law(dist)
    empty = prob[(0,) * 9]
    assert empty == pytest.approx(1 / (1 + sum(r / (1 - r) for r in ratio.values())),
                                  rel=1e-12)
    for k, r in ratio.items():
        for level in (1, 2, 7):
            x = tuple(level if c == k else 0 for c in range(9))
            assert prob[x] == pytest.approx(empty * r**level, rel=1e-9)


@pytest.mark.parametrize("closed, rates", [
    (pendant_alpha, (0.1, math.nan, 0.45, 0.35)),
    (fivecycle_alpha, (0.1, 0.1, math.nan, 0.225, 0.35)),
    (stationary_closed_pendant, (0.1, 0.1, 0.45, math.nan)),
    (stationary_closed_5cycle, (math.nan, 0.1, 0.225, 0.225, 0.35)),
    (fivecycle_region, (0.1, 0.1, 0.225, 0.225, math.nan)),
], ids=lambda v: v.__name__ if callable(v) else "nan")
def test_closed_forms_reject_a_nan_rate(closed, rates):
    with pytest.raises(ValidationError, match="finite and strictly positive"):
        closed(rates)


def _space_arrays(space):
    return [(a.dtype, a.shape, a.tobytes()) if a.dtype != object else list(a)
            for a in (space.states, space.codes, space.place, space.pattern, space.patterns)]


def test_state_space_cache_hit_is_equal_and_read_only(monkeypatch):
    import matchq.marginal as marginal

    monkeypatch.setattr(marginal, "_SPACES", {})
    c7 = cycle_graph(7)
    first = build_marginal(c7, (1 / 7,) * 7, C7_DESCENDING, 1)
    states = first.enumerate_states(6)
    # another chain of the same coordinate graph: other rates, other rule
    other = build_marginal(c7, (0.22,) + (0.13,) * 6, uniform_policy(), 1)
    assert other._coordinate_graph == first._coordinate_graph
    assert other.enumerate_states(6) is states
    space = other._space(6)
    for array in (space.states, space.codes, space.place, space.pattern, space.patterns):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    dist = stationary_numeric(other, 6)
    assert dist.state_array is states and not dist.state_array.flags.writeable
    # a fresh build of the same space, cache or no cache, is the same
    fresh = marginal._build_space(first._coordinate_graph, 6)
    assert fresh is not space and _space_arrays(fresh) == _space_arrays(space)
    monkeypatch.setattr(marginal, "_SPACES", {})
    rebuilt = build_marginal(c7, (1 / 7,) * 7, C7_DESCENDING, 1)._space(6)
    assert rebuilt is not space and _space_arrays(rebuilt) == _space_arrays(space)


def test_state_space_cache_keeps_small_spaces_and_bounds_its_entries(monkeypatch):
    import matchq.marginal as marginal

    monkeypatch.setattr(marginal, "_SPACES", {})
    monkeypatch.setattr(marginal, "_CACHED_SPACES", 2)
    chain = build_marginal(cycle_graph(7), (1 / 7,) * 7, C7_DESCENDING, 1)
    n = {t: 1 + 4 * t + 3 * t * t for t in (1, 2, 3)}
    monkeypatch.setattr(marginal, "_CACHED_STATES", n[3] - 1)
    for t in (1, 2, 3):
        assert len(chain.enumerate_states(t)) == n[t]
    # the largest space is too big to keep
    graph = chain._coordinate_graph
    assert list(marginal._SPACES) == [(graph, 1), (graph, 2)]
    # a hit moves its space to the back; the least recently used leaves first
    build_marginal(cycle_graph(7), (1 / 7,) * 7, uniform_policy(), 1).enumerate_states(1)
    build_marginal(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 5).enumerate_states(1)
    assert [t for _, t in marginal._SPACES] == [1, 1]
    assert (graph, 1) in marginal._SPACES


def test_state_cap_is_checked_on_every_call(monkeypatch):
    import matchq.marginal as marginal

    monkeypatch.setattr(marginal, "_SPACES", {})
    chain = build_marginal(FIVE_CYCLE, LAM_5, five_cycle_priority_policy(), 5)
    assert len(chain.enumerate_states(10)) == 21
    monkeypatch.setattr(marginal, "_MAX_STATES", 20)
    # the same chain, and another chain that finds the space in the cache
    with pytest.raises(TooLargeError):
        chain.enumerate_states(10)
    with pytest.raises(TooLargeError):
        build_marginal(FIVE_CYCLE, LAM_5, uniform_policy(), 5).enumerate_states(10)
    with pytest.raises(TooLargeError):
        fluid_report(FIVE_CYCLE, LAM_5, uniform_policy(), 3, 1.0, truncation=10)


@pytest.mark.parametrize("node", [1, 2])
def test_chains_sharing_a_space_keep_their_own_rates(monkeypatch, node):
    # every chain below has the same coordinate graph at its node, so all
    # share one cached space; each must read its own rates and rule, as
    # with an empty cache
    import matchq.marginal as marginal

    c7 = cycle_graph(7)
    instances = [(rates, policy) for rates in ((1 / 7,) * 7, (0.22,) + (0.13,) * 6,
                                               (0.13,) * 6 + (0.22,))
                 for policy in (C7_DESCENDING, uniform_policy(),
                                priority_policy({v: tuple(sorted(c7.neighbors(v)))
                                                 for v in c7.nodes}))]

    def results(rates, policy):
        report = fluid_report(c7, rates, policy, node, 1.0, truncation=8)
        chain = build_marginal(c7, rates, policy, node)
        return report, stationary_numeric(chain, 8).probs.tobytes(), chain._space(8)

    monkeypatch.setattr(marginal, "_SPACES", {})
    shared = [results(*inst) for inst in instances]
    assert len({id(space) for *_, space in shared}) == 1
    alone = []
    for inst in instances:
        monkeypatch.setattr(marginal, "_SPACES", {})
        alone.append(results(*inst))
    for (report, probs, _), (want_report, want_probs, _) in zip(shared, alone):
        assert report == want_report and probs == want_probs
    assert len({(r.drift, probs) for r, probs, _ in shared}) == len(instances)
