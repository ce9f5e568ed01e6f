"""Exact regions, counterexample families, transplantation, empirical classify."""

import itertools
import math

import numpy as np
import pytest

from matchq.errors import (
    BoundaryDegenerateError,
    BudgetExceededError,
    EpsilonOutOfRangeError,
    IndexOutOfRangeError,
    NotApplicableError,
    ValidationError,
)
from matchq.graphs import (
    Graph,
    classify,
    complete_graph,
    cycle_graph,
    five_cycle_graph,
    ncond_check,
    pendant_graph,
)
from matchq.marginal import fluid_report
from matchq.policies import (
    five_cycle_priority_policy,
    ml_policy,
    pendant_priority_policy,
)
from matchq.simulate import SimConfig, drift_estimate, simulate
from matchq.stability import (
    FAMILY_EPS_BOUND,
    FIVE_CYCLE_PRIORITY,
    FIVE_CYCLE_UNIFORM,
    PENDANT_PRIORITY,
    PENDANT_UNIFORM,
    ClassifyBudget,
    construct_nonmaximal,
    counterexample,
    empirical_classify,
    exact_region,
    fivecycle_region,
    pendant_region,
)
from iso_enum import connected_graphs_up_to

PENDANT_PLUS = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])


def _failing_names(verdict):
    return {iq.name for iq in verdict.failing()}


# -- exact regions ------------------------------------------------------------


def test_pendant_region_unstable_family_point():
    v = pendant_region((0.1, 0.1, 0.45, 0.35))
    assert v.verdict == "unstable-exact"
    assert _failing_names(v) == {"pendant:tail<alpha*hub"}
    (iq,) = v.failing()
    assert iq.margin == pytest.approx(-0.0384615385, abs=1e-9)


def test_pendant_region_stable_point():
    v = pendant_region((0.25, 0.25, 0.3, 0.1))
    assert v.verdict == "stable-exact"
    drift_iq = [iq for iq in v.inequalities if iq.name.startswith("pendant")][0]
    assert drift_iq.rhs == pytest.approx(0.375 * 0.3, abs=1e-12)


def test_pendant_region_rate_condition_failure_names_witness_set():
    v = pendant_region((0.1, 0.1, 0.3, 0.35))
    assert v.verdict == "unstable-exact"
    assert "ncond:{4}" in _failing_names(v)


def test_fivecycle_region_unstable_family_point():
    v = fivecycle_region((0.1, 0.1, 0.225, 0.225, 0.35))
    assert v.verdict == "unstable-exact"
    assert _failing_names(v) == {"five_cycle:apex<a*alpha"}
    (iq,) = v.failing()
    assert iq.margin == pytest.approx(-0.0058823529, abs=1e-9)


def test_fivecycle_region_stable_point_agrees_with_simulation():
    lam = (0.25, 0.25, 0.2, 0.2, 0.1)
    v = fivecycle_region(lam)
    assert v.verdict == "stable-exact"
    # apex queue drains in simulation
    scale = 3000
    trace = simulate(
        five_cycle_graph(),
        lam,
        five_cycle_priority_policy(),
        SimConfig(horizon=60.0, seed=3, initial_state=(0, 0, 0, 0, scale),
                  scale=scale, trace_stride=0, stop_node=5),
    )
    assert not math.isnan(trace.first_zero[4])


def test_fivecycle_region_node4_inequality_can_fail_alone():
    lam = (0.14, 0.05, 0.1, 0.207, 0.2)
    assert ncond_check(five_cycle_graph(), lam).satisfied
    v = fivecycle_region(lam)
    assert v.verdict == "unstable-exact"
    assert _failing_names(v) == {"five_cycle:node4<l2*alpha13+l5"}


@pytest.mark.parametrize("region, rates", [
    (pendant_region, (0.1, 0.1, 0.45, 0.35)),
    (pendant_region, (0.1, 0.1, 0.4, 0.3)),
    (fivecycle_region, (0.1, 0.1, 0.225, 0.225, 0.35)),
    (fivecycle_region, (0.14, 0.05, 0.1, 0.207, 0.2)),
], ids=["pendant-unstable", "pendant-stable", "c5-apex", "c5-node4"])
def test_regions_of_numpy_rates_hold_python_scalars(region, rates):
    # the JSON and CSV writers take Python floats and bools only
    for given in (np.array(rates), np.array(rates, dtype=np.float32)):
        verdict = region(given)
        assert len(verdict.inequalities) > len(rates)  # the graph's own ones too
        for iq in verdict.inequalities:
            assert [type(x) for x in (iq.lhs, iq.rhs, iq.margin)] == [float] * 3
            assert type(iq.satisfied) is bool
    assert region(np.array(rates)) == region(rates)


def test_exact_region_takes_only_the_canonical_graphs_and_rules():
    # exact_region is the one place that picks a region for a graph: each
    # holds for its graph's canonical priority rule, which None stands for
    pendant_rates = (0.1, 0.1, 0.45, 0.35)
    c5_rates = (0.1, 0.1, 0.225, 0.225, 0.35)
    for graph, rates, rule, region in (
        (pendant_graph(), pendant_rates, pendant_priority_policy(), pendant_region),
        (five_cycle_graph(), c5_rates, five_cycle_priority_policy(), fivecycle_region),
    ):
        assert exact_region(graph, rates) == region(rates)
        assert exact_region(graph, rates, rule) == region(rates)
    with pytest.raises(NotApplicableError, match="canonical priority rule only"):
        exact_region(pendant_graph(), pendant_rates, ml_policy())
    # the square, and the pendant with an isolated fifth node
    for graph in (cycle_graph(4), Graph(5, pendant_graph().edges)):
        with pytest.raises(NotApplicableError, match="canonical pendant graph and 5-cycle"):
            exact_region(graph, pendant_rates)


def test_fivecycle_node4_inequality_is_conservative_near_its_face():
    # the node-4 inequality relies on a lower bound for node 1's idle
    # fraction; just past that face the exact marginal still gives a
    # negative node-4 drift, so the region verdict errs on the safe side
    lam = (0.14, 0.05, 0.1, 0.207, 0.2)
    from oracles import FIVE_CYCLE_TABLE

    (node4,) = fivecycle_region(lam).failing()
    assert not node4.satisfied  # the bound flags instability
    # alpha13 = 1 - l1/(l2+l3), one minus the ratio of node 1's arm at the apex
    alpha13 = 1.0 - FIVE_CYCLE_TABLE.law(lam).ratios[0]
    assert node4.rhs == lam[1] * alpha13 + lam[4]
    exact = fluid_report(five_cycle_graph(), lam, five_cycle_priority_policy(),
                         4, 1.0, truncation=300)
    assert exact.tail_mass < 1e-9
    assert exact.drift < 0  # the exact guard probability disagrees
    # the bound is a genuine lower bound on the idle fraction
    idle_exact = exact.guard_probs[2]
    assert idle_exact >= alpha13 - 1e-12


# -- counterexample families ------------------------------------------------------


FROZEN_DRIFTS = {
    PENDANT_PRIORITY: 0.0384615385,
    FIVE_CYCLE_PRIORITY: 0.0058823529,
    PENDANT_UNIFORM: 0.0833333333,
    FIVE_CYCLE_UNIFORM: 0.0300000000,
}

FROZEN_RATES = {
    PENDANT_PRIORITY: (0.1, 0.1, 0.45, 0.35),
    FIVE_CYCLE_PRIORITY: (0.1, 0.1, 0.225, 0.225, 0.35),
    PENDANT_UNIFORM: (0.2, 0.2, 0.4, 0.35),
    FIVE_CYCLE_UNIFORM: (0.2, 0.2, 0.2, 0.2, 0.35),
}


@pytest.mark.parametrize("family", sorted(FAMILY_EPS_BOUND))
def test_counterexample_at_eps_02(family):
    inst = counterexample(family, 0.2)
    assert inst.rates == pytest.approx(FROZEN_RATES[family], abs=1e-12)
    assert inst.drift == pytest.approx(FROZEN_DRIFTS[family], abs=1e-9)
    assert ncond_check(inst.graph, inst.rates).satisfied
    assert inst.node == (4 if family.startswith("pendant") else 5)


@pytest.mark.parametrize("family", sorted(FAMILY_EPS_BOUND))
def test_counterexample_eps_validation(family):
    bound = FAMILY_EPS_BOUND[family]
    with pytest.raises(EpsilonOutOfRangeError):
        counterexample(family, bound + 0.01)
    with pytest.raises(EpsilonOutOfRangeError):
        counterexample(family, 0.0)
    with pytest.raises(BoundaryDegenerateError):
        counterexample(family, bound)


def test_counterexample_unknown_family():
    with pytest.raises(ValidationError):
        counterexample("square-priority", 0.1)


@pytest.mark.parametrize("family", [PENDANT_PRIORITY, FIVE_CYCLE_PRIORITY])
def test_priority_families_sit_inside_rate_region_but_outside_stability(family):
    region = pendant_region if family == PENDANT_PRIORITY else fivecycle_region
    for eps in np.linspace(0.02, FAMILY_EPS_BOUND[family] * 0.98, 7):
        inst = counterexample(family, float(eps))
        assert ncond_check(inst.graph, inst.rates).satisfied
        assert region(inst.rates).verdict == "unstable-exact"
        assert inst.drift > 0


@pytest.mark.parametrize("family", sorted(FAMILY_EPS_BOUND))
def test_counterexample_drift_is_the_fluid_report_drift(family):
    # one closed route: each certificate carries fluid_report's drift bit
    # for bit, on the 5-cycle families too
    bound = FAMILY_EPS_BOUND[family]
    for eps in np.linspace(0.0, bound, 202)[1:-1]:
        inst = counterexample(family, float(eps))
        report = fluid_report(inst.graph, inst.rates, inst.policy, inst.node, 1.0)
        assert report.method.startswith("closed-form")
        assert inst.drift.hex() == report.drift.hex(), eps


@pytest.mark.parametrize("family", [PENDANT_UNIFORM, FIVE_CYCLE_UNIFORM])
def test_uniform_families_certified(family):
    for eps in np.linspace(0.02, FAMILY_EPS_BOUND[family] * 0.98, 7):
        inst = counterexample(family, float(eps))
        assert ncond_check(inst.graph, inst.rates).satisfied
        assert inst.drift > 0
        report = fluid_report(inst.graph, inst.rates, inst.policy, inst.node, 1.0)
        assert report.drift == pytest.approx(inst.drift, abs=1e-12)


@pytest.mark.parametrize("family", [PENDANT_UNIFORM, FIVE_CYCLE_UNIFORM])
def test_uniform_family_drift_observed_in_simulation(family):
    # closes the loop between the uniform decision path of the engine and
    # the halved-rate closed forms
    inst = counterexample(family, 0.2)
    scale = 6000
    slopes = []
    for seed in range(8):
        initial = tuple(scale if v == inst.node else 0 for v in inst.graph.nodes)
        trace = simulate(
            inst.graph, inst.rates, inst.policy,
            SimConfig(horizon=2.0, seed=seed, initial_state=initial, scale=scale),
        )
        slopes.append(drift_estimate(trace, inst.node).slope)
    sem = float(np.std(slopes, ddof=1) / np.sqrt(len(slopes)))
    assert np.mean(slopes) == pytest.approx(inst.drift, abs=max(4 * sem, 0.01))


# -- transplantation ------------------------------------------------------------------


def test_construct_on_pendant_itself_reduces_to_family():
    inst = construct_nonmaximal(pendant_graph())
    base = counterexample(PENDANT_PRIORITY, 0.2)
    assert inst.rates == base.rates
    assert inst.node == 4
    assert inst.policy.order[3] == (1, 2, 4)


def test_construct_on_five_cycle_itself():
    inst = construct_nonmaximal(five_cycle_graph())
    base = counterexample(FIVE_CYCLE_PRIORITY, FAMILY_EPS_BOUND[FIVE_CYCLE_PRIORITY] / 2)
    assert sorted(inst.rates) == pytest.approx(sorted(base.rates))
    assert inst.node == 5


def test_construct_rejects_separable_and_bipartite():
    with pytest.raises(NotApplicableError):
        construct_nonmaximal(complete_graph(4))
    with pytest.raises(NotApplicableError):
        construct_nonmaximal(cycle_graph(6))


def test_construct_rejects_large_odd_cycles():
    with pytest.raises(NotApplicableError):
        construct_nonmaximal(cycle_graph(7))


def test_construct_pendant_plus_one():
    inst = construct_nonmaximal(PENDANT_PLUS)
    assert inst.node == 4
    assert ncond_check(inst.graph, inst.rates).satisfied
    assert inst.notes["residual_drift_lower_bound"] > 0
    assert inst.rates[:4] == pytest.approx((0.1, 0.1, 0.45, 0.35))
    assert inst.rates[4] < inst.notes["gamma"]
    # the restriction of the policy to the embedded nodes is the family rule
    order = inst.policy.order[3]
    assert set(order[: order.index(4)]) == {1, 2}


def _carries_family(inst, family) -> bool:
    """Whether some map of the family's graph onto the induced subgraph on
    the instance's witness carries the family's rates, unstable node and
    priority orders, restricted to the witness, onto the instance's."""
    witness = inst.notes["witness"]
    on_witness = {v: set(inst.graph.neighbors(v)) & set(witness) for v in witness}
    nodes = family.graph.nodes
    return any(
        all({node[w] for w in family.graph.neighbors(v)} == on_witness[node[v]] for v in nodes)
        and all(inst.rates[node[v] - 1] == family.rates[v - 1] for v in nodes)
        and inst.node == node[family.node]
        and all([w for w in inst.policy.order[node[v]] if w in on_witness[node[v]]]
                == [node[w] for w in family.policy.order[v]] for v in nodes)
        for node in (dict(zip(nodes, image)) for image in itertools.permutations(witness))
    )


def test_construct_transplants_the_family_onto_every_small_graph():
    # On every non_separable_g7c graph with at most 6 nodes, up to
    # isomorphism, the construction carries the family's rates and rule
    # onto the witness, and orders each witness node's neighbours outside
    # the witness after those inside it.
    seen = {"pendant": 0, "five_cycle": 0}
    for _, graph in connected_graphs_up_to(6):
        if classify(graph).kind != "non_separable_g7c":
            continue
        inst = construct_nonmaximal(graph)
        kind = inst.notes["witness_kind"]
        family = counterexample(inst.family, inst.eps)
        assert inst.family == (PENDANT_PRIORITY if kind == "pendant" else FIVE_CYCLE_PRIORITY)
        assert _carries_family(inst, family), graph
        witness = set(inst.notes["witness"])
        for v in witness:
            order = inst.policy.order[v]
            inside = [w in witness for w in order]
            assert inside == sorted(inside, reverse=True)
        seen[kind] += 1
    assert min(seen.values()) > 0 and sum(seen.values()) > 50


def test_construct_reads_a_family_base_no_caller_can_change():
    # construct_nonmaximal certifies each (family, eps) base once; what
    # counterexample and construct_nonmaximal hand out must not reach it
    before = construct_nonmaximal(PENDANT_PLUS)
    base = counterexample(PENDANT_PRIORITY, FAMILY_EPS_BOUND[PENDANT_PRIORITY] / 2)
    base.notes["tau"] = -1.0
    base.policy.order[3] = (4, 1, 2)
    again = construct_nonmaximal(PENDANT_PLUS)
    again.notes.clear()
    again.policy.order[3] = (4, 1, 2, 5)
    assert construct_nonmaximal(PENDANT_PLUS) == before
    assert counterexample(PENDANT_PRIORITY, FAMILY_EPS_BOUND[PENDANT_PRIORITY] / 2).notes == {}


def test_construct_with_an_explicit_eps_uses_its_own_base():
    default = construct_nonmaximal(PENDANT_PLUS)
    own = construct_nonmaximal(PENDANT_PLUS, 0.1)
    base = counterexample(PENDANT_PRIORITY, 0.1)
    assert own.eps == 0.1 and own.rates[:4] == base.rates and own.drift == base.drift
    assert own.rates != default.rates
    assert construct_nonmaximal(PENDANT_PLUS) == default


@pytest.mark.parametrize("eps, error", [
    (0.5, EpsilonOutOfRangeError),
    (0.0, EpsilonOutOfRangeError),
    (math.nan, EpsilonOutOfRangeError),
    (FAMILY_EPS_BOUND[PENDANT_PRIORITY], BoundaryDegenerateError),
])
def test_construct_refuses_a_bad_eps_on_every_call(eps, error):
    messages = set()
    for _ in range(3):
        with pytest.raises(error) as exc:
            construct_nonmaximal(PENDANT_PLUS, eps)
        messages.add(str(exc.value))
    assert len(messages) == 1


def test_construct_handles_multi_level_remainders():
    # a path hanging off the tail; an even split over the remainder would
    # tie the two leftover nodes and break the strict rate condition
    graph = Graph(6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)])
    inst = construct_nonmaximal(graph)
    res = ncond_check(inst.graph, inst.rates)
    assert res.satisfied
    assert inst.rates[4] > inst.rates[5]  # closer node gets the larger share


def test_construct_on_five_cycle_extension():
    graph = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6)])
    inst = construct_nonmaximal(graph)
    assert ncond_check(inst.graph, inst.rates).satisfied
    assert inst.notes["witness_kind"] == "five_cycle"
    # the full-graph fluid drift respects the residual lower bound
    report = fluid_report(inst.graph, inst.rates, inst.policy, inst.node, 1.0,
                          truncation=80)
    assert report.drift >= inst.notes["residual_drift_lower_bound"] - 1e-9
    # simulation confirms the designated node drifts upward on average
    scale = 4000
    slopes = []
    for seed in range(8):
        initial = tuple(scale if v == inst.node else 0 for v in graph.nodes)
        trace = simulate(
            inst.graph, inst.rates, inst.policy,
            SimConfig(horizon=4.0, seed=seed, initial_state=initial, scale=scale),
        )
        slopes.append(drift_estimate(trace, inst.node).slope)
    assert np.mean(slopes) > 0
    assert np.mean(slopes) == pytest.approx(report.drift, abs=0.01)


def test_construct_transplanted_drift_observed_in_simulation():
    inst = construct_nonmaximal(PENDANT_PLUS)
    scale = 5000
    slopes = []
    for seed in range(6):
        initial = tuple(scale if v == inst.node else 0 for v in inst.graph.nodes)
        trace = simulate(
            inst.graph, inst.rates, inst.policy,
            SimConfig(horizon=2.0, seed=seed, initial_state=initial, scale=scale),
        )
        slopes.append(drift_estimate(trace, inst.node).slope)
    residual = inst.notes["residual_drift_lower_bound"]
    assert np.mean(slopes) > residual * 0.5


# -- empirical classification -----------------------------------------------------------


def test_empirical_triangle_stable():
    verdict = empirical_classify(
        complete_graph(3),
        (1.0, 1.0, 1.0),
        ml_policy(),
        ClassifyBudget(seeds=6, scales=(300, 1500), horizon=4.0),
    )
    assert verdict.verdict == "stable-empirical"


@pytest.mark.parametrize(
    "nodes, error", [([], ValidationError), ([9], IndexOutOfRangeError),
                     ([4, 0], IndexOutOfRangeError), ([4, 4], ValidationError)],
)
def test_empirical_classify_checks_nodes_before_simulating(monkeypatch, nodes, error):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking nodes")

    monkeypatch.setattr("matchq.stability.simulate", no_simulation)
    with pytest.raises(error):
        empirical_classify(pendant_graph(), (0.1, 0.1, 0.45, 0.35),
                           pendant_priority_policy(), nodes=nodes)


def test_empirical_pendant_family_unstable_at_tail():
    verdict = empirical_classify(
        pendant_graph(),
        (0.1, 0.1, 0.45, 0.35),
        pendant_priority_policy(),
        ClassifyBudget(seeds=8, scales=(2000, 8000), horizon=1.5),
        nodes=[4],
    )
    assert verdict.verdict == "unstable-empirical"
    assert verdict.evidence["nodes"][4]["flag"] == "unstable-empirical"


def test_empirical_pendant_family_stable_under_match_longest():
    verdict = empirical_classify(
        pendant_graph(),
        (0.1, 0.1, 0.45, 0.35),
        ml_policy(),
        ClassifyBudget(seeds=6, scales=(500, 2000), horizon=14.0),
    )
    assert verdict.verdict == "stable-empirical"


def test_empirical_budget_enforced():
    with pytest.raises(BudgetExceededError):
        empirical_classify(
            pendant_graph(),
            (0.1, 0.1, 0.45, 0.35),
            pendant_priority_policy(),
            ClassifyBudget(seeds=4, scales=(1000, 2000), horizon=2.0, max_events=500),
        )


def test_classify_budget_validation():
    with pytest.raises(ValidationError):
        ClassifyBudget(seeds=1)
    with pytest.raises(ValidationError):
        ClassifyBudget(scales=(1000,))


def _sample_pendant_instances(rng, want_stable, count):
    """Pendant rate vectors with comfortable margins on the chosen side."""
    from matchq.marginal import pendant_alpha

    out = []
    while len(out) < count:
        l1, l2 = rng.uniform(0.08, 0.35, 2)
        l3 = rng.uniform(0.25, 0.7)
        l4 = rng.uniform(0.05, 0.6)
        lam = (l1, l2, l3, l4)
        res = ncond_check(pendant_graph(), lam)
        if not res.satisfied or res.min_margin < 0.05:
            continue
        margin = pendant_alpha(lam) * l3 - l4
        if want_stable and 0.03 <= margin <= 0.2:
            out.append((lam, 1.0 / margin))
        elif not want_stable and margin <= -0.03:
            out.append((lam, math.inf))
    return out


def test_region_verdicts_agree_with_empirical_classifier():
    rng = np.random.default_rng(88)
    cases = _sample_pendant_instances(rng, True, 5) + _sample_pendant_instances(
        rng, False, 5
    )
    for lam, rho in cases:
        exact = pendant_region(lam).verdict
        horizon = 2.0 if math.isinf(rho) else 1.4 * rho + 3.0
        verdict = empirical_classify(
            pendant_graph(),
            lam,
            pendant_priority_policy(),
            ClassifyBudget(seeds=4, scales=(400, 1600), horizon=horizon,
                           master_seed=606),
            nodes=[4],
        )
        if verdict.verdict == "inconclusive":
            continue
        assert verdict.verdict.split("-")[0] == exact.split("-")[0], (lam, rho)


def _sample_fivecycle_apex_instances(rng, want_stable, count):
    """5-cycle rates with clear margins on either side of the apex face.

    The non-apex inequalities are required to hold with slack, so the
    verdict is decided by the apex drift (which has an exact constant).
    """
    from matchq.errors import RatesOutsideRegionError

    out = []
    while len(out) < count:
        l1, l2 = rng.uniform(0.08, 0.3, 2)
        l3, l4 = rng.uniform(0.15, 0.5, 2)
        l5 = rng.uniform(0.1, 0.6)
        lam = (l1, l2, l3, l4, l5)
        res = ncond_check(five_cycle_graph(), lam)
        if not res.satisfied or res.min_margin < 0.05:
            continue
        try:
            apex_margin = -fluid_report(five_cycle_graph(), lam, five_cycle_priority_policy(),
                                        5, 1.0).drift
            named = {iq.name: iq for iq in fivecycle_region(lam).inequalities}
        except RatesOutsideRegionError:
            continue
        node3, node4 = named["five_cycle:node3<c*alpha24"], named["five_cycle:node4<l2*alpha13+l5"]
        if node3.lhs - node3.rhs > -0.05 or node4.lhs - node4.rhs > -0.05:
            continue
        if want_stable and 0.03 <= apex_margin <= 0.25:
            out.append((lam, 1.0 / apex_margin))
        elif not want_stable and apex_margin <= -0.03:
            out.append((lam, math.inf))
    return out


def test_fivecycle_apex_verdicts_agree_with_empirical_classifier():
    rng = np.random.default_rng(89)
    cases = _sample_fivecycle_apex_instances(rng, True, 4)
    cases += _sample_fivecycle_apex_instances(rng, False, 4)
    for lam, rho in cases:
        exact = fivecycle_region(lam).verdict
        horizon = 2.0 if math.isinf(rho) else 1.4 * rho + 3.0
        verdict = empirical_classify(
            five_cycle_graph(),
            lam,
            five_cycle_priority_policy(),
            ClassifyBudget(seeds=4, scales=(400, 1600), horizon=horizon,
                           master_seed=607),
            nodes=[5],
        )
        if verdict.verdict == "inconclusive":
            continue
        assert verdict.verdict.split("-")[0] == exact.split("-")[0], (lam, rho)


def test_residual_drift_bound_on_every_graph_up_to_six_nodes():
    # construct_nonmaximal reports beta - hat_total as a lower bound on the
    # drift of the designated node; check it against the numeric drift on
    # every connected graph with at most 6 nodes that the construction
    # accepts. Where a leaf hangs off a neighbor of that node the leaf
    # cannot drain, the marginal chain is reducible and the solve refused.
    from iso_enum import connected_graphs_up_to
    from matchq.errors import ReducibleError

    solved = reducible = 0
    for _, graph in connected_graphs_up_to(6):
        try:
            inst = construct_nonmaximal(graph)
        except NotApplicableError:
            continue
        try:
            report = fluid_report(inst.graph, inst.rates, inst.policy, inst.node, 1.0,
                                  truncation=25)
        except ReducibleError:
            reducible += 1
            continue
        solved += 1
        assert report.drift >= inst.notes["residual_drift_lower_bound"] - 1e-12
    assert (solved, reducible) == (84, 17)
