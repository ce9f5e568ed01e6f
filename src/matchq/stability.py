"""Stability regions, certified unstable instances, and an empirical classifier.

The pendant graph and the 5-cycle admit exact stability regions under
their canonical destabilizing priority rules: the independent-set rate
condition, then one row rate(i0) < matched() for each glued-rays family of
the graph, read off one table, `marginal._CLOSED_FORMS` (the pendant's
tail; the 5-cycle's apex and node 3), and on the 5-cycle node 4's drift
bound, the one hand-written row. `exact_region` is the one region body: it
refuses every other graph and, once the policy is validated, every other
rule. Four parametric families, one `_FAMILIES` entry each, produce
instances that satisfy the rate condition yet have a positive fluid drift
at one node, and `construct_nonmaximal` transplants such a family onto
any connected non-bipartite non-separable graph that embeds a pendant or
a 5-cycle, through classify's witness, budgeting the leftover nodes'
arrival rates so the rate condition still holds while the designated node
keeps a positive residual drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BoundaryDegenerateError,
    BudgetExceededError,
    EpsilonOutOfRangeError,
    MatchQError,
    NotApplicableError,
    ValidationError,
)
from .graphs import (
    Graph,
    bfs_levels,
    check_int,
    check_ints,
    check_node,
    check_rates,
    check_real,
    classify,
    five_cycle_graph,
    independent_set_rates,
    ncond_check,
    pendant_graph,
)
from .marginal import _CLOSED_FORMS, fluid_report
from .policies import (
    Policy,
    check_seed,
    priority_policy,
    uniform_policy,
    validate_policy,
)
from .simulate import SimConfig, _spawn_seeds, drift_estimate, hitting_time, simulate

STABLE_EXACT = "stable-exact"
UNSTABLE_EXACT = "unstable-exact"
STABLE_EMPIRICAL = "stable-empirical"
UNSTABLE_EMPIRICAL = "unstable-empirical"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Inequality:
    """One strict inequality lhs < rhs with its margin rhs - lhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def satisfied(self) -> bool:
        return self.lhs < self.rhs

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str
    inequalities: tuple[Inequality, ...] = ()
    evidence: Optional[dict] = None

    def failing(self) -> tuple[Inequality, ...]:
        return tuple(iq for iq in self.inequalities if not iq.satisfied)


def _ncond_inequalities(graph: Graph, rates) -> list[Inequality]:
    return [
        Inequality("ncond:{" + ",".join(map(str, sorted(ind))) + "}", own, neighborhood)
        for ind, own, neighborhood in independent_set_rates(graph, rates)
    ]


def _drift_inequalities(graph: Graph, rates) -> list[Inequality]:
    """The graph's own rows, whatever the rate condition says: for each
    glued-rays family of the graph in marginal._CLOSED_FORMS, in table order,
    rate(i0) < the guard sum of its law, and on the 5-cycle node 4's drift
    bound: class-5 arrivals always feed node 4 and class-2 arrivals feed it
    while node 1 is empty, which happens at least a fraction
    alpha13 = 1 - l1/(l2+l3) of the time, one minus the ratio of node 1's arm
    in the apex chain."""
    families = _CLOSED_FORMS[graph]
    laws = [family.law(rates) for family in families]
    rows = [Inequality(family.inequality, rates[family.i0 - 1], law.matched())
            for family, law in zip(families, laws)]
    if families[0] is _FIVE_CYCLE_APEX:
        alpha13 = 1.0 - laws[0].ratios[0]
        rows.append(Inequality("five_cycle:node4<l2*alpha13+l5", rates[3],
                               rates[1] * alpha13 + rates[4]))
    return rows


def exact_region(graph: Graph, rates, policy: Optional[Policy] = None) -> StabilityVerdict:
    """The exact verdict of the canonical pendant graph or 5-cycle under its
    canonical priority rule, which `policy` None stands for: the rate-condition
    inequalities, then, where all of them hold, the graph's own
    (_drift_inequalities); stable iff every one holds."""
    if graph not in _CLOSED_FORMS:
        raise NotApplicableError(
            "exact regions exist for the canonical pendant graph and 5-cycle; "
            "use --empirical for other instances"
        )
    if policy is not None:
        validate_policy(policy, graph)
        if policy != _CLOSED_FORMS[graph][0].policy:
            raise NotApplicableError(
                "the exact region holds for the graph's canonical priority rule "
                "only; use --empirical for other policies"
            )
    rates = check_rates(graph, rates)
    ineqs = _ncond_inequalities(graph, rates)
    if all(iq.satisfied for iq in ineqs):
        ineqs += _drift_inequalities(graph, rates)
    verdict = STABLE_EXACT if all(iq.satisfied for iq in ineqs) else UNSTABLE_EXACT
    return StabilityVerdict(verdict=verdict, inequalities=tuple(ineqs))


def pendant_region(rates: Sequence[float]) -> StabilityVerdict:
    """Exact verdict for the pendant graph under its canonical priority rule.

    Stable iff the rate condition holds and the tail rate stays below the
    hub rate times the marginal empty probability.
    """
    return exact_region(pendant_graph(), rates)


def fivecycle_region(rates: Sequence[float]) -> StabilityVerdict:
    """Region verdict for the 5-cycle under its canonical priority rule.

    Stable iff the rate condition holds together with the three per-node
    drift inequalities (apex, node 3, node 4). The apex and node-3
    inequalities use exact marginal constants; the node-4 inequality uses
    a lower bound on node 1's idle fraction, so close to that face it can
    flag instances whose exact node-4 drift is still negative (compare
    with fluid_report on node 4 when the margin is small).
    """
    return exact_region(five_cycle_graph(), rates)


# -- counterexample families ---------------------------------------------------


@dataclass(frozen=True)
class UnstableInstance:
    """A certified instance: rate condition holds, yet one node drifts up."""

    graph: Graph
    rates: tuple[float, ...]
    policy: Policy
    node: int
    drift: float
    family: Optional[str] = None
    eps: Optional[float] = None
    notes: dict = field(default_factory=dict)


PENDANT_PRIORITY = "pendant-priority"
FIVE_CYCLE_PRIORITY = "five-cycle-priority"
PENDANT_UNIFORM = "pendant-uniform"
FIVE_CYCLE_UNIFORM = "five-cycle-uniform"

# Each family: its rates at eps, its eps bound, and the glued-rays family of
# marginal._CLOSED_FORMS whose graph and node it is unstable at, with its
# rule: that graph's canonical priority rule, or uniform.
_PENDANT_TAIL = _CLOSED_FORMS[pendant_graph()][0]
_FIVE_CYCLE_APEX = _CLOSED_FORMS[five_cycle_graph()][0]
_FAMILIES = {
    PENDANT_PRIORITY: (lambda e: (e / 2, e / 2, 0.5 - e / 4, 0.5 - 0.75 * e),
                       2.0 / 5.0, _PENDANT_TAIL, _PENDANT_TAIL.policy),
    FIVE_CYCLE_PRIORITY: (lambda e: (e / 2, e / 2, 0.25 - e / 8, 0.25 - e / 8, 0.5 - 0.75 * e),
                          2.0 / 9.0, _FIVE_CYCLE_APEX, _FIVE_CYCLE_APEX.policy),
    PENDANT_UNIFORM: (lambda e: (e, e, 0.5 - e / 2, 0.5 - 0.75 * e),
                      7.0 / 15.0, _PENDANT_TAIL, uniform_policy()),
    FIVE_CYCLE_UNIFORM: (lambda e: (e, e, 0.25 - e / 4, 0.25 - e / 4, 0.5 - 0.75 * e),
                         7.0 / 23.0, _FIVE_CYCLE_APEX, uniform_policy()),
}
FAMILY_EPS_BOUND = {family: bound for family, (_, bound, _, _) in _FAMILIES.items()}


def counterexample(family: str, eps: float) -> UnstableInstance:
    """Emit the parametric unstable instance of the given family.

    eps must lie in (0, bound] where the bound depends on the family; at
    the bound itself the drift degenerates to zero and the instance is
    refused. The emitted instance is certified: the rate condition is
    checked and the predicted drift is strictly positive.
    """
    return _certified(family, eps)[0]


def _certified(family: str, eps: float):
    """counterexample's instance, with a Policy of its own, and its
    rate-condition check."""
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValidationError(
            f"unknown family {family!r}; choose from {sorted(FAMILY_EPS_BOUND)}"
        )
    rates_at, bound, glued, rule = _FAMILIES[family]
    eps = check_real(eps, "eps", finite=False)
    if not 0.0 < eps <= bound:
        raise EpsilonOutOfRangeError(
            f"{family} needs eps in (0, {bound:.6g}], got {eps}"
        )
    graph, rates, policy, node = glued.graph, rates_at(eps), replace(rule), glued.i0
    drift = fluid_report(graph, rates, policy, node, 1.0).drift
    if drift <= 1e-12:
        raise BoundaryDegenerateError(
            f"drift {drift:.3e} vanishes at eps={eps}; pick eps strictly inside"
        )
    result = ncond_check(graph, rates)
    if not result.satisfied:
        raise MatchQError("family instance unexpectedly violates the rate condition")
    return UnstableInstance(
        graph=graph,
        rates=rates,
        policy=policy,
        node=node,
        drift=drift,
        family=family,
        eps=eps,
    ), result


# The certified instance and rate-condition check of a family at eps, made
# once per (family, eps) for construct_nonmaximal, which hands out none of
# it. An eps that _certified refuses raises on every call, since lru_cache
# keeps no exceptions.
_family_base = lru_cache(maxsize=64, typed=True)(_certified)


@lru_cache(maxsize=None)
def _canonical_witness(family: str) -> tuple[int, ...]:
    """classify's witness on the family's own graph, which lists its labels
    in the order any other witness of that kind lists its nodes: (1, 2, 3, 4)
    for the pendant and (1, 2, 4, 5, 3), the path order, for the 5-cycle."""
    return classify(_FAMILIES[family][2].graph).witness


# -- transplanting a family onto a general graph --------------------------------


def _hat_rates(graph: Graph, kept: set[int], budget: float) -> dict[int, float]:
    """Split a rate budget over the nodes outside `kept`.

    Level totals decay geometrically in the hop distance from the kept
    set, fast enough that any independent set buried inside the remainder
    is strictly out-rated by a single node one level closer. Within a
    level the total is split evenly.
    """
    dist = bfs_levels(graph, kept)
    levels: dict[int, list[int]] = {}
    for v in graph.nodes:
        if v not in kept:
            levels.setdefault(dist[v], []).append(v)
    r = 1.0 / (2.0 * (1.0 + max(len(m) for m in levels.values())))
    total_w = sum(r**d for d in levels)
    return {
        v: budget * r**d / total_w / len(members)
        for d, members in levels.items()
        for v in members
    }


def construct_nonmaximal(
    graph: Graph, eps: Optional[float] = None
) -> UnstableInstance:
    """Build a priority policy and rates destabilizing one node of `graph`.

    Applies to connected non-bipartite non-separable graphs that embed a
    pendant graph or a 5-cycle. The embedded subgraph receives a family
    instance; the remaining nodes share a rate budget small enough to
    keep the global rate condition intact and leave the designated node a
    positive residual drift. Orders outside the embedding are ascending.
    """
    cls = classify(graph)
    if cls.kind != "non_separable_g7c":
        raise NotApplicableError(
            f"graph class {cls.kind!r}: construction needs an induced pendant "
            "graph or 5-cycle in a non-bipartite non-separable graph"
        )
    family = PENDANT_PRIORITY if cls.witness_kind == "pendant" else FIVE_CYCLE_PRIORITY
    eps = FAMILY_EPS_BOUND[family] / 2.0 if eps is None else check_real(eps, "eps", finite=False)
    base, condition = _family_base(family, eps)

    node_of_label = dict(zip(_canonical_witness(family), cls.witness))
    kept = set(cls.witness)

    rates = [0.0] * graph.node_count
    for label, node in node_of_label.items():
        rates[node - 1] = base.rates[label - 1]

    tau = condition.min_margin
    beta = base.drift
    gamma = 0.5 * min(tau, beta, min(base.rates))
    hat_total = 0.0
    if len(kept) < graph.node_count:
        hat_total = gamma * (1.0 - 1e-6)
        for v, r in _hat_rates(graph, kept, hat_total).items():
            rates[v - 1] = r

    label_of_node = {n: l for l, n in node_of_label.items()}
    orders = {}
    for v in graph.nodes:
        if v in kept:
            fam_order = base.policy.order[label_of_node[v]]
            mapped = [node_of_label[w] for w in fam_order]
            rest = sorted(w for w in graph.neighbors(v) if w not in kept)
            orders[v] = tuple(mapped + rest)
        else:
            orders[v] = tuple(sorted(graph.neighbors(v)))
    policy = priority_policy(orders)

    result = ncond_check(graph, rates)
    if not result.satisfied:
        raise MatchQError(
            "internal error: transplanted instance violates the rate condition "
            f"at {sorted(result.witness)}"
        )
    i0 = node_of_label[base.node]
    return UnstableInstance(
        graph=graph,
        rates=tuple(rates),
        policy=policy,
        node=i0,
        drift=beta,
        family=family,
        eps=eps,
        notes={
            "tau": tau,
            "gamma": gamma,
            "hat_rate_total": hat_total,
            "residual_drift_lower_bound": beta - hat_total,
            "witness": tuple(cls.witness),
            "witness_kind": cls.witness_kind,
        },
    )


# -- empirical classification ----------------------------------------------------


@dataclass(frozen=True)
class ClassifyBudget:
    """Simulation budget for the empirical classifier."""

    seeds: int = 10
    scales: tuple[int, ...] = (1000, 10000)
    horizon: float = 8.0
    max_events: int = 50_000_000
    master_seed: int = 20240

    def __post_init__(self):
        for name in ("seeds", "max_events"):
            check_int(getattr(self, name), name)
        object.__setattr__(self, "scales", check_ints(self.scales, "scales"))
        if self.seeds < 2:
            raise ValidationError("need at least 2 seeds for stderr estimates")
        if len(self.scales) < 2:
            raise ValidationError("need at least 2 scales for consistency checks")
        if len(set(self.scales)) < len(self.scales):
            raise ValidationError(f"scales {list(self.scales)} repeat a scale and so its seeds")
        if not all(s >= 1 for s in self.scales):
            raise ValidationError(f"every scale must be >= 1, got {list(self.scales)}")
        object.__setattr__(self, "horizon", check_real(self.horizon, "horizon"))
        if not self.horizon > 0:
            raise ValidationError(f"horizon must be positive and finite, got {self.horizon}")
        check_seed(self.master_seed)


def empirical_classify(
    graph: Graph,
    rates,
    policy: Policy,
    budget: ClassifyBudget = ClassifyBudget(),
    nodes: Optional[Sequence[int]] = None,
) -> StabilityVerdict:
    """Classify stability by simulation from single-node initial masses.

    For each probed node the scaled queue starts at one unit on that node;
    a node is flagged unstable when the pooled fitted slope is positive by
    more than three standard errors at every scale, and stable when every
    replication drains to the empty state with hitting times concentrated
    around a common value that agrees across scales. The overall verdict
    is unstable if any node is unstable, stable if all nodes are stable,
    and inconclusive otherwise. Thresholds are heuristics; the exact
    evaluators stay authoritative where they exist.
    """
    rates = check_rates(graph, rates)
    lambar = sum(rates)
    probe = [check_node(v, graph.node_count)
             for v in (graph.nodes if nodes is None else check_ints(nodes, "nodes"))]
    if not probe:
        raise ValidationError("empirical_classify needs at least one node to probe")
    if len(set(probe)) < len(probe):
        raise ValidationError(f"nodes {probe} name a node twice; evidence is kept per node")
    events_used = 0
    node_evidence: dict[int, dict] = {}
    node_flags: dict[int, str] = {}
    for i0 in probe:
        per_scale = []
        for scale in budget.scales:
            estimate = int(budget.horizon * scale * lambar * 1.2 * budget.seeds) + 1
            if events_used + estimate > budget.max_events:
                raise BudgetExceededError(
                    f"classifier would exceed {budget.max_events} events"
                )
            slopes, hits, empties = [], [], []
            for seed in _spawn_seeds([budget.master_seed, i0, scale], budget.seeds):
                initial = tuple(scale if v == i0 else 0 for v in graph.nodes)
                expected_events = budget.horizon * scale * lambar
                stride = max(1, int(expected_events // 4000))
                trace = simulate(
                    graph,
                    rates,
                    policy,
                    SimConfig(
                        horizon=budget.horizon,
                        seed=seed,
                        initial_state=initial,
                        scale=scale,
                        trace_stride=stride,
                        stop_when_empty=True,
                    ),
                )
                events_used += trace.n_events
                try:
                    est = drift_estimate(trace, i0)
                    slopes.append((est.slope, est.stderr))
                except MatchQError:
                    slopes.append(None)
                hits.append(hitting_time(trace, i0))
                empty = trace.empty_time
                empties.append(math.inf if math.isnan(empty) else empty / scale)
            ok_slopes = [s for s in slopes if s is not None]
            mean_slope = float(np.mean([s[0] for s in ok_slopes])) if ok_slopes else math.nan
            sem = (
                float(np.std([s[0] for s in ok_slopes], ddof=1) / math.sqrt(len(ok_slopes)))
                if len(ok_slopes) >= 2
                else math.nan
            )
            finite_hits = [h for h in hits if math.isfinite(h)]
            hit_mean = float(np.mean(finite_hits)) if finite_hits else math.inf
            hit_rel_spread = (
                float(np.std(finite_hits, ddof=1)) / hit_mean
                if len(finite_hits) >= 2 and hit_mean > 0
                else math.inf
            )
            per_scale.append(
                {
                    "scale": scale,
                    "mean_slope": mean_slope,
                    "slope_sem": sem,
                    "unstable": bool(
                        ok_slopes
                        and not math.isnan(sem)
                        and sem >= 0.0
                        and mean_slope > 3.0 * max(sem, 1e-15)
                    ),
                    "all_drained": all(math.isfinite(e) for e in empties),
                    "hit_mean": hit_mean,
                    "hit_rel_spread": hit_rel_spread,
                    "hits": hits,
                }
            )
        unstable = all(s["unstable"] for s in per_scale)
        drained = all(s["all_drained"] for s in per_scale)
        concentrated = all(s["hit_rel_spread"] <= 0.25 for s in per_scale)
        means = [s["hit_mean"] for s in per_scale]
        cross_ok = (
            all(math.isfinite(m) for m in means)
            and max(means) <= 1.4 * min(means) + 1e-12
        )
        if unstable:
            node_flags[i0] = UNSTABLE_EMPIRICAL
        elif drained and concentrated and cross_ok:
            node_flags[i0] = STABLE_EMPIRICAL
        else:
            node_flags[i0] = INCONCLUSIVE
        node_evidence[i0] = {"scales": per_scale, "flag": node_flags[i0]}

    if any(f == UNSTABLE_EMPIRICAL for f in node_flags.values()):
        verdict = UNSTABLE_EMPIRICAL
    elif all(f == STABLE_EMPIRICAL for f in node_flags.values()):
        verdict = STABLE_EMPIRICAL
    else:
        verdict = INCONCLUSIVE
    return StabilityVerdict(
        verdict=verdict,
        evidence={
            "nodes": node_evidence,
            "events_used": events_used,
            "budget": {
                "seeds": budget.seeds,
                "scales": list(budget.scales),
                "horizon": budget.horizon,
                "master_seed": budget.master_seed,
            },
        },
    )
