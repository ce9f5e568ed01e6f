"""Continuous-time matching queues on graphs: simulation, marginal-chain
fluid drifts, exact stability regions for the pendant graph and 5-cycle,
destabilizing-instance construction, and online random-graph matching."""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    GraphClass,
    classify,
    complete_graph,
    cycle_graph,
    find_induced_odd_cycle,
    find_induced_pendant,
    five_cycle_graph,
    independent_sets,
    is_bipartite,
    is_connected,
    ncond_check,
    pendant_graph,
    separability,
    two_coloring,
)
from .policies import (
    Policy,
    five_cycle_priority_policy,
    match_decision,
    ml_policy,
    pendant_priority_policy,
    priority_policy,
    uniform_policy,
)
from .simulate import (
    SimConfig,
    SimTrace,
    coupled_nonchaotic,
    coupled_nonexpansive,
    drift_estimate,
    hitting_time,
    replication_seeds,
    simulate,
)
from .marginal import (
    FluidReport,
    MarginalChain,
    StationaryDist,
    build_marginal,
    fluid_report,
    pendant_alpha,
    stationary_numeric,
)
from .stability import (
    ClassifyBudget,
    StabilityVerdict,
    UnstableInstance,
    construct_nonmaximal,
    counterexample,
    empirical_classify,
    fivecycle_region,
    pendant_region,
)
from .randgraph import (
    GrowthResult,
    grow_and_match,
    tutte_condition_estimate,
    type_distribution,
)
