"""Command-line front door.

Subcommands: analyze, ncond, fluid, simulate, stability, counterexample,
construct-nonmaximal, randgraph. Instance files go in, JSON/CSV reports
come out; every randomized command requires an explicit --seed, and every
--out run writes a manifest with input hashes so results can be
reproduced bit for bit.

Exit codes: 0 ok, 2 parse/validation error, 3 not-applicable or region
error, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import (
    BudgetExceededError,
    IndexOutOfRangeError,
    MatchQError,
    NotApplicableError,
    RatesOutsideRegionError,
    UnsupportedPolicyError,
    ValidationError,
)
from .graphs import (
    FIVE_CYCLE_EDGES,
    PENDANT_EDGES,
    classify,
    ncond_check,
)
from .marginal import fluid_report
from .randgraph import grow_and_match, type_distribution
from .simulate import (
    SimConfig,
    drift_estimate,
    replication_seeds,
    simulate,
)
from .stability import (
    ClassifyBudget,
    FAMILY_EPS_BOUND,
    construct_nonmaximal,
    counterexample,
    empirical_classify,
    fivecycle_region,
    pendant_region,
)
from . import serialize as ser


def _load_graph(path):
    return ser.graph_from_obj(ser.load_json(path))


def _load_rates(path):
    return ser.rates_from_obj(ser.load_json(path))


def _load_policy(path):
    return ser.policy_from_obj(ser.load_json(path))


def _render_csv(obj: dict) -> str:
    """Flat CSV rendering: inequality tables as rows, otherwise key,value."""
    lines = []
    if "inequalities" in obj:
        lines.append("name,lhs,rhs,satisfied,margin")
        for iq in obj["inequalities"]:
            lines.append(
                f"{iq['name']},{iq['lhs']},{iq['rhs']},{iq['satisfied']},{iq['margin']}"
            )
        lines.append(f"verdict,{obj['verdict']},,,")
        return "\n".join(lines) + "\n"
    lines.append("key,value")
    for key, value in sorted(obj.items()):
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _emit(obj: dict, args, name: str, extra_inputs=(), seed=None, files=None):
    """Print to stdout, or write into --out with a manifest."""
    fmt = getattr(args, "format", "json")
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            report = f"{name}.csv"
            (out / report).write_text(_render_csv(obj))
        else:
            report = f"{name}.json"
            ser.dump_json(obj, out / report)
        written = [report] + (files or [])
        inputs = [p for p in extra_inputs if p]
        ser.dump_json(
            ser.manifest(args.command, args.argv, inputs, seed=seed, outputs=written),
            out / "manifest.json",
        )
    elif fmt == "csv":
        sys.stdout.write(_render_csv(obj))
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _cmd_analyze(args):
    graph = _load_graph(args.graph)
    cls = classify(graph)
    _emit(ser.classification_to_obj(cls), args, "analysis", [args.graph])


def _cmd_ncond(args):
    graph = _load_graph(args.graph)
    rates = _load_rates(args.rates)
    res = ncond_check(graph, rates)
    obj = {
        "satisfied": res.satisfied,
        "min_margin": res.min_margin,
        "argmin_set": sorted(res.argmin),
        "witness": sorted(res.witness) if res.witness is not None else None,
    }
    _emit(obj, args, "ncond", [args.graph, args.rates])


def _cmd_fluid(args):
    graph = _load_graph(args.graph)
    rates = _load_rates(args.rates)
    policy = _load_policy(args.policy)
    report = fluid_report(
        graph, rates, policy, args.node, args.q0, truncation=args.truncation
    )
    _emit(
        ser.fluid_report_to_obj(report),
        args,
        "fluid",
        [args.graph, args.rates, args.policy],
    )


def _parse_initial(args, graph):
    if args.init_node is not None:
        if not 1 <= args.init_node <= graph.node_count:
            raise IndexOutOfRangeError(args.init_node, graph.node_count)
        return tuple(
            args.scale if v == args.init_node else 0 for v in graph.nodes
        )
    if args.init:
        try:
            return tuple(int(x) for x in args.init.split(","))
        except ValueError:
            raise ValidationError(
                f"--init {args.init!r} is not a comma-separated list of integers"
            ) from None
    return None


def _cmd_simulate(args):
    graph = _load_graph(args.graph)
    rates = _load_rates(args.rates)
    policy = _load_policy(args.policy)
    initial = _parse_initial(args, graph)
    seeds = (
        [args.seed]
        if args.replications == 1
        else replication_seeds(args.seed, args.replications)
    )
    outputs = []
    for rep, seed in enumerate(seeds):
        config = SimConfig(
            horizon=args.horizon,
            seed=seed,
            initial_state=initial,
            scale=args.scale,
            trace_stride=args.stride,
        )
        trace = simulate(graph, rates, policy, config)
        drift = None
        if args.node is not None:
            try:
                drift = drift_estimate(trace, args.node)
            except MatchQError:
                drift = None
        summary = ser.trace_summary_to_obj(trace, node=args.node, drift=drift)
        suffix = f"_rep{rep}" if args.replications > 1 else ""
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            ser.write_trace_csv(trace, out / f"trace{suffix}.csv")
            if args.format == "csv":
                report = f"summary{suffix}.csv"
                (out / report).write_text(_render_csv(summary))
            else:
                report = f"summary{suffix}.json"
                ser.dump_json(summary, out / report)
            outputs += [f"trace{suffix}.csv", report]
        elif args.format == "csv":
            sys.stdout.write(_render_csv(summary))
        else:
            json.dump(summary, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
    if args.out:
        ser.dump_json(
            ser.manifest(
                "simulate",
                args.argv,
                [args.graph, args.rates, args.policy],
                seed=args.seed,
                outputs=outputs,
            ),
            Path(args.out) / "manifest.json",
        )


def _cmd_stability(args):
    graph = _load_graph(args.graph)
    rates = _load_rates(args.rates)
    if args.empirical:
        if args.seed is None:
            raise ValidationError("--empirical requires --seed")
        policy = _load_policy(args.policy)
        budget = ClassifyBudget(
            seeds=args.replications,
            scales=tuple(args.scales),
            horizon=args.horizon,
            master_seed=args.seed,
        )
        verdict = empirical_classify(graph, rates, policy, budget)
    elif graph.edges == PENDANT_EDGES:
        verdict = pendant_region(rates)
    elif graph.edges == FIVE_CYCLE_EDGES:
        verdict = fivecycle_region(rates)
    else:
        raise NotApplicableError(
            "exact regions exist for the canonical pendant graph and 5-cycle; "
            "use --empirical for other instances"
        )
    _emit(
        ser.verdict_to_obj(verdict),
        args,
        "stability",
        [args.graph, args.rates] + ([args.policy] if args.empirical else []),
        seed=args.seed,
    )


def _cmd_counterexample(args):
    instance = counterexample(args.family, args.eps)
    _emit(ser.instance_to_obj(instance), args, "instance", [])


def _cmd_construct(args):
    graph = _load_graph(args.graph)
    instance = construct_nonmaximal(graph, eps=args.eps)
    _emit(ser.instance_to_obj(instance), args, "instance", [args.graph])


def _cmd_randgraph(args):
    template = _load_graph(args.graph)
    rates = _load_rates(args.rates)
    policy = _load_policy(args.policy)
    mu = type_distribution(rates)
    result = grow_and_match(template, mu, policy, args.n, args.seed)
    summary = {
        "seed": args.seed,
        "n": result.n_nodes,
        "matched_count": result.matched_count,
        "matched_fraction": result.matched_fraction() if result.n_nodes else None,
        "unmatched_by_type": list(result.queue),
        "mu": list(result.mu),
    }
    files = []
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        ser.write_growth_csv(result, out / "trajectory.csv")
        files.append("trajectory.csv")
        if args.matching_out:
            ser.dump_json(
                {"pairs": [list(e) for e in result.matching_edges()]},
                out / "matching.json",
            )
            files.append("matching.json")
    _emit(
        summary,
        args,
        "randgraph",
        [args.graph, args.rates, args.policy],
        seed=args.seed,
        files=files,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchq",
        description="Matching-queue simulation and stability analysis",
    )
    parser.add_argument("--version", action="version", version=f"matchq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, policy=True, seed=False):
        p.add_argument("--graph", required=True, help="graph JSON file")
        p.add_argument("--rates", required=True, help="rates JSON file")
        if policy:
            p.add_argument("--policy", required=True, help="policy JSON file")
        if seed:
            p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", help="output directory (writes a manifest)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("analyze", help="classify a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("ncond", help="check the independent-set rate condition")
    add_common(p, policy=False)
    p.set_defaults(func=_cmd_ncond)

    p = sub.add_parser("fluid", help="fluid drift report for one node")
    add_common(p)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--truncation", type=int, default=200)
    p.set_defaults(func=_cmd_fluid)

    p = sub.add_parser("simulate", help="run the event-driven simulator")
    add_common(p, seed=True)
    p.add_argument("--horizon", type=float, required=True, help="scaled time units")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--node", type=int, help="node for hitting/drift summary")
    p.add_argument("--init-node", type=int, help="start from scale * e_node")
    p.add_argument("--init", help="comma-separated raw initial queue vector")
    p.add_argument("--replications", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stability", help="exact or empirical stability verdict")
    p.add_argument("--graph", required=True)
    p.add_argument("--rates", required=True)
    p.add_argument("--policy", help="needed with --empirical")
    p.add_argument("--empirical", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--scales", type=int, nargs="+", default=[1000, 10000])
    p.add_argument("--horizon", type=float, default=8.0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("counterexample", help="emit a certified unstable instance")
    p.add_argument("family", choices=sorted(FAMILY_EPS_BOUND))
    p.add_argument("eps", type=float)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser(
        "construct-nonmaximal",
        help="destabilizing policy and rates for a general graph",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("randgraph", help="grow and match a random typed graph")
    add_common(p, seed=True)
    p.add_argument("--n", type=int, required=True, help="number of nodes to grow")
    p.add_argument("--matching-out", action="store_true")
    p.set_defaults(func=_cmd_randgraph)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # recorded in manifest.json
    try:
        args.func(args)
    except (NotApplicableError, RatesOutsideRegionError, UnsupportedPolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MatchQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
