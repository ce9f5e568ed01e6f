"""Command-line front door.

Subcommands: analyze, ncond, fluid, simulate, stability, counterexample,
construct-nonmaximal, randgraph. Instance files go in, JSON/CSV reports
come out; every randomized command requires an explicit --seed, and every
--out run writes a manifest with input hashes so results can be
reproduced bit for bit.

Every subcommand is declared through `_command`, which adds the instance
files, --seed, --out and --format. Before dispatch, `main` reads every
instance file given, in the order graph, rates, policy, and hands the
command the parsed values in place of the paths. Every report goes
through `_emit`, the one place that chooses stdout or --out, JSON or CSV,
and the one writer of manifest.json; simulate and randgraph write only
their own trace, trajectory and matching files. Exit codes live on the
error classes (`MatchQError.exit_code`): 0 ok, 2 parse/validation error,
3 not-applicable or region error, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from . import __version__
from .errors import MatchQError, ValidationError
from .graphs import check_node, classify, ncond_check
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
    exact_region,
)
from . import serialize as ser

# The reader of each kind of instance file, in the order main reads them.
_READERS = {
    "graph": ser.graph_from_obj,
    "rates": ser.rates_from_obj,
    "policy": ser.policy_from_obj,
}


def _read_inputs(args):
    """Replace each instance-file path on args by the value it holds, and
    keep the paths, in reading order, in args.inputs for the manifest."""
    args.inputs = []
    for kind, read in _READERS.items():
        path = getattr(args, kind, None)
        if path is not None:
            setattr(args, kind, read(ser.load_json(path)))
            args.inputs.append(path)


def _cell(value) -> str:
    """A cell as the JSON report writes the value; strings stay unquoted."""
    return value if isinstance(value, str) else json.dumps(value, sort_keys=True)


def _render_csv(obj: dict) -> str:
    """Flat CSV rendering: inequality tables as rows, then the verdict and
    any evidence; otherwise key,value. Every value but a string is written
    as JSON (null, true, false, lists and dicts), quoted where it holds
    commas."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if "inequalities" in obj:
        columns = ["name", "lhs", "rhs", "satisfied", "margin"]
        writer.writerow(columns)
        writer.writerows([_cell(iq[c]) for c in columns] for iq in obj["inequalities"])
        writer.writerow(["verdict", obj["verdict"], "", "", ""])
        if obj["evidence"] is not None:
            writer.writerow(["evidence", _cell(obj["evidence"]), "", "", ""])
    else:
        writer.writerow(["key", "value"])
        writer.writerows([key, _cell(value)] for key, value in sorted(obj.items()))
    return out.getvalue()


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"--out {out}: {exc.strerror}") from None
    return out


def _emit(args, outputs):
    """Print each report to stdout, or write it into --out with a manifest.

    outputs lists the reports as (name, obj) pairs, in manifest order,
    among the names of the files the command wrote into --out itself; the
    manifest's inputs are the files in args.inputs.
    """
    out = _out_dir(args) if args.out else None
    written = []
    for entry in outputs:
        if isinstance(entry, str):
            written.append(entry)
            continue
        name, obj = entry
        if out is None:
            sys.stdout.write(
                _render_csv(obj) if args.format == "csv"
                else json.dumps(obj, indent=2, sort_keys=True) + "\n"
            )
        elif args.format == "csv":
            written.append(f"{name}.csv")
            (out / written[-1]).write_text(_render_csv(obj))
        else:
            written.append(f"{name}.json")
            ser.dump_json(obj, out / written[-1])
    if out is not None:
        ser.dump_json(
            ser.manifest(args.command, args.argv, args.inputs,
                         seed=getattr(args, "seed", None), outputs=written),
            out / "manifest.json",
        )


def _cmd_analyze(args):
    _emit(args, [("analysis", ser.classification_to_obj(classify(args.graph)))])


def _cmd_ncond(args):
    res = ncond_check(args.graph, args.rates)
    obj = {
        "satisfied": res.satisfied,
        "min_margin": res.min_margin,
        "argmin_set": sorted(res.argmin),
        "witness": sorted(res.witness) if res.witness is not None else None,
    }
    _emit(args, [("ncond", obj)])


def _cmd_fluid(args):
    report = fluid_report(
        args.graph, args.rates, args.policy, args.node, args.q0, truncation=args.truncation
    )
    _emit(args, [("fluid", ser.fluid_report_to_obj(report))])


def _parse_initial(args):
    graph = args.graph
    if args.init_node is not None:
        node = check_node(args.init_node, graph.node_count, "--init-node")
        return tuple(args.scale if v == node else 0 for v in graph.nodes)
    if args.init:
        try:
            return tuple(int(x) for x in args.init.split(","))
        except ValueError:
            raise ValidationError(
                f"--init {args.init!r} is not a comma-separated list of integers"
            ) from None
    return None


def _cmd_simulate(args):
    if args.node is not None:
        check_node(args.node, args.graph.node_count, "--node")
    initial = _parse_initial(args)
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
        trace = simulate(args.graph, args.rates, args.policy, config)
        drift = None
        if args.node is not None:
            try:
                drift = drift_estimate(trace, args.node)
            except MatchQError:
                pass
        suffix = f"_rep{rep}" if args.replications > 1 else ""
        if args.out:
            ser.write_trace_csv(trace, _out_dir(args) / f"trace{suffix}.csv")
            outputs.append(f"trace{suffix}.csv")
        summary = ser.trace_summary_to_obj(trace, node=args.node, drift=drift)
        outputs.append((f"summary{suffix}", summary))
    _emit(args, outputs)


def _cmd_stability(args):
    if args.empirical:
        if args.seed is None:
            raise ValidationError("--empirical requires --seed")
        if args.policy is None:
            raise ValidationError("--empirical requires --policy")
        budget = ClassifyBudget(
            seeds=args.replications,
            scales=tuple(args.scales),
            horizon=args.horizon,
            master_seed=args.seed,
        )
        verdict = empirical_classify(args.graph, args.rates, args.policy, budget)
    else:
        verdict = exact_region(args.graph, args.rates, args.policy)
    _emit(args, [("stability", ser.verdict_to_obj(verdict))])


def _cmd_counterexample(args):
    instance = counterexample(args.family, args.eps)
    _emit(args, [("instance", ser.instance_to_obj(instance))])


def _cmd_construct(args):
    instance = construct_nonmaximal(args.graph, eps=args.eps)
    _emit(args, [("instance", ser.instance_to_obj(instance))])


def _cmd_randgraph(args):
    mu = type_distribution(args.rates)
    result = grow_and_match(args.graph, mu, args.policy, args.n, args.seed)
    summary = {
        "seed": args.seed,
        "n": result.n_nodes,
        "matched_count": result.matched_count,
        "matched_fraction": result.matched_fraction() if result.n_nodes else None,
        "unmatched_by_type": list(result.queue),
        "mu": list(result.mu),
    }
    outputs = [("randgraph", summary)]
    if args.out:
        out = _out_dir(args)
        ser.write_growth_csv(result, out / "trajectory.csv")
        outputs.append("trajectory.csv")
        if args.matching_out:
            ser.write_matching_json(result, out / "matching.json")
            outputs.append("matching.json")
    _emit(args, outputs)


def _command(sub, name, func, help, files=(), seed=False, optional=()):
    """Declare a subcommand: the instance files named in `files`, --seed if
    asked for (each required unless named in `optional`), --out and --format."""
    p = sub.add_parser(name, help=help)
    for kind in files:
        p.add_argument(f"--{kind}", required=kind not in optional,
                       help=f"{kind} JSON file")
    if seed:
        p.add_argument("--seed", type=int, required="seed" not in optional)
    p.add_argument("--out", help="output directory (writes a manifest)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="matchq",
        description="Matching-queue simulation and stability analysis",
    )
    parser.add_argument("--version", action="version", version=f"matchq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    instance = ("graph", "rates", "policy")

    _command(sub, "analyze", _cmd_analyze, "classify a graph", files=("graph",))

    _command(sub, "ncond", _cmd_ncond, "check the independent-set rate condition",
             files=("graph", "rates"))

    p = _command(sub, "fluid", _cmd_fluid, "fluid drift report for one node",
                 files=instance)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--truncation", type=int, default=200)

    p = _command(sub, "simulate", _cmd_simulate, "run the event-driven simulator",
                 files=instance, seed=True)
    p.add_argument("--horizon", type=float, required=True, help="scaled time units")
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--node", type=int, help="node for hitting/drift summary")
    p.add_argument("--init-node", type=int, help="start from scale * e_node")
    p.add_argument("--init", help="comma-separated raw initial queue vector")
    p.add_argument("--replications", type=int, default=1)

    p = _command(sub, "stability", _cmd_stability, "exact or empirical stability verdict",
                 files=instance, seed=True, optional=("policy", "seed"))
    p.add_argument("--empirical", action="store_true",
                   help="classify by simulation; needs --policy and --seed")
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--scales", type=int, nargs="+", default=[1000, 10000])
    p.add_argument("--horizon", type=float, default=8.0)

    p = _command(sub, "counterexample", _cmd_counterexample,
                 "emit a certified unstable instance")
    p.add_argument("family", choices=sorted(FAMILY_EPS_BOUND))
    p.add_argument("eps", type=float)

    p = _command(sub, "construct-nonmaximal", _cmd_construct,
                 "destabilizing policy and rates for a general graph", files=("graph",))
    p.add_argument("--eps", type=float)

    p = _command(sub, "randgraph", _cmd_randgraph, "grow and match a random typed graph",
                 files=instance, seed=True)
    p.add_argument("--n", type=int, required=True, help="number of nodes to grow")
    p.add_argument("--matching-out", action="store_true")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # recorded in manifest.json
    try:
        _read_inputs(args)
        args.func(args)
    except MatchQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
