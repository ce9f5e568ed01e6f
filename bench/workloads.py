"""The four workloads: inputs built from a seed, one round of operations,
the work a round does, and the checks on its outputs.

A workload runs whole rounds; every round runs the same operations on the
same inputs, so later rounds must reproduce the first round's outputs
exactly. Only the first round's outputs are checked in full; later rounds
are compared with it.

Each workload defines:
  build(seed, workdir)          -> inputs (timed as set-up)
  run_round(inputs, rnd, rdir)  -> outputs; every operation goes through rnd.op
  fingerprint(outputs, rdir)    -> what later rounds must reproduce
  check(inputs, outputs, rdir)  -> work done per round; raises CheckError
  TRACE                         -> (module, attribute, span name, count) to wrap
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import matchq
import matchq.cli
import matchq.graphs
import matchq.marginal
import matchq.serialize
import matchq.stability

import checks
from checks import require

# The package's `simulate` attribute is the function, not the module.
simulate_module = importlib.import_module("matchq.simulate")

FAMILIES = ("pendant-priority", "five-cycle-priority", "pendant-uniform", "five-cycle-uniform")
FAMILY_EPS = 0.2
# Exact drifts of the families at eps = 1/5.
FAMILY_DRIFT = {
    "pendant-priority": Fraction(1, 26),
    "five-cycle-priority": Fraction(1, 170),
    "pendant-uniform": Fraction(1, 12),
    "five-cycle-uniform": Fraction(3, 100),
}
PENDANT_EDGES = [(1, 2), (1, 3), (2, 3), (3, 4)]
PENDANT_PLUS_EDGES = [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]


def _edges(graph):
    return [tuple(e) for e in graph.edges]


def _seed(seed, *tags):
    """A derived 32-bit seed, fixed by the workload seed and the tags."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _policy_obj(kind, order=None):
    if kind == "priority":
        return {"kind": "priority", "order": {str(k): list(v) for k, v in order.items()}}
    return {"kind": kind}


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _dyadic_rates(rng, p):
    """Rates k / 2**20 with integer k: every sum of a few of them is exact in
    floating point, so the package's float margins equal the exact ones."""
    return tuple(rng.randint(1, 1 << 20) / (1 << 20) for _ in range(p))


def _connected_graph(rng, p, density):
    """A connected G(p, density) graph, by rejection."""
    while True:
        edges = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)
                 if rng.random() < density]
        if checks.is_connected(p, edges):
            return edges


def _connected_gnm(rng, p, density):
    """A uniform connected graph with exactly round(density * p(p-1)/2) edges
    (at least p-1). Fixing the edge count keeps the exponential enumeration
    work alike across seeds."""
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    m = max(p - 1, round(density * len(pairs)))
    while True:
        edges = sorted(rng.sample(pairs, m))
        if checks.is_connected(p, edges):
            return edges


# -- paths: recorded sample paths through the CLI ---------------------------------


class Paths:
    """`matchq simulate --stride 1 --out` on the four families under their
    own rule, ml and uniform, plus `matchq randgraph --matching-out` on the
    AC-10 triangle and destabilised pendant under uniform."""

    SCALE = 10_000
    HORIZON = 2.0
    GROWTH_NODES = 100_000
    TRACE = [
        (matchq.cli, "main", "cli.main", None),
        (matchq.cli, "simulate", "cli.simulate", lambda a, r: r.n_events),
        (matchq.cli, "drift_estimate", "cli.drift_estimate", None),
        (matchq.cli, "grow_and_match", "cli.grow_and_match", lambda a, r: r.n_nodes),
        (matchq.serialize, "write_trace_csv", "serialize.write_trace_csv",
         lambda a, r: len(a[0].times)),
        (matchq.serialize, "write_growth_csv", "serialize.write_growth_csv", None),
        (matchq.serialize, "dump_json", "serialize.dump_json", None),
        (matchq.serialize, "load_json", "serialize.load_json", None),
        (matchq.serialize, "manifest", "serialize.manifest", None),
        (matchq.serialize, "sha256_file", "serialize.sha256_file", None),
    ]

    @staticmethod
    def build(seed, workdir):
        runs = []
        for family in FAMILIES:
            inst = matchq.counterexample(family, FAMILY_EPS)
            p = inst.graph.node_count
            tag = family.replace("-", "_")
            graph = _write_json(workdir / f"{tag}_graph.json",
                                {"nodes": p, "edges": [list(e) for e in inst.graph.edges]})
            rates = _write_json(workdir / f"{tag}_rates.json", {"rates": list(inst.rates)})
            own = inst.policy.kind
            kinds = [own] + [k for k in ("ml", "uniform") if k != own]
            for kind in kinds:
                order = dict(inst.policy.order) if kind == "priority" else None
                policy = _write_json(workdir / f"{tag}_{kind}.json", _policy_obj(kind, order))
                runs.append({
                    "label": f"{family}/{kind}", "p": p, "edges": _edges(inst.graph),
                    "kind": kind, "order": order, "node": inst.node,
                    "seed": _seed(seed, "simulate", family, kind),
                    "files": (graph, rates, policy),
                })
        growth = []
        for label, p, edges, lam, bound in (
            ("triangle", 3, [(1, 2), (1, 3), (2, 3)], (1, 1, 1), ("below", 0.01)),
            ("pendant", 4, PENDANT_EDGES, (0.2, 0.2, 0.4, 0.35), ("at_least", 0.05)),
        ):
            files = (
                _write_json(workdir / f"growth_{label}_graph.json",
                            {"nodes": p, "edges": [list(e) for e in edges]}),
                _write_json(workdir / f"growth_{label}_rates.json", {"rates": list(lam)}),
                _write_json(workdir / "growth_uniform.json", {"kind": "uniform"}),
            )
            growth.append({"label": label, "p": p, "edges": edges, "rates": lam,
                           "bound": bound, "seed": _seed(seed, "randgraph", label),
                           "files": files})
        return {"runs": runs, "growth": growth}

    @classmethod
    def run_round(cls, inputs, rnd, rdir):
        codes = []
        for k, run in enumerate(inputs["runs"]):
            graph, rates, policy = run["files"]
            argv = ["simulate", "--graph", graph, "--rates", rates, "--policy", policy,
                    "--seed", str(run["seed"]), "--scale", str(cls.SCALE),
                    "--horizon", str(cls.HORIZON), "--init-node", str(run["node"]),
                    "--node", str(run["node"]), "--stride", "1",
                    "--out", str(rdir / f"sim{k}")]
            codes.append(rnd.op(run["label"], _cli, argv))
        for k, g in enumerate(inputs["growth"]):
            graph, rates, policy = g["files"]
            argv = ["randgraph", "--graph", graph, "--rates", rates, "--policy", policy,
                    "--seed", str(g["seed"]), "--n", str(cls.GROWTH_NODES),
                    "--out", str(rdir / f"growth{k}"), "--matching-out"]
            codes.append(rnd.op("randgraph/" + g["label"], _cli, argv))
        return codes

    @staticmethod
    def fingerprint(outputs, rdir):
        files = sorted(
            str(f.relative_to(rdir)) for f in Path(rdir).rglob("*")
            if f.name in ("trace.csv", "summary.json", "trajectory.csv",
                          "matching.json", "randgraph.json")
        )
        return {"codes": outputs, "files": {f: _sha(rdir / f) for f in files}}

    @classmethod
    def check(cls, inputs, outputs, rdir):
        require(all(c == 0 for c in outputs), f"CLI exit codes {outputs}")
        events = 0
        for k, run in enumerate(inputs["runs"]):
            out = rdir / f"sim{k}"
            summary = json.loads((out / "summary.json").read_text())
            p = run["p"]
            initial = [cls.SCALE if v == run["node"] else 0 for v in range(1, p + 1)]
            arrivals, n, final = checks.replay_trace_rows(
                p, run["edges"], run["kind"], run["order"], initial,
                checks.read_trace_csv(out / "trace.csv", p),
            )
            require(n == summary["events"], f"{run['label']}: {n} rows, summary says {summary['events']} events")
            require(arrivals[1:] == summary["arrivals"], f"{run['label']}: arrivals disagree with the CSV")
            require(final == summary["final_state"], f"{run['label']}: final state disagrees with the CSV")
            events += n
        for k, g in enumerate(inputs["growth"]):
            out = rdir / f"growth{k}"
            summary = json.loads((out / "randgraph.json").read_text())
            pairs = [tuple(x) for x in json.loads((out / "matching.json").read_text())["pairs"]]
            with open(out / "trajectory.csv") as fh:
                rows = [list(map(int, line.split(","))) for line in fh.read().split()[1:]]
            cps = [(r[0], r[1], tuple(r[2:])) for r in rows]
            # The node types exist only inside the run; an in-process run with
            # the same seed must write the same matching, and gives them.
            template = matchq.Graph.from_edges(g["p"], g["edges"])
            again = matchq.grow_and_match(template, matchq.type_distribution(g["rates"]),
                                          matchq.uniform_policy(), cls.GROWTH_NODES, g["seed"])
            require(again.matching_edges() == pairs, f"{g['label']}: matching.json is not reproducible")
            types = again.node_types.tolist()
            require(summary["n"] == cls.GROWTH_NODES == len(types), f"{g['label']}: node count")
            require(cps and cps[-1][0] == cls.GROWTH_NODES, f"{g['label']}: no final checkpoint")
            require(list(cps[-1][2]) == summary["unmatched_by_type"], f"{g['label']}: final checkpoint")
            require(summary["matched_count"] == 2 * len(pairs), f"{g['label']}: matched count")
            checks.check_growth(g["p"], g["edges"], types, pairs, cps, summary["unmatched_by_type"])
            unmatched = 1 - summary["matched_count"] / summary["n"]
            side, level = g["bound"]
            require(unmatched < level if side == "below" else unmatched >= level,
                    f"{g['label']}: unmatched fraction {unmatched:.4f} is not {side} {level}")
            events += summary["n"]
        return events


def _cli(argv):
    code = matchq.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"matchq {argv[0]} exited with code {code}")
    return code


# -- verdict: simulation verdicts at sparse stride ----------------------------------


class Verdict:
    """`empirical_classify` on two unstable and two stable instances, and the
    coupled experiments on AC-07's inputs."""

    COUPLED_EVENTS = 200_000
    # Unstable instances are probed at their growing node only.
    UNSTABLE_BUDGET = dict(seeds=12, scales=(10000, 16000), horizon=3.0)
    STABLE_BUDGET = dict(seeds=8, scales=(1000, 4000))
    TRACE = [
        (matchq.stability, "empirical_classify", "stability.empirical_classify", None),
        (matchq.stability, "simulate", "stability.simulate", lambda a, r: r.n_events),
        (matchq.stability, "drift_estimate", "stability.drift_estimate", None),
        (simulate_module, "coupled_nonexpansive", "simulate.coupled_nonexpansive",
         lambda a, r: r.events),
        (simulate_module, "coupled_nonchaotic", "simulate.coupled_nonchaotic",
         lambda a, r: r.events),
    ]

    @classmethod
    def build(cls, seed, workdir):
        plus = matchq.Graph.from_edges(5, PENDANT_PLUS_EDGES)
        ac09 = matchq.construct_nonmaximal(plus)
        pu = matchq.counterexample("pendant-uniform", FAMILY_EPS)
        pendant = matchq.pendant_graph()
        k4 = matchq.complete_graph(4)
        verdicts = [
            dict(label="ac09-transplant", graph=ac09.graph, rates=ac09.rates, policy=ac09.policy,
                 expect="unstable-empirical", node=ac09.node, family="pendant-priority+leaf",
                 horizon=cls.UNSTABLE_BUDGET["horizon"]),
            dict(label="pendant-uniform", graph=pu.graph, rates=pu.rates, policy=pu.policy,
                 expect="unstable-empirical", node=pu.node, family="pendant-uniform",
                 horizon=cls.UNSTABLE_BUDGET["horizon"]),
            dict(label="pendant-ml", graph=pendant, rates=(0.25, 0.25, 0.3, 0.1),
                 policy=matchq.ml_policy(), expect="stable-empirical", node=None, horizon=10.0),
            dict(label="k4-uniform", graph=k4, rates=(0.25,) * 4,
                 policy=matchq.uniform_policy(), expect="stable-empirical", node=None, horizon=6.0),
        ]
        for v in verdicts:
            budget = cls.UNSTABLE_BUDGET if v["node"] else cls.STABLE_BUDGET
            v["budget"] = matchq.ClassifyBudget(
                seeds=budget["seeds"], scales=budget["scales"], horizon=v["horizon"],
                master_seed=_seed(seed, "classify", v["label"]))
        lam = (0.1, 0.1, 0.45, 0.35)
        coupled = [
            dict(label="nonexpansive/priority", graph=pendant, rates=lam,
                 policy=matchq.pendant_priority_policy(), x=(0, 0, 0, 5), y=(0, 0, 0, 0)),
            dict(label="nonexpansive/ml", graph=pendant, rates=lam,
                 policy=matchq.ml_policy(), x=(7, 0, 0, 3), y=(0, 4, 0, 0)),
            dict(label="nonexpansive/uniform", graph=matchq.five_cycle_graph(),
                 rates=(0.1, 0.1, 0.225, 0.225, 0.35), policy=matchq.uniform_policy(),
                 x=(3, 0, 0, 0, 2), y=(0, 4, 0, 0, 0)),
            dict(label="nonchaotic/priority", graph=plus, rates=lam + (0.0192,),
                 policy=matchq.priority_policy(
                     {1: (2, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3, 5), 5: (4,)}),
                 kept=(1, 2, 3, 4)),
        ]
        for c in coupled:
            c["config"] = matchq.SimConfig(horizon=math.inf, seed=_seed(seed, "coupled", c["label"]),
                                           max_events=cls.COUPLED_EVENTS)
        return {"verdicts": verdicts, "coupled": coupled}

    @staticmethod
    def run_round(inputs, rnd, rdir):
        out = []
        for v in inputs["verdicts"]:
            out.append(rnd.op("classify/" + v["label"], matchq.stability.empirical_classify,
                              v["graph"], v["rates"], v["policy"], v["budget"],
                              None if v["node"] is None else [v["node"]]))
        for c in inputs["coupled"]:
            if "kept" in c:
                out.append(rnd.op(c["label"], simulate_module.coupled_nonchaotic,
                                  c["graph"], c["kept"], c["rates"], c["policy"], c["config"]))
            else:
                out.append(rnd.op(c["label"], simulate_module.coupled_nonexpansive,
                                  c["graph"], c["rates"], c["policy"], c["x"], c["y"], c["config"]))
        return out

    @staticmethod
    def fingerprint(outputs, rdir):
        return [repr(o) for o in outputs]

    @classmethod
    def check(cls, inputs, outputs, rdir):
        events = 0
        nv = len(inputs["verdicts"])
        for v, verdict in zip(inputs["verdicts"], outputs[:nv]):
            label = v["label"]
            g = v["graph"]
            margin, _ = checks.ncond_brute(g.node_count, _edges(g), v["rates"])
            require(margin > 0, f"{label}: rates violate the rate condition")
            if v["expect"] == "unstable-empirical":
                drift = checks.exact_drift(v["family"], v["rates"])
                require(drift > 0, f"{label}: exact drift {float(drift)} is not positive")
                flag = verdict.evidence["nodes"][v["node"]]["flag"]
                require(flag == "unstable-empirical",
                        f"{label}: node {v['node']} with exact drift {float(drift):.4g} flagged {flag}")
            else:
                # Theory: ml is stable under the rate condition on a
                # non-bipartite graph; every policy is on a complete graph.
                p, edges = g.node_count, _edges(g)
                require(checks.is_complete(p, edges)
                        or (v["policy"].kind == "ml" and not checks.is_bipartite(p, edges)),
                        f"{label}: theory gives no stability verdict")
            require(verdict.verdict == v["expect"],
                    f"{label}: verdict {verdict.verdict}, theory says {v['expect']}")
            events += verdict.evidence["events_used"]
        for c, report in zip(inputs["coupled"], outputs[nv:]):
            require(report.violations == 0, f"{c['label']}: {report.violations} violations")
            require(report.events == cls.COUPLED_EVENTS,
                    f"{c['label']}: {report.events} events, asked for {cls.COUPLED_EVENTS}")
            events += report.events
        return events


# -- certify: certificates through the marginal solver ---------------------------------


def _chain_states(p, edges, i0, truncation):
    """States of the truncated marginal chain of i0, counted from the graph:
    vectors over the nodes outside N[i0], each at most `truncation`, whose
    positive coordinates are pairwise non-adjacent."""
    adj = checks.adjacency(p, edges)
    coords = [v for v in range(1, p + 1) if v != i0 and v not in adj[i0]]
    total = 0
    for r in range(len(coords) + 1):
        for sub in itertools.combinations(coords, r):
            if all(b not in adj[a] for a, b in itertools.combinations(sub, 2)):
                total += truncation ** r
    return total


def _relabel(graph, rates, policy, node, perm):
    """The instance with node v renamed perm[v]."""
    edges = [(perm[a], perm[b]) for a, b in graph.edges]
    new_rates = [0.0] * graph.node_count
    for v in graph.nodes:
        new_rates[perm[v] - 1] = rates[v - 1]
    if policy.kind == "priority":
        policy = matchq.priority_policy(
            {perm[v]: tuple(perm[w] for w in order) for v, order in policy.order.items()})
    return matchq.Graph.from_edges(graph.node_count, edges), tuple(new_rates), policy, perm[node]


def _certificate(graph, truncation):
    """`construct_nonmaximal`, then `fluid_report` unless the reducibility
    rule says the instance's marginal chain has no stationary law."""
    inst = matchq.stability.construct_nonmaximal(graph)
    if checks.reducible_coordinate(graph.node_count, _edges(graph),
                                   inst.policy.order, inst.node) is not None:
        return inst, None
    return inst, matchq.marginal.fluid_report(inst.graph, inst.rates, inst.policy,
                                              inst.node, 1.0, truncation=truncation)


class Certify:
    """Numeric `fluid_report` on the 7-cycle at truncation 200, on the
    relabelled families, and `construct_nonmaximal` + `fluid_report` on
    seeded random connected graphs of class non_separable_g7c."""

    BIG_TRUNCATION = 200
    CHECK_TRUNCATION = 100
    SMALL_TRUNCATION = 6
    RANDOM_GRAPHS = 300
    TRACE = [
        (matchq.marginal, "fluid_report", "marginal.fluid_report", None),
        (matchq.marginal, "stationary_numeric", "marginal.stationary_numeric",
         lambda a, r: len(r.states)),
        (matchq.marginal.MarginalChain, "enumerate_states", "marginal.enumerate_states",
         lambda a, r: len(r)),
        (matchq.marginal, "spsolve", "marginal.spsolve", None),
        (matchq.marginal, "connected_components", "marginal.connected_components", None),
        (matchq.stability, "construct_nonmaximal", "stability.construct_nonmaximal", None),
        (matchq.stability, "classify", "stability.classify", None),
        (matchq.stability, "ncond_check", "stability.ncond_check", None),
        (matchq.graphs, "independent_sets", "graphs.independent_sets", None),
        (matchq.graphs, "separability", "graphs.separability", None),
        (matchq.graphs, "find_induced_pendant", "graphs.find_induced_pendant", None),
        (matchq.graphs, "find_induced_odd_cycle", "graphs.find_induced_odd_cycle", None),
    ]

    @classmethod
    def build(cls, seed, workdir):
        rng = random.Random(_seed(seed, "certify"))
        c7 = matchq.cycle_graph(7)
        descending = matchq.priority_policy(
            {v: tuple(sorted(c7.neighbors(v), reverse=True)) for v in c7.nodes})
        cycle = [
            dict(label=f"c7/{rname}/{pol.kind}", rates=rates, policy=pol)
            for rname, rates in (("equal", (1 / 7,) * 7), ("skewed", (0.22,) + (0.13,) * 6))
            for pol in (descending, matchq.uniform_policy())
        ]
        families = []
        for family in FAMILIES:
            inst = matchq.counterexample(family, FAMILY_EPS)
            p = inst.graph.node_count
            canonical = set(inst.graph.edges)
            while True:
                images = rng.sample(range(1, p + 1), p)
                perm = {v: images[v - 1] for v in inst.graph.nodes}
                g, r, pol, node = _relabel(inst.graph, inst.rates, inst.policy, inst.node, perm)
                if set(g.edges) != canonical:
                    break
            families.append(dict(label=family, graph=g, rates=r, policy=pol, node=node,
                                 canonical_rates=inst.rates))
        graphs = []
        while len(graphs) < cls.RANDOM_GRAPHS:
            p = rng.randint(5, 7)
            edges = _connected_graph(rng, p, rng.uniform(0.3, 0.7))
            if checks.graph_class(p, edges) == "non_separable_g7c":
                graphs.append(matchq.Graph.from_edges(p, edges))
        return {"c7": c7, "cycle": cycle, "families": families, "graphs": graphs}

    @classmethod
    def run_round(cls, inputs, rnd, rdir):
        # The large solves alternate with blocks of certificates so that the
        # many short operations are spread over the whole round.
        fluid = matchq.marginal.fluid_report
        out = {"cycle": [], "families": [], "random": []}
        graphs = inputs["graphs"]
        parts = len(inputs["cycle"])
        for k, (c, f) in enumerate(zip(inputs["cycle"], inputs["families"])):
            out["cycle"].append(rnd.op(c["label"], fluid, inputs["c7"], c["rates"], c["policy"],
                                       1, 1.0, truncation=cls.BIG_TRUNCATION))
            out["families"].append(rnd.op("family/" + f["label"], fluid, f["graph"], f["rates"],
                                          f["policy"], f["node"], 1.0,
                                          truncation=cls.BIG_TRUNCATION))
            for g in graphs[k * len(graphs) // parts:(k + 1) * len(graphs) // parts]:
                out["random"].append(rnd.op("certificate", _certificate, g, cls.SMALL_TRUNCATION))
        out["skipped"] = sum(1 for r in out["random"] if r is not None and r[1] is None)
        return out

    @staticmethod
    def fingerprint(outputs, rdir):
        return repr(outputs)

    @classmethod
    def check(cls, inputs, outputs, rdir):
        states = 0
        c7 = inputs["c7"]
        for c, rep in zip(inputs["cycle"], outputs["cycle"]):
            require(rep.method == "numeric-truncated", f"{c['label']}: method {rep.method}")
            require(rep.tail_mass <= 1e-12, f"{c['label']}: tail mass {rep.tail_mass:.3g}")
            ref = matchq.fluid_report(c7, c["rates"], c["policy"], 1, 1.0,
                                      truncation=cls.CHECK_TRUNCATION)
            require(abs(rep.drift - ref.drift) <= 1e-9,
                    f"{c['label']}: drift {rep.drift!r} at T={cls.BIG_TRUNCATION}, "
                    f"{ref.drift!r} at T={cls.CHECK_TRUNCATION}")
            states += _chain_states(7, _edges(c7), 1, cls.BIG_TRUNCATION)
        for f, rep in zip(inputs["families"], outputs["families"]):
            require(rep.method == "numeric-truncated", f"{f['label']}: closed form used after relabelling")
            checks.check_drift(rep.drift, FAMILY_DRIFT[f["label"]], what=f"{f['label']} drift")
            require(abs(checks.exact_drift(f["label"], f["canonical_rates"]) - FAMILY_DRIFT[f["label"]])
                    < Fraction(1, 10**12), f"{f['label']}: family formula")
            g = f["graph"]
            states += _chain_states(g.node_count, _edges(g), f["node"], cls.BIG_TRUNCATION)
        for g, (inst, rep) in zip(inputs["graphs"], outputs["random"]):
            p, edges = g.node_count, _edges(g)
            margin, _ = checks.ncond_brute(p, edges, inst.rates)
            require(margin > 0, f"transplant on {edges} violates the rate condition")
            witness = inst.notes["witness"]
            checks.check_classification(p, edges, "non_separable_g7c",
                                        witness_kind=inst.notes["witness_kind"], witness=witness)
            if rep is None:
                continue
            require(rep.drift > 0, f"transplant on {edges}: numeric drift {rep.drift!r} at node {inst.node}")
            states += _chain_states(p, edges, inst.node, cls.SMALL_TRUNCATION)
        return states


# -- structure: the graph layer alone ----------------------------------------------------


class Structure:
    """`ncond_check` and `classify` on seeded random connected graphs of
    12-20 nodes at several densities, and on the cycles C13..C20."""

    DENSITIES = (0.2, 0.3, 0.45, 0.65, 0.85)
    SIZES = (12, 14, 16, 18, 20)
    # Twenty graphs per cell: with ten, the seed alone moved the median
    # and 75th-percentile operation times by 7% and 12% (quartile spread
    # over seeds 200-209, timed interleaved in one process).
    PER_CELL = 20
    TRACE = [
        (matchq.graphs, "ncond_check", "graphs.ncond_check", None),
        (matchq.graphs, "classify", "graphs.classify", None),
        (matchq.graphs, "independent_sets", "graphs.independent_sets", None),
        (matchq.graphs, "separability", "graphs.separability", None),
        (matchq.graphs, "find_induced_pendant", "graphs.find_induced_pendant", None),
        (matchq.graphs, "find_induced_odd_cycle", "graphs.find_induced_odd_cycle", None),
    ]

    @classmethod
    def build(cls, seed, workdir):
        rng = random.Random(_seed(seed, "structure"))
        cases = []
        for density, p, _ in itertools.product(cls.DENSITIES, cls.SIZES, range(cls.PER_CELL)):
            edges = _connected_gnm(rng, p, density)
            cases.append((f"G({p},{density})", matchq.Graph.from_edges(p, edges),
                          _dyadic_rates(rng, p)))
        for length in range(13, 21):
            cases.append((f"C{length}", matchq.cycle_graph(length), _dyadic_rates(rng, length)))
        return cases

    @staticmethod
    def run_round(inputs, rnd, rdir):
        return [rnd.op(label, _analyse, graph, rates) for label, graph, rates in inputs]

    @staticmethod
    def fingerprint(outputs, rdir):
        return repr(outputs)

    @staticmethod
    def check(inputs, outputs, rdir):
        for (label, graph, rates), out in zip(inputs, outputs):
            require(out is not None, f"{label}: analysis failed")
            nc, cls = out
            p, edges = graph.node_count, _edges(graph)
            checks.check_ncond(p, edges, rates, nc.satisfied, nc.min_margin, nc.argmin, tol=0)
            checks.check_classification(p, edges, cls.kind, cls.coloring, cls.partition,
                                        cls.witness_kind, cls.witness)
        return len(inputs)


def _analyse(graph, rates):
    return matchq.graphs.ncond_check(graph, rates), matchq.graphs.classify(graph)


WORKLOADS = {"paths": Paths, "verdict": Verdict, "certify": Certify, "structure": Structure}
