"""The public surface, file formats, round-trips, CLI subcommands, exit codes,
manifests."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

import matchq
import matchq.serialize as ser
from matchq.cli import build_parser, main
from matchq.graphs import Graph, five_cycle_graph, pendant_graph
from matchq.policies import (
    five_cycle_priority_policy,
    ml_policy,
    pendant_priority_policy,
    priority_policy,
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    ser.dump_json(ser.graph_to_obj(pendant_graph()), tmp_path / "pendant.json")
    ser.dump_json(ser.graph_to_obj(five_cycle_graph()), tmp_path / "c5.json")
    ser.dump_json(
        ser.graph_to_obj(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])),
        tmp_path / "square.json",
    )
    ser.dump_json({"rates": [0.1, 0.1, 0.45, 0.35]}, tmp_path / "rates.json")
    ser.dump_json(
        ser.policy_to_obj(pendant_priority_policy()), tmp_path / "policy.json"
    )
    ser.dump_json(ser.policy_to_obj(ml_policy()), tmp_path / "ml.json")
    paths.update(
        pendant=tmp_path / "pendant.json",
        c5=tmp_path / "c5.json",
        square=tmp_path / "square.json",
        rates=tmp_path / "rates.json",
        policy=tmp_path / "policy.json",
        ml=tmp_path / "ml.json",
        dir=tmp_path,
    )
    return paths


# Every public name of the package (submodules left out; matchq.simulate is
# the function). A name added or removed has to be added or removed here.
PUBLIC_NAMES = {
    "ClassifyBudget", "FluidReport", "Graph", "GraphClass", "GrowthResult",
    "MarginalChain", "Policy", "SimConfig", "SimTrace", "StabilityVerdict",
    "StationaryDist", "UnstableInstance", "build_marginal", "classify",
    "complete_graph", "construct_nonmaximal", "counterexample", "coupled_nonchaotic",
    "coupled_nonexpansive", "cycle_graph", "drift_estimate", "empirical_classify",
    "find_induced_odd_cycle", "find_induced_pendant", "five_cycle_graph",
    "five_cycle_priority_policy", "fivecycle_region",
    "fluid_report", "grow_and_match", "hitting_time", "independent_sets",
    "is_bipartite", "is_connected", "match_decision", "ml_policy", "ncond_check",
    "pendant_alpha", "pendant_graph", "pendant_priority_policy", "pendant_region",
    "priority_policy", "replication_seeds", "separability", "simulate",
    "stationary_numeric", "tutte_condition_estimate", "two_coloring",
    "type_distribution", "uniform_policy",
}


def test_public_names_are_pinned():
    names = {n for n, v in vars(matchq).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_graph_round_trip():
    g = pendant_graph()
    assert ser.graph_from_obj(json.loads(json.dumps(ser.graph_to_obj(g)))) == g
    assert json.loads(json.dumps(ser.graph_to_obj(g))) == {
        "nodes": 4, "edges": [[1, 2], [1, 3], [2, 3], [3, 4]]}


def test_policy_round_trip():
    for pol in (pendant_priority_policy(), ml_policy()):
        assert ser.policy_from_obj(json.loads(json.dumps(ser.policy_to_obj(pol)))) == pol


def test_cli_analyze(files, capsys):
    assert main(["analyze", "--graph", str(files["pendant"])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "non_separable_g7c"
    assert out["witness"] == [1, 2, 3, 4]


def test_cli_ncond(files, capsys):
    assert main(["ncond", "--graph", str(files["pendant"]),
                 "--rates", str(files["rates"])]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["satisfied"] is True
    assert out["min_margin"] == pytest.approx(0.1)


def test_cli_fluid(files, capsys):
    rc = main([
        "fluid", "--graph", str(files["pendant"]), "--rates", str(files["rates"]),
        "--policy", str(files["policy"]), "--node", "4",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["drift"] == pytest.approx(0.0384615, abs=1e-6)
    assert out["rho"] == "inf"


def test_cli_fluid_reports_solver_and_residual(files, capsys):
    # the pendant tail under its own rule has a closed form; with the hub
    # serving the tail first it goes through the sparse solve
    tail_first = files["dir"] / "tail_first.json"
    ser.dump_json({"kind": "priority", "order": {"1": [2, 3], "2": [1, 3], "3": [4, 1, 2],
                                                 "4": [3]}}, tail_first)
    for policy, solver in ((files["policy"], "closed-form"), (tail_first, "lu")):
        assert main([
            "fluid", "--graph", str(files["pendant"]), "--rates", str(files["rates"]),
            "--policy", str(policy), "--node", "4", "--truncation", "40",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["solver"] == solver
        if solver == "lu":
            assert out["method"] == "numeric-truncated"
            assert 0.0 <= out["residual"] <= 1e-12
        else:
            assert out["residual"] is None


@pytest.mark.parametrize("truncation", ["0", "-1"])
def test_cli_fluid_truncation_below_one_exit_2(files, truncation):
    assert main([
        "fluid", "--graph", str(files["pendant"]), "--rates", str(files["rates"]),
        "--policy", str(files["policy"]), "--node", "4", "--truncation", truncation,
    ]) == 2


def test_cli_counterexample(files, capsys):
    assert main(["counterexample", "pendant-priority", "0.2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["drift"] == pytest.approx(0.0384615, abs=1e-6)
    assert out["rates"]["rates"] == pytest.approx([0.1, 0.1, 0.45, 0.35])


def test_cli_counterexample_eps_error(files, capsys):
    assert main(["counterexample", "pendant-priority", "0.9"]) == 2


def test_cli_simulate_writes_outputs_and_manifest(files):
    out_dir = files["dir"] / "run"
    rc = main([
        "simulate", "--graph", str(files["pendant"]), "--rates", str(files["rates"]),
        "--policy", str(files["policy"]), "--seed", "7", "--horizon", "1",
        "--scale", "500", "--init-node", "4", "--node", "4",
        "--out", str(out_dir),
    ])
    assert rc == 0
    assert (out_dir / "trace.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["hitting_time"] == "inf" or isinstance(
        summary["hitting_time"], float
    )
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert str(files["pendant"]) in manifest["inputs"]
    header = (out_dir / "trace.csv").read_text().splitlines()[0]
    assert header == "t,class,matched,q_1,q_2,q_3,q_4"


def test_cli_simulate_outputs_deterministic(files):
    outs = []
    for name in ("a", "b"):
        out_dir = files["dir"] / name
        main([
            "simulate", "--graph", str(files["pendant"]),
            "--rates", str(files["rates"]), "--policy", str(files["ml"]),
            "--seed", "11", "--horizon", "2", "--scale", "100",
            "--out", str(out_dir),
        ])
        outs.append((out_dir / "trace.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_simulate_raw_initial_vector(files, capsys):
    rc = main([
        "simulate", "--graph", str(files["pendant"]), "--rates", str(files["rates"]),
        "--policy", str(files["policy"]), "--seed", "2", "--horizon", "50",
        "--init", "0,0,0,7", "--node", "4",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert isinstance(out["hitting_time"], float) or out["hitting_time"] == "inf"


def test_cli_simulate_replications(files):
    out_dir = files["dir"] / "reps"
    rc = main([
        "simulate", "--graph", str(files["pendant"]), "--rates", str(files["rates"]),
        "--policy", str(files["policy"]), "--seed", "3", "--horizon", "1",
        "--replications", "3", "--out", str(out_dir),
    ])
    assert rc == 0
    for rep in range(3):
        assert (out_dir / f"trace_rep{rep}.csv").exists()


def test_cli_stability_exact(files, capsys):
    rc = main(["stability", "--graph", str(files["pendant"]),
               "--rates", str(files["rates"])])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "unstable-exact"
    names = {iq["name"] for iq in out["inequalities"] if not iq["satisfied"]}
    assert names == {"pendant:tail<alpha*hub"}


def test_cli_stability_not_applicable_exit_3(files, tmp_path, capsys):
    ser.dump_json({"rates": [1, 1, 1, 1]}, tmp_path / "r4.json")
    rc = main(["stability", "--graph", str(files["square"]),
               "--rates", str(tmp_path / "r4.json")])
    assert rc == 3


def test_cli_stability_exact_route_takes_only_the_canonical_rule(files, tmp_path, capsys):
    # each exact region holds for one priority rule; on the 5-cycle node 1's
    # order is part of it (the node-3 inequality), though the apex chain
    # never reads it
    ser.dump_json({"rates": [0.1, 0.1, 0.225, 0.225, 0.35]}, tmp_path / "r5.json")
    ser.dump_json(ser.policy_to_obj(five_cycle_priority_policy()), tmp_path / "p5.json")
    flipped = {**five_cycle_priority_policy().order, 1: (3, 2)}
    ser.dump_json(ser.policy_to_obj(priority_policy(flipped)), tmp_path / "flip5.json")
    pendant = ["stability", "--graph", str(files["pendant"]), "--rates", str(files["rates"])]
    c5 = ["stability", "--graph", str(files["c5"]), "--rates", str(tmp_path / "r5.json")]
    for argv in (pendant + ["--policy", str(files["ml"])],
                 c5 + ["--policy", str(files["ml"])],
                 c5 + ["--policy", str(tmp_path / "flip5.json")]):
        assert main(argv + ["--out", str(tmp_path / "refused")]) == 3
        assert "--empirical" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    for name, argv, policy in (("pendant", pendant, files["policy"]),
                               ("c5", c5, tmp_path / "p5.json")):
        out_dir = tmp_path / name
        assert main(argv + ["--policy", str(policy), "--out", str(out_dir)]) == 0
        assert main(argv) == 0
        assert json.loads((out_dir / "stability.json").read_text()) == json.loads(
            capsys.readouterr().out)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert str(policy) in manifest["inputs"]


def test_cli_stability_malformed_policy_exits_2_as_fluid_does(files, tmp_path, capsys):
    # orders declared for a node the pendant lacks: exit 2 from both
    # commands; on a graph without an exact region, exit 3 comes first
    bad = {**pendant_priority_policy().order, 5: (4,)}
    ser.dump_json(ser.policy_to_obj(priority_policy(bad)), tmp_path / "bad.json")
    instance = ["--graph", str(files["pendant"]), "--rates", str(files["rates"]),
                "--policy", str(tmp_path / "bad.json")]
    assert main(["fluid", *instance, "--node", "4"]) == 2
    assert main(["stability", *instance]) == 2
    assert "unknown nodes [5]" in capsys.readouterr().err
    square = ["stability", "--graph", str(files["square"]), "--rates", str(files["rates"]),
              "--policy", str(tmp_path / "bad.json")]
    assert main(square) == 3


# Every subcommand that reads instance files, with the files it is given
# (by fixture key) and its other options.
_FILE_RUNS = {
    "analyze": (("pendant",), []),
    "ncond": (("pendant", "rates"), []),
    "fluid": (("pendant", "rates", "policy"), ["--node", "4"]),
    "simulate": (("pendant", "rates", "policy"), ["--seed", "1", "--horizon", "1"]),
    "stability": (("pendant", "rates"), []),
    "stability-policy": (("pendant", "rates", "policy"), []),
    "construct-nonmaximal": (("g5",), []),
    "randgraph": (("pendant", "rates", "policy"), ["--seed", "1", "--n", "50"]),
}


@pytest.mark.parametrize("run", sorted(_FILE_RUNS))
def test_cli_manifest_lists_exactly_the_files_given(files, monkeypatch, run):
    files["g5"] = files["dir"] / "g5.json"
    g5 = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    ser.dump_json(ser.graph_to_obj(g5), files["g5"])
    keys, extra = _FILE_RUNS[run]
    given = [str(files[key]) for key in keys]
    # the options come policy first; the files are read, and listed, in
    # the order graph, rates, policy
    options = [[f"--{kind}", path] for kind, path in zip(("graph", "rates", "policy"), given)]
    argv = [run.removesuffix("-policy")] + [a for o in reversed(options) for a in o] + extra
    listed, manifest = [], ser.manifest

    def listing_manifest(command, argv, inputs, **kwargs):
        listed.append(list(inputs))
        return manifest(command, argv, inputs, **kwargs)

    monkeypatch.setattr(ser, "manifest", listing_manifest)
    out = files["dir"] / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert listed == [given]
    written = json.loads((out / "manifest.json").read_text())["inputs"]
    assert written == {path: ser.sha256_file(path) for path in given}


def test_cli_construct_not_applicable_exit_3(files, tmp_path):
    ser.dump_json(
        ser.graph_to_obj(Graph(3, [(1, 2), (2, 3), (1, 3)])),
        tmp_path / "k3.json",
    )
    assert main(["construct-nonmaximal", "--graph", str(tmp_path / "k3.json")]) == 3


def test_cli_construct_emits_instance(files, capsys, tmp_path):
    g = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    ser.dump_json(ser.graph_to_obj(g), tmp_path / "g5.json")
    assert main(["construct-nonmaximal", "--graph", str(tmp_path / "g5.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["node"] == 4


def test_cli_randgraph(files, capsys):
    out_dir = files["dir"] / "rg"
    rc = main([
        "randgraph", "--graph", str(files["pendant"]), "--rates", str(files["rates"]),
        "--policy", str(files["policy"]), "--n", "2000", "--seed", "4",
        "--out", str(out_dir), "--matching-out",
    ])
    assert rc == 0
    summary = json.loads((out_dir / "randgraph.json").read_text())
    assert summary["n"] == 2000
    assert summary["matched_count"] == 2000 - sum(summary["unmatched_by_type"])
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "matching.json").exists()


def test_cli_stability_csv_table(files, capsys):
    rc = main(["stability", "--graph", str(files["pendant"]),
               "--rates", str(files["rates"]), "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,lhs,rhs,satisfied,margin"
    assert any(row.startswith("pendant:tail<alpha*hub") for row in lines)
    assert lines[-1].startswith("verdict,unstable-exact")


def test_cli_ncond_csv(files, capsys):
    rc = main(["ncond", "--graph", str(files["pendant"]),
               "--rates", str(files["rates"]), "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "key,value"
    # scalars are written as the JSON report writes them
    assert "satisfied,true" in lines
    assert "witness,null" in lines


def _csv_reports(argv):
    """Run `matchq argv` in a fresh directory holding the golden instance
    files; yield (where, text) for stdout and every CSV file it wrote."""
    from test_golden import CLI_FILES

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, obj in CLI_FILES.items():
                Path(name).write_text(json.dumps(obj))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            yield "stdout", out.getvalue()
            for path in sorted(Path().rglob("*.csv")):
                yield str(path), path.read_text()
        finally:
            os.chdir(cwd)


def _golden_csv_runs():
    from test_golden import CLI_EXTRA, CLI_RUNS

    for name, argv in {**CLI_RUNS, **CLI_EXTRA}.items():
        yield pytest.param(argv + ["--format", "csv"], id=name)
        yield pytest.param(argv + ["--format", "csv", "--out", "out"], id=f"{name}-out")


@pytest.mark.parametrize("argv", _golden_csv_runs())
def test_every_csv_report_parses_to_full_rows(argv):
    # JSON cells hold commas (lists, dicts, names such as ncond:{1,4}), so
    # they must be quoted; the empirical evidence must not be dropped
    seen = 0
    for where, text in _csv_reports(argv):
        if where == "stdout" and "--out" in argv:
            assert text == ""
            continue
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(row) == len(rows[0]) for row in rows), where
        for cell in (c for row in rows for c in row if c[:1] in ("[", "{")):
            json.loads(cell)
        seen += 1
        if "--empirical" in argv:
            evidence = {row[0]: row[1] for row in rows}["evidence"]
            assert json.loads(evidence)["events_used"] > 0
    assert seen


def test_verdict_json_handles_empirical_evidence():
    from matchq.graphs import complete_graph
    from matchq.stability import ClassifyBudget, empirical_classify

    verdict = empirical_classify(
        complete_graph(3),
        (1.0, 1.0, 1.0),
        ml_policy(),
        ClassifyBudget(seeds=2, scales=(100, 300), horizon=3.0),
        nodes=[1],
    )
    obj = ser.verdict_to_obj(verdict)
    text = json.dumps(obj)  # must be strict JSON even with inf hit times
    back = json.loads(text)
    assert back["verdict"] == verdict.verdict
    assert "nodes" in back["evidence"]


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--graph", str(bad)]) == 2


def test_cli_invalid_graph_exit_2(tmp_path):
    ser.dump_json({"nodes": 2, "edges": [[1, 1]]}, tmp_path / "loop.json")
    assert main(["analyze", "--graph", str(tmp_path / "loop.json")]) == 2


_INPUTS = {
    "pendant.json": ser.graph_to_obj(pendant_graph()),
    "rates.json": {"rates": [0.1, 0.1, 0.45, 0.35]},
    "policy.json": ser.policy_to_obj(pendant_priority_policy()),
}
_INSTANCE_ARGS = ["--graph", "pendant.json", "--rates", "rates.json", "--policy", "policy.json"]
# A usage error inside a subcommand, then two runs that write files.
_SEQUENCE = [
    ["simulate", "--graph", "pendant.json", "--seed", "3"],
    ["simulate"] + _INSTANCE_ARGS + ["--seed", "7", "--horizon", "1", "--scale", "200",
                                     "--init-node", "4", "--node", "4", "--out", "sim"],
    ["randgraph"] + _INSTANCE_ARGS + ["--seed", "4", "--n", "3000", "--out", "rg",
                                      "--matching-out"],
]


def _written(root):
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file() and f.name not in _INPUTS}


def _workdir(path):
    path.mkdir()
    for name, obj in _INPUTS.items():
        (path / name).write_text(json.dumps(obj))
    return path


def _alone(argv, cwd):
    """(exit code, stdout, stderr, files) of `matchq argv` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(matchq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from matchq.cli import main; sys.exit(main())"]
        + argv, cwd=cwd, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr, _written(cwd)


def test_cli_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cli_calls_in_one_process_match_calls_made_alone(tmp_path, monkeypatch):
    together = _workdir(tmp_path / "together")
    monkeypatch.chdir(together)
    codes, files_alone = [], {}
    for k, argv in enumerate(_SEQUENCE):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        alone = _alone(argv, _workdir(tmp_path / f"alone{k}"))
        assert (code, out.getvalue(), err.getvalue()) == alone[:3]
        codes.append(code)
        files_alone.update(alone[3])
    assert codes == [2, 0, 0]
    assert _written(together) == files_alone
    assert "rg/matching.json" in files_alone
