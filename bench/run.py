"""matchq benchmark command.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a matchq checkout. NAME is paths, verdict, certify,
structure, or all. Each workload runs in fresh interpreters: several
start only to import matchq and build the inputs (their median is
`setup_s`), then one runs the workload's rounds and checks the outputs.
The last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end figures; with --trace 1 they are the per-layer figures from a
traced run and the tracing overhead. End-to-end times are scaled to a
reference machine speed by probes taken during the run (see speed.py).
Full results, with the unscaled times, and the span records go to
bench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("paths", "verdict", "certify", "structure")
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(args, env, timeout):
    """Run bench/worker.py and return its JSON; raise on any failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + args,
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args[:4])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    # A fixed string-hash seed keeps dictionary layouts, and so their
    # speed, the same in every worker.
    env["PYTHONHASHSEED"] = "0"
    common = ["--workload", name, "--seed", str(seed)]
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setups = []
        unscaled = []
        for k in range(SETUP_PROBES):
            probe = workdir / f"setup{k}"
            probe.mkdir()
            res = _worker(common + ["--workdir", str(probe), "--setup-only"], env,
                          deadline - time.monotonic())
            setups.append(res["setup_s"])
            unscaled.append(res["setup_unscaled_s"])
        run_dir = workdir / "run"
        run_dir.mkdir()
        spans = OUT / f"spans-{name}-seed{seed}.json"
        res = _worker(common + ["--seconds", str(seconds), "--trace", str(trace),
                                "--workdir", str(run_dir), "--spans", str(spans)],
                      env, deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    unscaled.append(res["setup_unscaled_s"])
    res["setup_runs_s"] = setups
    res["setup_runs_unscaled_s"] = unscaled
    if not trace:
        res["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    with open(OUT / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "matchq" / "__init__.py").is_file():
        sys.exit(f"error: no matchq sources at {ROOT / 'src' / 'matchq'}; "
                 "run from the root of a matchq checkout")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        if args.workload == "all":
            # each workload gets the usual time limit of one run
            deadline = time.monotonic() + DEADLINE_S
        res = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        results[name] = res
        if args.workload == "all":
            print(json.dumps({"workload": name, "correct": res["correct"],
                              "attempted": res["attempted"], "failed": res["failed"],
                              "metrics": res["metrics"]}))
        if res["reason"]:
            sys.stderr.write(f"{name}: check failed\n{res['reason']}")
        for failure in res["failures"]:
            sys.stderr.write(f"{name}: failed operation {failure}\n")
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
