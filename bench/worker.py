"""One workload in one fresh interpreter; the benchmark command starts it.

Times set-up (importing matchq from the checkout's `src/` plus building
the workload's inputs), then runs whole rounds of the workload's
operations, checks the outputs, and prints one JSON object on stdout.

  python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
      --workdir DIR [--setup-only] [--spans FILE]

With --trace 0 every round is untraced and the end-to-end figures are
reported, each time scaled to the reference machine speed of speed.py.
With --trace 1 the first half of the time runs untraced and the second
half with spans around each layer's functions, and the per-layer figures
are reported, in unscaled wall time.
"""

import os

# Set before numpy loads so that every workload runs single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# op_tail_s is this percentile of operation times; a run repeats rounds
# until at least ten operations lie beyond it.
TAIL_PCT = 75

import checks  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402


class Round:
    """Times each operation of one round and counts the ones that raise.

    The sampler's probes (see speed.py) run during the operations; their
    time is taken out of each operation's time.
    """

    def __init__(self, sampler, tracer=None):
        self.sampler = sampler
        self.tracer = tracer
        self.labels = []
        self.times = []
        self.spans = []
        self.errors = []

    def scaled_times(self):
        """Each operation's time at the reference speed."""
        return [self.sampler.scale(t, *span) for t, span in zip(self.times, self.spans)]

    def op(self, label, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op += 1
        busy = self.sampler.busy
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            self.errors.append(f"{label}: {exc!r}")
        end = perf_counter()
        self.times.append(end - start - (self.sampler.busy - busy))
        self.spans.append((start, end))
        self.labels.append(label)
        return out


def run_rounds(wl, inputs, workdir, tag, seconds, min_rounds, sampler, tracer=None):
    """Whole rounds until another one would end after `seconds`.

    Returns the rounds and the first round's outputs and directory; the
    directories of later rounds are removed once fingerprinted.
    """
    rounds = []
    first = None
    start = perf_counter()
    while True:
        rdir = workdir / f"{tag}{len(rounds)}"
        rdir.mkdir()
        rnd = Round(sampler, tracer)
        out = wl.run_round(inputs, rnd, rdir)
        rounds.append({"wall": sum(rnd.times), "round": rnd, "labels": rnd.labels,
                       "times": rnd.times, "errors": rnd.errors,
                       "fingerprint": wl.fingerprint(out, rdir)})
        if first is None:
            first = (out, rdir)
        else:
            shutil.rmtree(rdir)
        if len(rounds) == 1 and callable(min_rounds):
            min_rounds = min_rounds(len(rnd.times))
        elapsed = perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, first


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(totals, n_rounds):
    """Per-layer figures from span totals, time per round and work per second."""

    def pick(field, names):
        return sum(totals[n][field] for n in names if n in totals)

    def incl(*names):
        return pick(1, names) / n_rounds

    def own(*names):
        return pick(2, names) / n_rounds

    def rate(*names):
        secs = pick(1, names)
        return pick(3, names) / secs if secs > 0 else 0.0

    coupled = ("simulate.coupled_nonexpansive", "simulate.coupled_nonchaotic")
    return {
        "simulate.stride1_events_per_s": (rate("cli.simulate"), "events/s"),
        "simulate.sparse_events_per_s": (rate("stability.simulate"), "events/s"),
        "simulate.coupled_events_per_s": (rate(*coupled), "events/s"),
        "simulate.self_s": (own("cli.simulate", "stability.simulate", "cli.drift_estimate",
                                *coupled), "s"),
        "randgraph.nodes_per_s": (rate("cli.grow_and_match"), "nodes/s"),
        "serialize.trace_rows_per_s": (rate("serialize.write_trace_csv"), "rows/s"),
        "serialize.trace_csv_s": (incl("serialize.write_trace_csv"), "s"),
        "serialize.growth_csv_s": (incl("serialize.write_growth_csv"), "s"),
        "serialize.json_s": (own("serialize.dump_json", "serialize.load_json",
                                 "serialize.manifest", "serialize.sha256_file"), "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "stability.empirical_self_s": (own("stability.empirical_classify"), "s"),
        "stability.drift_fit_s": (incl("stability.drift_estimate"), "s"),
        "stability.construct_s": (incl("stability.construct_nonmaximal"), "s"),
        "marginal.enumerate_s": (incl("marginal.enumerate_states"), "s"),
        "marginal.assemble_s": (own("marginal.stationary_numeric"), "s"),
        "marginal.solve_s": (incl("marginal.spsolve", "marginal.connected_components"), "s"),
        "marginal.guard_s": (own("marginal.fluid_report"), "s"),
        "marginal.states_per_s": (rate("marginal.stationary_numeric"), "states/s"),
        "graphs.independent_sets_s": (incl("graphs.independent_sets"), "s"),
        "graphs.ncond_self_s": (own("graphs.ncond_check", "stability.ncond_check"), "s"),
        "graphs.separability_s": (incl("graphs.separability"), "s"),
        "graphs.induced_search_s": (incl("graphs.find_induced_pendant",
                                         "graphs.find_induced_odd_cycle"), "s"),
        "graphs.classify_self_s": (own("graphs.classify", "stability.classify"), "s"),
    }


def measure(args, wl, inputs, workdir, sampler):
    """The run's rounds: untraced ones, then with --trace 1 traced ones."""
    checks.self_test()

    def min_rounds(ops_per_round):
        return math.ceil(10 / (ops_per_round * (1 - TAIL_PCT / 100)))

    if not args.trace:
        rounds, first = run_rounds(wl, inputs, workdir, "u", args.seconds, min_rounds, sampler)
        return rounds, [], first, None
    rounds, first = run_rounds(wl, inputs, workdir, "u", args.seconds / 2, 1, sampler)
    tracer = Tracer()
    for owner, attr, name, count in wl.TRACE:
        tracer.wrap(owner, attr, name, count)
    try:
        traced, _ = run_rounds(wl, inputs, workdir, "t", args.seconds / 2, 1, sampler, tracer)
    finally:
        tracer.restore()
    return rounds, traced, first, tracer


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)

    # The sampler runs from set-up to the last round; set-up is scaled
    # like every other time.
    sampler = speed.Sampler()
    t0 = perf_counter()
    sampler.start()
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads
        import matchq

        wl = workloads.WORKLOADS[args.workload]
        inputs = wl.build(args.seed, workdir)
        t1 = perf_counter()
        setup_unscaled_s = t1 - t0 - sampler.busy
        setup_s = sampler.scale(setup_unscaled_s, t0, t1)
        src = Path(matchq.__file__).resolve().parent
        if src != (ROOT / "src" / "matchq").resolve():
            raise SystemExit(f"matchq was imported from {src}, not from this checkout")
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_unscaled_s": setup_unscaled_s}))
            return
        rounds, traced, first, tracer = measure(args, wl, inputs, workdir, sampler)
    finally:
        sampler.stop()

    for r in rounds + traced:
        r["scaled"] = r.pop("round").scaled_times()
        r["scaled_wall"] = sum(r["scaled"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [e for r in rounds + traced for e in r["errors"]]
    attempted = sum(len(r["times"]) for r in rounds + traced)
    correct = True
    reason = None
    try:
        work = wl.check(inputs, *first)
        for r in rounds[1:] + traced:
            checks.require(r["fingerprint"] == rounds[0]["fingerprint"],
                           "a later round did not reproduce the first round's outputs")
    except Exception:  # any fault in checking makes the run incorrect
        correct = False
        reason = traceback.format_exc()
        work = 0

    walls = [r["scaled_wall"] for r in rounds]
    wall_s = statistics.median(walls)
    result = {
        "setup_s": setup_s,
        "setup_unscaled_s": setup_unscaled_s,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "reason": reason,
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0]["times"]),
        "work_per_round": work,
        # the machine's speed during the run: REF_S over the median probe time
        "speed": speed.REF_S / statistics.median(sampler.took),
        "probes": len(sampler.took),
    }
    if args.trace:
        tracer_totals = tracer.totals()
        metrics = layer_metrics(tracer_totals, len(traced))
        metrics["trace.overhead_s"] = (
            statistics.median(r["scaled_wall"] for r in traced) - wall_s, "s")
        result["traced_rounds"] = len(traced)
        result["spans"] = {k: list(v) for k, v in sorted(tracer_totals.items())}
        if args.spans:
            tracer.write(args.spans)
    else:
        # Each operation's time, at the reference speed, is its median over
        # the rounds; every run of an operation counts once toward the
        # percentiles.
        per_op = [statistics.median(ts) for ts in zip(*(r["scaled"] for r in rounds))]
        samples = per_op * len(rounds)
        metrics = {
            "wall_s": (wall_s, "s"),
            "op_p50_s": (statistics.median(samples), "s"),
            "op_tail_s": (percentile(samples, TAIL_PCT), "s"),
            "work_per_s": (work / wall_s, "items/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["round_walls"] = walls
        # the same figures from unscaled wall times, for reference
        raw_op = [statistics.median(ts) for ts in zip(*(r["times"] for r in rounds))]
        raw_wall = statistics.median(r["wall"] for r in rounds)
        result["unscaled"] = {
            "wall_s": raw_wall,
            "op_p50_s": statistics.median(raw_op),
            "op_tail_s": percentile(raw_op * len(rounds), TAIL_PCT),
            "work_per_s": work / raw_wall,
        }
        by_label = {}
        for label, t in zip(rounds[0]["labels"], per_op):
            by_label.setdefault(label, []).append(t)
        result["op_median_s"] = {k: statistics.median(v) for k, v in by_label.items()}
    if isinstance(first[0], dict) and "skipped" in first[0]:
        result["skipped_reducible"] = first[0]["skipped"]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
