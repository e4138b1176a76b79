"""posetval benchmark: four closed-loop workloads, checked op by op.

    python3 perfbench/run.py                       # self-test, then every
                                                   # workload, untraced and
                                                   # traced, one process each
    python3 perfbench/run.py --workload decide --seed 3 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
One caller, one thread: each operation starts when the previous one ends.
Operations come from `--seed` only. The loop runs whole rounds of the
workload's operation list (at least MIN_OPS long) until `--seconds` of
operation time have passed and at least MIN_ROUNDS rounds have run;
`--seconds` defaults to `run_seconds` in BENCHMARK.json. Every
timing is scaled to a reference host speed (`common.Calibration`). Each
operation's output is checked, outside the timed region, the first time
it runs (see the workload files and `oracle.py`); a repeat must give the
same fingerprint.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates rounds
with the library's layers wrapped (`spans.py`) and rounds without, until
the two together reach `--seconds` of operation time, and prints the
per-layer metrics of the traced rounds and the tracing overhead, traced
minus untraced time per operation. The last line of stdout is one JSON
object; results also go to `.bench_out/`.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ["decide", "represent", "converge", "cli"]
SETUPS = 5        # set-up is repeated and its median reported
MIN_ROUNDS = 2    # every operation is timed at least twice
MIN_OPS = 100     # operations per round, so ten lie beyond the 90th percentile

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def import_library():
    src = ROOT / "src"
    if not (src / "posetval" / "__init__.py").is_file():
        sys.exit("error: no posetval package under %s; run the benchmark "
                 "from the root of a posetval checkout" % src)
    sys.path.insert(0, str(src))
    import posetval
    if Path(posetval.__file__).resolve().parent != src / "posetval":
        sys.exit("error: imported posetval from %s, not from %s"
                 % (posetval.__file__, src))


class Checker:
    """Checks each operation's first output; later ones by fingerprint."""

    def __init__(self):
        self.fingerprints = {}
        self.wrong = 0

    def __call__(self, i, op, out):
        from oracle import Mismatch
        try:
            if i not in self.fingerprints:
                self.fingerprints[i] = op.check(out)
            elif op.fingerprint(out) != self.fingerprints[i]:
                raise Mismatch("%s gave a different result on a repeat"
                               % op.kind)
        except Exception as exc:   # a malformed output is a wrong one too
            self.wrong += 1
            if self.wrong <= 5:
                print("WRONG %s #%d: %s" % (op.kind, i, exc), file=sys.stderr)


def run_pass(ops, seconds, min_rounds, checker, tracer=None):
    """Whole rounds until `seconds` of operation time and `min_rounds`.

    Returns the timings of the operations that completed, by operation,
    scaled to the reference host speed (see `common.Calibration`), the
    number of operations that raised and their scaled time, and the
    unscaled total of all.
    """
    from common import Calibration, clock
    gc.collect()
    calibration = Calibration()
    timings = [[] for _ in ops]
    failed, lost, done, raw = 0, 0.0, 0, 0.0
    while raw < seconds or done < min_rounds:
        for i, op in enumerate(ops):
            calibration.refresh()
            if tracer:
                tracer.active = True
            t0 = clock()
            try:
                out = op.run()
                ran = True
            except Exception:   # a failed operation is counted, not fatal
                ran = False
                failed += 1
                if failed == 1:
                    traceback.print_exc()
            dt = clock() - t0
            if tracer:
                tracer.active = False
            raw += dt
            if ran:
                timings[i].append(calibration.scale(dt))
                checker(i, op, out)
            else:
                lost += calibration.scale(dt)
        done += 1
    return timings, failed, lost, raw


def _reset(counters):
    for k in counters:
        counters[k] = 0


def end_to_end(inputs, setup_times, args, checker):
    timings, failed, lost, raw = run_pass(inputs.ops, args.seconds,
                                          MIN_ROUNDS, checker)
    lat = [x for t in timings for x in t]
    if len(lat) < 2:
        sys.exit("error: %d of %d operations failed"
                 % (failed, failed + len(lat)))
    metrics = {
        "ops_per_s": len(lat) / (sum(lat) + lost),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": statistics.median(setup_times),
    }
    metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    detail = {"raw_s": raw, "timings": [[op.kind] + t for op, t in
                                        zip(inputs.ops, timings)]}
    return len(lat) + failed, failed, metrics, detail


def per_layer(inputs, setup_tracer, args, checker):
    """Traced and untraced rounds in turn, until `seconds` in all.

    Per-layer figures are per completed traced operation; the overhead
    compares completed operations of the two kinds of round.
    """
    from spans import Tracer
    tracer = Tracer()
    timings, reference = [[] for _ in inputs.ops], [[] for _ in inputs.ops]
    counters = {k: 0 for k in inputs.counters}     # traced rounds only
    draws, draw_s = 0, 0.0                         # untraced rounds only
    attempted, failed, raw_s = 0, 0, 0.0
    while raw_s < args.seconds or not attempted:
        tracer.install()
        try:
            times, f, _, raw = run_pass(inputs.ops, 0, 1, checker, tracer)
        finally:
            tracer.uninstall()
        attempted += len(inputs.ops)
        failed += f
        raw_s += raw
        for k, v in inputs.counters.items():
            counters[k] += v
        _reset(inputs.counters)
        untimes, f, _, raw = run_pass(inputs.ops, 0, 1, checker)
        attempted += len(inputs.ops)
        failed += f
        raw_s += raw
        draws += inputs.counters.get("draws", 0)
        draw_s += inputs.counters.get("draw_s", 0.0)
        _reset(inputs.counters)
        for acc, new in ((timings, times), (reference, untimes)):
            for t, x in zip(acc, new):
                t.extend(x)
    n = sum(len(t) for t in timings)
    if not n or not sum(len(t) for t in reference):
        sys.exit("error: %d of %d operations failed" % (failed, attempted))
    traced_op = sum(map(sum, timings)) / n
    untraced_op = sum(map(sum, reference)) / sum(len(t) for t in reference)

    t = tracer
    s = lambda *names: t.self_s(*names) / n            # noqa: E731
    c = lambda *names: t.calls(*names) / n             # noqa: E731
    metrics = {
        "dyadic.made": (c("dyadic.Dyadic.__post_init__"), "count"),
        "dyadic.canon_s": (s("dyadic.Dyadic.__post_init__"), "s"),
        "poset.build_s": (s("poset.Poset.__init__", "poset.parse_poset"), "s"),
        "poset.setup_build_s": (setup_tracer.self_s(
            "poset.Poset.__init__", "poset.parse_poset"), "s"),
        "poset.upper_sets": (t.items("poset.Poset.enumerate_upper_sets") / n,
                             "count"),
        "poset.enumerate_s": (s("poset.Poset.enumerate_upper_sets"), "s"),
        "poset.classify_s": (s("poset.Poset.classify"), "s"),
        "flow.solves": (c("flow.max_flow", "flow.min_cut"), "count"),
        "flow.nodes": (t.items("flow.max_flow", "flow.min_cut") / n, "count"),
        "flow.edges": ((t.stat("flow.max_flow").edges
                        + t.stat("flow.min_cut").edges) / n, "count"),
        "flow.self_s": (t.module_self_s("flow") / n, "s"),
        "valuation.leq_s": (s("valuation.leq"), "s"),
        "valuation.leq_witness_s": (s("valuation.leq_witness"), "s"),
        "valuation.transport_plan_s": (s("valuation.transport_plan"), "s"),
        "valuation.way_below_s": (s("valuation.way_below"), "s"),
        "valuation.way_below_calls": (c("valuation.way_below"), "count"),
        "valuation.portmanteau_s": (s("valuation.portmanteau_check"), "s"),
        "cantor.level_words": (t.items("cantor.level") / n, "count"),
        "cantor.pushforward_counting_s": (s("cantor.pushforward_counting"),
                                          "s"),
        "cantor.unit_to_word_calls": (c("cantor.unit_to_word"), "count"),
        "skorohod.build_schedule_s": (s("skorohod.build_schedule"), "s"),
        "skorohod.lift_steps": (c("skorohod.lift_step"), "count"),
        "skorohod.lift_step_s": (s("skorohod.lift_step"), "s"),
        "skorohod.represent_s": (s("skorohod.represent"), "s"),
        "skorohod.sample_s": (s("skorohod.sample"), "s"),
        "skorohod.draws_per_s": (draws / draw_s if draws else 0.0, "1/s"),
        "skorohod.convergence_check_s": (s("skorohod.convergence_check"), "s"),
        "skorohod.words_checked": (t.items("skorohod.convergence_check") / n,
                                   "count"),
        "skorohod.format_map_s": (s("skorohod.format_map"), "s"),
        "pipeline.skorohod_s": (s("pipeline.skorohod"), "s"),
        "pipeline.skorohod_sequence_s": (s("pipeline.skorohod_sequence"), "s"),
        "pipeline.law_on_grid_s": (s("pipeline.SkorohodWitness.law_on_grid"),
                                   "s"),
        "pipeline.driver_calls": (c("pipeline.SkorohodWitness.driver"),
                                  "count"),
        "chain.cdf_s": (s("chain.cdf"), "s"),
        "chain.lower_adjoint_s": (s("chain.lower_adjoint"), "s"),
        "chain.pushforward_lebesgue_s": (s("chain.pushforward_lebesgue"), "s"),
        "chain.parse_quantile_s": (s("chain.parse_quantile"), "s"),
        "cli.main_s": (s("cli.main"), "s"),
        "cli.parse_s": (s("cli._build_parser", "cli.parse_args"), "s"),
        "cli.stdout_bytes": (counters.get("stdout_bytes", 0) / n, "count"),
        "trace.overhead_ms": ((traced_op - untraced_op) * 1e3, "ms"),
        "trace.overhead_pct": (100 * (traced_op / untraced_op - 1), "%"),
    }
    spans = {name: {"calls": st.calls, "self_s": st.self_ns / 1e9,
                    "total_s": st.total_ns / 1e9}
             for name, st in sorted(tracer.stats.items()) if st.calls}
    return attempted, failed, metrics, spans


def run_workload(args):
    import_library()
    from common import Calibration
    from spans import Tracer
    module = __import__("wl_" + args.workload)
    workdir = OUT / ("work-%d" % os.getpid())
    try:
        setup_times = []
        setup_tracer = Tracer()
        calibration = Calibration()
        for k in range(SETUPS):
            gc.collect()
            calibration.refresh(force=True)
            if args.trace and k == SETUPS - 1:
                # the last set-up runs traced, for poset.setup_build_s
                setup_tracer.install()
                setup_tracer.active = True
            try:
                inputs = module.setup(args.seed, str(workdir))
            finally:
                setup_tracer.active = False
                setup_tracer.uninstall()
            setup_times.append(calibration.scale(inputs.program_s))
        if len(inputs.ops) < MIN_OPS:
            sys.exit("error: %s has %d operations a round, fewer than %d"
                     % (args.workload, len(inputs.ops), MIN_OPS))
        _reset(inputs.counters)
        checker = Checker()
        detail = None
        if args.trace:
            attempted, failed, metrics, detail = per_layer(
                inputs, setup_tracer, args, checker)
        else:
            attempted, failed, metrics, detail = end_to_end(
                inputs, setup_times, args, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print("%-32s %14.6f %s" % (name, value, unit))
    print("attempted %d failed %d wrong %d" % (attempted, failed,
                                               checker.wrong))
    result = {"correct": checker.wrong == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, detail=detail)
    path = OUT / ("BENCH_%s_seed%d_trace%d.json"
                  % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Self-test, then each workload in its own process, untraced first."""
    import_library()
    me = [sys.executable, str(Path(__file__).resolve())]
    status = subprocess.run([sys.executable, str(HERE / "selftest.py")],
                            cwd=ROOT).returncode
    combined = {"correct": status == 0, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print("== %s, %s" % (workload, "traced" if trace else "untraced"),
                  flush=True)
            proc = subprocess.run(
                me + ["--workload", workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1]) if lines else {"correct": False}
            combined["correct"] &= result["correct"] and proc.returncode == 0
            if not trace:
                combined["attempted"] += result.get("attempted", 0)
                combined["failed"] += result.get("failed", 0)
            for k, v in result.get("metrics", {}).items():
                combined["metrics"]["%s.%s" % (workload, k)] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="operation time a run measures; default: "
                    "run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
