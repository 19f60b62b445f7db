#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, golden-checked results.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 30 --trace 0

Run from the checkout root. Builds perfbench/ (the simulator libraries plus
the perfbench program) into .bench_build, then:

  --trace 0  runs fresh processes one after another until --seconds are
             spent, at least MIN_PROCESSES of them. Each times a cold first
             pass from main() (setup_s), then warm passes for
             PROCESS_WINDOW_S. Prints setup_s, pass_mid_s, pass_s,
             best_pass_s, peak_rss_mb and fail_frac with units, then one
             JSON line whose metrics are the end-to-end metrics of
             BENCHMARK.json.
  --trace 1  runs one traced process and prints the per-layer metrics.

Every op result is checked against its golden, its pinned digest and its
previous pass; see perfbench/README.md. The last line of stdout is always
the JSON result; build and progress output goes to stderr. Exit status is
non-zero, with no result line, when the build or every process fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("train_paper", "fleet_serve", "search")
# Each process gets its own randomized address-space layout, which moves a
# process's pass time by a few percent as a whole. Several short processes
# sample several layouts; one long process would not.
MIN_PROCESSES = 2
PROCESS_WINDOW_S = 2.0
BUILD_JOBS = 2
# Every run must finish within 180 s; leave room for interpreter start-up.
RUN_DEADLINE_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench target; True on success."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                    + generator)
    cmds.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                 "-j", str(BUILD_JOBS)])
    for cmd in cmds:
        # Build output goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_child(mode, args, seconds, deadline, extra=()):
    """Runs one perfbench process; returns its JSON object or None."""
    cmd = [BINARY, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--root", ROOT] + list(extra)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        log("perfbench: out of time before " + mode + " process")
        return None
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s process timed out" % mode)
        return None
    if proc.returncode != 0:
        log("perfbench: %s process exited with %d" % (mode, proc.returncode))
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        log("perfbench: unreadable output from %s process" % mode)
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, deadline):
    children = []
    crashed = 0
    start = time.monotonic()
    last_s = 0.0
    # Start another process only if half of the last one still fits, so a
    # run ends close to --seconds even when one process takes 15 s.
    while (len(children) + crashed < MIN_PROCESSES
           or time.monotonic() - start + last_s / 2 < args.seconds):
        began = time.monotonic()
        out = run_child("run", args, PROCESS_WINDOW_S, deadline)
        last_s = time.monotonic() - began
        if out is None:
            crashed += 1
        else:
            children.append(out)
    if not children:
        return None
    setups = [c["setup_s"] for c in children]
    passes = [p for c in children for p in c["pass_s"]]
    rss = [c["peak_rss_mb"] for c in children]
    # A crashed or hung process counts as one failed op.
    attempted = sum(int(c["attempted"]) for c in children) + crashed
    failed = sum(int(c["failed"]) for c in children) + crashed
    for c in children:
        for f in c["failures"][:20]:
            log("FAILED " + f)

    op_ms = {}
    for c in children:
        for name, samples in c["op_ms"].items():
            op_ms.setdefault(name, []).extend(samples)
    # Every op is deterministic, so repeats of it do the same work and the
    # host can only add time (other tenants contending for CPU caches).
    best_pass_s = sum(min(samples) for samples in op_ms.values()) / 1000.0
    setup_s = statistics.median(setups)
    pass_s = statistics.median(passes)
    # The gated pass time. When cache contention comes and goes within a
    # run, the median moves with its share of the run and the best pass
    # does not; when a whole run is contended or quiet, the best pass moves
    # more than the median. Their midpoint hedges between the two;
    # perfbench/README.md has the spreads of all three.
    pass_mid_s = (pass_s + best_pass_s) / 2
    q1, q3 = quartiles(passes)
    rss_mb = statistics.median(rss)
    fail_frac = failed / attempted
    print("perfbench %s seed=%d: %d process(es), %d op runs, %d failed"
          % (args.workload, args.seed, len(children), attempted, failed))
    print("  setup_s      %10.4f s      lower is better; median of %d cold "
          "starts %s" % (setup_s, len(setups),
                         ["%.4f" % s for s in setups]))
    print("  pass_mid_s   %10.4f s      lower is better; midpoint of pass_s "
          "and best_pass_s" % pass_mid_s)
    print("  pass_s       %10.4f s      lower is better; median of %d warm "
          "passes, q1 %.4f q3 %.4f" % (pass_s, len(passes), q1, q3))
    print("  best_pass_s  %10.4f s      lower is better; sum over %d ops of "
          "each op's fastest of %d warm runs" % (best_pass_s, len(op_ms),
                                                 len(passes)))
    print("  peak_rss_mb  %10.2f MB     lower is better; median of %d "
          "processes" % (rss_mb, len(rss)))
    print("  fail_frac    %10.4f ratio  lower is better; %d of %d op runs"
          % (fail_frac, failed, attempted))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "pass_mid_s": metric(pass_mid_s, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "ok_frac": metric(1.0 - fail_frac, "ratio"),
        },
    }


def traced(args, deadline):
    trace_file = os.path.join(BUILD_DIR, "trace-%s.json" % args.workload)
    out = run_child("trace", args, args.seconds, deadline,
                    ["--trace-out", trace_file])
    if out is None:
        return None
    for f in out["failures"][:40]:
        log("FAILED " + f)
    print("perfbench %s seed=%d traced: %d checks, %d failed; spans in %s"
          % (args.workload, args.seed, out["attempted"], out["failed"],
             os.path.relpath(trace_file, ROOT)))
    print("  %-44s %18.6f ms (cold pass, op spans minus nn.build spans)"
          % ("runner self time", out["self_ms_runner_cold"]))
    for name, m in out["metrics"].items():
        if name.startswith("runner.op_ms.") and m["value"] == 0:
            continue  # op not in this workload
        print("  %-44s %18.6f %s" % (name, m["value"], m["unit"]))
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not build():
        return 1
    deadline = time.monotonic() + RUN_DEADLINE_S
    result = traced(args, deadline) if args.trace else untraced(args, deadline)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
