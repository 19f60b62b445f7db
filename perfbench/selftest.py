#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py [--workloads train_paper,fleet_serve,search]

Run from the checkout root; builds perfbench like run.py does. Checks:
  1. every op name resolves to a registered scenario and no op is in two
     workloads;
  2. two traced runs of each workload report identical counts, and every
     traced run is correct: each op matches its golden and pinned digest,
     sim.events matches bench/perf_baseline.json, and every probe
     reproduces the scenario keys it mirrors;
  3. a corrupted pinned digest is reported as one failed op, with a result,
     not as a crash.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

# Per-layer metrics that are deterministic: simulated counts and ratios.
# Everything else is a host time.
EXACT_UNITS = ("count", "bytes")
EXACT_RATIOS = ("hw.sm_busy_frac", "hw.link_busy_frac",
                "search.cache_hit_rate")


def perfbench(*args):
    proc = subprocess.run([run.BINARY, "--root", run.ROOT] + list(args),
                          cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    out = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, out


def check_registry():
    rc, _ = perfbench("--mode", "check-registry")
    return [] if rc == 0 else ["op names do not resolve uniquely (see stderr)"]


def check_traced_counts(workload):
    errors = []
    outs = []
    for _ in range(2):
        rc, out = perfbench("--mode", "trace", "--workload", workload,
                            "--seed", "1", "--seconds", "0.5")
        if rc != 0 or out is None:
            return ["%s: traced run exited with %d" % (workload, rc)]
        if out["failed"] != 0:
            errors.append("%s: traced run failed: %s"
                          % (workload, "; ".join(out["failures"][:5])))
        outs.append(out["metrics"])
    exact = [n for n, m in outs[0].items()
             if m["unit"] in EXACT_UNITS or n in EXACT_RATIOS]
    for name in exact:
        a, b = outs[0][name]["value"], outs[1][name]["value"]
        if a != b:
            errors.append("%s: %s differs between traced runs: %r vs %r"
                          % (workload, name, a, b))
    print("  %s: %d exact counts compared" % (workload, len(exact)))
    return errors


def check_corrupted_digest():
    workload, victim = "fleet_serve", "serve_only_resnet50"
    with open(os.path.join(run.ROOT, "perfbench", "digests.json")) as f:
        digests = json.load(f)
    pinned = digests["ops"][victim]["default"]
    digests["ops"][victim]["default"] = "%016x" % (int(pinned, 16) ^ 1)
    corrupted = os.path.join(run.BUILD_DIR, "selftest-digests.json")
    with open(corrupted, "w") as f:
        json.dump(digests, f)
    # --seconds 0: the cold pass only, so each op runs exactly once.
    rc, out = perfbench("--mode", "run", "--workload", workload,
                        "--seconds", "0", "--digests", corrupted)
    if rc != 0 or out is None:
        return ["corrupted digest crashed the run (exit %d)" % rc]
    n_ops = out["ops"]
    if out["failed"] != 1 or out["attempted"] != n_ops:
        return ["corrupted digest: expected 1 failed of %d, got %d of %d"
                % (n_ops, out["failed"], out["attempted"])]
    if not all(victim in f for f in out["failures"]):
        return ["corrupted digest blamed the wrong op: %s" % out["failures"]]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    if not run.build():
        return 1
    errors = check_registry()
    print("registry: %s" % ("ok" if not errors else "FAILED"))
    for workload in args.workloads.split(","):
        errors += check_traced_counts(workload)
    corrupted = check_corrupted_digest()
    print("corrupted digest: %s" % ("ok" if not corrupted else "FAILED"))
    errors += corrupted
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("PASS" if not errors else "FAIL"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
