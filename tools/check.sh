#!/usr/bin/env bash
# One-shot health check, eight tiers:
#   1. Release build: unit-test tier + unit-time toy scenarios vs goldens.
#   2. ASan+UBSan build (-DOOBP_SANITIZE=ON): unit-test tier under the
#      sanitizers (catches lifetime bugs in the event slab / callback moves).
#   3. Serve: serve-labeled ctest tier + the serve_* scenarios against their
#      goldens (BENCH_serve_*.json), which pin the headline serving claim —
#      ooo-backprop co-run tightens inference p99 at <= 2% training cost.
#   4. Perf smoke + regression gate: one `oobp bench --perf --check` pass
#      over the default perf set with the golden gate on — asserts the fast
#      path still produces the exact golden values AND that per-scenario
#      event counts match bench/perf_baseline.json (inflation hard-fails;
#      wall-clock bands are informational, Release builds only).
#   5. Fleet: fleet-labeled ctest tier (router/autoscaler unit batteries +
#      fleet_golden_test's --jobs byte-identity and validator replay) plus
#      the fleet_* scenarios against their goldens (BENCH_fleet_*.json),
#      which pin the fleet headline — the 64-replica ooo co-run holds
#      inference p99 flat (<= 10% growth) as load doubles while the
#      in-order baseline degrades (see DESIGN.md §10).
#   6. Fuzz smoke: validate-labeled ctest tier (all golden scenarios
#      replayed under the SimValidator) plus 200 seeds of the differential
#      fuzzer under ASan/UBSan at a fixed base seed, parallelised across
#      cores with --jobs 0 (the merged report is byte-identical to a serial
#      run, so failures still reproduce with
#      `oobp fuzz --seeds 1 --base-seed <seed>`; see DESIGN.md §8-9), and
#      another 200 ASan seeds restricted to the fleet fuzz family (random
#      fleets, metamorphic add-a-replica check, and a validated autoscaled
#      run; every second seed runs).
#   7. Threaded code under ThreadSanitizer (-DOOBP_SANITIZE_THREAD=ON):
#      the worker-pool and event-counter units (sim_test, event_heap_test),
#      search_threads_identity_test (the search portfolio on the worker
#      pool at threads 1/4/8 and the default), a `fuzz --jobs 0` smoke
#      over the fleet family, and an `oobp search --free-cache-hits
#      --threads=8` run of the parallel trajectory portfolio, all on the
#      TSan build.
#   8. Search baseline (candidates scored by the analytic Tier A):
#      search-labeled ctest tier (the 200-seed searched-schedule property
#      battery, the search_gap_* golden/byte-identity tests, the
#      analytic-evaluator bit-exactness battery, and the parallel-trajectory
#      byte-identity test at threads 1/4/8 and the default), the
#      search_gap_* scenarios replayed against their goldens,
#      search_deep_fig07, search_eval_fidelity and search_eval_perf
#      against their goldens, a perf smoke of the analytic evaluator gated
#      by the perf baseline's analytic-evals count and evals/sec floor, an
#      `oobp search` at the default worker count cmp'd against --threads=1,
#      and 200 ASan seeds of the search fuzz family (differential
#      searched-vs-heuristic under the SimValidator; per budget unit:
#      beam-monotonicity metamorphic, simulator re-score of best_time,
#      threads=3 bit-identity and zero audit error; every second seed runs
#      — see DESIGN.md §13-14).
#
# Tier matrix (tier x build):
#   tier 1, 3, 4, 5 -> Release build    (speed; golden gates are exact)
#   tier 2, 6       -> ASan+UBSan build (memory-safety of slab/fluid/fuzz paths)
#   tier 7          -> TSan build       (data races in the worker pool, the
#                      search portfolio and the fuzz/bench --jobs pools)
#   tier 8          -> Release (search goldens + gap-report replay) + ASan
#                      (search fuzz smoke)
#
# Usage: tools/check.sh [build-dir [asan-build-dir [tsan-build-dir]]]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-check}"
ASAN_DIR="${2:-${REPO_ROOT}/build-asan}"
TSAN_DIR="${3:-${REPO_ROOT}/build-tsan}"

# --- Tier 1: Release + unit tests + golden gate --------------------------
cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j"$(nproc)"

ctest --test-dir "${BUILD_DIR}" -L unit --output-on-failure

"${BUILD_DIR}/tools/oobp" bench --filter 'fig0[456]*' --jobs 0 \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# --- Tier 2: ASan + UBSan unit tests -------------------------------------
cmake -S "${REPO_ROOT}" -B "${ASAN_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOOBP_SANITIZE=ON
cmake --build "${ASAN_DIR}" -j"$(nproc)"

ctest --test-dir "${ASAN_DIR}" -L unit --output-on-failure

# --- Tier 3: serving subsystem: serve tests + serve goldens ---------------
ctest --test-dir "${BUILD_DIR}" -L serve --output-on-failure

"${BUILD_DIR}/tools/oobp" bench --filter 'serve_*' --jobs 0 \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# --- Tier 4: perf smoke with golden gate + event-count regression gate ----
"${BUILD_DIR}/tools/oobp" bench --perf --warmup 0 --repeats 1 --jobs 0 \
    --check="${REPO_ROOT}/bench/perf_baseline.json" \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# --- Tier 5: fleet: router/autoscaler/golden tests + fleet goldens --------
ctest --test-dir "${BUILD_DIR}" -L fleet --output-on-failure

"${BUILD_DIR}/tools/oobp" bench --filter 'fleet_*,cluster_*' --jobs 0 \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# --- Tier 6: fuzz smoke: validator replay + 200 seeds under ASan ----------
ctest --test-dir "${BUILD_DIR}" -L validate --output-on-failure

"${ASAN_DIR}/tools/oobp" fuzz --seeds 200 --base-seed 1 --jobs 0

"${ASAN_DIR}/tools/oobp" fuzz --seeds 200 --base-seed 1 --jobs 0 \
    --checks=fleet

# --- Tier 7: threaded code under TSan: worker pool, search, fuzz --jobs ---
cmake -S "${REPO_ROOT}" -B "${TSAN_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOOBP_SANITIZE_THREAD=ON
cmake --build "${TSAN_DIR}" -j"$(nproc)"

ctest --test-dir "${TSAN_DIR}" \
    -R '^(sim_test|event_heap_test|search_threads_identity_test)$' \
    --output-on-failure

"${TSAN_DIR}/tools/oobp" fuzz --seeds 20 --base-seed 1 --jobs 0 \
    --checks=fleet

# Parallel trajectory portfolio: more workers than trajectories exercises
# the pool's cap; the run only has to be race-free (scores are
# byte-identity-checked by search_threads_identity_test above).
"${TSAN_DIR}/tools/oobp" search --model=densenet121 --free-cache-hits \
    --beam=4 --budget=150 --seed=7 --threads=8

# --- Tier 8: search baseline: goldens + gap-report replay + fuzz smoke ----
ctest --test-dir "${BUILD_DIR}" -L search --output-on-failure

"${BUILD_DIR}/tools/oobp" bench --filter 'search_gap_*' --jobs 0 \
    --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# Deep-budget gap refresh (free cache hits), analytic-vs-simulator fidelity
# (rank corr >= 0.95, rel err <= 5%), and the eval-perf counters.
"${BUILD_DIR}/tools/oobp" bench \
    --filter 'search_deep_fig07,search_eval_fidelity,search_eval_perf' \
    --jobs 0 --out "${BUILD_DIR}" --golden "${REPO_ROOT}/bench/golden"

# Analytic-evaluator perf smoke: the deterministic eval count must match
# the baseline exactly and Release throughput must clear the evals/sec
# floor (bench/perf_baseline.json, "analytic_per_sec_floor").
"${BUILD_DIR}/tools/oobp" bench --perf --warmup 0 --repeats 1 --jobs 0 \
    --filter search_eval_perf \
    --check="${REPO_ROOT}/bench/perf_baseline.json" \
    --out "${BUILD_DIR}"

# The portfolio's default worker count (one per hardware thread) must print
# exactly what one thread prints.
"${BUILD_DIR}/tools/oobp" search --model=densenet121 --free-cache-hits \
    --beam=4 --budget=400 > "${BUILD_DIR}/search_threads_default.txt"
"${BUILD_DIR}/tools/oobp" search --model=densenet121 --free-cache-hits \
    --beam=4 --budget=400 --threads=1 > "${BUILD_DIR}/search_threads_1.txt"
cmp "${BUILD_DIR}/search_threads_default.txt" \
    "${BUILD_DIR}/search_threads_1.txt"

"${ASAN_DIR}/tools/oobp" fuzz --seeds 200 --base-seed 1 --jobs 0 \
    --checks=search

echo "check.sh: all green"
