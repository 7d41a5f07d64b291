#!/bin/bash
# Build with ThreadSanitizer and exercise the experiment engine's
# thread pool: the test_exp suite (pool scheduling, nested submits,
# stealing, parallel Simulators). The PDES suite runs as well -- the
# window barrier, mailbox hand-off and cross-worker error plumbing in
# src/sim/pdes are exactly the code TSan exists for -- and
# bench_e2e --quick replays the replica grid at jobs = N and the pod
# cluster at 1/2/4 workers, failing if either digest drifts from its
# sequential run. The fault-schedule explorer smoke runs its oracle
# fleet on the same thread pool, so its find -> shrink -> replay loop
# gets the TSan treatment too.
# Usage: bench/run_tsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DHOLDCSIM_TSAN=ON
cmake --build "$BUILD_DIR" -j \
    --target test_exp test_pdes test_mc bench_e2e

TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_exp
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_pdes
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_mc \
    --gtest_filter='Explorer.*:Oracle.*'
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/bench/bench_e2e --quick
