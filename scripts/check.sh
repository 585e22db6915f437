#!/usr/bin/env bash
# Full local CI: the tier-1 build (warnings are errors) + test suite
# (which includes the scenario-manifest, svc and AArch64 smoke tests
# and the Table-1 exact-match gate); the benchmark's self-test, whose
# helper tests link only perfbench's harness and daemon client,
# followed by a build of the perfbench binary and the ctamemd it
# drives, so every workload and probe compiles against src/ and a
# library API change that breaks the benchmark fails here; and the
# sanitizer-instrumented suites behind their ctest labels (nearly
# every suite runs under ubsan and asan; tsan covers the thread-pool,
# campaign and service suites).
# Host time is measured only by perfbench (perfbench/run.py).
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # tier-1 + perfbench self-test and build only
#
# Build trees: build/ (tier-1), build-tsan/, build-ubsan/, build-asan/.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

jobs=$(nproc 2>/dev/null || echo 4)

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1: configure + build (warnings are errors)"
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build -j "$jobs"

step "tier-1: ctest"
(cd build && ctest --output-on-failure -j "$jobs")

step "perfbench self-test (builds its helper tests against src/ into .bench_build/)"
python3 perfbench/run.py --self-test

step "perfbench: build the benchmark binary and ctamemd in .bench_build/"
cmake --build .bench_build -j "$jobs" --target perfbench ctamemd

if [[ "$fast" == 1 ]]; then
    step "done (--fast: sanitizer suites skipped)"
    exit 0
fi

step "tsan: thread-pool / campaign / service suites"
cmake -B build-tsan -S . -DCTAMEM_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"
(cd build-tsan && ctest --output-on-failure -L tsan -j "$jobs")

step "ubsan: nearly every suite and the self-checking benches"
cmake -B build-ubsan -S . -DCTAMEM_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$jobs"
(cd build-ubsan && ctest --output-on-failure -L ubsan -j "$jobs")

step "asan: nearly every suite"
cmake -B build-asan -S . -DCTAMEM_SANITIZE=address >/dev/null
cmake --build build-asan -j "$jobs"
(cd build-asan && ctest --output-on-failure -L asan -j "$jobs")

step "all checks passed"
