#!/usr/bin/env bash
# Tier-1 gate plus sanitizer passes over the algebra kernels and the server.
#
#   scripts/check.sh            # build + full ctest + ASan + TSan + UBSan
#   scripts/check.sh --fast     # skip the sanitizer builds
#
# The first stage is exactly the tier-1 contract from ROADMAP.md: configure,
# build, and run the whole test suite. Then every bench binary runs once in
# smoke mode (tiny inputs, one repetition) so the perf trajectory cannot
# silently rot, and the servebench harness (servebench/, a separate CMake
# package compiled against src/) builds and runs its own unit tests, so a
# src/ change that breaks the serving benchmark fails here. The sanitizer
# stages rebuild with -DXFRAG_SANITIZE=address in
# a separate build dir and run the algebra, query (top-k engine path), and
# concurrency suites (plus everything labelled `parallel` — ThreadPool::Post,
# the FixedPointCache hammer, and the serial DAG and
# prefilter equivalence suites — and `storage`, the mmap snapshot
# corruption/fuzz suites) under ASan — the kernels that do manual
# arena/buffer/mmap work — then rebuild with
# -DXFRAG_SANITIZE=thread and run everything labelled `server` (the xfragd
# loopback integration suite, the /admin/reload epoch-swap suite, and the
# /query_batch byte-identity suite included), `router` (the scatter-gather
# tier with its hedging, cancellation, and batch-scatter paths), and
# `parallel` (ThreadPool::Post and the FixedPointCache hammer) under TSan,
# since those are the places worker threads share an engine, a pool, or
# caches. Finally -DXFRAG_SANITIZE=undefined runs the
# `server`, `router`, `storage` and `lang` labels plus algebra_test and
# query_test with halt_on_error, so any undefined behaviour (overflowing
# casts, misaligned mmap reads, bad shifts) fails the stage instead of only
# printing. The batch suites ride these stages:
# server/batch_equivalence_test under `-L server` and
# router/router_batch_test under `-L router` — in tier-1 and again under
# TSan and UBSan. The XQL language suite (`-L lang`: parser round-trip,
# lowering 1:1, the mutation/token-soup fuzz corpus, the JSON↔XQL
# byte-identity property suite, and the REPL golden-transcript smoke)
# runs in tier-1 and again under ASan, where the fuzz corpus must be
# clean — a parser that walks one byte past a malformed query dies here.
# The deterministic work-counter gate, query/work_counter_gate_test (exact
# pairs_considered / pairs_rejected_summary / pairs_examined totals for a
# fixed size<=3..6 query list, and pairs_examined <= pairs_considered / 10)
# and its collection-level sibling, query/collection_work_counter_gate_test
# (joins, pairs, document counts and answer bytes through QueryService),
# ride query_test, and the root-window soundness suite,
# algebra/root_window_test, rides algebra_test: both run in tier-1 and again
# under ASan and UBSan.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== tier-1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== server: ctest -L server (tier-1 build) =="
(cd build && ctest -L server --output-on-failure -j "$JOBS")

echo "== storage: ctest -L storage (tier-1 build) =="
(cd build && ctest -L storage --output-on-failure -j "$JOBS")

echo "== flake: ctest -L 'storage|server|router' -j8 --repeat until-fail:5 =="
# Tests that touch files, sockets or worker threads must pass every time
# under a wide ctest -j, not only when run serially: each case runs as its
# own process, five times over, eight at a time. The router suites bind
# loopback ports and run in-process shards, so they belong here too.
(cd build && ctest -L 'storage|server|router' --output-on-failure -j 8 \
  --repeat until-fail:5)

echo "== router: ctest -L router (tier-1 build) =="
(cd build && ctest -L router --output-on-failure -j "$JOBS")

echo "== lang: ctest -L lang (tier-1 build) =="
(cd build && ctest -L lang --output-on-failure -j "$JOBS")

echo "== bench: smoke run (XFRAG_BENCH_SMOKE=1) =="
# Every bench binary runs end-to-end on tiny inputs so a broken bench fails
# CI, not the next full perf run. Outputs land in build/bench-smoke, never in
# the repo-root BENCH_*.json trajectory files (those come from full runs,
# which resolve bare filenames to the repo root via BenchOutputPath).
mkdir -p build/bench-smoke
for bench in build/bench/bench_*; do
  [[ -x "$bench" ]] || continue
  echo "-- $(basename "$bench")"
  XFRAG_BENCH_SMOKE=1 XFRAG_BENCH_DIR="$PWD/build/bench-smoke" "$bench" \
    > /dev/null
done

echo "== servebench: build + harness self-test =="
# Builds into build/servebench (run.py reads CARGO_TARGET_DIR), next to the
# tier-1 build and ignored by git.
CARGO_TARGET_DIR=build python3 servebench/run.py --self-test

if [[ "$FAST" == 1 ]]; then
  echo "== skipping sanitizer stages (--fast) =="
  exit 0
fi

echo "== asan: build algebra + query + parallel + storage + lang suites =="
cmake -B build-asan -S . -DXFRAG_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" --target algebra_test query_test \
  parallel_test storage_test lang_test xfrag_repl

echo "== asan: run =="
./build-asan/tests/algebra_test
./build-asan/tests/query_test
(cd build-asan && ctest -L parallel --output-on-failure -j "$JOBS")
# The storage label is the mmap snapshot surface: corruption/truncation
# fuzzing, structural-attack rejection, and zero-copy column views — exactly
# where an out-of-bounds read past a mapped section would hide.
(cd build-asan && ctest -L storage --output-on-failure -j "$JOBS")
# The lang label under ASan is the fuzz gate: truncations, byte mutations,
# token soup, and pathological nesting must never read out of bounds.
(cd build-asan && ctest -L lang --output-on-failure -j "$JOBS")

echo "== tsan: build server + router + parallel suites =="
cmake -B build-tsan -S . -DXFRAG_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target server_test router_test \
  parallel_test xfrag_repl

echo "== tsan: run =="
(cd build-tsan && ctest -L server --output-on-failure -j "$JOBS")
(cd build-tsan && ctest -L router --output-on-failure -j "$JOBS")
# The `parallel` label under TSan: ThreadPool::Post (many posting threads,
# drain at destruction) and the FixedPointCache hammer must be
# data-race-free.
(cd build-tsan && ctest -L parallel --output-on-failure -j "$JOBS")

echo "== ubsan: build server + router + storage + lang + algebra + query =="
cmake -B build-ubsan -S . -DXFRAG_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$JOBS" --target server_test router_test \
  storage_test lang_test algebra_test query_test xfrag_repl

echo "== ubsan: run =="
# Without halt_on_error UBSan only prints its report and the test passes.
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
(cd build-ubsan && ctest -L 'server|router|storage|lang' --output-on-failure \
  -j "$JOBS")
./build-ubsan/tests/algebra_test
./build-ubsan/tests/query_test

echo "== check.sh: all stages passed =="
