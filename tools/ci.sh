#!/usr/bin/env bash
# CI driver: build + test the two configurations that matter.
#
#   Release        — what users run; also the perf baseline.  Built with
#                    -Werror (CFSMDIAG_WERROR), so a new warning fails CI.
#   ThreadSanitizer — shakes data races out of the parallel campaign engine
#                    (thread_pool, ordered observer emission, shared spec).
#   ASan+UBSan     — memory/UB pass over the unreliable-lab stack (flaky
#                    SUT, retrying oracle, crash-isolated engine), whose
#                    exception paths are easy to corrupt silently; also
#                    hosts the adversarial-input fuzz smoke over the
#                    untrusted parsers (io/text_format, io/snapshot).
#
# Usage: tools/ci.sh [jobs]      (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local name="$1"; shift
  local dir="build-ci-${name}"
  echo "=== [${name}] configure ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${name}] ctest ==="
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
}

run_config release -DCMAKE_BUILD_TYPE=Release -DCFSMDIAG_WERROR=ON

# Bench smoke run: the Figure-1 campaigns plus the unreliable-lab closing
# block, which asserts that noisy verdicts never contradict clean ones,
# flaky entries stay byte-identical across thread counts, and an injected
# crash stays isolated (--quick caps the fault count).  Cost numbers come
# from perfbench/ instead.
echo "=== [release] bench smoke ==="
cmake --build build-ci-release -j "${JOBS}" --target bench_fault_campaign
(cd build-ci-release && bench/fault_campaign --quick)

# Sweep smoke: checkpoint a campaign, SIGKILL it mid-run via the
# --abort-after test seam, resume, and diff the merged spill against a
# straight-through run — the crash-safety contract, end to end through the
# CLI.  (bench/sweep --quick repeats the check in-process with fork, and
# additionally asserts aggregate identity and flat RSS; it runs as the
# bench_smoke_sweep ctest above.)
echo "=== [release] sweep kill/resume smoke ==="
sweep_dir=build-ci-release/sweep-smoke
rm -rf "${sweep_dir}" && mkdir -p "${sweep_dir}"
cli=build-ci-release/tools/cfsmdiag
"${cli}" campaign examples/data/figure1.cfsm --jobs 2 \
    --checkpoint "${sweep_dir}/ref.snap" --spill "${sweep_dir}/ref.jsonl" \
    --checkpoint-every 16 >/dev/null
"${cli}" campaign examples/data/figure1.cfsm --jobs 2 \
    --checkpoint "${sweep_dir}/kill.snap" \
    --spill "${sweep_dir}/kill.jsonl" \
    --checkpoint-every 16 --abort-after 60 >/dev/null 2>&1 \
    || true  # dies by SIGKILL — that's the point
"${cli}" campaign examples/data/figure1.cfsm --jobs 2 \
    --checkpoint "${sweep_dir}/kill.snap" \
    --spill "${sweep_dir}/kill.jsonl" \
    --checkpoint-every 16 --resume >/dev/null
cmp "${sweep_dir}/ref.jsonl" "${sweep_dir}/kill.jsonl"
echo "sweep kill/resume spill byte-identical"

# TSan config: only the engine/pool tests plus the parallel CLI smoke run —
# a full TSan ctest multiplies runtime ~10x without exercising any
# additional threading code (everything else in the library is serial).
tsan_dir=build-ci-tsan
echo "=== [tsan] configure ==="
cmake -B "${tsan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCFSMDIAG_SANITIZE=thread >/dev/null
echo "=== [tsan] build engine tests ==="
cmake --build "${tsan_dir}" -j "${JOBS}" \
      --target campaign_engine_test discrim_engine_test bitset_test \
      property_test budget_test cfsmdiag_cli
echo "=== [tsan] run ==="
"${tsan_dir}/tests/campaign_engine_test"
# The discrimination engine's sharded memo, its applied-test cache and its
# flat replays of Step 6's tests are shared across campaign workers — the
# jobs-2 identity and counter-determinism tests are the racy surface.
"${tsan_dir}/tests/discrim_engine_test"
# The compiled core is shared across workers (one spec_context per engine,
# or several engines on one context).  Its tables are fixed at construction;
# its fault dictionary is a member built once, lazily, by the first
# campaign run and published to the others (campaign_engine_test's
# shared-context test races two engines on that fill).  The bitset/property
# tests run here to catch races in the arena and table sharing.
"${tsan_dir}/tests/bitset_test"
"${tsan_dir}/tests/property_test" \
      --gtest_filter='compiled_core.*'
# The watchdog thread, the shared cancel token, and parallel_for's
# cancellation fast-path race against every worker — the budget suite's
# watchdog/resume and pool-cancel tests are the new threaded surface.
"${tsan_dir}/tests/budget_test"
"${tsan_dir}/tools/cfsmdiag" campaign examples/data/figure1.cfsm \
      --max-faults 40 --jobs 4 --seed 7 >/dev/null
# Above 64 state bits the packed states take two words: the runtime-width
# compiled tables and the dictionary fill are shared across workers too.
"${tsan_dir}/tools/cfsmdiag" campaign examples/data/token_ring65.cfsm \
      --max-faults 200 --jobs 4 >/dev/null
# Every fault of the ring under a step quota that starves some entries:
# the workers share the dictionary's signature index and the engine's
# applied-test cache while Step 5B charges its skipped hypotheses.
"${tsan_dir}/tools/cfsmdiag" campaign examples/data/token_ring65.cfsm \
      --jobs 4 --entry-steps 1000 >/dev/null

# ASan+UBSan config: the resilience suite plus a short flaky campaign —
# the injection/retry/quarantine paths throw and unwind constantly, which
# is exactly where lifetime bugs hide.
asan_dir=build-ci-asan
echo "=== [asan+ubsan] configure ==="
cmake -B "${asan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCFSMDIAG_SANITIZE=address,undefined >/dev/null
echo "=== [asan+ubsan] build resilience tests ==="
cmake --build "${asan_dir}" -j "${JOBS}" \
      --target resilience_test checkpoint_test bitset_test property_test \
      discrim_engine_test budget_test replay_cache_test step5b_test \
      packed_bfs_test multi_fault_test discriminate_test \
      additional_tests_test domain_oracle_test cfsmdiag_cli fuzz_io
echo "=== [asan+ubsan] run ==="
"${asan_dir}/tests/resilience_test"
# The checkpoint layer's POSIX fd handling (spill truncate/append/fsync),
# the snapshot rename dance, and the interrupt-by-throw unwind through the
# parallel engine all run under ASan/UBSan — torn-state bugs here corrupt
# sweeps silently.
"${asan_dir}/tests/checkpoint_test"
# Arena lifetimes and the packed-state bit arithmetic are exactly what
# ASan/UBSan are for: the bitset algebra and the compiled-vs-reference
# property sweep run under both, the latter with the multi-word packing
# tests (compiled_core.packing_at_the_word_boundary: 64 against 65 bits and
# a field that would straddle two words).
"${asan_dir}/tests/bitset_test"
"${asan_dir}/tests/property_test" \
      --gtest_filter='compiled_core.*'
# The flat joint BFS indexes its dense visited set by mixed-radix product
# indices, and the memo records what each search charged and noted: the
# engine's identity tests (random systems of one and of two words among
# them) and the budget suite (memo hits under step and memory quotas) run
# under both.
"${asan_dir}/tests/discrim_engine_test"
"${asan_dir}/tests/budget_test"
# The fault dictionary's fill steps mutated chains through states the spec
# never reaches and indexes its slots arithmetically; the replay identity
# test checks every slot of a zoo model, 20 random systems and the
# two-word token_ring(65), whose diagnoses the wide-system test also holds
# to the oracle.  The same file holds Step 6's flat replays and the
# multi-override check to the reference replay on one- and two-word
# systems: both index packed states and firing lists arithmetically.
"${asan_dir}/tests/replay_cache_test"
# Step 5B's walk computes each flagged slot's row, column and hypothesis
# number arithmetically and reads the dictionary's signature index through
# a cursor; its identity test holds it to the oracle on every report of
# one- and two-word systems, and under every step quota on one report each.
"${asan_dir}/tests/step5b_test"
# Step 6 and the multi-fault extension through the flat replays: the
# tracker, the proposals, the oracle-answer checks, multi-fault diagnosis,
# and the fault-domain oracle over every fault of the models it covers.
"${asan_dir}/tests/discriminate_test"
"${asan_dir}/tests/additional_tests_test"
"${asan_dir}/tests/multi_fault_test"
"${asan_dir}/tests/domain_oracle_test"
# The tour and the transfer searches run on packed_bfs: its open-addressing
# visited set probes and rehashes by index arithmetic, and its nodes copy
# W-word states; the differential tests hold it to the std::map searches
# on one- and two-word systems, and the token_ring(65) tour is the CLI's
# two-word run.
"${asan_dir}/tests/packed_bfs_test"
"${asan_dir}/tools/cfsmdiag" gen examples/data/token_ring65.cfsm tour \
      >/dev/null
"${asan_dir}/tools/cfsmdiag" campaign examples/data/figure1.cfsm \
      --max-faults 20 --jobs 2 --seed 7 \
      --flaky 0.05 --retries 3 >/dev/null

# Adversarial-input pass: replay the committed regression corpus, then a
# bounded structure-aware mutation run, both under ASan+UBSan.  Every
# malformed byte stream must end in model_error/snapshot_error — any
# sanitizer report, other exception, or hang fails CI.  New crashers are
# minimized into ${asan_dir}/fuzz-crashers; commit them to tests/data/fuzz
# alongside the parser fix.
echo "=== [asan+ubsan] io fuzz smoke ==="
"${asan_dir}/tools/fuzz_io" --replay tests/data/fuzz
"${asan_dir}/tools/fuzz_io" --iters 400 --seed 42 \
      --out "${asan_dir}/fuzz-crashers"

echo "=== CI OK ==="
