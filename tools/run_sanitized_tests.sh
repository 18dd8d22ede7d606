#!/usr/bin/env sh
# Builds the test suite under sanitizers and runs it, in two passes:
#
#   address  ASan + UBSan over the full suite               (build-asan)
#   thread   TSan over the tsan/replay/serve/integrity/stream-labeled suites
#            (build-tsan) — chaos_test + workpool_test + segsum_modes_test +
#            compressed_test + vecops_test + solver_determinism_test +
#            kernel_grid_test + replay_test (with its five replay_stress
#            entries), the ones
#            that exercise the persistent WorkPool (reuse across launches,
#            concurrent submitters, the owner-map chunk pass and the
#            speculative carry fix-up, the parallel tuner sweep and BCCOO
#            build, multi-threaded compressed-stream decode, the pooled
#            vector kernels and fused solver loops), the adjacent-sync spin
#            chain and the flight recorder's lock-free journal; plus
#            serve_test + serve_chaos_test, which drive the serving
#            daemon's accept / dispatch / executor / drain threads under
#            concurrent clients; plus integrity_test + ladder_test, whose
#            checksum-verified applies, fault-injected rollbacks and
#            serve-ladder rebuilds run on the multi-threaded CpuSpmv chunk
#            pass; plus stream_test, which drives the out-of-core
#            streaming engine through the serving daemon.
#
# Both passes run even when the first one fails; the script exits nonzero
# if either did.
#
# Usage: tools/run_sanitized_tests.sh [ctest-args...]
#        YASPMV_SANITIZE=address|thread limits the run to one pass.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
mode="${YASPMV_SANITIZE:-both}"

run_asan() {
  build="${YASPMV_ASAN_BUILD_DIR:-$repo/build-asan}"
  cmake -B "$build" -S "$repo" \
    -DYASPMV_SANITIZE=address \
    -DYASPMV_BUILD_BENCH=OFF \
    -DYASPMV_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    ctest --test-dir "$build" --output-on-failure "$@"
}

run_tsan() {
  build="${YASPMV_TSAN_BUILD_DIR:-$repo/build-tsan}"
  cmake -B "$build" -S "$repo" \
    -DYASPMV_SANITIZE=thread \
    -DYASPMV_BUILD_BENCH=OFF \
    -DYASPMV_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" \
    --target chaos_test workpool_test segsum_modes_test compressed_test \
             vecops_test solver_determinism_test kernel_grid_test \
             replay_test serve_test serve_chaos_test integrity_test \
             ladder_test stream_test
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$build" -L "tsan|replay|serve|integrity|stream" \
      --output-on-failure "$@"
}

case "$mode" in
  address) passes=asan ;;
  thread)  passes=tsan ;;
  *)       passes="asan tsan" ;;
esac
# Each pass runs in its own subshell with errexit, outside any `||` list
# (where sh would ignore errexit), so a failure ends only that pass.
status=0
for pass in $passes; do
  set +e
  (set -e; "run_$pass" "$@")
  rc=$?
  set -e
  if [ "$rc" -ne 0 ]; then
    echo "run_sanitized_tests: $pass pass failed (exit $rc)" >&2
    status=$rc
  fi
done
exit "$status"
