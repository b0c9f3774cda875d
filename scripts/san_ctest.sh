#!/bin/sh
# Sanitizer verification driver: scripts/san_ctest.sh <asan|tsan|ubsan>
#
# One script, one CMake switch (-DGLTO_SANITIZE=...), three sanitizers:
#
#   asan  — the historical sanitized subset (scripts/asan_ctest.sh is now a
#           shim onto this): taskdep/scheduler/backend/sync/glt/GLTO suites
#           under AddressSanitizer with fiber-stack annotations.
#   tsan  — fiber-aware ThreadSanitizer over the FULL ctest suite, once per
#           ULT backend (GLT_IMPL=abt, qth, mth). fctx announces every
#           context switch via __tsan_switch_to_fiber, so cross-thread ULT
#           migration is tracked exactly. halt_on_error=1 and an empty
#           suppression file: any report fails the run, nothing is waived.
#   ubsan — full ctest suite with -fno-sanitize-recover=all.
set -e
cd "$(dirname "$0")/.."

san="${1:-}"
case "$san" in
  asan|tsan|ubsan) ;;
  *)
    echo "usage: $0 <asan|tsan|ubsan>" >&2
    exit 2
    ;;
esac

build="build-$san"
case "$san" in
  # Debug -O1 keeps ASan line info exact (matches the old asan_ctest.sh).
  asan)  btype=Debug ;;
  # TSan wants optimized code (5-15x slowdown otherwise compounds) but
  # needs debug info for reports; UBSan likewise.
  tsan)  btype=RelWithDebInfo ;;
  ubsan) btype=RelWithDebInfo ;;
esac

cmake -B "$build" -S . -DCMAKE_BUILD_TYPE="$btype" \
  -DGLTO_SANITIZE="$san" >/dev/null

case "$san" in
asan)
  cmake --build "$build" -j"$(nproc)" \
    --target test_taskdep test_bqp test_abt test_qth test_mth test_sched \
    test_ws_core test_sync test_glt test_glto_runtime test_hardening \
    test_fctx
  ./"$build"/test_taskdep
  ./"$build"/test_bqp
  ./"$build"/test_sched
  ./"$build"/test_ws_core
  ./"$build"/test_abt
  ./"$build"/test_qth
  ./"$build"/test_mth
  # The stack pool writes each stack's owner header into the mapping, just
  # above the fiber bounds, and hands stacks between threads.
  ./"$build"/test_fctx
  # Blocking-primitive lifetimes (continuation parking, wait-node handoff,
  # latch delete-after-wait) across all three backends + foreign threads.
  ./"$build"/test_sync
  # GLT conformance over abt/qth/mth: ULT stacks are bound on the
  # dispatching worker, which is also where the ASan fiber bounds are set.
  ./"$build"/test_glt
  # GLTO task lifetimes: detached task and member ULTs count down latches
  # in their creator's stack frame (task context, team), and the creator
  # may return the moment the count reaches zero.
  ./"$build"/test_glto_runtime
  ./"$build"/test_hardening
  echo "san_ctest[asan]: all sanitized suites passed"
  ;;

tsan)
  cmake --build "$build" -j"$(nproc)"
  # The suppression file must stay EMPTY (comments only): the doctrine is
  # fix the race or model the happens-before edge in code, never waive a
  # report. The check below keeps a suppression from sneaking in.
  supp="$PWD/scripts/tsan.supp"
  if grep -v -E '^[[:space:]]*(#|$)' "$supp" >/dev/null 2>&1; then
    echo "san_ctest[tsan]: scripts/tsan.supp must stay empty — fix the race" \
         "or annotate the happens-before edge instead" >&2
    exit 1
  fi
  TSAN_OPTIONS="halt_on_error=1 suppressions=$supp ${TSAN_OPTIONS:-}"
  export TSAN_OPTIONS
  for impl in abt qth mth; do
    echo "san_ctest[tsan]: full ctest under GLT_IMPL=$impl"
    GLT_IMPL="$impl" ctest --test-dir "$build" --output-on-failure -j"$(nproc)"
  done
  echo "san_ctest[tsan]: full suite TSan-green under abt, qth and mth"
  ;;

ubsan)
  cmake --build "$build" -j"$(nproc)"
  ctest --test-dir "$build" --output-on-failure -j"$(nproc)"
  echo "san_ctest[ubsan]: full suite passed"
  ;;
esac
