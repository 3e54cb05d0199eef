#!/usr/bin/env bash
# Regenerates every paper figure: one bench binary per table/figure.
#
# Usage: scripts/run_benches.sh [--smoke] [build-dir]   (default: ./build)
#
#   --smoke   CI mode: sets ZDR_BENCH_SMOKE=1 so each bench runs a
#             minimal-iteration pass (crash/regression detection only —
#             the printed numbers are not figure-quality), and runs only
#             the bench_fig* figure binaries. Fails fast on the first
#             non-zero exit.
set -u

SMOKE=0
BUILD=build
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) BUILD="$arg" ;;
  esac
done

if [ "$SMOKE" = 1 ]; then
  export ZDR_BENCH_SMOKE=1
  # Figure benches plus the gated structural benches: bench_relay
  # writes the streamed-response cell whose copy-bytes and syscalls
  # per request its CI regression gate reads;
  # bench_release_controller gates on rollout outcomes (clean completes
  # with zero client errors, regressed rolls back), not timings;
  # bench_event_engine writes the idle-fleet and timer-heap cells its CI
  # regression gate reads, and skips its io_uring cells with a notice
  # when the kernel lacks the ring syscalls.
  PATTERN="$BUILD/bench/bench_fig* $BUILD/bench/bench_relay $BUILD/bench/bench_release_controller $BUILD/bench/bench_event_engine"
else
  PATTERN="$BUILD/bench/*"
fi

STATUS=0
RAN=0
for b in $PATTERN; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  RAN=$((RAN + 1))
  echo
  echo "########## $(basename "$b") ##########"
  if ! "$b"; then
    echo "FAILED: $(basename "$b")" >&2
    STATUS=1
    [ "$SMOKE" = 1 ] && exit 1
  fi
done
if [ "$RAN" = 0 ]; then
  echo "error: no bench binaries found under '$BUILD/bench/'" \
       "(build first, or pass the right build dir)" >&2
  exit 1
fi
exit "$STATUS"
