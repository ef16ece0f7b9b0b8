#!/bin/sh
# CI entry point: configure, build, and run the tier-1 test suite plus the
# reduced-scale bench gates. Plain POSIX sh — runs under dash, busybox ash,
# or bash alike, so a thin container without bash can still run the gate.
#
# Usage:
#   tools/check.sh            # plain RelWithDebInfo build + ctest + gates
#   tools/check.sh --asan     # additionally build with
#                             # -DFASTCOMMIT_SANITIZE=address and run ctest
#                             # and the same gates there
#   tools/check.sh --ubsan    # the same with -DFASTCOMMIT_SANITIZE=undefined,
#                             # aborting on the first report
#
# Every gate announces itself and names itself again on failure, so a red
# CI log says *which* invariant broke without scrolling for the first
# non-zero exit.
set -eu

cd "$(dirname "$0")/.."

# gate <name> <cmd...>: run one labelled gate, fail loudly with its name.
gate() {
  gate_name="$1"
  shift
  echo "[check.sh gate] $gate_name"
  if ! "$@"; then
    echo "check.sh: gate FAILED: $gate_name" >&2
    exit 1
  fi
}

run_suite() {
  suite_dir="$1"
  shift
  gate "configure ($suite_dir)" cmake -B "$suite_dir" -S . "$@"
  gate "build ($suite_dir)" cmake --build "$suite_dir" -j "$(nproc)"
  # --no-tests=error: a build where the test targets were silently skipped
  # (e.g., GTest missing) must fail, not report a green zero-test run.
  gate "ctest ($suite_dir)" ctest --test-dir "$suite_dir" \
    --output-on-failure --no-tests=error -j "$(nproc)"
}

# run_gates <build dir>: the reduced-scale bench gates, against one build.
# (CI reruns them in the default build at 20k transactions.)
run_gates() {
  gates_dir="$1"

  # Batching determinism: nonzero if DatabaseStats or BatchStats diverge
  # between the single-queue reference and a 4-shard placement for any
  # batching window, or if batching stops reducing per-commit messages.
  # The hotspot and cross-set rows also drive the most lock churn, which
  # the flat tables' moving entries make asan-relevant.
  gate "batching determinism ($gates_dir/bench_db_batching --txs 4000)" \
    "./$gates_dir/bench_db_batching" --txs 4000

  # Open-loop determinism + saturation: nonzero if any arrival stream's
  # stats diverge across placements, an uncapped Poisson stream falls under
  # 95% of offered load, or the saturated row stops shedding.
  gate "open-loop traffic ($gates_dir/bench_db_openloop --txs 4000)" \
    "./$gates_dir/bench_db_openloop" --txs 4000

  # 2PL-vs-OCC ablation: nonzero if OCC stops clearing its goodput floor on
  # the gated read-heavy low-conflict row, or if OCC stats diverge across
  # shard placements.
  gate "2PL-vs-OCC ablation ($gates_dir/bench_db_throughput --txs 4000)" \
    "./$gates_dir/bench_db_throughput" --txs 4000 --ablation-only

  # Snapshot read plane: nonzero if the snapshot plane stops serving >= 2x
  # the locked path's reads/tick at read fraction 0.99, turning snapshot
  # reads on regresses the write p99, a read-only transaction leaks onto
  # the locked path, the concurrent scan stream stops being fully served,
  # or stats / read fingerprints diverge across placements.
  gate "snapshot read mix ($gates_dir/bench_db_readmix --txs 4000)" \
    "./$gates_dir/bench_db_readmix" --txs 4000

  # Crash recovery: nonzero if a committed transaction is lost across any
  # coordinator crash point (per-key ledger conservation), the crash replay
  # diverges across placements, the unavailability window exceeds the
  # planned restart delay, or the commit log's fast/slow quorum split
  # collapses to one path.
  gate "crash recovery ($gates_dir/bench_db_recovery --txs 4000)" \
    "./$gates_dir/bench_db_recovery" --txs 4000

  # Geo commit: nonzero if co-coordinator multi-region commits stop
  # averaging <= 1 cross-region delay (vs >= 1.5 for the spread baseline),
  # stop beating the baseline's multi-region latency, a single-region round
  # misses the logless one-phase path, a committed transaction is lost, or
  # the WAN-priced schedule diverges across placements.
  gate "geo commit ($gates_dir/bench_db_geo --txs 4000)" \
    "./$gates_dir/bench_db_geo" --txs 4000

  # Sharded drain: nonzero if the 4-shard placement's stats diverge from
  # the single-queue run. Bursts of 256 transactions stack hundreds of
  # events on one wheel bucket, and shards post cross-shard completion
  # effects, so the asan build checks the event and message slot tables'
  # lifetimes too.
  gate "sharded drain ($gates_dir/bench_db_sharded --txs 4000)" \
    "./$gates_dir/bench_db_sharded" --txs 4000
}

# report_src_lines: the src/ code-line count, with ROADMAP item 7's
# command, so every log carries the net size a change reports. Report-only:
# it never fails the script.
report_src_lines() {
  if src_lines=$(git ls-files 'src/*.h' 'src/*.cc' 2>/dev/null | xargs cat |
    grep -Evc '^\s*(//|$)'); then
    echo "check.sh: src/ code lines: $src_lines"
  else
    echo "check.sh: src/ code lines: not counted (no git checkout)"
  fi
}

run_suite build
report_src_lines
run_gates build

case "${1:-}" in
  --asan)
    run_suite build-asan -DFASTCOMMIT_SANITIZE=address
    run_gates build-asan
    ;;
  --ubsan)
    run_suite build-ubsan -DFASTCOMMIT_SANITIZE=undefined \
      -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined
    run_gates build-ubsan
    ;;
esac

echo "check.sh: all suites passed"
