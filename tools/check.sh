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
#                             # aborting on the first report, and with
#                             # libstdc++'s bounds-checked operator[]
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

  # Batching: nonzero if a run breaks its delivered-commit ledger, batching
  # stops reducing per-commit messages, or adaptive cross-set mode stops
  # beating the fixed window's occupancy. The hotspot and cross-set rows
  # also drive the most lock churn, which the flat tables' moving entries
  # make asan-relevant.
  gate "batching ($gates_dir/bench_db_batching --txs 4000)" \
    "./$gates_dir/bench_db_batching" --txs 4000

  # Open-loop saturation: nonzero if a run breaks its ledger, an uncapped
  # Poisson stream falls under 95% of offered load, or the saturated row
  # stops shedding.
  gate "open-loop traffic ($gates_dir/bench_db_openloop --txs 4000)" \
    "./$gates_dir/bench_db_openloop" --txs 4000

  # Throughput and 2PL-vs-OCC ablation: nonzero if a pooled protocol or
  # ablation run breaks its ledger or exactly-once delivery, or OCC stops
  # clearing its goodput floor on the gated read-heavy low-conflict row.
  gate "throughput and ablation ($gates_dir/bench_db_throughput --txs 4000)" \
    "./$gates_dir/bench_db_throughput" --txs 4000

  # Snapshot read plane: nonzero if the snapshot plane stops serving >= 2x
  # the locked path's reads/tick at read fraction 0.99, turning snapshot
  # reads on regresses the write p99, a read-only transaction leaks onto
  # the locked path, the concurrent scan stream stops being fully served,
  # or a run breaks its ledger.
  gate "snapshot read mix ($gates_dir/bench_db_readmix --txs 4000)" \
    "./$gates_dir/bench_db_readmix" --txs 4000

  # Crash recovery: nonzero if a committed transaction is lost across any
  # coordinator crash point (per-key ledger conservation), the
  # unavailability window exceeds the planned restart delay, or the commit
  # log's fast/slow quorum split collapses to one path.
  gate "crash recovery ($gates_dir/bench_db_recovery --txs 4000)" \
    "./$gates_dir/bench_db_recovery" --txs 4000

  # Geo commit: nonzero if co-coordinator multi-region commits stop
  # averaging <= 1 cross-region delay (vs >= 1.5 for the spread baseline),
  # stop beating the baseline's multi-region latency, a span class never
  # occurs, or a committed transaction is lost. The bench runs without a
  # commit log; db_geo_test checks the logless one-phase path.
  gate "geo commit ($gates_dir/bench_db_geo --txs 4000)" \
    "./$gates_dir/bench_db_geo" --txs 4000

  # Burst drain: nonzero if a run breaks its ledger. Bursts of 256
  # transactions stack hundreds of events on one wheel bucket and hundreds
  # of completion effects on one instant, so the asan build checks the
  # event and message slot tables' lifetimes too.
  gate "burst drain ($gates_dir/bench_db_sharded --txs 4000)" \
    "./$gates_dir/bench_db_sharded" --txs 4000

  # Paper tables: nonzero if a measured delay or message count misses its
  # bound or closed form (bench_table1..5 print MISMATCH), or if a figure
  # or ablation program fails to run.
  gate "paper tables and ablations ($gates_dir/bench_table1 ...)" \
    paper_benches "$gates_dir"

  # Examples: nonzero if an example fails or its stdout differs from its
  # checked-in examples/expected/<name>.txt. All four are deterministic, so
  # a change that should not alter behaviour must leave them byte-identical.
  gate "examples ($gates_dir/quickstart ...)" example_outputs "$gates_dir"

  # CLI: nonzero if `fastcommit_run --list` differs from its checked-in
  # tools/expected/fastcommit_run_list.txt, or if a protocol it lists fails
  # to run at n = 5, f = 2.
  gate "CLI ($gates_dir/fastcommit_run --list ...)" cli_runs "$gates_dir"
}

# paper_benches <build dir>: runs the nine paper-table, figure and ablation
# programs, printing a program's output only when it fails.
paper_benches() {
  for bench in bench_table1 bench_table2 bench_table3 bench_table4 \
    bench_table5 bench_fig1_states bench_ablation_backups bench_ablation_db \
    bench_ablation_tradeoff; do
    if ! output=$("./$1/$bench"); then
      echo "$output"
      echo "check.sh: $bench failed" >&2
      return 1
    fi
  done
}

# example_outputs <build dir>: runs the four examples and diffs each one's
# stdout against examples/expected/<name>.txt, printing the diff on a
# mismatch.
example_outputs() {
  example_out=$(mktemp)
  for example in quickstart bank_transfer helios_conflict \
    protocol_comparison; do
    if ! "./$1/$example" >"$example_out"; then
      echo "check.sh: $example failed" >&2
      rm -f "$example_out"
      return 1
    fi
    if ! diff -u "examples/expected/$example.txt" "$example_out"; then
      echo "check.sh: $example output differs from" \
        "examples/expected/$example.txt" >&2
      rm -f "$example_out"
      return 1
    fi
  done
  rm -f "$example_out"
}

# cli_runs <build dir>: diffs `fastcommit_run --list` against
# tools/expected/fastcommit_run_list.txt, then runs every flag in the
# listing's first column with --n=5 --f=2, printing a run's output only
# when it fails.
cli_runs() {
  cli_expected=tools/expected/fastcommit_run_list.txt
  if ! cli_list=$("./$1/fastcommit_run" --list); then
    echo "check.sh: fastcommit_run --list failed" >&2
    return 1
  fi
  if ! printf '%s\n' "$cli_list" | diff -u "$cli_expected" -; then
    echo "check.sh: fastcommit_run --list differs from $cli_expected" >&2
    return 1
  fi
  for flag in $(awk 'NR > 1 { print $1 }' "$cli_expected"); do
    if ! output=$("./$1/fastcommit_run" "--protocol=$flag" --n=5 --f=2); then
      echo "$output"
      echo "check.sh: fastcommit_run --protocol=$flag failed" >&2
      return 1
    fi
  done
}

# worktree_files <pathspec...>: the files of the working tree that match,
# tracked or untracked but not ignored, so a new file is gated and counted
# before it is added and a deleted one is skipped. Fails outside a git
# checkout.
worktree_files() {
  listed=$(git ls-files --cached --others --exclude-standard -- "$@" \
    2>/dev/null) || return 1
  # $listed is unquoted on purpose: one path per word.
  for path in $listed; do
    if [ -f "$path" ]; then echo "$path"; fi
  done
}

# check_line_length: no line of the files CI's lint job formats (the C++
# sources, tests and benches) may exceed .clang-format's 80-column limit,
# counted in code points with python3: the one formatting rule a host
# without clang-format can still check mechanically.
check_line_length() {
  if ! cxx_files=$(worktree_files 'src/**/*.cc' 'src/**/*.h' 'tests/*.cc' \
    'bench/*.cc' 'bench/*.h'); then
    echo "check.sh: line length: not checked (no git checkout)"
    return 0
  fi
  # $cxx_files is unquoted on purpose: one path per word.
  gate "line length (<= 80 code points)" python3 - $cxx_files <<'PY'
import sys

too_long = 0
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as source:
        for number, line in enumerate(source, 1):
            width = len(line.rstrip("\n"))
            if width > 80:
                print(f"{path}:{number}: {width} code points")
                too_long += 1
sys.exit(1 if too_long else 0)
PY
}

# report_lines <dir> <pathspec...>: the code-line count of the working
# tree's files under <dir>, with ROADMAP item 7's command, so every log
# carries the net size a change reports. Report-only: it never fails the
# script.
report_lines() {
  lines_dir="$1"
  shift
  if files=$(worktree_files "$@"); then
    # $files is unquoted on purpose: one path per word.
    echo "check.sh: $lines_dir code lines: $(cat $files |
      grep -Evc '^\s*(//|$)')"
  else
    echo "check.sh: $lines_dir code lines: not counted (no git checkout)"
  fi
}

check_line_length
run_suite build
report_lines src/ 'src/*.h' 'src/*.cc'
report_lines bench/ 'bench/*.cc' 'bench/*.h'
report_lines tests/ 'tests/*.cc'
run_gates build
# Benchmark smoke: nothing else compiles benchmark/fc_bench.cc. This builds
# it against the library (Release, .bench_build/) and runs every workload
# of BENCHMARK.json once in --quick mode, so a src/ change that breaks
# fc_bench's build or fails a benchmark check fails here.
gate "benchmark smoke (benchmark/test_run.py)" python3 benchmark/test_run.py

case "${1:-}" in
  --asan)
    run_suite build-asan -DFASTCOMMIT_SANITIZE=address
    run_gates build-asan
    ;;
  --ubsan)
    # _GLIBCXX_ASSERTIONS makes an out-of-range vector operator[] (a set
    # id, a ring slot, a partition index) abort like a sanitizer report.
    run_suite build-ubsan -DFASTCOMMIT_SANITIZE=undefined \
      "-DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
    run_gates build-ubsan
    ;;
esac

echo "check.sh: all suites passed"
