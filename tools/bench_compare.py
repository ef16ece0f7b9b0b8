#!/usr/bin/env python3
"""Gate bench JSON output against the checked-in baseline.

The db benches (`bench_db_throughput`, `bench_db_sharded`,
`bench_db_batching`, `bench_db_openloop`, `bench_db_readmix`,
`bench_db_recovery`, `bench_db_geo`) emit machine-readable results via
`--json <path>`.
This script compares one or more of those documents against
`BENCH_baseline.json` and fails (exit 1) when a *simulated* metric
regresses by more than the tolerance — simulated metrics are
deterministic for a given seed and transaction count, so they compare
exactly across machines. Wall-clock metrics vary with hardware and are
report-only.

Gated (lower is better): msgs_per_commit, mean_latency_ticks,
p99_latency_ticks, write_p99_latency_ticks, makespan_ticks,
unavailability_ticks, outage_commit_gap_ticks, recovery_ticks,
cross_region_rounds, multi_region_latency_units.
Gated (higher is better): occupancy, commits_per_tick,
achieved_over_offered, occ_speedup_vs_2pl, reads_per_tick,
read_speedup_vs_locked. A row key
present in the baseline but missing from the current run also fails —
silently dropping a measured configuration is a coverage regression.

Usage:
  tools/bench_compare.py --baseline BENCH_baseline.json current1.json ...
  tools/bench_compare.py --baseline parent.json --exact current1.json ...
  tools/bench_compare.py --merge BENCH_baseline.json current1.json ...

--exact replaces the tolerance band with equality: every field that is
not report-only, gated or not, must match the baseline, and each
difference is printed. It is the bitwise check of a change that should
not move any simulated result: --merge a parent build's files into a
temporary baseline, then --exact the change's files against it.

--merge rewrites the baseline from the given current files (the refresh
procedure after an intentional perf change; see README). The baseline
must be regenerated at the same --txs the CI gate runs with.
"""

import argparse
import json
import sys

TOLERANCE = 0.05  # >5% regression fails
LOWER_IS_BETTER = ("msgs_per_commit", "mean_latency_ticks",
                   "p99_latency_ticks", "write_p99_latency_ticks",
                   "makespan_ticks", "unavailability_ticks",
                   "outage_commit_gap_ticks", "recovery_ticks",
                   "cross_region_rounds", "multi_region_latency_units")
HIGHER_IS_BETTER = ("occupancy", "commits_per_tick", "achieved_over_offered",
                    "occ_speedup_vs_2pl", "reads_per_tick",
                    "read_speedup_vs_locked")
REPORT_ONLY = ("wall_seconds", "txs_per_second", "speedup_vs_single_queue",
               "committed_per_sec_wall", "served_per_sec_wall",
               "fast_path_rate")


def validate_doc(doc, source):
    """Structural failures for one bench document ([] when well-formed).

    A malformed document (hand-edited baseline, truncated bench output)
    must fail the gate with a named problem, not die in a KeyError midway
    through the comparison — and duplicate row keys must fail rather than
    letting a dict build silently drop one measurement.
    """
    failures = []
    if not isinstance(doc, dict):
        return [f"{source}: document is not a JSON object"]
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        failures.append(f"{source}: missing or non-string 'bench' name")
    if not isinstance(doc.get("rows"), list):
        failures.append(f"{source}: missing or non-list 'rows'")
        return failures
    seen = set()
    for i, row in enumerate(doc["rows"]):
        if not isinstance(row, dict):
            failures.append(f"{source}: row {i} is not a JSON object")
            continue
        key = row.get("key")
        if not isinstance(key, str) or not key:
            failures.append(f"{source}: row {i} has no usable 'key'")
            continue
        if key in seen:
            failures.append(f"{source}: duplicate row key '{key}'")
        seen.add(key)
    return failures


def load_rows(doc):
    """{row key -> row dict} for one validated bench document."""
    return {row["key"]: row for row in doc["rows"]}


def exact_failures(bench, key, base, cur):
    """Every non-report-only field of one row that differs, or is missing
    on one side."""
    failures = []
    for field in sorted((set(base) | set(cur)) - set(REPORT_ONLY)):
        b, c = base.get(field, "<missing>"), cur.get(field, "<missing>")
        if b != c:
            failures.append(f"{bench}/{key}: {field} {b} -> {c}")
    return failures


def compare(baseline_doc, current_doc, exact=False):
    """Returns (failures, reports) for one bench's row sets."""
    failures, reports = [], []
    bench = current_doc["bench"]
    if baseline_doc.get("txs") != current_doc.get("txs"):
        failures.append(
            f"{bench}: baseline txs={baseline_doc.get('txs')} != current "
            f"txs={current_doc.get('txs')} — regenerate the baseline with "
            "--merge at the gated transaction count")
        return failures, reports
    base_rows = load_rows(baseline_doc)
    cur_rows = load_rows(current_doc)
    for key, base in sorted(base_rows.items()):
        cur = cur_rows.get(key)
        if cur is None:
            failures.append(f"{bench}/{key}: row disappeared from the bench")
            continue
        if exact:
            failures += exact_failures(bench, key, base, cur)
            continue
        for metric in LOWER_IS_BETTER + HIGHER_IS_BETTER:
            if metric not in base:
                continue
            if metric not in cur:
                # A gated metric the bench stopped emitting is a coverage
                # regression, same as a dropped row (NaN would otherwise
                # make both comparisons False and slip through the gate).
                failures.append(
                    f"{bench}/{key}: gated metric {metric} disappeared "
                    "from the bench output")
                continue
            b, c = float(base[metric]), float(cur[metric])
            # The tolerance band scales with the magnitude, not the signed
            # value: a baseline of -1400 (outage_commit_gap_ticks can be
            # negative when the crashed run drains sooner than the
            # baseline) must tolerate -1400 again, not demand <= -1470.
            margin = abs(b) * TOLERANCE + 1e-9
            if metric in LOWER_IS_BETTER:
                regressed = c > b + margin
            else:
                regressed = c < b - margin
            if regressed:
                failures.append(
                    f"{bench}/{key}: {metric} {b:g} -> {c:g} "
                    f"({(c - b) / b * 100 if b else float('inf'):+.1f}%)")
        for metric in REPORT_ONLY:
            if metric in base and metric in cur:
                b, c = float(base[metric]), float(cur[metric])
                if b > 0:
                    reports.append(
                        f"{bench}/{key}: {metric} {b:g} -> {c:g} "
                        f"({(c - b) / b * 100:+.1f}%, report-only)")
    for key in sorted(set(cur_rows) - set(base_rows)):
        (failures if exact else reports).append(
            f"{bench}/{key}: new row (not in baseline)")
    return failures, reports


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="baseline JSON to gate against")
    parser.add_argument("--merge", metavar="OUT",
                        help="write a fresh baseline from the current files")
    parser.add_argument("--exact", action="store_true",
                        help="with --baseline: fail on any difference in "
                        "a field that is not report-only")
    parser.add_argument("current", nargs="+",
                        help="bench --json output files")
    args = parser.parse_args()
    if bool(args.baseline) == bool(args.merge):
        parser.error("exactly one of --baseline / --merge is required")
    if args.exact and not args.baseline:
        parser.error("--exact needs --baseline")

    structural = []
    current_docs = []
    for path in args.current:
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as err:
                print(f"MALFORMED BENCH FILE {path}: {err}", file=sys.stderr)
                return 1
        structural += validate_doc(doc, path)
        current_docs.append(doc)
    # Same silent-drop hazard as duplicate row keys, one level up: two
    # documents with the same bench name would collapse in the by-name
    # dict builds below (gating against, or merging, only the last one).
    seen_names = set()
    for path, doc in zip(args.current, current_docs):
        name = doc.get("bench") if isinstance(doc, dict) else None
        if name in seen_names:
            structural.append(
                f"{path}: duplicate bench name '{name}' across the given "
                "current files")
        seen_names.add(name)
    if structural:
        print(f"MALFORMED BENCH DATA ({len(structural)} problem(s)):",
              file=sys.stderr)
        for line in structural:
            print(f"  {line}", file=sys.stderr)
        return 1

    if args.merge:
        # Update/insert per-bench entries, keeping baseline benches that
        # were not regenerated this time — a partial refresh must not
        # silently drop the gate for the other benches.
        by_name = {}
        try:
            with open(args.merge) as f:
                by_name = {d["bench"]: d for d in json.load(f)["benches"]}
        except FileNotFoundError:
            pass
        except (json.JSONDecodeError, KeyError, TypeError) as err:
            # A corrupt existing baseline must stop the merge: overwriting
            # it from scratch would silently drop the other benches' gates.
            print(f"MALFORMED BASELINE {args.merge}: {err!r} — fix or "
                  "delete it before merging", file=sys.stderr)
            return 1
        by_name.update({d["bench"]: d for d in current_docs})
        merged = {"benches": [by_name[k] for k in sorted(by_name)]}
        with open(args.merge, "w") as f:
            json.dump(merged, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.merge}: {len(current_docs)} bench file(s) "
              f"merged, {len(merged['benches'])} total")
        return 0

    with open(args.baseline) as f:
        try:
            baseline = json.load(f)
        except json.JSONDecodeError as err:
            print(f"MALFORMED BASELINE {args.baseline}: {err}",
                  file=sys.stderr)
            return 1
    if not isinstance(baseline, dict) or \
            not isinstance(baseline.get("benches"), list):
        print(f"MALFORMED BASELINE {args.baseline}: no 'benches' list",
              file=sys.stderr)
        return 1
    seen_names = set()
    for doc in baseline["benches"]:
        structural += validate_doc(doc, args.baseline)
        name = doc.get("bench") if isinstance(doc, dict) else None
        if name in seen_names:
            structural.append(
                f"{args.baseline}: duplicate bench name '{name}'")
        seen_names.add(name)
    if structural:
        print(f"MALFORMED BASELINE DATA ({len(structural)} problem(s)):",
              file=sys.stderr)
        for line in structural:
            print(f"  {line}", file=sys.stderr)
        return 1
    baseline_by_name = {d["bench"]: d for d in baseline["benches"]}

    all_failures, all_reports = [], []
    for doc in current_docs:
        base = baseline_by_name.get(doc["bench"])
        if base is None:
            all_reports.append(f"{doc['bench']}: no baseline yet (skipped)")
            continue
        failures, reports = compare(base, doc, args.exact)
        all_failures += failures
        all_reports += reports
    # Same coverage rule at file granularity: a baseline bench with no
    # current file means a whole measured configuration silently vanished
    # from the gate (e.g. a CI edit dropped one of the --json arguments).
    missing = set(baseline_by_name) - {d["bench"] for d in current_docs}
    for bench in sorted(missing):
        all_failures.append(
            f"{bench}: baseline bench has no current file to compare")

    for line in all_reports:
        print(line)
    band = "exact" if args.exact else f"tolerance {TOLERANCE:.0%}"
    if all_failures:
        print(f"\nBENCH REGRESSION ({len(all_failures)} failure(s), "
              f"{band}):", file=sys.stderr)
        for line in all_failures:
            print(f"  {line}", file=sys.stderr)
        print("\nIf the change is intentional, refresh the baseline:\n"
              "  tools/bench_compare.py --merge BENCH_baseline.json "
              "<current files>", file=sys.stderr)
        return 1
    verdict = "equal to" if args.exact else f"within {TOLERANCE:.0%} of"
    print(f"\nbench_compare: {len(current_docs)} bench file(s) {verdict} "
          "baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
