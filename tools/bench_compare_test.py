#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py (stdlib unittest only).

Covers the behaviors CI leans on: regression detection in both metric
directions, coverage failures (dropped rows / metrics / bench files),
--merge baseline refresh including partial refreshes, and malformed input
producing a named failure instead of a traceback.

Run:  python3 tools/bench_compare_test.py
(Also wired into tools/check.sh and the CI default job.)
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def make_doc(bench="db_x", txs=1000, rows=None):
    if rows is None:
        rows = [{"key": "inbac/a", "msgs_per_commit": 10.0,
                 "mean_latency_ticks": 300.0, "occupancy": 4.0,
                 "wall_seconds": 1.0}]
    return {"bench": bench, "txs": txs, "rows": rows}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def write(self, name, payload, raw=None):
        with open(self.path(name), "w") as f:
            if raw is not None:
                f.write(raw)
            else:
                json.dump(payload, f)
        return self.path(name)

    def run_main(self, argv):
        """Returns (exit code, stdout, stderr) of bench_compare.main()."""
        out, err = io.StringIO(), io.StringIO()
        old_argv = sys.argv
        sys.argv = ["bench_compare.py"] + argv
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = bench_compare.main()
        finally:
            sys.argv = old_argv
        return code, out.getvalue(), err.getvalue()

    def write_baseline(self, name, docs):
        return self.write(name, {"benches": docs})

    # ----------------------------------------------------- gate behavior --

    def test_identical_run_passes(self):
        base = self.write_baseline("base.json", [make_doc()])
        cur = self.write("cur.json", make_doc())
        code, out, _ = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("within", out)

    def test_within_tolerance_passes(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"][0]["msgs_per_commit"] = 10.4  # +4% < 5%
        cur = self.write("cur.json", doc)
        self.assertEqual(self.run_main(["--baseline", base, cur])[0], 0)

    def test_lower_is_better_regression_fails(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"][0]["msgs_per_commit"] = 11.0  # +10% > 5%
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("msgs_per_commit", err)
        self.assertIn("BENCH REGRESSION", err)

    def test_improvement_passes(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"][0]["msgs_per_commit"] = 2.0
        doc["rows"][0]["occupancy"] = 9.0
        cur = self.write("cur.json", doc)
        self.assertEqual(self.run_main(["--baseline", base, cur])[0], 0)

    def test_higher_is_better_regression_fails(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"][0]["occupancy"] = 3.0  # -25% occupancy
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("occupancy", err)

    def test_commits_per_tick_regression_fails(self):
        rows = [{"key": "inbac/openloop", "commits_per_tick": 0.025,
                 "mean_latency_ticks": 200}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], commits_per_tick=0.020)])  # -20%
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("commits_per_tick", err)

    def test_cross_region_rounds_regression_fails(self):
        rows = [{"key": "2pc/co-coordinator", "cross_region_rounds": 1.0,
                 "multi_region_latency_units": 30.0}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], cross_region_rounds=2.0)])  # 2x
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("cross_region_rounds", err)

    def test_multi_region_latency_improvement_passes(self):
        rows = [{"key": "2pc/co-coordinator", "cross_region_rounds": 1.0,
                 "multi_region_latency_units": 31.0}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], multi_region_latency_units=30.0)])
        cur = self.write("cur.json", doc)
        self.assertEqual(self.run_main(["--baseline", base, cur])[0], 0)

    def test_occ_speedup_regression_fails(self):
        rows = [{"key": "ablation/read50/low/occ",
                 "occ_speedup_vs_2pl": 1.45, "commits_per_tick": 0.05}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], occ_speedup_vs_2pl=1.2)])  # -17%
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("occ_speedup_vs_2pl", err)

    def test_reads_per_tick_regression_fails(self):
        rows = [{"key": "inbac/read=0.99/snapshot=1", "reads_per_tick": 6.0,
                 "write_p99_latency_ticks": 200}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], reads_per_tick=4.0)])  # -33%
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("reads_per_tick", err)

    def test_read_speedup_regression_fails(self):
        rows = [{"key": "inbac/read=0.99/speedup",
                 "read_speedup_vs_locked": 6.0}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], read_speedup_vs_locked=1.5)])
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("read_speedup_vs_locked", err)

    def test_write_p99_regression_fails(self):
        rows = [{"key": "inbac/read=0.99/snapshot=1", "reads_per_tick": 6.0,
                 "write_p99_latency_ticks": 200}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], write_p99_latency_ticks=300)])
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("write_p99_latency_ticks", err)

    def test_unavailability_regression_fails(self):
        rows = [{"key": "inbac/crash=after-decide",
                 "unavailability_ticks": 6000, "recovery_ticks": 6000}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], unavailability_ticks=7000)])
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("unavailability_ticks", err)

    def test_recovery_ticks_regression_fails(self):
        rows = [{"key": "inbac/crash=after-accept", "recovery_ticks": 6000}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], recovery_ticks=6500)])  # +8%
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("recovery_ticks", err)

    def test_negative_gap_baseline_tolerates_identical_rerun(self):
        # outage_commit_gap_ticks is signed: a crashed run can drain
        # *sooner* than the crash-free baseline. The tolerance band must
        # scale with |baseline|, or an identical rerun of a negative
        # baseline would read as a regression.
        rows = [{"key": "inbac/crash=after-prepare",
                 "outage_commit_gap_ticks": -1406}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        cur = self.write("cur.json", make_doc(rows=[dict(rows[0])]))
        self.assertEqual(self.run_main(["--baseline", base, cur])[0], 0)

    def test_negative_gap_real_regression_fails(self):
        rows = [{"key": "inbac/crash=after-prepare",
                 "outage_commit_gap_ticks": -1406}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], outage_commit_gap_ticks=2000)])
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("outage_commit_gap_ticks", err)

    def test_fast_path_rate_is_report_only(self):
        rows = [{"key": "inbac/baseline/log=3", "fast_path_rate": 0.59}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], fast_path_rate=0.2)])
        cur = self.write("cur.json", doc)
        code, out, _ = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("report-only", out)

    def test_committed_per_sec_wall_is_report_only(self):
        rows = [{"key": "inbac/openloop", "committed_per_sec_wall": 50000.0}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], committed_per_sec_wall=100.0)])
        cur = self.write("cur.json", doc)
        code, out, _ = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("report-only", out)

    def test_served_per_sec_wall_is_report_only(self):
        # bench_db_readmix's wall-clock served rate (commits plus snapshot
        # reads): a drop never fails the gate, it is only reported.
        rows = [{"key": "inbac/read=0.99/snapshot=1",
                 "served_per_sec_wall": 480000.0}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], served_per_sec_wall=1000.0)])
        cur = self.write("cur.json", doc)
        code, out, _ = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("served_per_sec_wall", out)
        self.assertIn("report-only", out)

    def test_wall_clock_is_report_only(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"][0]["wall_seconds"] = 50.0  # 50x slower: report, no fail
        cur = self.write("cur.json", doc)
        code, out, _ = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("report-only", out)

    def test_missing_gated_metric_fails(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        del doc["rows"][0]["msgs_per_commit"]
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("disappeared", err)

    def test_dropped_row_fails(self):
        two_rows = make_doc(rows=[
            {"key": "inbac/a", "msgs_per_commit": 10.0},
            {"key": "inbac/b", "msgs_per_commit": 12.0},
        ])
        base = self.write_baseline("base.json", [two_rows])
        cur = self.write("cur.json", make_doc(
            rows=[{"key": "inbac/a", "msgs_per_commit": 10.0}]))
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("inbac/b", err)

    def test_new_row_is_report_only(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"].append({"key": "inbac/new", "msgs_per_commit": 1.0})
        cur = self.write("cur.json", doc)
        code, out, _ = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 0)
        self.assertIn("new row", out)

    def test_missing_bench_file_fails(self):
        base = self.write_baseline(
            "base.json", [make_doc("db_x"), make_doc("db_y")])
        cur = self.write("cur.json", make_doc("db_x"))
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("db_y", err)

    def test_txs_mismatch_fails(self):
        base = self.write_baseline("base.json", [make_doc(txs=500)])
        cur = self.write("cur.json", make_doc(txs=1000))
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("txs", err)

    def test_unknown_bench_is_skipped_with_report(self):
        base = self.write_baseline("base.json", [make_doc("db_x")])
        cur_x = self.write("x.json", make_doc("db_x"))
        cur_z = self.write("z.json", make_doc("db_z"))
        code, out, _ = self.run_main(["--baseline", base, cur_x, cur_z])
        self.assertEqual(code, 0)
        self.assertIn("no baseline yet", out)

    # -------------------------------------------------------- exact mode --

    def test_exact_equal_documents_pass(self):
        base = self.write_baseline("base.json", [make_doc()])
        cur = self.write("cur.json", make_doc())
        code, out, _ = self.run_main(["--baseline", base, "--exact", cur])
        self.assertEqual(code, 0)
        self.assertIn("equal to baseline", out)

    def test_exact_moved_ungated_field_fails(self):
        rows = [{"key": "inbac/a", "msgs_per_commit": 10.0,
                 "fast_path_decisions": 400}]
        base = self.write_baseline("base.json", [make_doc(rows=rows)])
        doc = make_doc(rows=[dict(rows[0], fast_path_decisions=401)])
        cur = self.write("cur.json", doc)
        # Not a gated metric: the tolerance gate lets it through ...
        self.assertEqual(self.run_main(["--baseline", base, cur])[0], 0)
        # ... the exact comparison names it.
        code, _, err = self.run_main(["--baseline", base, "--exact", cur])
        self.assertEqual(code, 1)
        self.assertIn("inbac/a: fast_path_decisions 400 -> 401", err)

    def test_exact_moved_gated_field_within_tolerance_fails(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"][0]["msgs_per_commit"] = 10.1  # +1%: inside the band
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, "--exact", cur])
        self.assertEqual(code, 1)
        self.assertIn("msgs_per_commit 10.0 -> 10.1", err)

    def test_exact_ignores_report_only_fields(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"][0]["wall_seconds"] = 50.0
        doc["rows"][0]["fast_path_rate"] = 0.2  # report-only, only here
        cur = self.write("cur.json", doc)
        code, _, _ = self.run_main(["--baseline", base, "--exact", cur])
        self.assertEqual(code, 0)

    def test_exact_added_or_dropped_field_fails(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"][0]["shed"] = 0
        del doc["rows"][0]["occupancy"]
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, "--exact", cur])
        self.assertEqual(code, 1)
        self.assertIn("shed <missing> -> 0", err)
        self.assertIn("occupancy 4.0 -> <missing>", err)

    def test_exact_new_row_fails(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"].append({"key": "inbac/new", "msgs_per_commit": 1.0})
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, "--exact", cur])
        self.assertEqual(code, 1)
        self.assertIn("new row", err)

    def test_exact_needs_baseline(self):
        cur = self.write("cur.json", make_doc())
        with self.assertRaises(SystemExit):
            self.run_main(["--merge", self.path("m.json"), "--exact", cur])

    # -------------------------------------------------------- merge mode --

    def test_merge_creates_baseline(self):
        cur = self.write("cur.json", make_doc())
        out_path = self.path("merged.json")
        code, out, _ = self.run_main(["--merge", out_path, cur])
        self.assertEqual(code, 0)
        with open(out_path) as f:
            merged = json.load(f)
        self.assertEqual([d["bench"] for d in merged["benches"]], ["db_x"])
        self.assertIn("wrote", out)

    def test_merge_partial_refresh_keeps_other_benches(self):
        out_path = self.write_baseline(
            "merged.json", [make_doc("db_x"), make_doc("db_y", txs=77)])
        fresh = make_doc("db_x", txs=2000)
        cur = self.write("cur.json", fresh)
        code, _, _ = self.run_main(["--merge", out_path, cur])
        self.assertEqual(code, 0)
        with open(out_path) as f:
            merged = json.load(f)
        by_name = {d["bench"]: d for d in merged["benches"]}
        self.assertEqual(set(by_name), {"db_x", "db_y"})
        self.assertEqual(by_name["db_x"]["txs"], 2000)  # refreshed
        self.assertEqual(by_name["db_y"]["txs"], 77)    # preserved

    def test_merge_then_gate_round_trips(self):
        cur = self.write("cur.json", make_doc())
        out_path = self.path("merged.json")
        self.assertEqual(self.run_main(["--merge", out_path, cur])[0], 0)
        self.assertEqual(self.run_main(["--baseline", out_path, cur])[0], 0)

    def test_merge_refuses_corrupt_existing_baseline(self):
        out_path = self.write("merged.json", None, raw="{not json")
        cur = self.write("cur.json", make_doc())
        code, _, err = self.run_main(["--merge", out_path, cur])
        self.assertEqual(code, 1)
        self.assertIn("MALFORMED BASELINE", err)

    # --------------------------------------------------- malformed input --

    def test_malformed_json_fails_cleanly(self):
        base = self.write_baseline("base.json", [make_doc()])
        cur = self.write("cur.json", None, raw="{\"bench\": \"db_x\", ")
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("MALFORMED BENCH FILE", err)

    def test_row_without_key_fails_cleanly(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"].append({"msgs_per_commit": 1.0})  # no "key"
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("no usable 'key'", err)

    def test_duplicate_row_keys_fail(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"].append(dict(doc["rows"][0]))  # same key twice
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("duplicate row key", err)

    def test_non_object_row_fails_cleanly(self):
        base = self.write_baseline("base.json", [make_doc()])
        doc = make_doc()
        doc["rows"].append(["not", "a", "row"])
        cur = self.write("cur.json", doc)
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("not a JSON object", err)

    def test_duplicate_bench_name_across_current_files_fails(self):
        base = self.write_baseline("base.json", [make_doc()])
        cur_a = self.write("a.json", make_doc())
        cur_b = self.write("b.json", make_doc())  # same bench name
        code, _, err = self.run_main(["--baseline", base, cur_a, cur_b])
        self.assertEqual(code, 1)
        self.assertIn("duplicate bench name", err)

    def test_duplicate_bench_name_in_merge_inputs_fails(self):
        cur_a = self.write("a.json", make_doc())
        cur_b = self.write("b.json", make_doc())
        code, _, err = self.run_main(
            ["--merge", self.path("merged.json"), cur_a, cur_b])
        self.assertEqual(code, 1)
        self.assertIn("duplicate bench name", err)

    def test_duplicate_bench_name_in_baseline_fails(self):
        base = self.write_baseline(
            "base.json", [make_doc(), make_doc()])
        cur = self.write("cur.json", make_doc())
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("duplicate bench name", err)

    def test_malformed_baseline_row_fails_cleanly(self):
        base = self.write_baseline(
            "base.json", [make_doc(rows=[{"nokey": 1}])])
        cur = self.write("cur.json", make_doc())
        code, _, err = self.run_main(["--baseline", base, cur])
        self.assertEqual(code, 1)
        self.assertIn("MALFORMED BASELINE DATA", err)


if __name__ == "__main__":
    unittest.main()
