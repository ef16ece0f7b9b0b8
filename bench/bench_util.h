#ifndef FASTCOMMIT_BENCH_BENCH_UTIL_H_
#define FASTCOMMIT_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/complexity.h"
#include "core/runner.h"
#include "db/database.h"
#include "db/traffic.h"
#include "db_run.h"

namespace fastcommit::bench {

/// Measured nice-execution complexity of one protocol.
struct Measured {
  int64_t delays = 0;
  int64_t messages = 0;
};

inline Measured MeasureNice(core::ProtocolKind protocol, int n, int f) {
  core::RunResult result =
      core::Run(core::MakeNiceConfig(protocol, n, f));
  return Measured{result.MessageDelays(), result.PaperMessageCount()};
}

/// "ok", or "MISMATCH" with the failure recorded in check_failed.
inline const char* Verdict(bool ok) {
  if (!ok) check_failed = true;
  return ok ? "ok" : "MISMATCH";
}

inline const char* Verdict(int64_t measured, int64_t expected) {
  return Verdict(measured == expected);
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void PrintRule() {
  std::printf(
      "--------------------------------------------------------------------"
      "----------\n");
}

/// Protocol + consensus messages per committed transaction — the gated
/// `msgs_per_commit` JSON field; every db bench must compute it the same
/// way because tools/bench_compare.py matches it by name across their
/// documents. 0.0 when nothing committed.
inline double MsgsPerCommit(const db::DatabaseStats& stats) {
  return stats.committed == 0 ? 0.0
                              : static_cast<double>(stats.commit_messages) /
                                    static_cast<double>(stats.committed);
}

/// Simulated throughput: committed transactions per virtual tick (the
/// `commits_per_tick` JSON field, gated higher-is-better — deterministic
/// for a seed, so regressions here are real scheduling/batching changes,
/// not machine noise). 0.0 for an empty or zero-length run.
inline double CommitsPerTick(const db::DatabaseStats& stats) {
  return stats.makespan == 0 ? 0.0
                             : static_cast<double>(stats.committed) /
                                   static_cast<double>(stats.makespan);
}

/// Wall-clock sustained throughput: committed transactions per second of
/// host time (the `committed_per_sec_wall` JSON field — report-only, it
/// varies with the machine like `txs_per_second`). 0.0 guards cold runs.
inline double CommittedPerSecWall(int64_t committed, double wall_seconds) {
  return wall_seconds <= 0.0
             ? 0.0
             : static_cast<double>(committed) / wall_seconds;
}

/// Abort-reason breakdown columns shared by every db bench row that
/// reports DatabaseStats: lock-conflict vs validation-failure attempts
/// (exactly one side is nonzero per run — the concurrency mode picks the
/// bucket) plus admission sheds. Simulated metrics, deterministic per
/// seed.
template <typename Row>
inline void SetAbortColumns(Row& row, const db::DatabaseStats& stats) {
  row.Set("abort_lock_conflicts", stats.abort_lock_conflicts)
      .Set("abort_validation_failures", stats.abort_validation_failures)
      .Set("shed", stats.shed);
}

/// Machine-readable bench output (the `--json <path>` flag of the db
/// benches): one JSON document per bench run, one row per measured
/// configuration, keyed so `tools/bench_compare.py` can diff runs against
/// the checked-in `BENCH_baseline.json` and CI can accumulate the perf
/// trajectory as workflow artifacts.
///
/// Field conventions the compare gate relies on:
///   - `*_ticks` and `msgs_per_commit` / `occupancy` are *simulated*
///     metrics — deterministic for a seed, so the gate compares them
///     across machines;
///   - `wall_seconds` / `txs_per_second` are wall-clock — report-only.
class JsonBenchReport {
 public:
  JsonBenchReport(std::string bench, int64_t txs)
      : bench_(std::move(bench)), txs_(txs) {}

  class Row {
   public:
    explicit Row(std::string key) : key_(std::move(key)) {}
    Row& Set(const char* name, int64_t value) {
      fields_.emplace_back(name, std::to_string(value));
      return *this;
    }
    Row& Set(const char* name, double value) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.10g", value);
      fields_.emplace_back(name, buffer);
      return *this;
    }

   private:
    friend class JsonBenchReport;
    std::string key_;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// The returned reference stays valid across later AddRow calls (rows
  /// live in a deque), so callers may hold several rows open at once.
  Row& AddRow(std::string key) {
    rows_.emplace_back(std::move(key));
    return rows_.back();
  }

  /// Writes the document; returns false (with a message on stderr) on I/O
  /// failure so benches can exit nonzero.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write bench json: %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"txs\": %lld,\n  \"rows\": [",
                 bench_.c_str(), static_cast<long long>(txs_));
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n    {\"key\": \"%s\"", i == 0 ? "" : ",",
                   rows_[i].key_.c_str());
      for (const auto& [name, value] : rows_[i].fields_) {
        std::fprintf(f, ", \"%s\": %s", name.c_str(), value.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    bool ok = std::fclose(f) == 0;
    if (ok) std::printf("\nwrote %s\n", path.c_str());
    return ok;
  }

 private:
  std::string bench_;
  int64_t txs_;
  std::deque<Row> rows_;
};

// ------------------------------------------------------ database runs --

/// The flags every db bench takes: --txs N and --json PATH.
struct DbArgs {
  int txs = 0;
  std::string json_path;              ///< empty: write no document
  std::vector<std::string> switches;  ///< the bench's own switches given

  bool Has(const char* name) const {
    for (const std::string& given : switches) {
      if (given == name) return true;
    }
    return false;
  }
};

/// Parses --txs N (default `default_txs`), --json PATH and the bench's own
/// `switches`; prints the usage line and exits 1 on anything else.
inline DbArgs ParseDbArgs(int argc, char** argv, int default_txs,
                          std::initializer_list<const char*> switches = {}) {
  DbArgs args;
  args.txs = default_txs;
  for (int i = 1; i < argc; ++i) {
    bool known = false;
    if (std::strcmp(argv[i], "--txs") == 0 && i + 1 < argc) {
      args.txs = std::atoi(argv[++i]);
      known = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
      known = true;
    }
    for (const char* name : switches) {
      if (!known && std::strcmp(argv[i], name) == 0) {
        args.switches.emplace_back(name);
        known = true;
      }
    }
    if (!known) {
      std::fprintf(stderr, "usage: %s [--txs N] [--json PATH]", argv[0]);
      for (const char* name : switches) std::fprintf(stderr, " [%s]", name);
      std::fprintf(stderr, "\n");
      std::exit(1);
    }
  }
  return args;
}

/// Transfer pairs at seed 42, the stream the open-loop benches vary;
/// num_keys stays the 1<<20 open-loop default.
inline db::TrafficOptions BaseTraffic(db::ArrivalProcess process,
                                      double mean_gap) {
  db::TrafficOptions traffic;
  traffic.process = process;
  traffic.mean_gap = mean_gap;
  traffic.shape = db::TxShape::kTransferPair;
  traffic.seed = 42;
  return traffic;
}

inline double CommittedPerSecWall(const DbRun& run) {
  return CommittedPerSecWall(run.stats.committed, run.wall_seconds);
}

/// Snapshot-read columns: the delivered read-only commits and their kGets,
/// plus the derived simulated read throughput (the `reads_per_tick` JSON
/// field, gated higher-is-better).
template <typename Row>
inline void SetSnapshotColumns(Row& row, const DbRun& run) {
  row.Set("read_only_committed", run.read_txs)
      .Set("snapshot_reads_served", run.read_ops)
      .Set("reads_per_tick",
           run.stats.makespan == 0
               ? 0.0
               : static_cast<double>(run.read_ops) /
                     static_cast<double>(run.stats.makespan));
}

/// Writes the --json document if one was asked for and returns a db
/// bench's exit status: 2 when `failed`, check_failed is set or the
/// document could not be written, else 0.
inline int FinishDbBench(const DbArgs& args, const JsonBenchReport& report,
                         bool failed) {
  bool json_failed =
      !args.json_path.empty() && !report.WriteTo(args.json_path);
  return failed || check_failed || json_failed ? 2 : 0;
}

}  // namespace fastcommit::bench

#endif  // FASTCOMMIT_BENCH_BENCH_UTIL_H_
