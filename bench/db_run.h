#ifndef FASTCOMMIT_BENCH_DB_RUN_H_
#define FASTCOMMIT_BENCH_DB_RUN_H_

// The one database run of the db benches and the db tests: build a
// Database, load its initial balances, feed it a DbLoad, drain it and read
// every counter into a DbRun. Every run checks that each key ends at its
// delivered-commit ledger and that every commit was delivered once.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/traffic.h"

namespace fastcommit::bench {

/// Set by every shared check that fails: a MISMATCH verdict, or a database
/// run that broke its ledger. A bench's main exits nonzero when it is set.
inline bool check_failed = false;

/// Where RunDb reports a failed check: printed, with check_failed set.
/// Test binaries point it at a gtest failure of the running test
/// (tests/db_run_gtest.cc).
inline void (*report_check_failure)(const std::string& what) =
    [](const std::string& what) {
      check_failed = true;
      std::printf("  %s\n", what.c_str());
    };

/// What one database run is fed: `initial` balances, loaded before the
/// first submission, then closed-loop `txs`, txs[i] submitted at at[i], and
/// one open-loop TrafficEngine per entry of `streams`. `on_read`, when set,
/// observes each served snapshot read with the values it returned and the
/// run's clock at that instant.
struct DbLoad {
  using ReadObserver =
      std::function<void(const db::Transaction& tx,
                         const std::vector<db::Value>& values, sim::Time now)>;

  std::vector<std::pair<db::Key, db::Value>> initial;
  std::vector<db::Transaction> txs;
  std::vector<sim::Time> at;
  std::vector<db::TrafficOptions> streams;
  ReadObserver on_read;

  void Submit(db::Transaction tx, sim::Time instant) {
    txs.push_back(std::move(tx));
    at.push_back(instant);
  }
};

/// `txs` in order, `burst` at one instant, each burst `burst * gap` ticks
/// after the previous one.
inline DbLoad ClosedLoop(std::vector<db::Transaction> txs, sim::Time gap,
                         int burst = 1) {
  DbLoad load;
  sim::Time at = 0;
  int in_burst = 0;
  for (db::Transaction& tx : txs) {
    load.Submit(std::move(tx), at);
    if (++in_burst == burst) {
      in_burst = 0;
      at += burst * gap;
    }
  }
  return load;
}

inline DbLoad OpenLoop(db::TrafficOptions traffic, int num_arrivals) {
  traffic.num_arrivals = num_arrivals;
  DbLoad load;
  load.streams.push_back(traffic);
  return load;
}

/// AccountKey(0 .. count - 1), each holding `balance`.
inline std::vector<std::pair<db::Key, db::Value>> Accounts(int count,
                                                           db::Value balance) {
  std::vector<std::pair<db::Key, db::Value>> accounts;
  for (int a = 0; a < count; ++a) {
    accounts.emplace_back(db::AccountKey(a), balance);
  }
  return accounts;
}

/// Everything one database run reports. Every field but `pool` and
/// `wall_seconds` is simulated: deterministic for a seed.
struct DbRun {
  db::DatabaseStats stats;
  db::Database::BatchStats batch;
  db::Database::RecoveryStats recovery;
  db::Database::GeoStats geo;
  /// The commit log's counters and its live-slot window; zero without a
  /// commit log.
  db::CommitLog::Stats log;
  int64_t live_slots = 0;
  int64_t min_active = 0;
  /// Finishes down partitions deferred to their restarts
  /// (PartitionPlane::tasks_drained), and prepares they refused
  /// (down_vote_noes).
  int64_t deferred_finishes = 0;
  int64_t down_vote_noes = 0;
  db::CommitInstancePool::Stats pool;
  uint64_t fingerprint = 0;  ///< Database::read_fingerprint
  int64_t sum = 0;           ///< Database::SumInts after the drain
  /// Delivered commits, and the read-only ones with the kGets they carried.
  /// Counted at delivery, so the read counts mean the same with snapshot
  /// reads off, where stats.read_only_committed stays 0.
  int64_t delivered_commits = 0;
  int64_t read_txs = 0;
  int64_t read_ops = 0;
  /// Keys whose final value is not their initial balance plus the kAdd
  /// deltas of the delivered commits: a commit was lost or applied twice.
  int64_t ledger_mismatches = 0;
  double wall_seconds = 0;

  /// The first part of the simulated record that differs from `o`'s, or
  /// "" when both runs simulated the same.
  std::string FirstDifference(const DbRun& o) const {
    if (!(stats == o.stats)) return "stats";
    if (!(batch == o.batch)) return "batch";
    if (!(recovery == o.recovery)) return "recovery";
    if (!(geo == o.geo)) return "geo";
    if (!(log == o.log)) return "log";
    if (live_slots != o.live_slots) return "live_slots";
    if (min_active != o.min_active) return "min_active";
    if (deferred_finishes != o.deferred_finishes) return "deferred_finishes";
    if (down_vote_noes != o.down_vote_noes) return "down_vote_noes";
    if (fingerprint != o.fingerprint) return "fingerprint";
    if (sum != o.sum) return "sum";
    if (delivered_commits != o.delivered_commits) return "delivered_commits";
    if (read_txs != o.read_txs) return "read_txs";
    if (read_ops != o.read_ops) return "read_ops";
    if (ledger_mismatches != o.ledger_mismatches) return "ledger_mismatches";
    return "";
  }
};

/// Builds a Database with `options`, feeds it `load`, drains it and reads
/// every counter. A key off its ledger, or delivered commits other than
/// committed + read_only_committed, is reported to report_check_failure.
inline DbRun RunDb(const db::Database::Options& options, const DbLoad& load) {
  db::Database database(options);
  DbRun run;
  std::unordered_map<db::Key, int64_t> ledger;
  for (const auto& [key, value] : load.initial) {
    database.LoadInt(key, value);
    ledger[key] = value;
  }
  std::deque<db::TrafficEngine> engines;
  for (const db::TrafficOptions& stream : load.streams) {
    engines.emplace_back(stream);
  }
  if (load.on_read) {
    database.set_snapshot_read_observer(
        [&](const db::Transaction& tx, int64_t,
            const std::vector<db::Value>& values) {
          load.on_read(tx, values, database.Now());
        });
  }
  // Copied before the clock starts: Submit takes each transaction.
  std::vector<db::Transaction> txs = load.txs;
  auto deliver = [&](const db::Transaction& tx, commit::Decision d) {
    if (d != commit::Decision::kCommit) return;
    ++run.delivered_commits;
    if (db::IsReadOnly(tx)) {
      ++run.read_txs;
      run.read_ops += static_cast<int64_t>(tx.ops.size());
    }
    for (const db::Op& op : tx.ops) {
      if (op.type == db::Op::Type::kAdd) ledger[op.key] += op.delta;
    }
  };
  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < txs.size(); ++i) {
    database.Submit(std::move(txs[i]), load.at[i], deliver);
  }
  for (db::TrafficEngine& engine : engines) {
    database.SubmitArrivals(&engine, deliver);
  }
  run.stats = database.Drain();
  std::chrono::duration<double> wall = Clock::now() - start;
  run.wall_seconds = wall.count();
  run.batch = database.batch_stats();
  run.recovery = database.recovery_stats();
  run.geo = database.geo_stats();
  if (const db::CommitLog* log = database.commit_log()) {
    run.log = log->stats();
    run.live_slots = log->live_slots();
    run.min_active = log->min_active();
  }
  run.deferred_finishes = database.partition_plane().tasks_drained();
  run.down_vote_noes = database.partition_plane().down_vote_noes();
  run.pool = database.pool_stats();
  run.fingerprint = database.read_fingerprint();
  run.sum = database.SumInts();
  for (const auto& [key, balance] : ledger) {
    if (database.GetInt(key) != balance) ++run.ledger_mismatches;
  }
  if (run.ledger_mismatches > 0) {
    report_check_failure("LEDGER VIOLATION: " +
                         std::to_string(run.ledger_mismatches) +
                         " keys off the delivered commits");
  }
  int64_t counted = run.stats.committed + run.stats.read_only_committed;
  if (run.delivered_commits != counted) {
    report_check_failure("DELIVERY VIOLATION: delivered - counted = " +
                         std::to_string(run.delivered_commits - counted));
  }
  return run;
}

}  // namespace fastcommit::bench

#endif  // FASTCOMMIT_BENCH_DB_RUN_H_
