// Read-mix axis of the snapshot-read plane: one deterministic arrival
// stream per read fraction (0.5 -> 0.99 of arrivals are pure read-only
// transactions, Zipf-skewed over a shared hot set with the transfer
// writers), run twice — Options::snapshot_reads off (reads take the
// locked commit path) and on (reads ride the lock-free CSN-stamped MVCC
// plane) — at a load the locked path cannot sustain (Poisson mean gap
// kReadMixGap against max_inflight = kReadMixCap). Plus a scan row: an
// OLTP transfer stream with a concurrent scan stream of wide read-only
// transactions (a second TrafficEngine at read_fraction = 1, id-offset
// so the streams share the database without colliding).
//
// Measures, per (read fraction, snapshot on/off):
//   - snapshot reads served and the derived reads_per_tick (for the off
//     rows, read-only commits of the locked path — counted through the
//     completion callback so the column means the same thing on both
//     sides of the axis);
//   - write-commit latency p99 (DatabaseStats::write_latency — the
//     read-only commits are excluded so the tail is comparable across
//     the axis), msgs per commit, commits per tick, shed arrivals.
//
// It doubles as the snapshot-plane regression gate, exiting nonzero when
// any fails:
//   - every row's DatabaseStats, BatchStats, and read fingerprint must
//     be bitwise identical between the single-queue reference and the
//     same stream placed on 4 shards;
//   - at read fraction 0.99 the snapshot plane must serve at least
//     kReadSpeedupFloor x the locked path's reads per tick — the whole
//     point of routing read-only transactions around the protocol;
//   - turning snapshot reads on must not regress the write p99 at any
//     read fraction (readers leave the lock table, so write tails may
//     only improve);
//   - on-rows must agree with DatabaseStats: the callback-counted
//     read-only commits must equal read_only_committed (and the kGets
//     snapshot_reads_served) — the snapshot plane serves *every*
//     read-only transaction, none may leak onto the locked path;
//   - the scan row must serve every scan (read_only_committed equals the
//     scan stream's arrivals) while the writers sustain >= kOltpFloor of
//     their offered load.
//
// Usage:
//   bench_db_readmix [--txs N] [--json PATH]
//
// Default: N = 20000 arrivals per run. --json writes the machine-readable
// row set consumed by tools/bench_compare.py (see BENCH_baseline.json).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/traffic.h"

namespace fastcommit::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kReadMixGap = 1.0;     ///< ticks between arrivals (mean)
constexpr int64_t kReadMixCap = 64;     ///< max_inflight of the mix rows
constexpr double kReadSpeedupFloor = 2.0;  ///< reads/tick, on vs off @0.99
constexpr double kOltpFloor = 0.95;     ///< scan row: writer sustain gate
constexpr int64_t kScanTxIdOffset = 1'000'000'000;  ///< scan stream ids
constexpr int kScanReadsPerTx = 32;     ///< kGets per scan transaction

db::TrafficOptions MixTraffic(double read_fraction) {
  db::TrafficOptions traffic;
  traffic.process = db::ArrivalProcess::kPoisson;
  traffic.mean_gap = kReadMixGap;
  traffic.shape = db::TxShape::kTransferPair;
  traffic.read_fraction = read_fraction;
  traffic.reads_per_tx = 4;
  // A small Zipf-hot key space: in the locked rows the readers'shared
  // locks sit on exactly the keys the writers want, which is the regime
  // the snapshot plane exists for.
  traffic.num_keys = 4096;
  traffic.zipf_exponent = 0.99;
  traffic.seed = 42;
  return traffic;
}

struct Result {
  double wall_seconds = 0;
  db::DatabaseStats stats;
  db::Database::BatchStats batch;
  uint64_t fingerprint = 0;  ///< Database::read_fingerprint after drain
  /// Read-only commits seen by the completion callback — on the locked
  /// rows these ride the normal path (stats.read_only_committed stays 0),
  /// so the callback is the only counter that means the same thing on
  /// both sides of the snapshot axis.
  int64_t read_txs = 0;
  int64_t read_ops = 0;  ///< kGets carried by those commits
};

db::Database::Options BaseOptions(bool snapshot, int64_t max_inflight,
                                  int shards) {
  db::Database::Options options;
  options.num_partitions = 8;
  options.protocol = core::ProtocolKind::kInbac;
  options.num_shards = shards;
  options.max_inflight = max_inflight;
  options.snapshot_reads = snapshot;
  return options;
}

Result Finish(db::Database& database, Clock::time_point start) {
  Result result;
  result.stats = database.Drain();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.batch = database.batch_stats();
  result.fingerprint = database.read_fingerprint();
  return result;
}

db::Database::CompletionCallback CountReads(Result* result) {
  return [result](const db::Transaction& tx, commit::Decision decision) {
    if (decision == commit::Decision::kCommit && db::IsReadOnly(tx)) {
      ++result->read_txs;
      result->read_ops += static_cast<int64_t>(tx.ops.size());
    }
  };
}

Result RunMix(double read_fraction, bool snapshot, int num_arrivals,
              int shards) {
  db::Database database(BaseOptions(snapshot, kReadMixCap, shards));
  db::TrafficOptions traffic = MixTraffic(read_fraction);
  traffic.num_arrivals = num_arrivals;
  db::TrafficEngine engine(traffic);
  Result result;
  auto start = Clock::now();
  database.SubmitArrivals(&engine, CountReads(&result));
  Result drained = Finish(database, start);
  drained.read_txs = result.read_txs;
  drained.read_ops = result.read_ops;
  return drained;
}

/// The scan row: transfer writers at a comfortable rate plus a concurrent
/// stream of wide read-only scans (its own engine, ids offset past every
/// OLTP id). Uncapped — the gate is that the snapshot plane serves every
/// scan while the writers keep sustaining, not that admission binds.
Result RunScan(int num_arrivals, int shards) {
  db::Database database(BaseOptions(/*snapshot=*/true, /*max_inflight=*/0,
                                    shards));
  db::TrafficOptions oltp;
  oltp.process = db::ArrivalProcess::kPoisson;
  oltp.mean_gap = 40.0;
  oltp.shape = db::TxShape::kTransferPair;
  oltp.num_keys = 4096;
  oltp.zipf_exponent = 0.99;
  oltp.num_arrivals = num_arrivals;
  oltp.seed = 42;

  db::TrafficOptions scan = oltp;
  scan.read_fraction = 1.0;
  scan.reads_per_tx = kScanReadsPerTx;
  // One scan per 8 writes on average, over the same virtual span.
  scan.mean_gap = oltp.mean_gap * 8.0;
  scan.num_arrivals = num_arrivals / 8;
  scan.first_tx_id = kScanTxIdOffset;
  scan.seed = 7;

  db::TrafficEngine oltp_engine(oltp);
  db::TrafficEngine scan_engine(scan);
  Result result;
  auto start = Clock::now();
  database.SubmitArrivals(&oltp_engine, CountReads(&result));
  database.SubmitArrivals(&scan_engine, CountReads(&result));
  Result drained = Finish(database, start);
  drained.read_txs = result.read_txs;
  drained.read_ops = result.read_ops;
  return drained;
}

double ReadsPerTick(const Result& r) {
  return r.stats.makespan == 0 ? 0.0
                               : static_cast<double>(r.read_ops) /
                                     static_cast<double>(r.stats.makespan);
}

void PrintResult(const std::string& label, const Result& r, bool identical) {
  std::printf(
      "  %-22s committed %7lld  read txs %7lld  reads/tick %7.3f  "
      "shed %7lld  write p99 %6lld  stats %s\n",
      label.c_str(), static_cast<long long>(r.stats.committed),
      static_cast<long long>(r.read_txs), ReadsPerTick(r),
      static_cast<long long>(r.stats.shed),
      static_cast<long long>(r.stats.write_latency.Percentile(99)),
      identical ? "identical" : "DIVERGED");
}

}  // namespace
}  // namespace fastcommit::bench

int main(int argc, char** argv) {
  using namespace fastcommit;
  using namespace fastcommit::bench;

  int num_arrivals = 20000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--txs") == 0 && i + 1 < argc) {
      num_arrivals = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--txs N] [--json PATH]\n", argv[0]);
      return 1;
    }
  }

  PrintHeader("DB read mix: locked path vs the snapshot read plane");
  std::printf(
      "%d arrivals per run, 8 partitions, transfer writers + %d-key reads "
      "over 4096 Zipf(0.99) keys,\nPoisson mean gap %.0f against "
      "max_inflight = %lld, placement check on 4 shards\n",
      num_arrivals, MixTraffic(0.5).reads_per_tx, kReadMixGap,
      static_cast<long long>(kReadMixCap));

  JsonBenchReport report("db_readmix", num_arrivals);
  bool diverged = false;
  bool speedup_failed = false;
  bool write_p99_regressed = false;
  bool leaked_reads = false;
  bool scan_failed = false;

  // Single-queue reference vs the run placed on 4 shards: stats, batch
  // counters, and the snapshot-read fingerprint must all match, so the
  // gate covers read *results*, not just outcome counts.
  auto check_identity = [&](const Result& serial, const Result& placed) {
    bool identical = serial.stats == placed.stats &&
                     serial.batch == placed.batch &&
                     serial.fingerprint == placed.fingerprint;
    if (!identical) diverged = true;
    return identical;
  };

  auto add_row = [&](const std::string& key, const Result& r) -> auto& {
    auto& row = report.AddRow(key);
    row.Set("offered", r.stats.offered)
        .Set("committed", r.stats.committed)
        .Set("shed", r.stats.shed)
        .Set("msgs_per_commit",
             MsgsPerCommit(r.stats.commit_messages, r.stats.committed))
        .Set("commits_per_tick",
             CommitsPerTick(r.stats.committed, r.stats.makespan))
        .Set("write_p99_latency_ticks",
             static_cast<int64_t>(r.stats.write_latency.Percentile(99)))
        .Set("makespan_ticks", static_cast<int64_t>(r.stats.makespan))
        .Set("wall_seconds", r.wall_seconds)
        .Set("committed_per_sec_wall",
             CommittedPerSecWall(r.stats.committed, r.wall_seconds))
        // Snapshot-served reads count as served too (the same numerator as
        // benchmark/fc_bench's txn_per_s); committed_per_sec_wall omits them.
        .Set("served_per_sec_wall",
             CommittedPerSecWall(
                 r.stats.committed + r.stats.read_only_committed,
                 r.wall_seconds));
    // The callback-side counters, not stats.read_only_committed: on the
    // locked rows the reads commit through the protocol and the column
    // must still mean "read-only transactions served".
    SetSnapshotColumns(row, r.read_txs, r.read_ops,
                       static_cast<int64_t>(r.stats.makespan));
    return row;
  };

  std::printf("\nread-fraction sweep\n");
  PrintRule();
  for (double fraction : {0.5, 0.9, 0.99}) {
    Result pair[2];  // [0] = snapshot off (locked reads), [1] = on
    for (int snapshot = 0; snapshot <= 1; ++snapshot) {
      Result serial = RunMix(fraction, snapshot != 0, num_arrivals, 1);
      Result placed = RunMix(fraction, snapshot != 0, num_arrivals, 4);
      bool identical = check_identity(serial, placed);
      char label[64];
      std::snprintf(label, sizeof(label), "read=%.2f/snapshot=%d", fraction,
                    snapshot);
      PrintResult(label, placed, identical);
      add_row(std::string("inbac/") + label, placed);
      pair[snapshot] = placed;
      if (snapshot == 1 &&
          (placed.read_txs != placed.stats.read_only_committed ||
           placed.read_ops != placed.stats.snapshot_reads_served)) {
        leaked_reads = true;
        std::printf(
            "  SNAPSHOT LEAK: %lld read commits / %lld kGets vs counters "
            "%lld / %lld — read-only transactions took the locked path\n",
            static_cast<long long>(placed.read_txs),
            static_cast<long long>(placed.read_ops),
            static_cast<long long>(placed.stats.read_only_committed),
            static_cast<long long>(placed.stats.snapshot_reads_served));
      }
    }
    double speedup = ReadsPerTick(pair[0]) == 0.0
                         ? 0.0
                         : ReadsPerTick(pair[1]) / ReadsPerTick(pair[0]);
    int64_t p99_off = pair[0].stats.write_latency.Percentile(99);
    int64_t p99_on = pair[1].stats.write_latency.Percentile(99);
    std::printf("  -> read=%.2f: snapshot plane %.2fx reads/tick, write p99 "
                "%lld -> %lld ticks\n",
                fraction, speedup, static_cast<long long>(p99_off),
                static_cast<long long>(p99_on));
    if (fraction == 0.99 && speedup < kReadSpeedupFloor) {
      speedup_failed = true;
      std::printf("  READ THROUGHPUT REGRESSION: %.2fx (floor %.1fx)\n",
                  speedup, kReadSpeedupFloor);
    }
    if (p99_on > p99_off) {
      write_p99_regressed = true;
      std::printf("  WRITE TAIL REGRESSION: snapshot on p99 %lld > off %lld\n",
                  static_cast<long long>(p99_on),
                  static_cast<long long>(p99_off));
    }
    char speedup_key[64];
    std::snprintf(speedup_key, sizeof(speedup_key),
                  "inbac/read=%.2f/speedup", fraction);
    report.AddRow(speedup_key)
        .Set("read_speedup_vs_locked", speedup)
        .Set("write_p99_off_ticks", p99_off)
        .Set("write_p99_on_ticks", p99_on);
  }

  std::printf("\nscan stream beside OLTP writers (snapshot on)\n");
  PrintRule();
  {
    Result serial = RunScan(num_arrivals, 1);
    Result placed = RunScan(num_arrivals, 4);
    bool identical = check_identity(serial, placed);
    PrintResult("scan+oltp/snapshot=1", placed, identical);
    add_row("inbac/scan+oltp/snapshot=1", placed);
    int64_t scans_offered = num_arrivals / 8;
    double writer_achieved =
        num_arrivals == 0 ? 0.0
                          : static_cast<double>(placed.stats.committed +
                                                placed.stats.aborted) /
                                static_cast<double>(num_arrivals);
    if (placed.stats.read_only_committed != scans_offered ||
        placed.stats.committed <
            static_cast<int64_t>(kOltpFloor *
                                 static_cast<double>(num_arrivals))) {
      scan_failed = true;
      std::printf(
          "  SCAN REGRESSION: %lld/%lld scans served, %lld/%d writers "
          "committed (floor %.2f, %.3f of offered reached a decision)\n",
          static_cast<long long>(placed.stats.read_only_committed),
          static_cast<long long>(scans_offered),
          static_cast<long long>(placed.stats.committed), num_arrivals,
          kOltpFloor, writer_achieved);
    } else {
      std::printf(
          "  -> every scan served at its snapshot (%lld x %d kGets), "
          "writers committed %lld/%d\n",
          static_cast<long long>(scans_offered), kScanReadsPerTx,
          static_cast<long long>(placed.stats.committed), num_arrivals);
    }
  }

  if (diverged) std::printf("\nDETERMINISM VIOLATION: stats diverged\n");
  bool json_failed = false;
  if (!json_path.empty()) json_failed = !report.WriteTo(json_path);
  return diverged || speedup_failed || write_p99_regressed || leaked_reads ||
                 scan_failed || json_failed
             ? 2
             : 0;
}
