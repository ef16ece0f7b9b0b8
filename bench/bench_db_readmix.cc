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
//     rows, read-only commits of the locked path — counted at delivery
//     so the column means the same thing on both sides of the axis);
//   - write-commit latency p99 (DatabaseStats::latency, which excludes
//     read-only commits, so the tail is comparable across the axis), msgs
//     per commit, commits per tick, shed arrivals.
//
// It doubles as the snapshot-plane regression gate, exiting nonzero when
// any fails:
//   - every row's store must match the delivered-commit ledger;
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

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/traffic.h"

namespace fastcommit::bench {
namespace {

constexpr double kReadMixGap = 1.0;     ///< ticks between arrivals (mean)
constexpr int64_t kReadMixCap = 64;     ///< max_inflight of the mix rows
constexpr double kReadSpeedupFloor = 2.0;  ///< reads/tick, on vs off @0.99
constexpr double kOltpFloor = 0.95;     ///< scan row: writer sustain gate
constexpr int64_t kScanTxIdOffset = 1'000'000'000;  ///< scan stream ids
constexpr int kScanReadsPerTx = 32;     ///< kGets per scan transaction

db::TrafficOptions MixTraffic(double read_fraction) {
  db::TrafficOptions traffic =
      BaseTraffic(db::ArrivalProcess::kPoisson, kReadMixGap);
  traffic.read_fraction = read_fraction;
  traffic.reads_per_tx = 4;
  // A small Zipf-hot key space: in the locked rows the readers'shared
  // locks sit on exactly the keys the writers want, which is the regime
  // the snapshot plane exists for.
  traffic.num_keys = 4096;
  traffic.zipf_exponent = 0.99;
  return traffic;
}

db::Database::Options BaseOptions(bool snapshot, int64_t max_inflight) {
  db::Database::Options options;
  options.num_partitions = 8;
  options.protocol = core::ProtocolKind::kInbac;
  options.max_inflight = max_inflight;
  options.snapshot_reads = snapshot;
  return options;
}

/// The scan row's load: transfer writers at a comfortable rate plus a
/// concurrent stream of wide read-only scans (its own engine, ids offset
/// past every OLTP id). Uncapped — the gate is that the snapshot plane
/// serves every scan while the writers keep sustaining, not that admission
/// binds.
DbLoad ScanLoad(int num_arrivals) {
  db::TrafficOptions oltp = BaseTraffic(db::ArrivalProcess::kPoisson, 40.0);
  oltp.num_keys = 4096;
  oltp.zipf_exponent = 0.99;
  oltp.num_arrivals = num_arrivals;

  db::TrafficOptions scan = oltp;
  scan.read_fraction = 1.0;
  scan.reads_per_tx = kScanReadsPerTx;
  // One scan per 8 writes on average, over the same virtual span.
  scan.mean_gap = oltp.mean_gap * 8.0;
  scan.num_arrivals = num_arrivals / 8;
  scan.first_tx_id = kScanTxIdOffset;
  scan.seed = 7;

  DbLoad load;
  load.streams = {oltp, scan};
  return load;
}

double ReadsPerTick(const DbRun& r) {
  return r.stats.makespan == 0 ? 0.0
                               : static_cast<double>(r.read_ops) /
                                     static_cast<double>(r.stats.makespan);
}

void PrintResult(const std::string& label, const DbRun& r) {
  std::printf(
      "  %-22s committed %7lld  read txs %7lld  reads/tick %7.3f  "
      "shed %7lld  write p99 %6lld\n",
      label.c_str(), static_cast<long long>(r.stats.committed),
      static_cast<long long>(r.read_txs), ReadsPerTick(r),
      static_cast<long long>(r.stats.shed),
      static_cast<long long>(r.stats.latency.Percentile(99)));
}

}  // namespace
}  // namespace fastcommit::bench

int main(int argc, char** argv) {
  using namespace fastcommit;
  using namespace fastcommit::bench;

  DbArgs args = ParseDbArgs(argc, argv, 20000);
  int num_arrivals = args.txs;

  PrintHeader("DB read mix: locked path vs the snapshot read plane");
  std::printf(
      "%d arrivals per run, 8 partitions, transfer writers + %d-key reads "
      "over 4096 Zipf(0.99) keys,\nPoisson mean gap %.0f against "
      "max_inflight = %lld\n",
      num_arrivals, MixTraffic(0.5).reads_per_tx, kReadMixGap,
      static_cast<long long>(kReadMixCap));

  JsonBenchReport report("db_readmix", num_arrivals);
  bool speedup_failed = false;
  bool write_p99_regressed = false;
  bool leaked_reads = false;
  bool scan_failed = false;

  auto add_row = [&](const std::string& key, const DbRun& r) -> auto& {
    auto& row = report.AddRow(key);
    row.Set("offered", r.stats.offered)
        .Set("committed", r.stats.committed)
        .Set("shed", r.stats.shed)
        .Set("msgs_per_commit", MsgsPerCommit(r.stats))
        .Set("commits_per_tick", CommitsPerTick(r.stats))
        .Set("write_p99_latency_ticks",
             static_cast<int64_t>(r.stats.latency.Percentile(99)))
        .Set("makespan_ticks", static_cast<int64_t>(r.stats.makespan))
        .Set("wall_seconds", r.wall_seconds)
        .Set("committed_per_sec_wall", CommittedPerSecWall(r))
        // Snapshot-served reads count as served too (the same numerator as
        // benchmark/fc_bench's txn_per_s); committed_per_sec_wall omits them.
        .Set("served_per_sec_wall",
             CommittedPerSecWall(
                 r.stats.committed + r.stats.read_only_committed,
                 r.wall_seconds));
    // The delivery-side counters, not stats.read_only_committed: on the
    // locked rows the reads commit through the protocol and the column
    // must still mean "read-only transactions served".
    SetSnapshotColumns(row, r);
    return row;
  };

  std::printf("\nread-fraction sweep\n");
  PrintRule();
  for (double fraction : {0.5, 0.9, 0.99}) {
    DbLoad load = OpenLoop(MixTraffic(fraction), num_arrivals);
    DbRun pair[2];  // [0] = snapshot off (locked reads), [1] = on
    for (int snapshot = 0; snapshot <= 1; ++snapshot) {
      DbRun run = RunDb(BaseOptions(snapshot != 0, kReadMixCap), load);
      char label[64];
      std::snprintf(label, sizeof(label), "read=%.2f/snapshot=%d", fraction,
                    snapshot);
      PrintResult(label, run);
      add_row(std::string("inbac/") + label, run);
      pair[snapshot] = run;
      if (snapshot == 1 &&
          (run.read_txs != run.stats.read_only_committed ||
           run.read_ops != run.stats.snapshot_reads_served)) {
        leaked_reads = true;
        std::printf(
            "  SNAPSHOT LEAK: %lld read commits / %lld kGets vs counters "
            "%lld / %lld — read-only transactions took the locked path\n",
            static_cast<long long>(run.read_txs),
            static_cast<long long>(run.read_ops),
            static_cast<long long>(run.stats.read_only_committed),
            static_cast<long long>(run.stats.snapshot_reads_served));
      }
    }
    double speedup = ReadsPerTick(pair[0]) == 0.0
                         ? 0.0
                         : ReadsPerTick(pair[1]) / ReadsPerTick(pair[0]);
    int64_t p99_off = pair[0].stats.latency.Percentile(99);
    int64_t p99_on = pair[1].stats.latency.Percentile(99);
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
    DbLoad load = ScanLoad(num_arrivals);
    DbRun run = RunDb(BaseOptions(/*snapshot=*/true, 0), load);
    PrintResult("scan+oltp/snapshot=1", run);
    add_row("inbac/scan+oltp/snapshot=1", run);
    int64_t scans_offered = num_arrivals / 8;
    double writer_achieved =
        num_arrivals == 0 ? 0.0
                          : static_cast<double>(run.stats.committed +
                                                run.stats.aborted) /
                                static_cast<double>(num_arrivals);
    if (run.stats.read_only_committed != scans_offered ||
        run.stats.committed <
            static_cast<int64_t>(kOltpFloor *
                                 static_cast<double>(num_arrivals))) {
      scan_failed = true;
      std::printf(
          "  SCAN REGRESSION: %lld/%lld scans served, %lld/%d writers "
          "committed (floor %.2f, %.3f of offered reached a decision)\n",
          static_cast<long long>(run.stats.read_only_committed),
          static_cast<long long>(scans_offered),
          static_cast<long long>(run.stats.committed), num_arrivals,
          kOltpFloor, writer_achieved);
    } else {
      std::printf(
          "  -> every scan served at its snapshot (%lld x %d kGets), "
          "writers committed %lld/%d\n",
          static_cast<long long>(scans_offered), kScanReadsPerTx,
          static_cast<long long>(run.stats.committed), num_arrivals);
    }
  }

  bool failed =
      speedup_failed || write_p99_regressed || leaked_reads || scan_failed;
  return FinishDbBench(args, report, failed);
}
