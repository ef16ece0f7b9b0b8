// A warm Database commits an open-loop stream without heap allocations:
// once a warm-up stream has sized every reused buffer (op vectors, round
// members and their touched and vote vectors, round-table entries, the
// batch former's per-set rounds, pooled commit instances, the event queue),
// later streams over the same preloaded keys allocate nothing, whether
// they carry 2,000 arrivals or 8,000. Unbatched INBAC (the benchmark's
// uniform workload), the same over three regions without co-coordinators,
// and 2PC with adaptive cross-set batching, round merging and retries
// (contended) are covered, contended's both with two-partition transfers
// and with three-key read-modify-writes whose rounds vary in width. The
// test replaces the global operator new with a counting one, so it lives
// in its own file (each tests/*_test.cc builds its own executable).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "db/database.h"
#include "db/traffic.h"

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

// Not inlined: GCC's -Wmismatched-new-delete would otherwise see the
// free() of an inlined delete applied to a pointer from operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fastcommit::db {
namespace {

/// The measured streams run at half the warm-up's load, so the warm-up has
/// already met their peaks of concurrent transactions, rounds, instances
/// and events; the first of them also meets the idle gap a drain leaves.
constexpr int64_t kWarmup = 20000;
constexpr double kLighter = 2.0;

/// What one measured stream did.
struct Measured {
  int64_t allocations = 0;
  int64_t committed = 0;
  int64_t shed = 0;
  int64_t retries = 0;
  int64_t multi_region_rounds = 0;
  BatchStats batch;
};

/// A database over `traffic`'s keys, preloaded, that has drained kWarmup
/// arrivals of `traffic` and a light stream after them.
class WarmDatabase {
 public:
  WarmDatabase(const Database::Options& options, TrafficOptions traffic)
      : db_(options), traffic_(traffic) {
    for (int64_t k = 0; k < traffic_.num_keys; ++k) {
      db_.LoadInt(ItemKey(k), 0);
    }
    traffic_.num_arrivals = kWarmup;
    TrafficEngine warmup(traffic_);
    db_.SubmitArrivals(&warmup, Count());
    db_.Drain();
    traffic_.mean_gap *= kLighter;
    Stream(2000);
  }

  /// Drains `length` more arrivals of a light stream, counting the
  /// allocations from its submission to the end of its drain. The stream
  /// starts at its first arrival after the last drain, so it does not open
  /// with a burst.
  Measured Stream(int64_t length) {
    ++traffic_.seed;
    traffic_.num_arrivals = int64_t{1} << 40;
    TrafficEngine probe(traffic_);
    TrafficEngine::Arrival arrival;
    int64_t skip = 0;
    while (probe.Next(&arrival) && arrival.at < db_.Now()) ++skip;
    traffic_.num_arrivals = skip + length;
    TrafficEngine engine(traffic_);
    for (int64_t i = 0; i < skip; ++i) engine.Next(&arrival);
    const DatabaseStats before = db_.stats();
    const BatchStats batch = db_.batch_stats();
    const int64_t multi_region = db_.geo_stats().multi_region_rounds;
    const int64_t delivered = delivered_;

    const int64_t allocations = g_allocations.load();
    db_.SubmitArrivals(&engine, Count());
    const DatabaseStats& after = db_.Drain();
    Measured m;
    m.allocations = g_allocations.load() - allocations;

    EXPECT_EQ(delivered_ - delivered, length);
    m.committed = after.committed - before.committed;
    m.shed = after.shed - before.shed;
    m.retries = after.retries - before.retries;
    m.multi_region_rounds =
        db_.geo_stats().multi_region_rounds - multi_region;
    m.batch.rounds = db_.batch_stats().rounds - batch.rounds;
    m.batch.cross_set_joins =
        db_.batch_stats().cross_set_joins - batch.cross_set_joins;
    m.batch.merged_rounds =
        db_.batch_stats().merged_rounds - batch.merged_rounds;
    if (traffic_.shape == TxShape::kTransferPair) {
      EXPECT_EQ(db_.SumInts(), 0) << "transfers conserve the sum";
    }
    return m;
  }

 private:
  CompletionCallback Count() {
    return [this](const Transaction&, commit::Decision) { ++delivered_; };
  }

  Database db_;
  TrafficOptions traffic_;
  int64_t delivered_ = 0;
};

/// The benchmark's uniform workload on 4,096 preloaded keys: INBAC,
/// unbatched.
void Uniform(Database::Options* options, TrafficOptions* traffic) {
  options->num_partitions = 8;
  options->unit = 100;
  options->protocol = core::ProtocolKind::kInbac;
  traffic->num_keys = 4096;
  traffic->mean_gap = 40.0;
}

/// The benchmark's contended workload on 4,096 preloaded keys: 2PC under
/// Zipf 0.9 with drift, adaptive batching with cross-set admission and
/// round merging, and retries.
void Contended(Database::Options* options, TrafficOptions* traffic) {
  options->num_partitions = 8;
  options->unit = 100;
  options->protocol = core::ProtocolKind::kTwoPc;
  options->batch_window = 100;
  options->batch_adaptive = true;
  options->batch_window_max = 400;
  options->batch_cross_set = true;
  options->batch_round_merge = true;
  options->max_inflight = 1024;
  options->max_attempts = 64;
  traffic->num_keys = 4096;
  traffic->zipf_exponent = 0.9;
  traffic->drift_period = 1000;
  traffic->mean_gap = 10.0;
}

TEST(DbAllocationTest, WarmUnbatchedStreamAllocatesNothing) {
  Database::Options options;
  TrafficOptions traffic;
  Uniform(&options, &traffic);
  WarmDatabase db(options, traffic);
  for (int64_t length : {2000, 8000}) {
    SCOPED_TRACE(length);
    Measured m = db.Stream(length);
    EXPECT_EQ(m.committed, length);
    EXPECT_GT(m.retries, 0) << "no conflict retried";
    EXPECT_EQ(m.allocations, 0);
  }
}

TEST(DbAllocationTest, WarmBatchedStreamAllocatesNothing) {
  Database::Options options;
  TrafficOptions traffic;
  Contended(&options, &traffic);
  WarmDatabase db(options, traffic);
  for (int64_t length : {2000, 8000}) {
    SCOPED_TRACE(length);
    Measured m = db.Stream(length);
    EXPECT_EQ(m.committed, length);
    EXPECT_EQ(m.shed, 0);
    EXPECT_GT(m.retries, length) << "too few conflicts";
    EXPECT_GT(m.batch.rounds, 0);
    EXPECT_EQ(m.allocations, 0);
  }
}

TEST(DbAllocationTest, WarmSpreadGeoStreamAllocatesNothing) {
  // Three regions without co-coordinators: every multi-region round homes
  // its instance's processes in their partitions' regions, through one
  // reused buffer.
  Database::Options options;
  TrafficOptions traffic;
  Uniform(&options, &traffic);
  options.num_regions = 3;
  options.geo_co_coordinators = false;
  WarmDatabase db(options, traffic);
  for (int64_t length : {2000, 8000}) {
    SCOPED_TRACE(length);
    Measured m = db.Stream(length);
    EXPECT_GT(m.multi_region_rounds, length / 2);
    EXPECT_EQ(m.allocations, 0);
  }
}

TEST(DbAllocationTest, CrossSetJoinsAndMergesAllocateNothing) {
  // Transfers touch exactly two partitions, so contended's cross-set
  // admission and round merging never fire on them; three-key
  // read-modify-writes open sets of one to three partitions that do both.
  // Their rounds and per-partition records vary in size, so every reused
  // buffer must already hold the largest round or record seen: a set's
  // round reserves the largest round flushed so far when it opens, and a
  // partition record the longest record of its partition.
  Database::Options options;
  TrafficOptions traffic;
  Contended(&options, &traffic);
  traffic.shape = TxShape::kReadModifyWrite;
  traffic.keys_per_tx = 3;
  WarmDatabase db(options, traffic);
  for (int64_t length : {2000, 8000}) {
    SCOPED_TRACE(length);
    Measured m = db.Stream(length);
    EXPECT_EQ(m.committed, length);
    EXPECT_EQ(m.shed, 0);
    EXPECT_GT(m.batch.cross_set_joins * 10, length);
    EXPECT_GT(m.batch.merged_rounds * 25, length);
    EXPECT_EQ(m.allocations, 0)
        << m.batch.cross_set_joins << " joins, " << m.batch.merged_rounds
        << " merges";
  }
}

}  // namespace
}  // namespace fastcommit::db
