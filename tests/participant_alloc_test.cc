// A steady-state Participant::Prepare/Finish makes no heap allocation, in
// both concurrency modes, on the commit path and on a conflict abort: every
// per-partition table reuses an erased entry's buffers. The test replaces
// the global operator new with a counting one, so it lives in its own file
// (each tests/*_test.cc builds its own executable).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "db/participant.h"
#include "db/transaction.h"

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

constexpr int kKeys = 64;
constexpr int kCycles = 1000;

/// Two-kAdd transfers over resident keys whose text ("item:" and 16
/// digits) is longer than a short-string buffer. transfers[i] moves a unit
/// from key i to key i + 1; rivals[i] moves one from key i + 2 to key
/// i + 1, so while transfers[i] is prepared, rivals[i] takes one lock and
/// then conflicts.
struct Shapes {
  std::vector<Key> keys;
  std::vector<std::vector<Op>> transfers;
  std::vector<std::vector<Op>> rivals;
};

Shapes MakeShapes() {
  Shapes s;
  for (int i = 0; i < kKeys + 2; ++i) {
    s.keys.push_back(ItemKey((int64_t{1} << 50) + i));
  }
  for (int i = 0; i < kKeys; ++i) {
    s.transfers.push_back({Transaction::Add(s.keys[i], -1),
                           Transaction::Add(s.keys[i + 1], 1)});
    s.rivals.push_back({Transaction::Add(s.keys[i + 2], -1),
                        Transaction::Add(s.keys[i + 1], 1)});
  }
  return s;
}

struct Counts {
  int yes = 0;
  int no = 0;

  void Add(commit::Vote vote) { ++(vote == commit::Vote::kYes ? yes : no); }
};

/// `kCycles` cycles of: prepare a transfer, with `conflict` prepare its
/// rival and finish it aborted, then finish the transfer committed at the
/// next CSN (the GC watermark is that CSN: no snapshot claims).
void RunCycles(Participant& p, const Shapes& s, bool conflict, TxId* tx,
               Counts* counts) {
  for (int i = 0; i < kCycles; ++i) {
    const int k = i % kKeys;
    TxId transfer = (*tx)++;
    counts->Add(p.Prepare(transfer, s.transfers[k]));
    if (conflict) {
      TxId rival = (*tx)++;
      counts->Add(p.Prepare(rival, s.rivals[k]));
      p.Finish(rival, commit::Decision::kAbort);
    }
    p.Finish(transfer, commit::Decision::kCommit, transfer, transfer);
  }
}

/// Heap allocations made by kCycles cycles after a warm-up of the same
/// shape.
int64_t SteadyStateAllocations(ConcurrencyMode mode, bool conflict) {
  Shapes shapes = MakeShapes();
  Participant p(0, mode);
  for (Key key : shapes.keys) p.store().Put(key, 0);
  TxId tx = 1;
  Counts warmup;
  RunCycles(p, shapes, conflict, &tx, &warmup);

  Counts counts;
  const int64_t before = g_allocations.load();
  RunCycles(p, shapes, conflict, &tx, &counts);
  const int64_t made = g_allocations.load() - before;

  EXPECT_EQ(counts.yes, kCycles);
  EXPECT_EQ(counts.no, conflict ? kCycles : 0);
  EXPECT_EQ(p.locks().held_locks(), 0);
  EXPECT_EQ(p.versions().locked_words(), 0);
  EXPECT_EQ(p.store().SumInts(), 0) << "transfers conserve the sum";
  p.CheckInvariants();
  return made;
}

TEST(ParticipantAllocationTest, ConstructionAllocatesNothing) {
  const int64_t before = g_allocations.load();
  Participant p(0, ConcurrencyMode::kOCC);
  EXPECT_EQ(g_allocations.load() - before, 0);
}

TEST(ParticipantAllocationTest, CommitPathAllocatesNothing) {
  for (ConcurrencyMode mode : {ConcurrencyMode::k2PL, ConcurrencyMode::kOCC}) {
    SCOPED_TRACE(mode == ConcurrencyMode::kOCC ? "OCC" : "2PL");
    EXPECT_EQ(SteadyStateAllocations(mode, /*conflict=*/false), 0);
  }
}

TEST(ParticipantAllocationTest, ConflictAbortAllocatesNothing) {
  for (ConcurrencyMode mode : {ConcurrencyMode::k2PL, ConcurrencyMode::kOCC}) {
    SCOPED_TRACE(mode == ConcurrencyMode::kOCC ? "OCC" : "2PL");
    EXPECT_EQ(SteadyStateAllocations(mode, /*conflict=*/true), 0);
  }
}

}  // namespace
}  // namespace fastcommit::db
