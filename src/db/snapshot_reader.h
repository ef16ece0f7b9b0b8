#ifndef FASTCOMMIT_DB_SNAPSHOT_READER_H_
#define FASTCOMMIT_DB_SNAPSHOT_READER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "db/fnv1a.h"
#include "db/partition_plane.h"
#include "db/transaction.h"
#include "sim/sim_time.h"

namespace fastcommit::db {

/// The MVCC read side of the database (DatabaseOptions::snapshot_reads):
/// the commit sequence number (CSN) authority, the in-flight snapshot
/// reads and their claims on the version-GC watermark, and the
/// finalization that reassembles each read's values, folds them into the
/// placement-invariance fingerprint, and hands them to the observer.
/// Control plane only; the reads themselves run as partition-plane tasks.
class SnapshotReader {
 public:
  /// Observer of finalized snapshot reads: the values in op order (absent
  /// keys read as empty Values). Runs on the control plane mid-flush;
  /// must not call back into the database.
  using Observer =
      std::function<void(const Transaction& tx, int64_t snapshot_csn,
                         const std::vector<Value>& values)>;

  /// `plane` runs the read tasks and must outlive the reader.
  explicit SnapshotReader(PartitionPlane* plane) : plane_(plane) {}
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// The CSN of the most recently decided commit — what a read started
  /// now is assigned. 0 before the first commit.
  int64_t stable_csn() const { return stable_csn_; }
  /// Stamps the next commit. Called in canonical control-plane order, so
  /// the CSN sequence, and every snapshot derived from it, is placement
  /// invariant.
  int64_t NextCsn() { return ++stable_csn_; }
  /// Minimum CSN a live reader can still demand: the smallest claimed
  /// snapshot, else the stable CSN (chains prune to length one when
  /// nobody is reading history).
  int64_t Watermark() const {
    return claims_.empty() ? stable_csn_ : claims_.begin()->first;
  }

  /// Starts `tx`'s read at the stable CSN: one lock-free read task per
  /// partition its ops route to, enqueued at `now` behind every finish
  /// already queued — so the read observes exactly the stable prefix —
  /// and a claim on the GC watermark until the read is finalized.
  void Start(Transaction tx, sim::Time now);

  /// Finalizes the longest fully-filled prefix of pending reads, in start
  /// order: values reassembled in op order, folded into the fingerprint,
  /// passed to the observer, claim released. Called after every plane
  /// flush, and after each Start (the plane fills the slots at enqueue
  /// unless a partition is down).
  void Finalize();

  /// No pending read and no claim (true after every drain).
  bool idle() const { return pending_.empty() && claims_.empty(); }
  uint64_t fingerprint() const { return fingerprint_.value; }
  void set_observer(Observer observer) { observer_ = std::move(observer); }

 private:
  /// One read between Start and finalization. Heap-allocated so the value
  /// slots the plane writes through never move while pending_ grows.
  struct Read {
    Transaction tx;
    int64_t snapshot_csn = 0;
    /// Per-touched-partition value slots, sized before any pointer into
    /// them is taken.
    std::vector<std::vector<Value>> values;
    /// op index -> index into `values` of its partition's slot.
    std::vector<int> op_slots;
    /// Slots filled so far, bumped by the plane as each read task runs. A
    /// crashed partition defers its reads, which keeps every later read
    /// pending too, so the fingerprint folds in start order whatever flush
    /// a read lands in.
    int filled = 0;
  };

  PartitionPlane* plane_;
  int64_t stable_csn_ = 0;
  /// Claimed snapshot CSNs -> reader counts (ordered: begin() is the
  /// watermark floor).
  std::map<int64_t, int64_t> claims_;
  /// Reads awaiting finalization, in start (canonical) order.
  std::vector<std::unique_ptr<Read>> pending_;
  Observer observer_;
  Fnv1a fingerprint_;
  std::vector<Value> values_scratch_;   ///< reused reassembly buffer
  std::vector<size_t> cursor_scratch_;  ///< reused per-slot read cursors
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_SNAPSHOT_READER_H_
