#ifndef FASTCOMMIT_DB_SNAPSHOT_READER_H_
#define FASTCOMMIT_DB_SNAPSHOT_READER_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "db/fnv1a.h"
#include "db/partition_plane.h"
#include "db/transaction.h"

namespace fastcommit::db {

/// The MVCC read side of the database (DatabaseOptions::snapshot_reads):
/// the commit sequence number (CSN) authority and the snapshot reads. A
/// read looks each kGet up in its partition's store at the read's snapshot
/// CSN, in op order, folds the values into the placement-invariance
/// fingerprint and hands them to the observer. Control plane only.
class SnapshotReader {
 public:
  /// Observer of served snapshot reads: the values in op order (absent
  /// keys read as kAbsent). Runs on the control plane; must not call back
  /// into the database.
  using Observer =
      std::function<void(const Transaction& tx, int64_t snapshot_csn,
                         const std::vector<Value>& values)>;

  /// `plane` holds the partitions the reads look up and must outlive the
  /// reader.
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
  /// Minimum CSN a live reader can still demand: the oldest waiting read's
  /// snapshot (reads wait in start order, so it is the smallest), else the
  /// stable CSN (chains prune to length one when nobody is reading
  /// history).
  int64_t Watermark() const {
    return waiting_.empty() ? stable_csn_ : waiting_.front().snapshot_csn;
  }

  /// Starts `tx`'s read at the stable CSN. Every commit with CSN <= it has
  /// already been applied at every partition that is up, so the read
  /// observes exactly the stable prefix. It is served now unless an older
  /// read is waiting or a partition it touches is down; then it waits,
  /// holding the GC watermark at its CSN, until Resume, as a copy of
  /// `tx`. FC_CHECKs that `tx` has ops.
  void Start(const Transaction& tx);

  /// Serves the waiting reads in start order, up to the first that still
  /// touches a down partition. Called after every partition restart,
  /// once the restart's backlog is applied.
  void Resume();

  /// No read waiting (true after every drain).
  bool idle() const { return waiting_.empty(); }
  uint64_t fingerprint() const { return fingerprint_.value; }
  void set_observer(Observer observer) { observer_ = std::move(observer); }

 private:
  struct WaitingRead {
    Transaction tx;
    int64_t snapshot_csn = 0;
  };

  bool TouchesDownPartition(const Transaction& tx) const;
  void Serve(const Transaction& tx, int64_t snapshot_csn);

  PartitionPlane* plane_;
  int64_t stable_csn_ = 0;
  /// Reads waiting for a restart, in start order. A vector: it allocates
  /// nothing until a read first waits.
  std::vector<WaitingRead> waiting_;
  Observer observer_;
  Fnv1a fingerprint_;
  std::vector<Value> values_;  ///< Serve's reused value buffer
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_SNAPSHOT_READER_H_
