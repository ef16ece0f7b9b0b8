#include "core/complexity.h"

#include <cstddef>
#include <iterator>

#include "core/check.h"

namespace fastcommit::core {

std::string PropSetName(PropSet props) {
  if (props == kNoProps) return "-";
  std::string name;
  if (props & kAgreement) name += 'A';
  if (props & kValidity) name += 'V';
  if (props & kTermination) name += 'T';
  return name;
}

bool IsValidCell(Cell cell) {
  // Y ⊆ X: a property holding in every network-failure execution holds in
  // every crash-failure execution too.
  return (cell.network & ~cell.crash) == 0;
}

std::vector<Cell> AllCells() {
  std::vector<Cell> cells;
  for (PropSet network = 0; network <= kAVT; ++network) {
    for (PropSet crash = 0; crash <= kAVT; ++crash) {
      Cell cell{crash, network};
      if (IsValidCell(cell)) cells.push_back(cell);
    }
  }
  FC_CHECK(cells.size() == 27) << "expected 27 cells, got " << cells.size();
  return cells;
}

bool LessRobustOrEqual(Cell weaker, Cell stronger) {
  return (weaker.crash & ~stronger.crash) == 0 &&
         (weaker.network & ~stronger.network) == 0;
}

int DelayLowerBound(Cell cell) {
  FC_CHECK(IsValidCell(cell));
  if (cell.crash == kAVT && (cell.network & kAgreement) != 0) return 2;
  return 1;
}

int64_t MessageLowerBound(Cell cell, int n, int f) {
  FC_CHECK(IsValidCell(cell));
  if (cell.crash == kAVT && (cell.network & kAgreement) != 0) {
    return 2 * int64_t{static_cast<unsigned>(n)} - 2 + f;
  }
  if ((cell.network & kValidity) != 0) return 2 * int64_t{n} - 2;
  if ((cell.crash & kValidity) != 0) return int64_t{n} - 1 + f;
  return 0;
}

int64_t TwoDelayMessageLowerBound(int n, int f) {
  return 2 * int64_t{f} * n;
}

namespace {

/// What the library says of one protocol: its display name, its
/// fastcommit_run flag, its Table 1 cell, and whether it runs over a
/// consensus module.
struct ProtocolRow {
  const char* name;
  const char* flag;
  Cell cell;
  bool needs_consensus;
};

/// One row per ProtocolKind, in enum order.
constexpr ProtocolRow kProtocolRows[] = {
    {"0NBAC", "0nbac", {kAT, kAT}, true},
    {"1NBAC", "1nbac", {kAVT, kVT}, true},
    {"avNBAC(delay-opt)", "avnbac-fast", {kAV, kAV}, false},
    {"avNBAC(msg-opt)", "avnbac-lean", {kAV, kAV}, false},
    {"aNBAC", "anbac", {kAV, kA}, false},
    {"(n-1+f)NBAC", "chain-nbac", {kAVT, kT}, false},
    {"(2n-2)NBAC", "bcast-nbac", {kAVT, kVT}, false},
    {"(2n-2+f)NBAC", "chain-ack-nbac", {kAVT, kAVT}, true},
    {"INBAC", "inbac", {kAVT, kAVT}, true},
    {"2PC", "2pc", {kAV, kAV}, false},
    {"3PC", "3pc", {kAVT, kA}, true},
    {"PaxosCommit", "paxos-commit", {kAVT, kAVT}, false},
    {"FasterPaxosCommit", "faster-paxos-commit", {kAVT, kAVT}, false},
};
static_assert(std::size(kProtocolRows) == std::size(kAllProtocols),
              "one row per ProtocolKind");

const ProtocolRow& RowOf(ProtocolKind kind) {
  return kProtocolRows[static_cast<size_t>(kind)];
}

}  // namespace

const char* ProtocolName(ProtocolKind kind) { return RowOf(kind).name; }

const char* ProtocolFlag(ProtocolKind kind) { return RowOf(kind).flag; }

bool NeedsConsensus(ProtocolKind kind) { return RowOf(kind).needs_consensus; }

Cell ProtocolCell(ProtocolKind kind) { return RowOf(kind).cell; }

NiceComplexity ExpectedNice(ProtocolKind kind, int n, int f) {
  int64_t nn = n;
  int64_t ff = f;
  switch (kind) {
    case ProtocolKind::kZeroNbac:
      return {1, 0};
    case ProtocolKind::kOneNbac:
    case ProtocolKind::kAvNbacFast:
      return {1, nn * nn - nn};
    case ProtocolKind::kAvNbacLean:
      return {2, 2 * nn - 2};
    case ProtocolKind::kANbac:
    case ProtocolKind::kChainNbac:
      return {nn + 2 * ff, nn - 1 + ff};
    case ProtocolKind::kBcastNbac:
      return {ff + 2, 2 * nn - 2};
    case ProtocolKind::kChainAckNbac:
      return {2 * nn + ff - 2, 2 * nn - 2 + ff};
    case ProtocolKind::kInbac:
      return {2, 2 * ff * nn};
    case ProtocolKind::kTwoPc:
      return {2, 2 * nn - 2};
    case ProtocolKind::kThreePc:
      return {4, 4 * nn - 4};
    case ProtocolKind::kPaxosCommit:
      return {3, nn * ff + 2 * nn - 2};
    case ProtocolKind::kFasterPaxosCommit:
      return {2, 2 * ff * nn + 2 * nn - 2 * ff - 2};
  }
  FC_FAIL() << "unknown protocol";
}

}  // namespace fastcommit::core
