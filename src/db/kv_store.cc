#include "db/kv_store.h"

#include <algorithm>

#include "core/check.h"

namespace fastcommit::db {

std::optional<Value> KvStore::Get(Key key) const {
  const auto* entry = map_.Find(key);
  if (entry == nullptr) return std::nullopt;
  return entry->value.head.value;
}

std::optional<Value> KvStore::GetAtSnapshot(Key key,
                                            int64_t snapshot_csn) const {
  const auto* entry = map_.Find(key);
  if (entry == nullptr) return std::nullopt;
  const Chain& chain = entry->value;
  if (chain.head.csn <= snapshot_csn) return chain.head.value;
  // Newest older version with csn <= snapshot: chains are short (pruned to
  // the GC watermark), so a backward scan beats a binary search in
  // practice.
  for (auto v = chain.older.rbegin(); v != chain.older.rend(); ++v) {
    if (v->csn <= snapshot_csn) return v->value;
  }
  return std::nullopt;  // key born after the snapshot
}

KvStore::Version& KvStore::WritableHead(Chain& chain, bool fresh, int64_t csn,
                                        int64_t gc_watermark) {
  if (fresh) {
    chain.head.csn = csn;
    ++total_versions_;
  } else if (chain.head.csn < csn) {
    // A new version. The old head stays readable unless the watermark
    // already covers the new one, which is then the base every snapshot
    // resolves to: the old head is replaced in place, as pruning would
    // drop it at once.
    if (csn > gc_watermark) {
      chain.older.push_back(std::move(chain.head));
      ++total_versions_;
    }
    chain.head.csn = csn;
  }
  if (gc_watermark > 0) total_versions_ -= PruneChain(chain, gc_watermark);
  return chain.head;
}

void KvStore::Put(Key key, Value value) {
  FC_CHECK(value != kAbsent) << "Put of the reserved absent value at " << key;
  auto [entry, fresh] = map_.Insert(key);
  WritableHead(entry->value, fresh, 0, 0).value = value;
}

void KvStore::Apply(const Op& op, int64_t csn, int64_t gc_watermark) {
  if (op.type == Op::Type::kGet) return;  // reads mutate nothing
  auto [entry, fresh] = map_.Insert(op.key);
  Chain& chain = entry->value;
  // kAdd reads the newest value (0 on a fresh chain) before the head can
  // move into the older versions.
  Value value = op.value;
  if (op.type == Op::Type::kAdd) value = chain.head.value + op.delta;
  FC_CHECK(value != kAbsent)
      << "write of the reserved absent value at " << op.key;
  WritableHead(chain, fresh, csn, gc_watermark).value = value;
}

int64_t KvStore::GetInt(Key key) const {
  const auto* entry = map_.Find(key);
  return entry == nullptr ? 0 : entry->value.head.value;
}

int64_t KvStore::GetIntAtSnapshot(Key key, int64_t snapshot_csn) const {
  return GetAtSnapshot(key, snapshot_csn).value_or(0);
}

int64_t KvStore::versions(Key key) const {
  const auto* entry = map_.Find(key);
  return entry == nullptr
             ? 0
             : 1 + static_cast<int64_t>(entry->value.older.size());
}

int64_t KvStore::PruneChain(Chain& chain, int64_t watermark) {
  // Keep the newest version with csn <= watermark (the base every snapshot
  // at or above the watermark resolves to) and everything newer. Versions
  // strictly older than that base are invisible to all live and future
  // readers — the watermark is the minimum CSN any of them can hold.
  std::vector<Version>& older = chain.older;
  size_t base = older.size();  // the head is the base
  if (chain.head.csn > watermark) {
    base = 0;
    for (size_t i = older.size(); i-- > 0;) {
      if (older[i].csn <= watermark) {
        base = i;
        break;
      }
    }
  }
  if (base == 0) return 0;
  older.erase(older.begin(), older.begin() + static_cast<ptrdiff_t>(base));
  return static_cast<int64_t>(base);
}

int64_t KvStore::SumInts() const {
  int64_t sum = 0;
  for (const auto& [key, chain] : map_) sum += chain.head.value;
  return sum;
}

void KvStore::CheckInvariants() const {
  int64_t counted = 0;
  for (const auto& [key, chain] : map_) {
    const std::vector<Version>& older = chain.older;
    counted += 1 + static_cast<int64_t>(older.size());
    for (size_t i = 0; i < older.size(); ++i) {
      int64_t next = i + 1 < older.size() ? older[i + 1].csn : chain.head.csn;
      FC_CHECK(older[i].csn < next)
          << "version chain of '" << key << "' not strictly increasing: csn "
          << older[i].csn << " then " << next;
    }
  }
  FC_CHECK(counted == total_versions_)
      << "version counter " << total_versions_ << " != chains total "
      << counted;
}

}  // namespace fastcommit::db
