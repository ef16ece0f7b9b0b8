#include "net/message_stats.h"

#include "core/check.h"

namespace fastcommit::net {

int64_t MessageStats::RecordSend(ProcessId from, ProcessId to,
                                 sim::Time sent_at, Channel channel,
                                 int kind) {
  MessageRecord r;
  r.seq = static_cast<int64_t>(records_.size());
  r.from = from;
  r.to = to;
  r.sent_at = sent_at;
  r.channel = channel;
  r.kind = kind;
  records_.push_back(r);
  return r.seq;
}

void MessageStats::RecordDelivery(int64_t seq, sim::Time received_at) {
  FC_CHECK(seq >= 0 && seq < total_sent()) << "bad seq " << seq;
  records_[static_cast<size_t>(seq)].received_at = received_at;
}

void MessageStats::RecordDrop(int64_t seq, sim::Time at) {
  FC_CHECK(seq >= 0 && seq < total_sent()) << "bad seq " << seq;
  records_[static_cast<size_t>(seq)].dropped = true;
  records_[static_cast<size_t>(seq)].received_at = at;
}

void MessageStats::ResetEpoch() { records_.clear(); }

int64_t MessageStats::DeliveredBy(sim::Time t) const {
  int64_t count = 0;
  for (const MessageRecord& r : records_) {
    if (!r.dropped && r.received_at >= 0 && r.received_at <= t) ++count;
  }
  return count;
}

int64_t MessageStats::SentBy(sim::Time t) const {
  int64_t count = 0;
  for (const MessageRecord& r : records_) {
    if (r.sent_at <= t) ++count;
  }
  return count;
}

int64_t MessageStats::DeliveredBy(sim::Time t, Channel channel) const {
  int64_t count = 0;
  for (const MessageRecord& r : records_) {
    if (!r.dropped && r.channel == channel && r.received_at >= 0 &&
        r.received_at <= t) {
      ++count;
    }
  }
  return count;
}

}  // namespace fastcommit::net
