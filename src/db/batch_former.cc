#include "db/batch_former.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "db/fnv1a.h"

namespace fastcommit::db {

BatchFormer::BatchFormer(const DatabaseOptions& options,
                         sim::Scheduler* control, FlushFn flush)
    : options_(options), control_(control), flush_(std::move(flush)) {}

sim::Time BatchFormer::WindowFor(const SetController& controller) const {
  if (!adaptive()) return options_.batch_window;
  sim::Time max_window = options_.batch_window_max;
  if (controller.ewma_gap < 0) {
    // No arrival history yet: fall back to the fixed window as the prior.
    return std::min(std::max<sim::Time>(options_.batch_window, 0), max_window);
  }
  // A set whose smoothed arrival gap exceeds the widest allowed window is
  // cold: no second member would arrive before any feasible flush, so it
  // pays no wait at all (a zero window still groups same-instant arrivals
  // — the flush timer runs after every Execute already queued at the
  // opening instant).
  if (controller.ewma_gap >= max_window) return 0;
  // Hot set: size the window to gather up to batch_max members at the
  // observed rate, then shrink it by the smoothed conflict share — a wide
  // window makes every member hold its prepared locks longer, which is
  // exactly what amplifies contention when the set is already conflicted.
  sim::Time window =
      controller.ewma_gap * static_cast<sim::Time>(options_.batch_max - 1);
  window = window * (1000 - controller.ewma_conflict_permille) / 1000;
  return std::min(std::max<sim::Time>(window, 0), max_window);
}

uint64_t BatchFormer::SetHash::operator()(
    const std::vector<int>& partitions) const {
  Fnv1a hash;
  for (int p : partitions) hash.Int(static_cast<uint32_t>(p));
  // Spread into the high bits, which FlatTable's tag and home slot read.
  return hash.value * 0x9E3779B97F4A7C15ULL;
}

int BatchFormer::Intern(const std::vector<int>& partitions) {
  auto [entry, inserted] = ids_.Insert(partitions);
  if (inserted) {
    entry->value.id = static_cast<int>(sets_.size());
    sets_.emplace_back().partitions = partitions;
    if (open_widths_.size() <= partitions.size()) {
      open_widths_.resize(partitions.size() + 1, 0);
    }
  }
  return entry->value.id;
}

bool BatchFormer::AnyOpenWidth(size_t from, size_t to) const {
  to = std::min(to, open_widths_.size());
  for (size_t width = from; width < to; ++width) {
    if (open_widths_[width] > 0) return true;
  }
  return false;
}

void BatchFormer::Add(RoundMember member) {
  sim::Time now = control_->Now();
  const int own = Intern(member.touched);
  if (adaptive()) {
    // Observe the arrival for this member's own set (even when it then
    // joins a superset round): the gap EWMA describes how often this exact
    // set shows up, which is what sizes its future windows.
    SetController& controller = set(own).controller;
    if (controller.last_arrival >= 0) {
      sim::Time gap = now - controller.last_arrival;
      controller.ewma_gap = controller.ewma_gap < 0
                                ? gap
                                : (3 * controller.ewma_gap + gap) / 4;
    }
    controller.last_arrival = now;
  }

  // Exact-set open round wins; otherwise, with cross-set admission on, the
  // first open round in canonical order whose partition set strictly
  // contains this member's joins it — the member's votes are re-aligned
  // to the round's width, kYes at untouched partitions.
  const std::vector<int>& touched = member.touched;
  int target = set(own).open ? own : -1;
  if (target < 0 && options_.batch_cross_set &&
      AnyOpenWidth(touched.size() + 1, open_widths_.size())) {
    for (int id : open_) {
      const std::vector<int>& wide = set(id).partitions;
      if (wide.size() <= touched.size() ||
          !std::includes(wide.begin(), wide.end(), touched.begin(),
                         touched.end())) {
        continue;
      }
      commit::AlignVotesToSuperset(touched, &member.votes, wide);
      ++stats_.cross_set_joins;
      target = id;
      break;
    }
  }
  if (target < 0) {
    target = own;
    Open(own, now);
  }
  RoundState& round = set(target).round;
  Join(&round, std::move(member));
  if (static_cast<int>(round.members.size()) >= options_.batch_max) {
    ++stats_.size_flushes;
    control_->Cancel(set(target).timer);
    Flush(target);
  }
}

void BatchFormer::Open(int id, sim::Time now) {
  PartitionSet& opened = set(id);
  const std::vector<int>& partitions = opened.partitions;
  opened.round.partitions.assign(partitions.begin(), partitions.end());
  opened.round.round_votes.assign(partitions.size(), commit::Vote::kNo);
  // Round buffers circulate between the sets and the round table, so each
  // one grows at most once after warm-up.
  opened.round.members.reserve(static_cast<size_t>(stats_.max_round_size));
  opened.deadline = now + WindowFor(opened.controller);
  opened.open = true;
  open_.insert(std::lower_bound(open_.begin(), open_.end(), id,
                                [this](int a, int b) {
                                  return set(a).partitions <
                                         set(b).partitions;
                                }),
               id);
  ++open_widths_[partitions.size()];
  // Round merging: any open round over a strict subset of this set folds
  // into this wider round before its timer is armed, and may pull the
  // deadline earlier than the window above.
  if (options_.batch_round_merge && AnyOpenWidth(0, partitions.size())) {
    AbsorbSubsets(id);
  }
  // Window flush. Every other way out of the open list — a size flush,
  // absorption into a superset, a coordinator crash — cancels this timer
  // first, so when it runs the set's round is still open.
  opened.timer = control_->ScheduleCancellableAt(
      opened.deadline, sim::EventClass::kControl, [this, id] { Flush(id); });
}

void BatchFormer::Join(RoundState* round, RoundMember member) {
  // The round's vote at participant j is the disjunction of the members'
  // votes there: the participant can deliver the round's outcome as long
  // as it prepared at least one member. (A No at every participant only
  // happens when every member conflicted there, in which case no member
  // has an all-Yes conjunction and a round-level abort loses nothing.)
  commit::DisjoinVotesInto(&round->round_votes, member.votes);
  round->members.push_back(std::move(member));
}

void BatchFormer::AbsorbSubsets(int super) {
  PartitionSet& wide = set(super);
  for (size_t i = 0; i < open_.size();) {
    PartitionSet& sub = set(open_[i]);
    // Strict subsets only (the equal set is `super` itself).
    if (sub.partitions.size() >= wide.partitions.size() ||
        !std::includes(wide.partitions.begin(), wide.partitions.end(),
                       sub.partitions.begin(), sub.partitions.end())) {
      ++i;
      continue;
    }
    control_->Cancel(sub.timer);
    ++stats_.merged_rounds;
    stats_.merge_absorbed += static_cast<int64_t>(sub.round.members.size());
    // Never delay an absorbed member past its original flush promise: the
    // merged round flushes at the earliest deadline of everything in it.
    wide.deadline = std::min(wide.deadline, sub.deadline);
    for (RoundMember& member : sub.round.members) {
      // The member's votes are aligned with its old round's (sub)set — its
      // own set, or already padded once by a cross-set admission. Pad with
      // kYes up to the superset width; its `touched` set (and so its
      // conjunction and its Finish fan-out) is unchanged.
      commit::AlignVotesToSuperset(sub.partitions, &member.votes,
                                   wide.partitions);
      Join(&wide.round, std::move(member));
    }
    sub.round.partitions.clear();
    sub.round.round_votes.clear();
    sub.round.members.clear();
    Close(open_[i]);  // the next open set slides into position i
  }
}

void BatchFormer::Close(int id) {
  PartitionSet& closed = set(id);
  closed.open = false;
  closed.timer = sim::kNoEvent;
  open_.erase(std::find(open_.begin(), open_.end(), id));
  --open_widths_[closed.partitions.size()];
}

void BatchFormer::Flush(int id) {
  Close(id);
  RoundState& round = set(id).round;
  FC_CHECK(!round.members.empty()) << "flush of an empty batch";
  int64_t size = static_cast<int64_t>(round.members.size());
  ++stats_.rounds;
  stats_.members += size;
  stats_.max_round_size = std::max(stats_.max_round_size, size);
  if (size > 1) stats_.batched_txs += size;
  flush_(round);
}

void BatchFormer::ObserveRound(const RoundState& round,
                               int64_t aborted_members) {
  if (!enabled() || !adaptive()) return;
  SetController& controller = set(Intern(round.partitions)).controller;
  int64_t sample =
      1000 * aborted_members / static_cast<int64_t>(round.members.size());
  controller.ewma_conflict_permille =
      controller.rounds_observed == 0
          ? sample
          : (3 * controller.ewma_conflict_permille + sample) / 4;
  ++controller.rounds_observed;
}

void BatchFormer::EndDrain() {
  for (PartitionSet& drained : sets_) drained.controller.last_arrival = -1;
}

std::vector<RoundState> BatchFormer::TakeOpen() {
  std::vector<RoundState> rounds;
  for (int id : open_) {
    PartitionSet& taken = set(id);
    control_->Cancel(taken.timer);
    taken.open = false;
    taken.timer = sim::kNoEvent;
    rounds.push_back(std::move(taken.round));
  }
  open_.clear();
  std::fill(open_widths_.begin(), open_widths_.end(), 0);
  return rounds;
}

}  // namespace fastcommit::db
