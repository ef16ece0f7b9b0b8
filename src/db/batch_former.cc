#include "db/batch_former.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

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

void BatchFormer::Add(RoundMember member) {
  sim::Time now = control_->Now();
  SetController* controller = nullptr;
  if (adaptive()) {
    // Observe the arrival for this member's own set (even when it then
    // joins a superset round): the gap EWMA describes how often this exact
    // set shows up, which is what sizes its future windows.
    controller = &controllers_[member.touched];
    if (controller->last_arrival >= 0) {
      sim::Time gap = now - controller->last_arrival;
      controller->ewma_gap = controller->ewma_gap < 0
                                 ? gap
                                 : (3 * controller->ewma_gap + gap) / 4;
    }
    controller->last_arrival = now;
  }

  // Exact-set open round wins; otherwise, with cross-set admission on, the
  // first open round in canonical (ordered-map) order whose partition set
  // strictly contains this member's joins it — the member's votes are
  // re-aligned to the round's width, kYes at untouched partitions.
  const std::vector<int>& touched = member.touched;
  auto it = open_.find(touched);
  if (it == open_.end() && options_.batch_cross_set) {
    for (auto cand = open_.begin(); cand != open_.end(); ++cand) {
      if (cand->first.size() <= touched.size() ||
          !std::includes(cand->first.begin(), cand->first.end(),
                         touched.begin(), touched.end())) {
        continue;
      }
      member.votes =
          commit::AlignVotesToSuperset(touched, member.votes, cand->first);
      ++stats_.cross_set_joins;
      it = cand;
      break;
    }
  }

  if (it == open_.end()) {
    it = open_.try_emplace(touched).first;
    OpenRound& open = it->second;
    open.round.partitions = touched;
    open.round.round_votes.assign(touched.size(), commit::Vote::kNo);
    open.deadline =
        now + (controller ? WindowFor(*controller) : options_.batch_window);
    // Round merging: any open round over a strict subset of this set folds
    // into this wider round before its timer is armed, and may pull the
    // deadline earlier than the window above.
    if (options_.batch_round_merge) AbsorbSubsets(&open);
    // Window flush. Every other way out of open_ — a size flush, absorption
    // into a superset, a coordinator crash — cancels this timer first, so
    // when it runs `it` is still this round's entry.
    open.timer = control_->ScheduleCancellableAt(
        open.deadline, sim::EventClass::kControl, [this, it] {
          ++stats_.window_flushes;
          Flush(it);
        });
  }
  OpenRound& open = it->second;
  Join(&open.round, std::move(member));
  if (static_cast<int>(open.round.members.size()) >= options_.batch_max) {
    ++stats_.size_flushes;
    control_->Cancel(open.timer);
    Flush(it);
  }
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

void BatchFormer::AbsorbSubsets(OpenRound* super) {
  const std::vector<int>& wide = super->round.partitions;
  for (auto cand = open_.begin(); cand != open_.end();) {
    const std::vector<int>& set = cand->first;
    // Strict subsets only (the equal set is `super` itself).
    if (set.size() >= wide.size() ||
        !std::includes(wide.begin(), wide.end(), set.begin(), set.end())) {
      ++cand;
      continue;
    }
    OpenRound& sub = cand->second;
    control_->Cancel(sub.timer);
    ++stats_.merged_rounds;
    stats_.merge_absorbed += static_cast<int64_t>(sub.round.members.size());
    // Never delay an absorbed member past its original flush promise: the
    // merged round flushes at the earliest deadline of everything in it.
    super->deadline = std::min(super->deadline, sub.deadline);
    for (RoundMember& member : sub.round.members) {
      // The member's votes are aligned with its old round's (sub)set — its
      // own set, or already padded once by a cross-set admission. Pad with
      // kYes up to the superset width; its `touched` set (and so its
      // conjunction and its Finish fan-out) is unchanged.
      member.votes = commit::AlignVotesToSuperset(set, member.votes, wide);
      Join(&super->round, std::move(member));
    }
    cand = open_.erase(cand);
  }
}

void BatchFormer::Flush(OpenMap::iterator it) {
  RoundState round = std::move(it->second.round);
  open_.erase(it);
  FC_CHECK(!round.members.empty()) << "flush of an empty batch";
  int64_t size = static_cast<int64_t>(round.members.size());
  ++stats_.rounds;
  stats_.members += size;
  stats_.max_round_size = std::max(stats_.max_round_size, size);
  if (size > 1) stats_.batched_txs += size;
  flush_(std::move(round));
}

void BatchFormer::ObserveRound(const RoundState& round,
                               int64_t aborted_members) {
  if (!enabled() || !adaptive()) return;
  SetController& controller = controllers_[round.partitions];
  int64_t sample =
      1000 * aborted_members / static_cast<int64_t>(round.members.size());
  controller.ewma_conflict_permille =
      controller.rounds_observed == 0
          ? sample
          : (3 * controller.ewma_conflict_permille + sample) / 4;
  ++controller.rounds_observed;
}

std::vector<RoundState> BatchFormer::TakeOpen() {
  std::vector<RoundState> rounds;
  for (auto& entry : open_) {
    control_->Cancel(entry.second.timer);
    rounds.push_back(std::move(entry.second.round));
  }
  open_.clear();
  return rounds;
}

}  // namespace fastcommit::db
