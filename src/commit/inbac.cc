#include "commit/inbac.h"

#include <algorithm>

namespace fastcommit::commit {

namespace {

/// Flattens a pid -> vote map (-1 = unknown) into (pid, vote) pairs.
void EncodeCollection(const std::vector<int8_t>& collection, net::Message* m) {
  for (size_t pid = 0; pid < collection.size(); ++pid) {
    if (collection[pid] >= 0) {
      net::AppendPair(m, static_cast<int64_t>(pid), collection[pid]);
    }
  }
}

/// Merges (pid, vote) pairs into a pid -> vote map.
void MergeInto(const std::vector<int64_t>& pairs,
               std::vector<int8_t>* collection) {
  for (size_t i = 0; i + 1 < pairs.size(); i += 2) {
    (*collection)[static_cast<size_t>(pairs[i])] =
        static_cast<int8_t>(pairs[i + 1]);
  }
}

}  // namespace

const char* Inbac::BranchName(Branch b) {
  switch (b) {
    case Branch::kNone:
      return "none";
    case Branch::kFastDecide:
      return "fast-decide";
    case Branch::kConsAnd:
      return "cons-propose-and";
    case Branch::kConsZero:
      return "cons-propose-0";
    case Branch::kAskHelp:
      return "ask-for-acks";
    case Branch::kHelpDecide:
      return "help-decide";
    case Branch::kHelpConsAnd:
      return "help-cons-and";
    case Branch::kHelpConsZero:
      return "help-cons-0";
  }
  return "?";
}

Inbac::Inbac(proc::ProcessEnv* env, consensus::Consensus* cons,
             const Options& options)
    : CommitProtocol(env, cons),
      b_(options.num_backups == 0 ? env->f() : options.num_backups),
      fast_abort_(options.fast_abort),
      split_acks_(options.split_acks),
      collection0_(static_cast<size_t>(env->n()), -1),
      collection1_(static_cast<size_t>(env->n())),
      c_received_(static_cast<size_t>(env->n()), false),
      collection_help_(static_cast<size_t>(env->n()), -1) {
  FC_CHECK(b_ >= 1 && b_ <= env->n() - 1) << "backup count out of range";
  timer_origin_ = 0;
}

void Inbac::SetBranch(Branch b) { branch_ = b; }

void Inbac::Reset() {
  CommitProtocol::Reset();
  phase_ = 0;
  val_ = 1;
  collection0_.assign(collection0_.size(), -1);
  // collection1_ entries are re-initialized lazily on the first [C] from a
  // sender (guarded by c_received_), so their buffers — the bulk of the
  // instance's allocations — are reused without clearing.
  c_received_.assign(c_received_.size(), false);
  cnt_ = 0;
  collection_help_.assign(collection_help_.size(), -1);
  cnt_help_ = 0;
  wait_ = false;
  pending_help_.clear();
  branch_ = Branch::kNone;
}

void Inbac::Propose(Vote vote) {
  val_ = VoteValue(vote);
  const net::Message& m = Outgoing(kV, val_);
  for (int r = 1; r <= b_; ++r) SendTo(RankToId(r), m);
  if (rank() <= b_) SendTo(RankToId(b_ + 1), m);
  if (rank() <= b_ + 1) {
    SetTimerAtPaperTime(1);
  } else {
    SetTimerAtPaperTime(2);
    phase_ = 1;  // see the fidelity note in the header
  }
  if (fast_abort_ && val_ == 0) {
    // Section 5.2 acceleration: broadcast the 0 and decide right away; a
    // failure-free aborting execution then finishes after one delay.
    SendOthers(Outgoing(kAbort));
    SetBranch(Branch::kFastDecide);
    Decide(Decision::kAbort);
  }
}

void Inbac::OnMessage(net::ProcessId from, const net::Message& m) {
  switch (m.kind) {
    case kV: {
      if (phase_ != 0) break;  // queued-forever semantics (remark (c))
      collection0_[static_cast<size_t>(from)] = static_cast<int8_t>(m.value);
      break;
    }
    case kC: {
      auto& stored = collection1_[static_cast<size_t>(from)];
      if (!c_received_[static_cast<size_t>(from)]) {
        c_received_[static_cast<size_t>(from)] = true;
        stored.assign(static_cast<size_t>(n()), -1);
        MergeInto(m.ints, &stored);
        ++cnt_;
        MaybeCompleteWait();
      } else if (split_acks_) {
        // Disaggregated acknowledgements arrive as several [C] fragments
        // from the same backup; merge them (cnt counts backups, not
        // fragments).
        MergeInto(m.ints, &stored);
      }
      break;
    }
    case kHelp: {
      if (rank() < b_ + 1) break;  // only Pf+1..Pn are asked
      if (phase_ == 2) {
        AnswerHelp(from);
      } else {
        pending_help_.push_back(from);  // remark (c): queue until phase = 2
      }
      break;
    }
    case kHelped: {
      if (rank() < b_ + 1) break;
      MergeInto(m.ints, &collection_help_);
      ++cnt_help_;
      MaybeCompleteWait();
      break;
    }
    case kAbort: {
      // Fast-abort broadcast: some process voted 0 and already decided.
      if (fast_abort_ && !has_decided()) {
        SetBranch(Branch::kFastDecide);
        Decide(Decision::kAbort);
      }
      break;
    }
    default:
      FC_FAIL() << "unknown inbac message kind " << m.kind;
  }
}

void Inbac::AnswerHelp(net::ProcessId p) {
  net::Message& reply = Outgoing(kHelped);
  EncodeCollection(collection0_, &reply);
  SendTo(p, reply);
}

void Inbac::OnTimer(int64_t tag) {
  if (tag == 1 && phase_ == 0 && rank() <= b_ + 1) {
    if (split_acks_) {
      // Ablation: one [C] fragment per backed-up vote. Same information,
      // ~n times the messages.
      for (int k = 0; k < n(); ++k) {
        if (collection0_[static_cast<size_t>(k)] < 0) continue;
        net::Message& piece = Outgoing(kC);
        net::AppendPair(&piece, k, collection0_[static_cast<size_t>(k)]);
        if (rank() <= b_) {
          SendAll(piece);
        } else {
          for (int r = 1; r <= b_; ++r) SendTo(RankToId(r), piece);
        }
      }
    } else {
      net::Message& m = Outgoing(kC);
      EncodeCollection(collection0_, &m);
      if (rank() <= b_) {
        SendAll(m);  // forall q ∈ Ω
      } else {
        for (int r = 1; r <= b_; ++r) SendTo(RankToId(r), m);
      }
    }
    phase_ = 1;
    SetTimerAtPaperTime(2);
    return;
  }
  if (tag == 2 && phase_ == 1 && !has_decided() && !cons_proposed()) {
    if (rank() >= b_ + 1) {
      phase_ = 2;
      // collection0 := collection0 ∪ (∪ collection1) ∪ {(self, val)}.
      for (int p = 0; p < n(); ++p) {
        if (!c_received_[static_cast<size_t>(p)]) continue;
        const auto& c = collection1_[static_cast<size_t>(p)];
        for (int k = 0; k < n(); ++k) {
          if (c[static_cast<size_t>(k)] >= 0) {
            collection0_[static_cast<size_t>(k)] = c[static_cast<size_t>(k)];
          }
        }
      }
      collection0_[static_cast<size_t>(id())] = static_cast<int8_t>(val_);
      for (net::ProcessId p : pending_help_) AnswerHelp(p);
      pending_help_.clear();
      TailDecisionLogic(/*from_wait=*/false);
    } else {
      // Ranks 1..f check the stronger condition including Pf+1's [C].
      if (BackupCollectionsComplete() && PivotCollectionComplete()) {
        SetBranch(Branch::kFastDecide);
        DecideValue(UnionAnd());
        return;
      }
      if (UnionCoversAll()) {
        SetBranch(Branch::kConsAnd);
        ConsPropose(static_cast<int>(UnionAnd()));
      } else {
        SetBranch(Branch::kConsZero);
        ConsPropose(0);
      }
    }
    return;
  }
}

void Inbac::TailDecisionLogic(bool from_wait) {
  if (BackupCollectionsComplete()) {
    if (from_wait) {
      // Soundness deviation from the Appendix-A pseudocode, which decides
      // AND directly here. That is unsafe: a waiting process may complete
      // late (a backup's [C] arriving after 2U) and decide 1, even though
      // it had earlier answered another waiter's [HELP] with a collection
      // that was still incomplete — that waiter can then propose 0, and
      // consensus may abort while this process committed (see
      // inbac_test.cc, PseudocodeWaitPathCounterexample, for the concrete
      // schedule). Proposing AND to consensus instead restores agreement
      // and costs nothing in nice executions, which never reach the wait
      // path.
      SetBranch(Branch::kHelpDecide);
      ConsPropose(static_cast<int>(UnionAnd()));
      return;
    }
    SetBranch(Branch::kFastDecide);
    DecideValue(UnionAnd());
    return;
  }
  if (cnt_ >= 1) {
    if (UnionCoversAll()) {
      SetBranch(from_wait ? Branch::kHelpConsAnd : Branch::kConsAnd);
      ConsPropose(static_cast<int>(UnionAnd()));
    } else {
      SetBranch(from_wait ? Branch::kHelpConsZero : Branch::kConsZero);
      ConsPropose(0);
    }
    return;
  }
  if (!from_wait) {
    // No acknowledgement from any backup: ask Pf+1..Pn (self included; the
    // self-addressed HELP is answered locally and counts toward n-f).
    wait_ = true;
    SetBranch(Branch::kAskHelp);
    const net::Message& help = Outgoing(kHelp);
    for (int r = b_ + 1; r <= n(); ++r) SendTo(RankToId(r), help);
    MaybeCompleteWait();
    return;
  }
  // Waiting path exhausted collection1; fall back to the helped votes.
  if (HelpCoversAll()) {
    SetBranch(Branch::kHelpConsAnd);
    ConsPropose(static_cast<int>(HelpAnd()));
  } else {
    SetBranch(Branch::kHelpConsZero);
    ConsPropose(0);
  }
}

void Inbac::MaybeCompleteWait() {
  if (!wait_ || cons_proposed() || has_decided()) return;
  if (rank() < b_ + 1) return;
  if (cnt_ + cnt_help_ < n() - f()) return;
  wait_ = false;
  TailDecisionLogic(/*from_wait=*/true);
}

bool Inbac::BackupCollectionsComplete() const {
  for (int r = 1; r <= b_; ++r) {
    net::ProcessId p = r - 1;
    if (!c_received_[static_cast<size_t>(p)]) return false;
    const auto& c = collection1_[static_cast<size_t>(p)];
    for (int k = 0; k < n(); ++k) {
      if (c[static_cast<size_t>(k)] < 0) return false;
    }
  }
  return true;
}

bool Inbac::PivotCollectionComplete() const {
  net::ProcessId pivot = b_;  // id of P_{b+1}
  if (!c_received_[static_cast<size_t>(pivot)]) return false;
  const auto& c = collection1_[static_cast<size_t>(pivot)];
  // Exactly the votes of ranks 1..b: all present, nothing else required
  // (extra entries cannot occur — only P1..Pb send [V] to the pivot).
  for (int r = 1; r <= b_; ++r) {
    if (c[static_cast<size_t>(r - 1)] < 0) return false;
  }
  return true;
}

bool Inbac::UnionCoversAll() const {
  for (int k = 0; k < n(); ++k) {
    bool found = false;
    for (int p = 0; p < n() && !found; ++p) {
      if (c_received_[static_cast<size_t>(p)] &&
          collection1_[static_cast<size_t>(p)][static_cast<size_t>(k)] >= 0) {
        found = true;
      }
    }
    if (!found) return false;
  }
  return true;
}

int64_t Inbac::UnionAnd() const {
  int64_t result = 1;
  for (int p = 0; p < n(); ++p) {
    if (!c_received_[static_cast<size_t>(p)]) continue;
    const auto& c = collection1_[static_cast<size_t>(p)];
    for (int k = 0; k < n(); ++k) {
      if (c[static_cast<size_t>(k)] == 0) result = 0;
    }
  }
  return result;
}

bool Inbac::HelpCoversAll() const {
  return std::all_of(collection_help_.begin(), collection_help_.end(),
                     [](int8_t v) { return v >= 0; });
}

int64_t Inbac::HelpAnd() const {
  int64_t result = 1;
  for (int8_t v : collection_help_) {
    if (v == 0) result = 0;
  }
  return result;
}

}  // namespace fastcommit::commit
