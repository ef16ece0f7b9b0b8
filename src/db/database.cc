#include "db/database.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "core/check.h"
#include "db/traffic.h"

namespace fastcommit::db {

void LatencyStats::Record(sim::Time latency) {
  ++count_;
  sum_ += latency;
  // `at` becomes the first run at or above `latency`. The binary search is
  // branch-free: successive latencies are close to random, so branches
  // would mispredict about every other step (std::lower_bound took three
  // times as long over 400 distinct latencies).
  size_t at = 0;
  for (size_t n = runs_.size(); n > 1; n -= n / 2) {
    size_t half = n / 2;
    at += half * static_cast<size_t>(runs_[at + half].latency < latency);
  }
  if (!runs_.empty() && runs_[at].latency < latency) ++at;
  if (at < runs_.size() && runs_[at].latency == latency) {
    ++runs_[at].records;
  } else {
    runs_.insert(runs_.begin() + static_cast<ptrdiff_t>(at), Run{latency, 1});
  }
}

double LatencyStats::Mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

sim::Time LatencyStats::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::min(100.0, std::max(0.0, p));
  // Nearest-rank: the smallest value with at least p% of the records at
  // or below it, the record of rank ceil(p*n/100) (1-based, at least 1).
  // Multiply before dividing: p and n are exactly representable and so is
  // an integer quotient p*n/100, so exact rank boundaries stay exact —
  // p/100.0 first would put e.g. 14/100*50 an epsilon above 7 and ceil
  // would overshoot the rank.
  double rank = p * static_cast<double>(count_) / 100.0;
  int64_t target = std::max<int64_t>(1, static_cast<int64_t>(std::ceil(rank)));
  int64_t seen = 0;
  for (const Run& run : runs_) {
    seen += run.records;
    if (seen >= target) return run.latency;
  }
  return Max();
}

bool DatabaseStats::operator==(const DatabaseStats& other) const {
  return committed == other.committed && aborted == other.aborted &&
         retries == other.retries &&
         single_partition == other.single_partition &&
         abort_lock_conflicts == other.abort_lock_conflicts &&
         abort_validation_failures == other.abort_validation_failures &&
         commit_messages == other.commit_messages &&
         offered == other.offered && shed == other.shed &&
         read_only_committed == other.read_only_committed &&
         snapshot_reads_served == other.snapshot_reads_served &&
         latency == other.latency && makespan == other.makespan;
}

namespace {

/// Retry backoff: attempt k waits k * this many units, plus 1..U jitter.
constexpr int64_t kRetryBackoffUnits = 4;

/// The pool's (and hence every commit instance's) region topology: the
/// default single-region value with one region — so the pre-geo fixed-delay
/// construction path runs bitwise unchanged — else the laddered WAN.
net::GeoTopology GeoTopologyFor(const Database::Options& options) {
  if (options.num_regions <= 1) return net::GeoTopology();
  return net::GeoTopology::Ladder(
      options.num_regions, options.unit * options.cross_region_units_min,
      options.unit * options.cross_region_units_max);
}

/// The last of `spares`, moved out with its buffers, or a fresh T.
template <typename T>
T TakeSpare(std::vector<T>& spares) {
  if (spares.empty()) return T();
  T spare = std::move(spares.back());
  spares.pop_back();
  return spare;
}

}  // namespace

Database::Database(const Options& options)
    : options_(options),
      rng_(options.seed),
      plane_(options.num_partitions, 1, options.concurrency,
             options.num_regions),
      pool_(options.protocol, options.consensus, options.protocol_options,
            options.unit, /*inert=*/true, GeoTopologyFor(options)),
      batches_(options_, sim_.control(),
               [this](RoundState& formed) {
                 StartRound(FileRound(formed), /*resumed=*/false);
               }),
      reads_(&plane_) {
  // num_partitions >= 1 is checked by the plane's constructor.
  plane_.set_check_invariants(options.check_invariants);
  if (GeoEnabled()) {
    // Delay-range validity (cross >= 1 tick, min <= max) is FC_CHECKed by
    // GeoTopology::Ladder inside GeoTopologyFor above.
    geo_topology_ = GeoTopologyFor(options_);
    region_scratch_.assign(static_cast<size_t>(options_.num_regions), 0);
  }
  if (options_.log_replicas > 0) {
    // The log's ack streams are seeded off the database seed but keyed per
    // (slot, phase, replica), so turning the log on never perturbs the
    // main rng_ stream the retry jitter draws from.
    log_.emplace(options_.log_replicas, options_.unit,
                 options_.seed ^ 0xC0117106ULL, sim_.control());
  }
  const FaultPlan& plan = options_.fault_plan;
  if (plan.HasCoordinatorCrash()) {
    FC_CHECK(plan.crash_at_occurrence >= 1)
        << "crash_at_occurrence must be >= 1, got " << plan.crash_at_occurrence;
    FC_CHECK(plan.crash_point != CrashPoint::kAfterAccept || log_.has_value())
        << "crash-after-accept needs the commit log (Options::log_replicas)";
    // The restart is a later instant than the crash, which may fire in a
    // completion effect or a control event of any instant.
    FC_CHECK(plan.coordinator_restart_delay >= 1)
        << "coordinator_restart_delay must be >= 1, got "
        << plan.coordinator_restart_delay;
    crash_countdown_ = plan.crash_at_occurrence;
  }
  if (plan.HasParticipantCrash()) {
    FC_CHECK(plan.crash_partition >= 0 &&
             plan.crash_partition < options_.num_partitions)
        << "crash_partition " << plan.crash_partition << " out of range";
    FC_CHECK(plan.participant_restart_delay >= 1)
        << "participant_restart_delay must be >= 1";
    // Time-driven: both transitions are plain control-plane instants.
    // EventClass::kCrash orders them before any same-instant arrival or
    // retry.
    sim_.control()->ScheduleAt(
        plan.participant_crash_at, sim::EventClass::kCrash, [this] {
          plane_.CrashPartition(options_.fault_plan.crash_partition);
          ++recovery_stats_.participant_crashes;
        });
    sim_.control()->ScheduleAt(
        plan.participant_crash_at + plan.participant_restart_delay,
        sim::EventClass::kCrash, [this] {
          // The restart applies the deferred finishes, then serves the
          // reads that waited for it, before anything newer reaches the
          // partition.
          plane_.RestartPartition(options_.fault_plan.crash_partition);
          ++recovery_stats_.participant_restarts;
          reads_.Resume();
          plane_.Flush();
        });
  }
}

Database::~Database() = default;

void Database::Submit(Transaction tx, sim::Time at_ticks,
                      CompletionCallback on_complete) {
  ++inflight_;
  ScheduleExecute(
      PendingTx{std::move(tx), 1,
                HoldSink(std::move(on_complete), /*stream=*/false)},
      std::max(at_ticks, sim_.Now()));
}

void Database::SubmitArrivals(TrafficEngine* engine,
                              CompletionCallback on_complete) {
  FC_CHECK(engine != nullptr) << "null traffic engine";
  // One sink for the whole stream, pumped one arrival per event so the
  // queue never holds more than one future arrival of this stream.
  ScheduleNextArrival(engine,
                      HoldSink(std::move(on_complete), /*stream=*/true));
}

void Database::ScheduleNextArrival(TrafficEngine* engine,
                                   CompletionSink* sink) {
  TrafficEngine::Arrival arrival;
  arrival.tx.ops = TakeSpare(spare_ops_);
  if (!engine->Next(&arrival)) {
    spare_ops_.push_back(std::move(arrival.tx.ops));
    return;
  }
  sim_.control()->ScheduleAt(
      std::max(arrival.at, sim_.Now()), sim::EventClass::kControl,
      [this, engine, sink, tx = std::move(arrival.tx)]() mutable {
        AdmitArrival(std::move(tx), sink);
        ScheduleNextArrival(engine, sink);
      });
}

void Database::AdmitArrival(Transaction tx, CompletionSink* sink) {
  ++stats_.offered;
  if (options_.max_inflight > 0 && inflight_ >= options_.max_inflight) {
    // Saturated: shed at admission instead of queueing unboundedly — the
    // open-loop analogue of a front door turning requests away. The
    // decision is a real kAbort, delivered immediately.
    ++stats_.shed;
    if (sink->callback) sink->callback(tx, commit::Decision::kAbort);
    spare_ops_.push_back(std::move(tx.ops));
    return;
  }
  ++inflight_;
  Execute(PendingTx{std::move(tx), 1, sink});
}

CompletionSink* Database::HoldSink(CompletionCallback callback,
                                   bool stream) {
  if (!callback && !stream) return nullptr;
  if (held_sinks_ == sinks_.size()) {
    sinks_.push_back(std::make_unique<CompletionSink>());
  }
  CompletionSink* sink = sinks_[held_sinks_++].get();
  *sink = CompletionSink{std::move(callback), stream};
  return sink;
}

void Database::Notify(const PendingTx& pending, commit::Decision decision) {
  if (pending.sink != nullptr && pending.sink->callback) {
    pending.sink->callback(pending.tx, decision);
  }
}

void Database::EndTx(PendingTx& pending) {
  --inflight_;
  if (pending.sink != nullptr && pending.sink->stream) {
    spare_ops_.push_back(std::move(pending.tx.ops));
  }
}

void Database::FinishPartitions(TxId tx, const std::vector<int>& touched,
                                commit::Decision decision, sim::Time at,
                                int64_t csn) {
  int64_t watermark =
      decision == commit::Decision::kCommit ? reads_.Watermark() : 0;
  for (int partition_id : touched) {
    plane_.EnqueueFinish(partition_id, at, tx, decision, csn, watermark);
  }
}

void Database::ExecuteSnapshotRead(PendingTx pending) {
  // Completion is immediate — the read plane adds no virtual latency and
  // never aborts, so the open-loop admission window frees right away. The
  // values themselves reach the observer when the read is served.
  ++stats_.read_only_committed;
  stats_.snapshot_reads_served += static_cast<int64_t>(pending.tx.ops.size());
  Notify(pending, commit::Decision::kCommit);
  // The snapshot is the stable CSN at this (canonical-order) instant:
  // every commit with CSN <= it already ran FinishTx, so it is applied at
  // every up partition, and a read touching a down one waits for the
  // restart — the read observes exactly the stable prefix.
  reads_.Start(pending.tx);
  EndTx(pending);
}

void Database::Execute(PendingTx pending) {
  if (down_) {
    // Coordinator outage: everything that reaches Execute — fresh
    // submissions, retries, even read-only traffic — parks in arrival
    // order and re-executes at the restart instant.
    ++recovery_stats_.parked;
    parked_.push_back(std::move(pending));
    return;
  }
  // The read-only plane: checked before any routing or locking, so a
  // snapshot read leaves zero concurrency-control footprint in either mode
  // (2PL locks and OCC version words alike).
  if (options_.snapshot_reads && IsReadOnly(pending.tx)) {
    ExecuteSnapshotRead(std::move(pending));
    return;
  }
  sim::Time started = sim_.control()->Now();
  // A retired member's touched and vote vectors take this attempt's
  // prepares without allocating.
  RoundMember member = TakeSpare(spare_members_);
  member.pending = std::move(pending);
  member.started = started;
  const std::vector<int>& touched = member.touched;
  plane_.EnqueuePrepares(started, member.pending.tx.id,
                         member.pending.tx.ops, &member.touched,
                         &member.votes);
  // The check_invariants sweep, once per transaction.
  plane_.Flush();

  if (touched.size() == 1) {
    // One-phase commit: the only participant's vote is the decision.
    commit::Decision d = member.votes[0] == commit::Vote::kYes
                             ? commit::Decision::kCommit
                             : commit::Decision::kAbort;
    if (d == commit::Decision::kCommit) ++stats_.single_partition;
    FinishTx(member.pending, touched, d, started, started);
    spare_members_.push_back(std::move(member));
    return;
  }

  bool crashed = MaybeCrashCoordinator(CrashPoint::kAfterPrepare, started);
  if (batches_.enabled() && !crashed) {
    // A member whose own vote conjunction is already No is doomed whatever
    // the round decides, and the control plane learned that while
    // collecting votes — so its prepared state (exclusive locks at the
    // partitions that voted Yes) is dropped now instead of being held for
    // up to a full window, where it would amplify contention for every
    // later arrival. The member still rides the round: its votes join the
    // disjunction and its abort is delivered at the decide instant like
    // every other member's, matching the unbatched path where a doomed
    // transaction also learns its fate only when the protocol decides.
    // (Finish is idempotent, so the second Finish at the decide instant is
    // a no-op.)
    if (commit::ConjoinVotes(member.votes) == commit::Vote::kNo) {
      FinishPartitions(member.pending.tx.id, touched,
                       commit::Decision::kAbort, started);
    }
    batches_.Add(std::move(member));
    return;
  }

  RoundState& round = rounds_.File();
  round.partitions.assign(touched.begin(), touched.end());
  // The member's own votes go to the round and the member keeps the
  // entry's empty vector: ConjoinVotes of an empty vector is kYes, so the
  // round's decision alone settles its fate. Its touched set is the
  // round's.
  round.round_votes.swap(member.votes);
  round.members.push_back(std::move(member));
  // A crash that caught this transaction between its prepares and its
  // round leaves the round filed but unstarted, like an open batch:
  // recovery presumes abort, releases its locks, and resubmits it.
  if (!crashed) StartRound(round, /*resumed=*/false);
}

void Database::StartRound(RoundState& round, bool resumed) {
  sim::Time now = sim_.control()->Now();
  // Logless one-phase fast path (geo co-coordinator mode): a round whose
  // partitions all live in one region never exposes a decision outside
  // that region before it completes, so it skips the commit log entirely
  // — no slot, no replication, no durability wait. Its slot stays -1: a
  // coordinator crash mid-round presumes abort and resubmits, which is
  // exactly the unlogged-round recovery contract.
  const bool logless =
      GeoChoreographyEnabled() && RegionSpanOf(round.partitions).count == 1;
  // Append the round's votes to the log, whose accept phase starts
  // replicating immediately: it overlaps the commit protocol's own message
  // delays, so the crash-free cost is only the decide-phase quorum wait at
  // the end.
  if (!resumed && log_.has_value() && !logless) round.slot = log_->Append(now);
  if (!resumed && MaybeCrashCoordinator(CrashPoint::kAfterAccept, now)) {
    // The votes are (replicating to) the log but the instance never
    // starts: recovery finds the slot undecided and re-decides it.
    return;
  }

  if (GeoChoreographyEnabled()) {
    RunGeoRound(round, now);
    return;
  }

  // The lead (first-enqueued) member's id keys the round's completion
  // effect — ids join exactly one round per attempt, so the key stays
  // unique among an instant's effects.
  TxId lead = round.members.front().pending.tx.id;
  // The epoch fences the completion effect: a round that decides into a
  // later epoch was already settled by recovery, so its effect only
  // returns the instance to the pool.
  int64_t epoch = coordinator_epoch_;
  // Geo baseline (spread coordination, no co-coordinators): home each
  // cluster process in its partition's region, so the instance's own
  // protocol messages pay the WAN delays. The pool copies the regions out
  // before Acquire returns, so one buffer serves every round.
  round_regions_.clear();
  if (GeoEnabled()) {
    for (int p : round.partitions) {
      round_regions_.push_back(plane_.RegionOf(p));
    }
  }
  CommitInstance* instance = pool_.Acquire(
      0, sim_.instances(), round.round_votes,
      [this, lead, epoch, started = now, id = round.id](
          CommitInstance* done_instance, commit::Decision decision) {
        // Runs on the instance queue at the decide instant: snapshot the
        // message counts here — the instance's remaining events at this
        // instant run before the effect applies, and after Release the
        // per-epoch counters belong to the next incarnation — and defer
        // everything that touches shared state — the round table included
        // — to a key-ordered completion effect on the control plane. The
        // finish time holds until the next Reset.
        int64_t messages = done_instance->messages();
        int64_t cross_messages = done_instance->cross_messages();
        sim_.PostEffect(
            static_cast<uint64_t>(lead),
            [this, done_instance, messages, cross_messages, epoch, started, id,
             decision] {
              sim::Time finished = done_instance->finish_time();
              pool_.Release(done_instance);
              CompleteRound(id, decision, messages, cross_messages, started,
                            finished, epoch);
            });
      },
      round_regions_);
  instance->Start();
}

void Database::CompleteRound(int64_t id, commit::Decision decision,
                             int64_t messages, int64_t cross_messages,
                             sim::Time started_at, sim::Time finished_at,
                             int64_t epoch) {
  if (epoch != coordinator_epoch_) {
    // Decided into a dead epoch: the round's fate is recovery's to settle,
    // which may already have retired it or restarted it under this id.
    recovery_stats_.lost_round_messages += messages;
    return;
  }
  RoundState& round = InFlightRound(id);
  // One protocol round's messages, however many members it carried — the
  // amortization batching exists for.
  stats_.commit_messages += messages;
  // NBAC validity at the database: every instance runs failure-free, so a
  // round, first run or re-decided by recovery, must land on the unique
  // decision its votes imply.
  FC_CHECK(decision == commit::DecideFromVotes(round.round_votes))
      << "round " << id << " decided " << commit::ToString(decision)
      << " against its votes";
  if (GeoEnabled()) {
    RecordGeoRound(round, cross_messages, started_at, finished_at);
  }
  // Only logged rounds have a slot: the log is on and the round is not a
  // geo logless one-phase round.
  const int64_t slot = round.slot;
  if (slot >= 0) {
    // Expose the decision only once it is durable. Durability of the
    // accept phase is required too — a decision durable before its votes
    // would let recovery re-decide from nothing.
    log_->RecordDecision(slot, decision, finished_at, [this, id, decision] {
      DeliverRoundDecision(InFlightRound(id), decision, sim_.control()->Now());
    });
  }
  if (MaybeCrashCoordinator(CrashPoint::kAfterDecide, finished_at)) {
    // Decision logged (or lost with the unlogged round) but never
    // delivered: the crash drops the parked delivery, and recovery redoes
    // or presumes abort.
    return;
  }
  if (slot < 0) DeliverRoundDecision(round, decision, finished_at);
}

Database::RegionSpan Database::RegionSpanOf(
    const std::vector<int>& partitions) {
  RegionSpan span;
  if (!GeoEnabled()) return span;
  std::fill(region_scratch_.begin(), region_scratch_.end(), 0);
  span.count = 0;
  span.min = span.max = plane_.RegionOf(partitions.front());
  for (int p : partitions) {
    int region = plane_.RegionOf(p);
    span.min = std::min(span.min, region);
    span.max = std::max(span.max, region);
    char& seen = region_scratch_[static_cast<size_t>(region)];
    span.count += seen == 0;
    seen = 1;
  }
  return span;
}

void Database::RunGeoRound(const RoundState& round, sim::Time now) {
  int n = static_cast<int>(round.partitions.size());
  RegionSpan span = RegionSpanOf(round.partitions);
  // Gather and scatter are intra-DC hops a round only pays when some
  // co-coordinator has local company (n > span: a region holds >= 2
  // touched partitions); each costs one unit because every region gathers
  // in parallel. The all-to-all aggregate exchange is the single
  // cross-region hop on the critical path, bounded by the farthest
  // touched pair — which under the laddered topology is (min, max).
  sim::Time hop = n > span.count ? options_.unit : 0;
  sim::Time exchange =
      span.count > 1 ? geo_topology_.CrossDelayBetween(span.min, span.max)
                     : 0;
  sim::Time finished = now + hop + exchange + hop;
  // Vote gathers and decision scatters between each co-coordinator and
  // its local partitions, plus the co-coordinators' aggregate exchange.
  int64_t cross_messages =
      span.count > 1 ? static_cast<int64_t>(span.count) * (span.count - 1)
                     : 0;
  int64_t messages = 2 * static_cast<int64_t>(n - span.count) + cross_messages;
  // Every co-coordinator applies the vote algebra to the same full vote
  // vector, so each region reaches the decision locally — no second
  // cross-region round. This is the same verdict a protocol instance
  // reaches in a failure-free run (the validity FC_CHECK in CompleteRound
  // pins exactly that equivalence).
  commit::Decision decision = commit::DecideFromVotes(round.round_votes);
  int64_t epoch = coordinator_epoch_;
  sim_.control()->ScheduleAt(
      finished, sim::EventClass::kDelivery,
      [this, id = round.id, messages, cross_messages, now, finished, epoch,
       decision] {
        CompleteRound(id, decision, messages, cross_messages, now, finished,
                      epoch);
      });
}

void Database::RecordGeoRound(const RoundState& round, int64_t cross_messages,
                              sim::Time started_at, sim::Time finished_at) {
  int span = RegionSpanOf(round.partitions).count;
  geo_stats_.cross_region_messages += cross_messages;
  if (GeoChoreographyEnabled()) {
    ++geo_stats_.co_coordinator_rounds;
    // A single-region choreography round is by construction the logless
    // one-phase path (StartRound never appended a slot for it).
    if (span == 1) ++geo_stats_.one_phase_rounds;
  }
  if (span <= 1) {
    ++geo_stats_.single_region_rounds;
    return;
  }
  ++geo_stats_.multi_region_rounds;
  sim::Time latency = finished_at - started_at;
  geo_stats_.multi_region_latency.Record(latency);
  // Critical-path cross-region hops, nearest integer in closest-pair
  // cross delays: exact while intra-DC hops stay well under half a cross
  // delay (the 30-100x WAN regime this plane models).
  sim::Time cross = options_.unit * options_.cross_region_units_min;
  geo_stats_.cross_region_delays += (latency + cross / 2) / cross;
}

void Database::DeliverRoundDecision(RoundState& round,
                                    commit::Decision decision,
                                    sim::Time finished_at) {
  int64_t aborted_members = 0;
  for (RoundMember& member : round.members) {
    // A cross-set joiner's padded kYes votes leave its own conjunction
    // unchanged, so this test reads the member's real fate for every
    // admission path (and an unbatched member's empty votes conjoin to
    // kYes: the round's decision is its own).
    commit::Decision member_decision =
        (decision == commit::Decision::kCommit &&
         commit::ConjoinVotes(member.votes) == commit::Vote::kYes)
            ? commit::Decision::kCommit
            : commit::Decision::kAbort;
    if (member_decision != commit::Decision::kCommit) ++aborted_members;
    FinishTx(member.pending, member.touched, member_decision, member.started,
             finished_at);
  }
  // Control-plane order, so the adaptive EWMA trajectory is
  // deterministic.
  batches_.ObserveRound(round, aborted_members);
  if (round.slot >= 0) log_->MarkExecuted(round.slot);
  RetireRound(round);
}

RoundState& Database::FileRound(RoundState& formed) {
  RoundState& round = rounds_.File();
  round.partitions.swap(formed.partitions);
  round.round_votes.swap(formed.round_votes);
  round.members.swap(formed.members);
  return round;
}

RoundState& Database::InFlightRound(int64_t id) {
  RoundState* round = rounds_.Find(id);
  FC_CHECK(round != nullptr) << "round " << id << " is not in flight";
  return *round;
}

void Database::RetireRound(RoundState& round) {
  for (RoundMember& member : round.members) {
    spare_members_.push_back(std::move(member));
  }
  rounds_.Retire(round);
}

bool Database::MaybeCrashCoordinator(CrashPoint point, sim::Time at) {
  if (crash_countdown_ <= 0 || options_.fault_plan.crash_point != point) {
    return false;
  }
  if (--crash_countdown_ > 0) return false;
  CrashCoordinator(at);
  return true;
}

void Database::CrashCoordinator(sim::Time at) {
  FC_CHECK(!down_) << "coordinator crashed while already down";
  down_ = true;
  ++coordinator_epoch_;
  ++recovery_stats_.coordinator_crashes;
  recovery_stats_.last_crash_time = at;
  // Open batches are volatile coordinator state: their window timers die
  // with the crash and they become unlogged in-flight rounds for
  // recovery's presumed-abort sweep.
  for (RoundState& round : batches_.TakeOpen()) FileRound(round);
  // Parked delivery continuations are volatile too; their slots hold
  // logged decisions, which recovery redoes from the log itself.
  if (log_.has_value()) log_->DropWaiters();
  sim_.control()->ScheduleAt(
      at + options_.fault_plan.coordinator_restart_delay,
      sim::EventClass::kCrash, [this] { RecoverCoordinator(); });
}

void Database::RecoverCoordinator() {
  FC_CHECK(down_) << "recovery of a live coordinator";
  sim::Time now = sim_.control()->Now();
  down_ = false;
  ++recovery_stats_.recoveries;
  recovery_stats_.last_restart_time = now;
  recovery_stats_.unavailability_ticks += now - recovery_stats_.last_crash_time;
  // Replay the round table in formation order against the recovered log.
  // Three classes: decision logged -> redo the finishes; votes logged but
  // undecided -> re-decide through a fresh instance; nothing durable ->
  // presumed abort, release locks, resubmit the members. Redo and presumed
  // abort retire the entry, re-decide keeps it and its id; the walk goes
  // by id because retiring pops the retired prefix.
  const int64_t end = rounds_.end();
  for (int64_t id = rounds_.oldest(); id < end; ++id) {
    RoundState* entry = rounds_.Find(id);
    if (entry == nullptr) continue;  // retired: delivered before the crash
    RoundState& round = *entry;
    const CommitLog::Slot* slot =
        round.slot >= 0 ? log_->Get(round.slot) : nullptr;
    FC_CHECK(round.slot < 0 || slot != nullptr)
        << "in-flight round " << round.id << " lost its log slot "
        << round.slot;
    if (slot != nullptr && slot->decision != commit::Decision::kNone) {
      // Whether the decision's quorum completed is immaterial: the record
      // survived in the recovered log, and nothing contradicting it was
      // ever exposed.
      commit::Decision decision = slot->decision;
      ++recovery_stats_.redo_rounds;
      DeliverRoundDecision(round, decision, now);
    } else if (slot != nullptr) {
      ++recovery_stats_.redecide_rounds;
      StartRound(round, /*resumed=*/true);
    } else {
      ++recovery_stats_.presumed_aborts;
      for (RoundMember& member : round.members) {
        // Release whatever the member prepared (Finish is idempotent at
        // participants that never prepared it), then re-execute with the
        // same attempt number — the crash was not the member's conflict.
        FinishPartitions(member.pending.tx.id, member.touched,
                         commit::Decision::kAbort, now);
        ++recovery_stats_.resubmissions;
        ScheduleExecute(std::move(member.pending), now);
      }
      RetireRound(round);
    }
  }
  // Re-execute everything that arrived during the outage, in arrival
  // order, after the resubmissions above (same-instant control events run
  // in insertion order).
  std::vector<PendingTx> parked;
  parked.swap(parked_);
  for (PendingTx& pending : parked) ScheduleExecute(std::move(pending), now);
}

void Database::ScheduleExecute(PendingTx pending, sim::Time at) {
  sim_.control()->ScheduleAt(
      at, sim::EventClass::kControl,
      [this, pending = std::move(pending)]() mutable {
        Execute(std::move(pending));
      });
}

void Database::FinishTx(PendingTx& pending,
                        const std::vector<int>& touched,
                        commit::Decision decision, sim::Time started,
                        sim::Time finished_at) {
  // The CSN authority: every commit is stamped here, in control-plane
  // order, so the sequence — and every snapshot derived from it — is
  // deterministic.
  int64_t csn = decision == commit::Decision::kCommit ? reads_.NextCsn() : 0;
  FinishPartitions(pending.tx.id, touched, decision, finished_at, csn);
  if (decision == commit::Decision::kCommit) {
    ++stats_.committed;
    if (touched.size() > 1 && !IsReadOnly(pending.tx)) {
      stats_.latency.Record(finished_at - started);
    }
    Notify(pending, decision);
    EndTx(pending);
    return;
  }
  // Abort: bucket the attempt by the concurrency control that refused it
  // (shed arrivals never reach FinishTx, so they stay out of both), then
  // retry with linear backoff or give up.
  if (options_.concurrency == ConcurrencyMode::kOCC) {
    ++stats_.abort_validation_failures;
  } else {
    ++stats_.abort_lock_conflicts;
  }
  if (pending.attempt >= options_.max_attempts) {
    ++stats_.aborted;
    Notify(pending, decision);
    EndTx(pending);
    return;
  }
  ++stats_.retries;
  sim::Time backoff =
      options_.unit * kRetryBackoffUnits * pending.attempt +
      static_cast<sim::Time>(rng_.UniformInt(1, options_.unit));
  ++pending.attempt;
  ScheduleExecute(std::move(pending), finished_at + backoff);
}

const DatabaseStats& Database::Drain() {
  sim_.Run();
  // Sweep the final state's invariants.
  plane_.Flush();
  FC_CHECK(inflight_ == 0) << "transactions still pending after drain";
  FC_CHECK(batches_.idle())
      << "open batches after drain: a window flush event was lost";
  FC_CHECK(!plane_.any_down()) << "partition still down after drain";
  FC_CHECK(reads_.idle()) << "snapshot reads still waiting after drain";
  FC_CHECK(!down_) << "coordinator still down after drain";
  FC_CHECK(rounds_.empty()) << "in-flight rounds leaked after drain";
  FC_CHECK(parked_.empty()) << "parked transactions leaked after drain";
  FC_CHECK(!log_.has_value() || !log_->has_waiters())
      << "decision-durability waiters leaked after drain";
  for (int p = 0; p < plane_.num_partitions(); ++p) {
    FC_CHECK(plane_.partition(p).idle())
        << "partition " << p << " holds a prepared record or lock after drain";
  }
  // Every submission and stream has ended: their sinks are free again.
  for (size_t i = 0; i < held_sinks_; ++i) sinks_[i]->callback = nullptr;
  held_sinks_ = 0;
  batches_.EndDrain();
  stats_.makespan = sim_.Now();
  return stats_;
}

commit::Decision Database::Execute(Transaction tx) {
  commit::Decision decision = commit::Decision::kNone;
  Submit(std::move(tx), sim_.Now(),
         [&decision](const Transaction&, commit::Decision d) { decision = d; });
  Drain();
  FC_CHECK(decision != commit::Decision::kNone)
      << "submitted transaction never reported a decision";
  return decision;
}

int64_t Database::GetInt(Key key) {
  return plane_.partition(PartitionOf(key)).store().GetInt(key);
}

void Database::LoadInt(Key key, int64_t value) {
  plane_.partition(PartitionOf(key)).store().Put(key, value);
}

int64_t Database::SumInts() {
  int64_t sum = 0;
  for (int p = 0; p < plane_.num_partitions(); ++p) {
    sum += plane_.partition(p).store().SumInts();
  }
  return sum;
}

int64_t Database::GetIntAtSnapshot(Key key, int64_t snapshot_csn) {
  return plane_.partition(PartitionOf(key))
      .store()
      .GetIntAtSnapshot(key, snapshot_csn);
}

int64_t Database::TotalVersions() {
  int64_t total = 0;
  for (int p = 0; p < plane_.num_partitions(); ++p) {
    total += plane_.partition(p).store().total_versions();
  }
  return total;
}

}  // namespace fastcommit::db
