#ifndef FASTCOMMIT_NET_DELAY_MODEL_H_
#define FASTCOMMIT_NET_DELAY_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

namespace fastcommit::net {

/// Assigns a transmission delay to each message. The three system models of
/// the paper (Section 2.2) correspond to:
///   - nice executions: FixedDelayModel(U) — every delay exactly U;
///   - crash-failure (synchronous) systems: BoundedRandomDelayModel — every
///     delay in [min, U];
///   - network-failure (eventually synchronous) systems: GstDelayModel —
///     delays up to `max_before_gst` before the global stabilization time,
///     and at most U afterwards. Channels never lose messages, so every
///     delay is finite.
/// ScriptedDelayModel supports the adversarial executions used by the
/// lower-bound style tests: specific messages are held back past a decision
/// point, exactly as in the proofs of Lemmas 1, 3 and 5.
class DelayModel {
 public:
  virtual ~DelayModel() = default;

  /// Delay in ticks for message number `seq` (global send order) from `from`
  /// to `to`, sent at `send_time`. Must be >= 1: a message never arrives at
  /// the instant it is sent.
  virtual sim::Time DelayFor(ProcessId from, ProcessId to, sim::Time send_time,
                             int64_t seq) = 0;
};

/// Every message takes exactly `delay` ticks (nice executions; also the
/// worst-case synchronous schedule used in the complexity accounting).
class FixedDelayModel : public DelayModel {
 public:
  explicit FixedDelayModel(sim::Time delay);
  sim::Time DelayFor(ProcessId from, ProcessId to, sim::Time send_time,
                     int64_t seq) override;

 private:
  sim::Time delay_;
};

/// Uniform random delay in [min_delay, max_delay]; with max_delay = U this
/// models an arbitrary synchronous (crash-failure) schedule.
class BoundedRandomDelayModel : public DelayModel {
 public:
  BoundedRandomDelayModel(sim::Time min_delay, sim::Time max_delay,
                          uint64_t seed);
  sim::Time DelayFor(ProcessId from, ProcessId to, sim::Time send_time,
                     int64_t seq) override;

 private:
  sim::Time min_delay_;
  sim::Time max_delay_;
  sim::Rng rng_;
};

/// Eventually synchronous: before `gst`, each message independently suffers
/// a delay in [U, max_before_gst] with probability `late_probability`
/// (otherwise a normal delay in [min_delay, U]); from `gst` on, all delays
/// are within [min_delay, U]. A message sent before gst with an assigned
/// arrival before gst is not re-delayed, matching the model in which only
/// transmissions, not deliveries, are timed.
class GstDelayModel : public DelayModel {
 public:
  GstDelayModel(sim::Time u, sim::Time gst, sim::Time max_before_gst,
                double late_probability, uint64_t seed);
  sim::Time DelayFor(ProcessId from, ProcessId to, sim::Time send_time,
                     int64_t seq) override;

 private:
  sim::Time u_;
  sim::Time gst_;
  sim::Time max_before_gst_;
  double late_probability_;
  sim::Rng rng_;
};

/// Base delays from an inner model, with per-link overrides used to build
/// the indistinguishability arguments of the paper's proofs ("every message
/// from P to a process in Ω\Φ arrives later than max(t1, t3)").
class ScriptedDelayModel : public DelayModel {
 public:
  explicit ScriptedDelayModel(std::unique_ptr<DelayModel> base);

  /// Messages from `from` to `to` sent in [sent_from, sent_to] get `delay`.
  /// Use from = -1 or to = -1 as wildcards (any negative id is treated as
  /// the wildcard). When several rules cover the same message, the one added
  /// last wins — scripts layer "hold everything back" blankets first and
  /// then punch narrower per-link exceptions on top.
  void AddRule(ProcessId from, ProcessId to, sim::Time sent_from,
               sim::Time sent_to, sim::Time delay);

  sim::Time DelayFor(ProcessId from, ProcessId to, sim::Time send_time,
                     int64_t seq) override;

 private:
  struct Rule {
    ProcessId from;
    ProcessId to;
    sim::Time sent_from;
    sim::Time sent_to;
    sim::Time delay;
  };

  std::unique_ptr<DelayModel> base_;
  /// Insertion order; a lookup scans from the back, so the newest matching
  /// rule wins.
  std::vector<Rule> rules_;
};

/// Region topology for geo-distributed commit: a symmetric matrix of one-way
/// cross-region delays (ticks). Intra-region messages are delegated to a
/// composed base model (Fixed/BoundedRandom/Gst), so the WAN classes layer
/// on top of any of the paper's three system models.
struct GeoTopology {
  int num_regions = 1;
  /// Row-major num_regions x num_regions one-way delays; diagonal entries
  /// are unused (same-region messages take the base model's delay).
  std::vector<sim::Time> cross_delay;

  /// RTT classes laddered by region distance: adjacent regions cost
  /// `cross_min`, the farthest pair costs `cross_max`, intermediate pairs
  /// interpolate linearly (integer math, deterministic). With `cross_min`
  /// equal to `cross_max` every pair costs the same (a uniform WAN).
  static GeoTopology Ladder(int num_regions, sim::Time cross_min,
                            sim::Time cross_max);

  sim::Time CrossDelayBetween(int a, int b) const;
  /// Largest one-way delay in the matrix — the synchrony bound a protocol
  /// running across this topology must assume (0 for a single region).
  sim::Time MaxCrossDelay() const;
};

/// Assigns processes to regions and prices each message by whether it stays
/// inside its region (base model delay, intra-DC ~1U) or crosses a region
/// boundary (the topology's per-pair delay, 30-100U). Deterministic given
/// the base model: the region lookup adds no RNG draws, so a 1-region
/// topology is bitwise identical to the bare base model.
class RegionDelayModel : public DelayModel {
 public:
  RegionDelayModel(GeoTopology topology, std::unique_ptr<DelayModel> base);

  /// Region of each process id, indexed by id; processes at or beyond
  /// size() live in region 0. Replaces any previous assignment — the pooled
  /// commit-instance recycle path re-homes the cluster per incarnation —
  /// by assigning into the retained vector, so a warm re-home of an equal
  /// or smaller cluster allocates nothing.
  void SetProcessRegions(const std::vector<int>& regions);

  sim::Time DelayFor(ProcessId from, ProcessId to, sim::Time send_time,
                     int64_t seq) override;

  /// Messages priced at a cross-region delay since construction.
  int64_t cross_messages() const { return cross_messages_; }

 private:
  int RegionOf(ProcessId pid) const;

  GeoTopology topology_;
  std::unique_ptr<DelayModel> base_;
  std::vector<int> regions_;
  int64_t cross_messages_ = 0;
};

}  // namespace fastcommit::net

#endif  // FASTCOMMIT_NET_DELAY_MODEL_H_
