#include "net/delay_model.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace fastcommit::net {

FixedDelayModel::FixedDelayModel(sim::Time delay) : delay_(delay) {
  FC_CHECK(delay >= 1) << "delay must be positive";
}

sim::Time FixedDelayModel::DelayFor(ProcessId /*from*/, ProcessId /*to*/,
                                    sim::Time /*send_time*/, int64_t /*seq*/) {
  return delay_;
}

BoundedRandomDelayModel::BoundedRandomDelayModel(sim::Time min_delay,
                                                 sim::Time max_delay,
                                                 uint64_t seed)
    : min_delay_(min_delay), max_delay_(max_delay), rng_(seed) {
  FC_CHECK(min_delay >= 1) << "min delay must be positive";
  FC_CHECK(max_delay >= min_delay) << "empty delay range";
}

sim::Time BoundedRandomDelayModel::DelayFor(ProcessId /*from*/,
                                            ProcessId /*to*/,
                                            sim::Time /*send_time*/,
                                            int64_t /*seq*/) {
  return rng_.UniformInt(min_delay_, max_delay_);
}

GstDelayModel::GstDelayModel(sim::Time u, sim::Time gst,
                             sim::Time max_before_gst, double late_probability,
                             uint64_t seed)
    : u_(u),
      gst_(gst),
      max_before_gst_(max_before_gst),
      late_probability_(late_probability),
      rng_(seed) {
  FC_CHECK(u >= 1) << "U must be positive";
  // Strict: the late branch draws from [U + 1, max_before_gst], so a bound
  // equal to U would hand UniformInt an empty range (historical bug — the
  // old >= check admitted it).
  FC_CHECK(max_before_gst > u) << "pre-GST bound must exceed U";
}

sim::Time GstDelayModel::DelayFor(ProcessId /*from*/, ProcessId /*to*/,
                                  sim::Time send_time, int64_t /*seq*/) {
  if (send_time < gst_ && rng_.Chance(late_probability_)) {
    sim::Time delay = rng_.UniformInt(u_ + 1, max_before_gst_);
    // After GST the bound holds for *transmissions started* after GST; a
    // pre-GST message may still arrive late, which is exactly the paper's
    // "network failure": some transmission exceeds U.
    return delay;
  }
  return rng_.UniformInt(1, u_);
}

ScriptedDelayModel::ScriptedDelayModel(std::unique_ptr<DelayModel> base)
    : base_(std::move(base)) {
  FC_CHECK(base_ != nullptr) << "scripted model needs a base model";
}

void ScriptedDelayModel::AddRule(ProcessId from, ProcessId to,
                                 sim::Time sent_from, sim::Time sent_to,
                                 sim::Time delay) {
  FC_CHECK(delay >= 1) << "delay must be positive";
  // An inverted interval can never match; it used to be accepted silently
  // and create a dead rule, which reads as "the script is on" while the
  // adversary never actually fires.
  FC_CHECK(sent_from <= sent_to)
      << "inverted rule interval [" << sent_from << ", " << sent_to << "]";
  rules_.push_back(Rule{from, to, sent_from, sent_to, delay});
}

sim::Time ScriptedDelayModel::DelayFor(ProcessId from, ProcessId to,
                                       sim::Time send_time, int64_t seq) {
  for (auto it = rules_.rbegin(); it != rules_.rend(); ++it) {
    if ((it->from < 0 || it->from == from) && (it->to < 0 || it->to == to) &&
        send_time >= it->sent_from && send_time <= it->sent_to) {
      return it->delay;
    }
  }
  return base_->DelayFor(from, to, send_time, seq);
}

GeoTopology GeoTopology::Ladder(int num_regions, sim::Time cross_min,
                                sim::Time cross_max) {
  FC_CHECK(num_regions >= 1) << "need at least one region";
  FC_CHECK(cross_min >= 1) << "cross-region delay must be positive";
  FC_CHECK(cross_max >= cross_min) << "inverted cross-region delay range";
  GeoTopology topology;
  topology.num_regions = num_regions;
  topology.cross_delay.assign(
      static_cast<size_t>(num_regions) * num_regions, 0);
  // distance 1 -> cross_min, distance (num_regions - 1) -> cross_max.
  sim::Time span = cross_max - cross_min;
  int steps = num_regions - 2;  // interior distances between the endpoints
  for (int a = 0; a < num_regions; ++a) {
    for (int b = 0; b < num_regions; ++b) {
      if (a == b) continue;
      int distance = a > b ? a - b : b - a;
      sim::Time delay =
          steps <= 0 ? cross_min
                     : cross_min + span * (distance - 1) / steps;
      topology.cross_delay[static_cast<size_t>(a) * num_regions + b] = delay;
    }
  }
  return topology;
}

sim::Time GeoTopology::CrossDelayBetween(int a, int b) const {
  FC_CHECK(a >= 0 && a < num_regions && b >= 0 && b < num_regions)
      << "region out of range: " << a << ", " << b;
  return cross_delay[static_cast<size_t>(a) * num_regions + b];
}

sim::Time GeoTopology::MaxCrossDelay() const {
  sim::Time max_delay = 0;
  for (sim::Time delay : cross_delay) {
    max_delay = std::max(max_delay, delay);
  }
  return max_delay;
}

RegionDelayModel::RegionDelayModel(GeoTopology topology,
                                   std::unique_ptr<DelayModel> base)
    : topology_(std::move(topology)), base_(std::move(base)) {
  FC_CHECK(base_ != nullptr) << "region model needs an intra-region base";
  FC_CHECK(topology_.num_regions >= 1) << "need at least one region";
  FC_CHECK(topology_.cross_delay.size() ==
           static_cast<size_t>(topology_.num_regions) * topology_.num_regions)
      << "cross-delay matrix shape mismatch";
  if (topology_.num_regions > 1) {
    for (int a = 0; a < topology_.num_regions; ++a) {
      for (int b = 0; b < topology_.num_regions; ++b) {
        if (a == b) continue;
        FC_CHECK(topology_.CrossDelayBetween(a, b) >= 1)
            << "cross-region delay must be positive";
      }
    }
  }
}

void RegionDelayModel::SetProcessRegions(const std::vector<int>& regions) {
  for (int region : regions) {
    FC_CHECK(region >= 0 && region < topology_.num_regions)
        << "process homed in unknown region " << region;
  }
  regions_.assign(regions.begin(), regions.end());
}

int RegionDelayModel::RegionOf(ProcessId pid) const {
  if (pid < 0 || static_cast<size_t>(pid) >= regions_.size()) return 0;
  return regions_[static_cast<size_t>(pid)];
}

sim::Time RegionDelayModel::DelayFor(ProcessId from, ProcessId to,
                                     sim::Time send_time, int64_t seq) {
  int region_from = RegionOf(from);
  int region_to = RegionOf(to);
  if (region_from == region_to) {
    return base_->DelayFor(from, to, send_time, seq);
  }
  ++cross_messages_;
  return topology_.CrossDelayBetween(region_from, region_to);
}

}  // namespace fastcommit::net
