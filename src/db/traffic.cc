#include "db/traffic.h"

#include "core/check.h"
#include "db/workload.h"

namespace fastcommit::db {

namespace {

/// A flash crowd's arrivals are this fraction of the mean gap apart.
constexpr double kBurstGapScale = 0.02;
/// The diurnal rate swings this fraction above and below its mean.
constexpr double kDiurnalAmplitude = 0.8;
/// A transfer moves 1 to this many units.
constexpr int64_t kMaxAmount = 50;

}  // namespace

const char* ToString(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kBursty:
      return "bursty";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
  }
  return "?";
}

const char* ToString(TxShape shape) {
  switch (shape) {
    case TxShape::kTransferPair:
      return "transfer";
    case TxShape::kReadModifyWrite:
      return "rmw";
  }
  return "?";
}

TrafficEngine::TrafficEngine(const TrafficOptions& options)
    : options_(options),
      rng_(options.seed),
      zipf_(options.num_keys, options.zipf_exponent) {
  FC_CHECK(options.mean_gap > 0.0) << "mean_gap must be positive";
  FC_CHECK(options.num_arrivals >= 0) << "negative num_arrivals";
  FC_CHECK(options.burst_size >= 1) << "burst_size must be >= 1";
  FC_CHECK(options.diurnal_period >= 2) << "diurnal_period must be >= 2";
  FC_CHECK(options.num_keys >= 2 && options.num_keys <= kKeyIndexLimit)
      << "num_keys must be in [2, 2^56]";
  FC_CHECK(options.keys_per_tx >= 1) << "keys_per_tx must be >= 1";
  FC_CHECK(options.read_fraction >= 0.0 && options.read_fraction <= 1.0)
      << "read_fraction must be in [0, 1]";
  FC_CHECK(options.reads_per_tx >= 1) << "reads_per_tx must be >= 1";
  FC_CHECK(options.first_tx_id >= 0) << "negative first_tx_id";
  FC_CHECK(options.drift_period >= 0) << "negative drift_period";
}

sim::Time TrafficEngine::NextGap() {
  switch (options_.process) {
    case ArrivalProcess::kPoisson:
      return rng_.ExponentialFloor(options_.mean_gap);
    case ArrivalProcess::kBursty: {
      // A flash crowd: `burst_size` arrivals packed tightly, then an
      // exponential idle gap sized so the long-run mean stays mean_gap —
      // the idle mean is one whole burst's budget minus what the packed
      // arrivals already consumed.
      sim::Time intra =
          static_cast<sim::Time>(options_.mean_gap * kBurstGapScale);
      if (in_burst_ > 0) {
        if (++in_burst_ >= options_.burst_size) in_burst_ = 0;
        return intra;
      }
      in_burst_ = options_.burst_size > 1 ? 1 : 0;
      double budget =
          options_.mean_gap * static_cast<double>(options_.burst_size) -
          static_cast<double>(intra) *
              static_cast<double>(options_.burst_size - 1);
      if (budget < 1.0) budget = 1.0;
      return rng_.ExponentialFloor(budget);
    }
    case ArrivalProcess::kDiurnal: {
      // Triangle-wave rate modulation (a "day" of diurnal_period ticks):
      // tri runs -1 -> +1 over the first half-period and back down over
      // the second, so the instantaneous rate ramps linearly between
      // 1 - kDiurnalAmplitude and 1 + kDiurnalAmplitude times the base
      // rate. Pure
      // integer/basic-double arithmetic — no libm trigonometry — keeps
      // the stream platform-invariant.
      sim::Time phase = clock_ % options_.diurnal_period;
      double half = static_cast<double>(options_.diurnal_period) / 2.0;
      double tri = static_cast<double>(phase) < half
                       ? -1.0 + 2.0 * static_cast<double>(phase) / half
                       : 3.0 - 2.0 * static_cast<double>(phase) / half;
      double rate_factor = 1.0 + kDiurnalAmplitude * tri;
      return rng_.ExponentialFloor(options_.mean_gap / rate_factor);
    }
  }
  FC_CHECK(false) << "unknown arrival process";
  return 0;
}

int64_t TrafficEngine::SampleKey(int64_t drift) {
  // rank and drift both lie in [0, num_keys): one subtract reduces.
  int64_t key = zipf_.Sample(rng_) + drift;
  return key >= options_.num_keys ? key - options_.num_keys : key;
}

bool TrafficEngine::Next(Arrival* out) {
  if (generated_ >= options_.num_arrivals) return false;
  clock_ += NextGap();
  out->at = clock_;
  out->tx.id = options_.first_tx_id + generated_ + 1;
  out->tx.ops.clear();  // the caller's buffer, kept for its capacity
  // The popularity ranking rotates one position every drift_period
  // arrivals: rank r maps to key (r + drift) mod num_keys, so the hot set
  // wanders across the whole key space over a long run.
  int64_t drift = options_.drift_period > 0
                      ? generated_ / options_.drift_period % options_.num_keys
                      : 0;
  // The read-mix draw happens only when the knob is on: at the default
  // read_fraction = 0 this consumes nothing, so the golden sequences of
  // every pre-existing configuration stay bitwise identical.
  if (options_.read_fraction > 0.0 && rng_.Chance(options_.read_fraction)) {
    for (int k = 0; k < options_.reads_per_tx; ++k) {
      out->tx.ops.push_back(Transaction::Get(ItemKey(SampleKey(drift))));
    }
    ++generated_;
    return true;
  }
  switch (options_.shape) {
    case TxShape::kTransferPair: {
      int64_t from = SampleKey(drift);
      int64_t to = SampleKey(drift);
      if (to == from) to = (to + 1) % options_.num_keys;
      int64_t amount = rng_.UniformInt(1, kMaxAmount);
      AppendTransferOps(&out->tx, ItemKey(from), ItemKey(to), amount);
      break;
    }
    case TxShape::kReadModifyWrite:
      for (int k = 0; k < options_.keys_per_tx; ++k) {
        AppendReadModifyWriteOps(&out->tx, ItemKey(SampleKey(drift)));
      }
      break;
  }
  ++generated_;
  return true;
}

}  // namespace fastcommit::db
