#include "db/traffic.h"

#include "core/check.h"
#include "db/workload.h"

namespace fastcommit::db {

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
  FC_CHECK(options.burst_gap_scale >= 0.0) << "negative burst_gap_scale";
  FC_CHECK(options.diurnal_period >= 2) << "diurnal_period must be >= 2";
  FC_CHECK(options.diurnal_amplitude >= 0.0 && options.diurnal_amplitude < 1.0)
      << "diurnal_amplitude must be in [0, 1)";
  FC_CHECK(options.num_keys >= 2) << "need at least two keys";
  FC_CHECK(options.keys_per_tx >= 1) << "keys_per_tx must be >= 1";
  FC_CHECK(options.read_fraction >= 0.0 && options.read_fraction <= 1.0)
      << "read_fraction must be in [0, 1]";
  FC_CHECK(options.reads_per_tx >= 1) << "reads_per_tx must be >= 1";
  FC_CHECK(options.first_tx_id >= 0) << "negative first_tx_id";
  FC_CHECK(options.max_amount >= 1) << "max_amount must be >= 1";
  FC_CHECK(options.drift_period >= 0) << "negative drift_period";
}

sim::Time TrafficEngine::NextGap() {
  switch (options_.process) {
    case ArrivalProcess::kPoisson:
      return static_cast<sim::Time>(rng_.Exponential(options_.mean_gap));
    case ArrivalProcess::kBursty: {
      // A flash crowd: `burst_size` arrivals packed tightly, then an
      // exponential idle gap sized so the long-run mean stays mean_gap —
      // the idle mean is one whole burst's budget minus what the packed
      // arrivals already consumed.
      sim::Time intra = static_cast<sim::Time>(options_.mean_gap *
                                               options_.burst_gap_scale);
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
      return static_cast<sim::Time>(rng_.Exponential(budget));
    }
    case ArrivalProcess::kDiurnal: {
      // Triangle-wave rate modulation (a "day" of diurnal_period ticks):
      // tri runs -1 -> +1 over the first half-period and back down over
      // the second, so the instantaneous rate ramps linearly between
      // (1 - amplitude) and (1 + amplitude) times the base rate. Pure
      // integer/basic-double arithmetic — no libm trigonometry — keeps
      // the stream platform-invariant.
      sim::Time phase = clock_ % options_.diurnal_period;
      double half = static_cast<double>(options_.diurnal_period) / 2.0;
      double tri = static_cast<double>(phase) < half
                       ? -1.0 + 2.0 * static_cast<double>(phase) / half
                       : 3.0 - 2.0 * static_cast<double>(phase) / half;
      double rate_factor = 1.0 + options_.diurnal_amplitude * tri;
      return static_cast<sim::Time>(
          rng_.Exponential(options_.mean_gap / rate_factor));
    }
  }
  FC_CHECK(false) << "unknown arrival process";
  return 0;
}

int64_t TrafficEngine::SampleKey() {
  int64_t rank = zipf_.Sample(rng_);
  if (options_.drift_period > 0) {
    // The popularity ranking rotates one position every drift_period
    // arrivals: rank r maps to key (r + offset) mod num_keys, so the hot
    // set wanders across the whole key space over a long run.
    int64_t offset = generated_ / options_.drift_period;
    rank = (rank + offset) % options_.num_keys;
  }
  return rank;
}

bool TrafficEngine::Next(Arrival* out) {
  if (generated_ >= options_.num_arrivals) return false;
  clock_ += NextGap();
  out->at = clock_;
  out->tx = Transaction{};
  out->tx.id = options_.first_tx_id + generated_ + 1;
  // The read-mix draw happens only when the knob is on: at the default
  // read_fraction = 0 this consumes nothing, so the golden sequences of
  // every pre-existing configuration stay bitwise identical.
  if (options_.read_fraction > 0.0 && rng_.Chance(options_.read_fraction)) {
    for (int k = 0; k < options_.reads_per_tx; ++k) {
      out->tx.ops.push_back(Transaction::Get(ItemKey(SampleKey())));
    }
    ++generated_;
    return true;
  }
  switch (options_.shape) {
    case TxShape::kTransferPair: {
      int64_t from = SampleKey();
      int64_t to = SampleKey();
      if (to == from) to = (to + 1) % options_.num_keys;
      int64_t amount = rng_.UniformInt(1, options_.max_amount);
      AppendTransferOps(&out->tx, ItemKey(from), ItemKey(to), amount);
      break;
    }
    case TxShape::kReadModifyWrite:
      for (int k = 0; k < options_.keys_per_tx; ++k) {
        AppendReadModifyWriteOps(&out->tx, ItemKey(SampleKey()));
      }
      break;
  }
  ++generated_;
  return true;
}

}  // namespace fastcommit::db
