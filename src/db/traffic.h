#ifndef FASTCOMMIT_DB_TRAFFIC_H_
#define FASTCOMMIT_DB_TRAFFIC_H_

#include <cstdint>

#include "db/transaction.h"
#include "sim/rng.h"
#include "sim/sim_time.h"

namespace fastcommit::db {

/// Arrival process of an open-loop traffic stream. Closed-loop workloads
/// (a pre-built vector submitted at fixed gaps) measure a system that is
/// never pressured; these processes model what "heavy traffic from
/// millions of users" actually does to it — sustained random arrivals,
/// flash crowds, and a load that ramps through the day — the regimes the
/// delay-optimality story (and the "can't be fast" bound, arXiv
/// 1903.09106) only bites under.
enum class ArrivalProcess : uint8_t {
  kPoisson = 0,  ///< exponential inter-arrival gaps at a fixed mean rate
  /// Flash crowds: bursts of `burst_size` arrivals packed at
  /// `burst_gap_scale * mean_gap` ticks apart, separated by exponential
  /// idle gaps sized so the long-run mean gap stays `mean_gap`.
  kBursty = 1,
  /// Diurnal ramp: the instantaneous rate follows a triangle wave with
  /// period `diurnal_period` — mean gap swings between
  /// mean_gap / (1 + amplitude) (peak) and mean_gap / (1 - amplitude)
  /// (trough), linearly in time.
  kDiurnal = 2,
};

/// Transaction shape emitted per arrival.
enum class TxShape : uint8_t {
  kTransferPair = 0,   ///< 2 keys, Add -x / Add +x (conserves the sum)
  kReadModifyWrite = 1,  ///< keys_per_tx keys, Get + Add(+1) each
};

const char* ToString(ArrivalProcess process);
const char* ToString(TxShape shape);

struct TrafficOptions {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Long-run mean inter-arrival gap in ticks; offered load = 1/mean_gap
  /// arrivals per tick for every process.
  double mean_gap = 100.0;
  int64_t num_arrivals = 10000;

  // kBursty knobs.
  int64_t burst_size = 64;
  double burst_gap_scale = 0.02;  ///< intra-burst gap = mean_gap * this

  // kDiurnal knobs.
  int64_t diurnal_period = 200000;  ///< ticks per full ramp cycle
  double diurnal_amplitude = 0.8;   ///< rate swing fraction, in [0, 1)

  // Key population and per-transaction shape.
  int64_t num_keys = 1 << 20;  ///< open-loop default: a million-key space
  TxShape shape = TxShape::kTransferPair;
  int keys_per_tx = 2;      ///< kReadModifyWrite only
  int64_t max_amount = 50;  ///< kTransferPair only
  /// Fraction of arrivals emitted as pure read-only transactions:
  /// `reads_per_tx` kGets on independently sampled keys (same Zipf + drift
  /// popularity as the writes). The read-mix axis of the snapshot-read
  /// bench sweeps this 0.5 -> 0.99. 0, the default, draws nothing from the
  /// RNG, so every pre-existing golden sequence is bitwise unchanged.
  double read_fraction = 0.0;
  int reads_per_tx = 4;  ///< kGets per read-only arrival
  /// Id offset: ids run first_tx_id + 1 .. first_tx_id + num_arrivals, so
  /// concurrent streams (e.g. a scan stream beside an OLTP stream) can
  /// share one database without id collisions. 0 keeps the historical
  /// 1-based ids.
  int64_t first_tx_id = 0;
  /// Zipf exponent of key popularity; 0 = uniform. ~0.99 is the classic
  /// YCSB-style skew.
  double zipf_exponent = 0.0;
  /// Skew drift: every `drift_period` arrivals the popularity ranking
  /// rotates by one key, so the hot set wanders across the key space over
  /// the run (cache-busting churn). 0 = static popularity.
  int64_t drift_period = 0;

  uint64_t seed = 1;
};

/// Deterministic open-loop arrival stream: yields (arrival time,
/// transaction) pairs one at a time, so a run over millions of keys and
/// arrivals never materializes a workload vector. All randomness flows
/// from one sim::Rng. Every gap and key is the floor of a sim::detmath
/// value; the samplers compute it from libm and fall back to detmath
/// only near an integer (sim::detmath::GuardedFloor), so the stream is
/// bitwise identical across platforms at libm speed — gated by the
/// golden sequences and guard sweeps in tests/distribution_test.cc, and
/// by the stream digests in tests/db_traffic_test.cc.
///
/// Transaction ids are assigned 1..num_arrivals in arrival order, matching
/// the closed-loop generators' convention (retries keep the id).
class TrafficEngine {
 public:
  explicit TrafficEngine(const TrafficOptions& options);

  struct Arrival {
    sim::Time at = 0;
    Transaction tx;
  };

  /// Produces the next arrival into `out`, whose op vector keeps its
  /// buffer; false once num_arrivals were generated.
  bool Next(Arrival* out);

 private:
  /// Inter-arrival gap, in ticks, before the next arrival.
  sim::Time NextGap();
  /// One key index under the current popularity ranking: a Zipf rank
  /// rotated by `drift`, this arrival's offset in [0, num_keys).
  int64_t SampleKey(int64_t drift);

  TrafficOptions options_;
  sim::Rng rng_;
  sim::ZipfSampler zipf_;
  sim::Time clock_ = 0;
  int64_t generated_ = 0;
  int64_t in_burst_ = 0;  ///< arrivals emitted in the current flash crowd
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_TRAFFIC_H_
