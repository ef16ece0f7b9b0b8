// Dedicated delay-model coverage (PR 10's bugfix sweep): the four
// pre-existing models' boundary semantics — the GST boundary at
// send_time == gst, the late-arrival branch's draw range, scripted
// wildcard and last-rule-wins arbitration — plus the new region model's
// class boundaries. The two regression tests pin the fixed bugs: the
// empty-range RNG draw when max_before_gst == U, and silently-dead
// inverted scripted intervals.

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/delay_model.h"

namespace fastcommit::net {
namespace {

// ------------------------------------------------------------- Fixed --

TEST(FixedDelayModel2Test, IgnoresEveryArgument) {
  FixedDelayModel model(7);
  EXPECT_EQ(model.DelayFor(0, 1, 0, 0), 7);
  EXPECT_EQ(model.DelayFor(5, 3, 123456, 99), 7);
}

TEST(FixedDelayModel2Test, RejectsNonPositiveDelay) {
  EXPECT_DEATH(FixedDelayModel(0), "delay must be positive");
}

// ----------------------------------------------------- BoundedRandom --

TEST(BoundedRandomDelayModel2Test, DegenerateRangeIsConstant) {
  BoundedRandomDelayModel model(42, 42, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(model.DelayFor(0, 1, 0, i), 42);
  }
}

TEST(BoundedRandomDelayModel2Test, RejectsInvertedRange) {
  EXPECT_DEATH(BoundedRandomDelayModel(10, 9, 1), "empty delay range");
}

// --------------------------------------------------------------- GST --

// Regression for the empty-range draw: the late branch draws from
// [U + 1, max_before_gst], so max_before_gst == U — previously admitted
// by the constructor's >= check — handed sim::Rng::UniformInt an empty
// range. The constructor now requires a strictly larger bound.
TEST(GstDelayModel2Test, RejectsPreGstBoundEqualToU) {
  EXPECT_DEATH(GstDelayModel(100, 1000, 100, 0.5, 1),
               "pre-GST bound must exceed U");
}

TEST(GstDelayModel2Test, MinimalLateBoundDrawsExactlyUPlusOne) {
  // max_before_gst = U + 1 makes the late range the single value U + 1:
  // every pre-GST delay is either a normal draw <= U or exactly U + 1.
  GstDelayModel model(100, 100000, 101, 1.0, 7);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(model.DelayFor(0, 1, 0, i), 101);
  }
}

TEST(GstDelayModel2Test, SendAtGstIsBoundedByU) {
  // The boundary instant belongs to the synchronous regime: only sends
  // strictly before gst may be late. late_probability = 1 would make any
  // pre-GST send exceed U, so observing <= U at send_time == gst pins the
  // strict comparison.
  GstDelayModel model(100, 5000, 900, 1.0, 3);
  for (int i = 0; i < 200; ++i) {
    sim::Time d = model.DelayFor(0, 1, 5000, i);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 100);
  }
}

TEST(GstDelayModel2Test, LateBeforeGstExceedsUWithinBound) {
  GstDelayModel model(100, 5000, 900, 1.0, 3);
  for (int i = 0; i < 200; ++i) {
    sim::Time d = model.DelayFor(0, 1, 4999, i);
    EXPECT_GT(d, 100);
    EXPECT_LE(d, 900);
  }
}

// ---------------------------------------------------------- Scripted --

std::unique_ptr<DelayModel> Base(sim::Time delay) {
  return std::make_unique<FixedDelayModel>(delay);
}

TEST(ScriptedDelayModel2Test, RejectsInvertedInterval) {
  ScriptedDelayModel model(Base(10));
  EXPECT_DEATH(model.AddRule(0, 1, 50, 49, 5), "inverted rule interval");
}

TEST(ScriptedDelayModel2Test, WildcardFromAndToMatch) {
  ScriptedDelayModel model(Base(10));
  model.AddRule(-1, 2, 0, 100, 33);  // any sender -> 2
  model.AddRule(3, -1, 0, 100, 44);  // 3 -> any receiver
  model.AddRule(-1, -1, 200, 300, 55);  // blanket, later window
  EXPECT_EQ(model.DelayFor(7, 2, 50, 0), 33);
  EXPECT_EQ(model.DelayFor(3, 9, 50, 1), 44);
  EXPECT_EQ(model.DelayFor(0, 1, 250, 2), 55);
  EXPECT_EQ(model.DelayFor(0, 1, 50, 3), 10);  // no rule: base model
}

TEST(ScriptedDelayModel2Test, AnyNegativeIdIsTheWildcard) {
  ScriptedDelayModel model(Base(10));
  model.AddRule(-5, 2, 0, 100, 33);
  EXPECT_EQ(model.DelayFor(7, 2, 50, 0), 33);
}

// Last-rule-wins arbitration across *different* match classes: a narrower
// per-link exception added after a blanket must win inside its window, and
// a blanket added after a per-link rule must win too — arbitration is by
// insertion order alone, not by specificity.
TEST(ScriptedDelayModel2Test, LastRuleWinsAcrossMatchClasses) {
  ScriptedDelayModel model(Base(10));
  model.AddRule(-1, -1, 0, 1000, 20);  // blanket
  model.AddRule(0, 1, 0, 1000, 30);    // exception on 0 -> 1, added later
  EXPECT_EQ(model.DelayFor(0, 1, 500, 0), 30);
  EXPECT_EQ(model.DelayFor(2, 1, 500, 1), 20);

  model.AddRule(-1, -1, 0, 1000, 40);  // newer blanket overrides both
  EXPECT_EQ(model.DelayFor(0, 1, 500, 2), 40);
  EXPECT_EQ(model.DelayFor(2, 1, 500, 3), 40);
}

// Interval arbitration within one link: the newest rule whose window
// covers the send instant wins, and an uncovered instant falls through
// newer rules to an older covering one.
TEST(ScriptedDelayModel2Test, NewestCoveringIntervalWins) {
  ScriptedDelayModel model(Base(10));
  model.AddRule(0, 1, 0, 1000, 20);
  model.AddRule(0, 1, 100, 200, 30);
  EXPECT_EQ(model.DelayFor(0, 1, 150, 0), 30);  // inside the newer window
  EXPECT_EQ(model.DelayFor(0, 1, 50, 1), 20);   // falls through to the older
  EXPECT_EQ(model.DelayFor(0, 1, 201, 2), 20);
  EXPECT_EQ(model.DelayFor(0, 1, 1001, 3), 10);  // past both: base
}

// Golden sequence pinning the indexed lookup to the old whole-list
// reverse scan: a layered script over several links and windows, probed
// at every arbitration-relevant instant.
TEST(ScriptedDelayModel2Test, GoldenLayeredScript) {
  ScriptedDelayModel model(Base(1));
  model.AddRule(-1, -1, 0, 99, 100);
  model.AddRule(0, -1, 0, 199, 200);
  model.AddRule(-1, 1, 50, 149, 300);
  model.AddRule(0, 1, 75, 124, 400);
  model.AddRule(-1, -1, 90, 109, 500);

  const struct {
    ProcessId from;
    ProcessId to;
    sim::Time at;
    sim::Time want;
  } probes[] = {
      {0, 1, 10, 200},  // rule 2 beats rule 1
      {2, 3, 10, 100},  // only the first blanket
      {2, 1, 60, 300},  // -1 -> 1 beats blanket
      {0, 1, 80, 400},  // exact link, newest
      {0, 1, 95, 500},  // newest blanket beats the exact link
      {2, 3, 95, 500},
      {0, 1, 110, 400},  // blanket window closed: exact link again
      {0, 1, 130, 300},  // exact closed: -1 -> 1
      {0, 1, 160, 200},  // 0 -> -1 remains
      {0, 3, 160, 200},
      {2, 3, 160, 1},  // everything closed: base
  };
  int seq = 0;
  for (const auto& probe : probes) {
    EXPECT_EQ(model.DelayFor(probe.from, probe.to, probe.at, seq++),
              probe.want)
        << "from " << probe.from << " to " << probe.to << " at " << probe.at;
  }
}

// ------------------------------------------------------- GeoTopology --

TEST(GeoTopologyTest, UniformPricesEveryPairEqually) {
  GeoTopology topology = GeoTopology::Ladder(3, 3000, 3000);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_EQ(topology.CrossDelayBetween(a, b), 3000);
    }
  }
}

TEST(GeoTopologyTest, LadderInterpolatesByDistanceSymmetrically) {
  GeoTopology topology = GeoTopology::Ladder(4, 3000, 10000);
  EXPECT_EQ(topology.CrossDelayBetween(0, 1), 3000);   // distance 1
  EXPECT_EQ(topology.CrossDelayBetween(1, 3), 6500);   // distance 2
  EXPECT_EQ(topology.CrossDelayBetween(0, 3), 10000);  // distance 3
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_EQ(topology.CrossDelayBetween(a, b),
                topology.CrossDelayBetween(b, a));
    }
  }
}

TEST(GeoTopologyTest, TwoRegionLadderUsesTheMinimum) {
  GeoTopology topology = GeoTopology::Ladder(2, 3000, 10000);
  EXPECT_EQ(topology.CrossDelayBetween(0, 1), 3000);
}

// ------------------------------------------------- RegionDelayModel --

TEST(RegionDelayModelTest, PricesByRegionBoundary) {
  RegionDelayModel model(GeoTopology::Ladder(2, 3000, 3000), Base(100));
  model.SetProcessRegions({0, 0, 1});
  EXPECT_EQ(model.DelayFor(0, 1, 0, 0), 100);   // intra: base model
  EXPECT_EQ(model.DelayFor(0, 2, 0, 1), 3000);  // cross
  EXPECT_EQ(model.DelayFor(2, 1, 0, 2), 3000);
  EXPECT_EQ(model.cross_messages(), 2);
}

TEST(RegionDelayModelTest, UnassignedProcessesDefaultToRegionZero) {
  RegionDelayModel model(GeoTopology::Ladder(2, 3000, 3000), Base(100));
  model.SetProcessRegions({1});
  EXPECT_EQ(model.DelayFor(1, 2, 0, 0), 100);  // both beyond: region 0
  EXPECT_EQ(model.DelayFor(0, 1, 0, 1), 3000);
}

TEST(RegionDelayModelTest, LadderClassBoundaries) {
  RegionDelayModel model(GeoTopology::Ladder(3, 3000, 10000), Base(100));
  model.SetProcessRegions({0, 1, 2});
  EXPECT_EQ(model.DelayFor(0, 1, 0, 0), 3000);   // adjacent class
  EXPECT_EQ(model.DelayFor(0, 2, 0, 1), 10000);  // farthest class
}

TEST(RegionDelayModelTest, SingleRegionIsBitwiseTheBaseModel) {
  // Same seed, same draw sequence: a 1-region topology must consume the
  // base model's stream exactly as the bare model does.
  BoundedRandomDelayModel bare(1, 100, 9);
  auto base = std::make_unique<BoundedRandomDelayModel>(1, 100, 9);
  RegionDelayModel composed(GeoTopology::Ladder(1, 1, 1), std::move(base));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(composed.DelayFor(i % 3, (i + 1) % 3, i, i),
              bare.DelayFor(i % 3, (i + 1) % 3, i, i));
  }
  EXPECT_EQ(composed.cross_messages(), 0);
}

TEST(RegionDelayModelTest, RejectsOutOfRangeRegion) {
  RegionDelayModel model(GeoTopology::Ladder(2, 3000, 3000), Base(100));
  EXPECT_DEATH(model.SetProcessRegions({0, 2}),
               "process homed in unknown region");
}

}  // namespace
}  // namespace fastcommit::net
