// Flush policies: FOF/FAOF trigger conditions, threshold and adaptive
// variants.
#include <gtest/gtest.h>

#include "core/flush_policy.hpp"
#include "trace/buffer.hpp"

namespace prism::core {
namespace {

trace::EventRecord rec() { return trace::EventRecord{}; }

/// True when `b`, filled to its current size, has reached the trigger `p`
/// sets for a buffer of its capacity.
bool due(const FlushPolicy& p, const trace::TraceBuffer& b) {
  return b.size() >= p.trigger(b.capacity());
}

TEST(FlushOnFill, TriggersOnlyWhenFull) {
  FlushOnFill p;
  trace::TraceBuffer b(3);
  b.append(rec());
  EXPECT_FALSE(due(p, b));
  b.append(rec());
  b.append(rec());
  EXPECT_TRUE(due(p, b));
  EXPECT_FALSE(p.global());
  EXPECT_EQ(p.name(), "FOF");
}

TEST(FlushAllOnFill, IsGlobal) {
  FlushAllOnFill p;
  trace::TraceBuffer b(2);
  EXPECT_TRUE(p.global());
  b.append(rec());
  EXPECT_FALSE(due(p, b));
  b.append(rec());
  EXPECT_TRUE(due(p, b));
  EXPECT_EQ(p.name(), "FAOF");
}

TEST(ThresholdFlush, TriggersAtFraction) {
  ThresholdFlush p(0.5);
  trace::TraceBuffer b(10);
  for (int i = 0; i < 4; ++i) b.append(rec());
  EXPECT_FALSE(due(p, b));
  b.append(rec());
  EXPECT_TRUE(due(p, b));  // 5 of 10
}

TEST(ThresholdFlush, FullFractionEqualsFof) {
  ThresholdFlush p(1.0);
  trace::TraceBuffer b(4);
  for (int i = 0; i < 3; ++i) b.append(rec());
  EXPECT_FALSE(due(p, b));
  b.append(rec());
  EXPECT_TRUE(due(p, b));
}

TEST(ThresholdFlush, RejectsBadFraction) {
  EXPECT_THROW(ThresholdFlush(0.0), std::invalid_argument);
  EXPECT_THROW(ThresholdFlush(1.5), std::invalid_argument);
}

TEST(AdaptiveThresholdFlush, EstimatesArrivalRate) {
  AdaptiveThresholdFlush p(1'000'000);  // 1 ms target between flushes
  // Arrivals every 1000 ns => ~1e6 events/s.
  std::uint64_t t = 0;
  for (int i = 0; i < 200; ++i) {
    t += 1000;
    p.observe_arrival(t);
  }
  EXPECT_NEAR(p.estimated_rate_per_sec(), 1e6, 1e5);
}

TEST(AdaptiveThresholdFlush, FlushesEarlyUnderHighRate) {
  // With 1000 ns gaps and a 10 us target, ~10 records' worth should trigger
  // a flush well before a 1000-record buffer fills.
  AdaptiveThresholdFlush p(10'000);
  trace::TraceBuffer b(1000);
  std::uint64_t t = 0;
  bool flushed = false;
  for (int i = 0; i < 1000 && !flushed; ++i) {
    t += 1000;
    p.observe_arrival(t);
    b.append(rec());
    flushed = due(p, b);
  }
  EXPECT_TRUE(flushed);
  EXPECT_LT(b.size(), 100u);
}

TEST(AdaptiveThresholdFlush, LazyUnderLowRate) {
  // Arrivals every 1 ms with a 1 s target: should not flush a small buffer
  // until it genuinely fills.
  AdaptiveThresholdFlush p(1'000'000'000);
  trace::TraceBuffer b(50);
  std::uint64_t t = 0;
  for (int i = 0; i < 49; ++i) {
    t += 1'000'000;
    p.observe_arrival(t);
    b.append(rec());
    EXPECT_FALSE(due(p, b)) << "at record " << i;
  }
  b.append(rec());
  EXPECT_TRUE(due(p, b));  // full always flushes
}

TEST(AdaptiveThresholdFlush, NoArrivalsNoFlush) {
  AdaptiveThresholdFlush p(1000);
  trace::TraceBuffer b(10);
  b.append(rec());
  EXPECT_FALSE(due(p, b));
}

TEST(AdaptiveThresholdFlush, RejectsBadConfig) {
  EXPECT_THROW(AdaptiveThresholdFlush(0), std::invalid_argument);
  EXPECT_THROW(AdaptiveThresholdFlush(1000, 0.0), std::invalid_argument);
  EXPECT_THROW(AdaptiveThresholdFlush(1000, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace prism::core
