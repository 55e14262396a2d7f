// The integrated environment: full lifecycle across LIS styles, FAOF gang
// flush, conservation from record() to tool dispatch, classification.  The
// lifecycle tests run over every topology: flat (no aggregator level), one
// aggregator shard, and four.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/clock.hpp"
#include "core/environment.hpp"
#include "core/federation.hpp"

namespace prism::core {
namespace {

trace::EventRecord rec(std::uint32_t node, std::uint64_t seq) {
  trace::EventRecord r;
  r.timestamp = now_ns();
  r.node = node;
  r.seq = seq;
  return r;
}

/// Aggregator shard counts the lifecycle tests run over (0 = flat).
constexpr std::uint32_t kTopologies[] = {0, 1, 4};

EnvironmentConfig with_shards(EnvironmentConfig cfg, std::uint32_t shards) {
  cfg.federation.shards = shards;
  return cfg;
}

TEST(Environment, BufferedLifecycleConserves) {
  for (const std::uint32_t shards : kTopologies) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    EnvironmentConfig cfg;
    cfg.nodes = 3;
    cfg.lis_style = LisStyle::kBuffered;
    cfg.local_buffer_capacity = 8;
    cfg.ism.causal_ordering = false;
    IntegratedEnvironment env(with_shards(cfg, shards));
    EXPECT_EQ(env.shards(), shards);
    auto stats = std::make_shared<StatsTool>();
    env.attach_tool(stats);
    env.start();
    for (std::uint32_t n = 0; n < 3; ++n)
      for (std::uint64_t s = 0; s < 20; ++s) env.record(n, rec(n, s));
    env.stop();
    EXPECT_EQ(stats->total(), 60u);
    const auto lis = env.total_lis_stats();
    EXPECT_EQ(lis.recorded, 60u);
    EXPECT_EQ(lis.records_forwarded, 60u);
    EXPECT_EQ(lis.dropped, 0u);
    EXPECT_EQ(env.ism().stats().records_dispatched, 60u);
  }
}

TEST(Environment, FaofGangFlushAcrossNodes) {
  EnvironmentConfig cfg;
  cfg.nodes = 4;
  cfg.lis_style = LisStyle::kBuffered;
  cfg.flush_policy = FlushPolicyKind::kFaof;
  cfg.local_buffer_capacity = 10;
  cfg.ism.causal_ordering = false;
  IntegratedEnvironment env(cfg);
  auto stats = std::make_shared<StatsTool>();
  env.attach_tool(stats);
  env.start();
  // Nodes 1-3 hold partial buffers; node 0 fills -> everyone flushes.
  for (std::uint32_t n = 1; n < 4; ++n) env.record(n, rec(n, 0));
  for (std::uint64_t s = 0; s < 10; ++s) env.record(0, rec(0, s));
  // Give the ISM a moment is not needed: stop() drains deterministically.
  env.stop();
  EXPECT_EQ(stats->total(), 13u);
  // Every node flushed at least once (the gang flush).
  for (std::uint32_t n = 1; n < 4; ++n)
    EXPECT_GE(env.lis(n).stats().flushes, 1u) << "node " << n;
}

TEST(Environment, ForwardingStyleImmediateDelivery) {
  EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.lis_style = LisStyle::kForwarding;
  cfg.ism.causal_ordering = false;
  IntegratedEnvironment env(cfg);
  auto stats = std::make_shared<StatsTool>();
  env.attach_tool(stats);
  env.start();
  env.record(0, rec(0, 0));
  env.record(1, rec(1, 0));
  env.stop();
  EXPECT_EQ(stats->total(), 2u);
  EXPECT_EQ(env.lis(0).kind(), "forwarding");
}

TEST(Environment, DaemonStyleEndToEnd) {
  EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.processes_per_node = 2;
  cfg.lis_style = LisStyle::kDaemon;
  cfg.sampling_period_ns = 1'000'000;
  cfg.ism.causal_ordering = false;
  IntegratedEnvironment env(cfg);
  auto stats = std::make_shared<StatsTool>();
  env.attach_tool(stats);
  env.start();
  for (std::uint32_t n = 0; n < 2; ++n)
    for (std::uint32_t p = 0; p < 2; ++p)
      for (std::uint64_t s = 0; s < 5; ++s) {
        auto r = rec(n, s);
        r.process = p;
        env.record(n, r);
      }
  env.stop();
  EXPECT_EQ(stats->total(), 20u);
  EXPECT_EQ(env.lis(0).kind(), "daemon");
}

TEST(Environment, MisoInputConfigWorksEndToEnd) {
  EnvironmentConfig cfg;
  cfg.nodes = 3;
  cfg.lis_style = LisStyle::kForwarding;
  cfg.ism.input = InputConfig::kMiso;
  cfg.ism.causal_ordering = false;
  IntegratedEnvironment env(cfg);
  auto stats = std::make_shared<StatsTool>();
  env.attach_tool(stats);
  env.start();
  for (std::uint32_t n = 0; n < 3; ++n)
    for (std::uint64_t s = 0; s < 10; ++s) env.record(n, rec(n, s));
  env.stop();
  EXPECT_EQ(stats->total(), 30u);
  EXPECT_EQ(env.tp().data_link_count(), 3u);
}

TEST(Environment, FlushAllShipsPartialBuffers) {
  EnvironmentConfig cfg;
  cfg.nodes = 2;
  cfg.lis_style = LisStyle::kBuffered;
  cfg.local_buffer_capacity = 1000;
  cfg.ism.causal_ordering = false;
  IntegratedEnvironment env(cfg);
  auto stats = std::make_shared<StatsTool>();
  env.attach_tool(stats);
  env.start();
  env.record(0, rec(0, 0));
  env.record(1, rec(1, 0));
  env.flush_all();
  env.stop();
  EXPECT_EQ(stats->total(), 2u);
}

TEST(Environment, AdaptivePolicyClassifiesAdaptive) {
  EnvironmentConfig cfg;
  cfg.flush_policy = FlushPolicyKind::kAdaptive;
  IntegratedEnvironment env(cfg);
  EXPECT_EQ(env.classification().management, ManagementApproach::kAdaptive);
  EXPECT_EQ(env.classification().evaluation,
            EvaluationApproach::kStructuredModeling);
}

TEST(Environment, StorageConfigClassifiesOnOffline) {
  EnvironmentConfig cfg;
  cfg.ism.storage_path = std::filesystem::temp_directory_path() /
                         "prism_env_class.trc";
  {
    IntegratedEnvironment env(cfg);
    EXPECT_EQ(env.classification().analysis, AnalysisSupport::kOnOffline);
    env.start();
    env.stop();
  }
  std::filesystem::remove(*cfg.ism.storage_path);
}

TEST(Environment, BadNodeAccessThrows) {
  for (const std::uint32_t shards : kTopologies) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    EnvironmentConfig cfg;
    cfg.nodes = 2;
    IntegratedEnvironment env(with_shards(cfg, shards));
    EXPECT_THROW(env.lis(2), std::out_of_range);
    EnvironmentConfig zero;
    zero.nodes = 0;
    EXPECT_THROW(IntegratedEnvironment{with_shards(zero, shards)},
                 std::invalid_argument);
  }
}

TEST(Environment, DoubleStartStopSafe) {
  for (const std::uint32_t shards : kTopologies) {
    SCOPED_TRACE("shards = " + std::to_string(shards));
    EnvironmentConfig cfg;
    IntegratedEnvironment env(with_shards(cfg, shards));
    env.start();
    env.start();
    env.stop();
    env.stop();
  }
  SUCCEED();
}

TEST(Environment, ShardAccessorsThrowWhenFlat) {
  EnvironmentConfig cfg;
  cfg.nodes = 2;
  IntegratedEnvironment env(cfg);
  EXPECT_EQ(env.shards(), 0u);
  EXPECT_THROW(env.aggregator(0), std::out_of_range);
  EXPECT_THROW(env.cluster_tp(0), std::out_of_range);
  EXPECT_THROW(env.router(), std::out_of_range);
  EXPECT_THROW(env.shard_of(0), std::out_of_range);
  EXPECT_THROW(env.shard_members(0), std::out_of_range);
  EXPECT_THROW(env.shard_lis_stats(0), std::out_of_range);
  EXPECT_THROW(env.aggregator_stats(0), std::out_of_range);
  EXPECT_THROW(env.shard_degradation(0), std::out_of_range);
  // The environment-wide views work at zero levels.
  EXPECT_FALSE(env.degradation().degraded());
  EXPECT_EQ(env.total_lis_stats().recorded, 0u);
}

TEST(Environment, LisStyleNames) {
  EXPECT_EQ(to_string(LisStyle::kBuffered), "buffered");
  EXPECT_EQ(to_string(LisStyle::kForwarding), "forwarding");
  EXPECT_EQ(to_string(LisStyle::kDaemon), "daemon");
}

}  // namespace
}  // namespace prism::core
