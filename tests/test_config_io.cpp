// Environment config parsing/serialization: round trips, defaults, errors
// with line numbers, and end-to-end use (parse -> run).
#include <gtest/gtest.h>

#include <memory>

#include "core/config_io.hpp"
#include "core/environment.hpp"

namespace prism::core {
namespace {

TEST(ConfigIo, ParsesFullConfig) {
  const auto cfg = parse_environment_config(R"(
    # a daemon-style deployment
    nodes = 8
    processes_per_node = 2
    lis = daemon
    flush_policy = faof
    buffer_capacity = 256
    flush_threshold = 0.75
    adaptive_target_flush_ns = 5000000
    sampling_period_ns = 2000000
    pipe_capacity = 512
    daemon_blocks_app = false
    tp = socket
    link_capacity = 2048
    ism_input = miso
    causal_ordering = false
    output_capacity = 4096
    storage_path = /tmp/run.trc
  )");
  EXPECT_EQ(cfg.nodes, 8u);
  EXPECT_EQ(cfg.processes_per_node, 2u);
  EXPECT_EQ(cfg.lis_style, LisStyle::kDaemon);
  EXPECT_EQ(cfg.flush_policy, FlushPolicyKind::kFaof);
  EXPECT_EQ(cfg.local_buffer_capacity, 256u);
  EXPECT_DOUBLE_EQ(cfg.flush_threshold_fraction, 0.75);
  EXPECT_EQ(cfg.adaptive_target_flush_ns, 5'000'000u);
  EXPECT_EQ(cfg.sampling_period_ns, 2'000'000u);
  EXPECT_EQ(cfg.pipe_capacity, 512u);
  EXPECT_FALSE(cfg.daemon_blocks_app_on_full_pipe);
  EXPECT_EQ(cfg.tp_flavor, TpFlavor::kSocket);
  EXPECT_EQ(cfg.link_capacity, 2048u);
  EXPECT_EQ(cfg.ism.input, InputConfig::kMiso);
  EXPECT_FALSE(cfg.ism.causal_ordering);
  EXPECT_EQ(cfg.ism.output_capacity, 4096u);
  ASSERT_TRUE(cfg.ism.storage_path.has_value());
  EXPECT_EQ(cfg.ism.storage_path->string(), "/tmp/run.trc");
}

TEST(ConfigIo, UnsetKeysKeepDefaults) {
  const EnvironmentConfig defaults;
  const auto cfg = parse_environment_config("nodes = 2\n");
  EXPECT_EQ(cfg.nodes, 2u);
  EXPECT_EQ(cfg.lis_style, defaults.lis_style);
  EXPECT_EQ(cfg.local_buffer_capacity, defaults.local_buffer_capacity);
  EXPECT_EQ(cfg.ism.causal_ordering, defaults.ism.causal_ordering);
}

TEST(ConfigIo, EmptyAndCommentOnlyConfigs) {
  EXPECT_EQ(parse_environment_config("").nodes, EnvironmentConfig{}.nodes);
  EXPECT_EQ(parse_environment_config("# nothing\n\n  \n").nodes,
            EnvironmentConfig{}.nodes);
}

TEST(ConfigIo, ErrorsCarryLineNumbers) {
  try {
    parse_environment_config("nodes = 4\nbogus_key = 1\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bogus_key"), std::string::npos);
  }
}

TEST(ConfigIo, RejectsMalformedValues) {
  EXPECT_THROW(parse_environment_config("nodes = four"), ConfigError);
  EXPECT_THROW(parse_environment_config("nodes = -3"), ConfigError);
  EXPECT_THROW(parse_environment_config("lis = hybrid"), ConfigError);
  EXPECT_THROW(parse_environment_config("flush_policy = maybe"), ConfigError);
  EXPECT_THROW(parse_environment_config("causal_ordering = sometimes"),
               ConfigError);
  EXPECT_THROW(parse_environment_config("ism_input = both"), ConfigError);
  EXPECT_THROW(parse_environment_config("tp = telepathy"), ConfigError);
  EXPECT_THROW(parse_environment_config("flush_threshold = high"),
               ConfigError);
  EXPECT_THROW(parse_environment_config("just a line"), ConfigError);
  EXPECT_THROW(parse_environment_config("= 4"), ConfigError);
  EXPECT_THROW(parse_environment_config("nodes ="), ConfigError);
}

TEST(ConfigIo, SocketKeysParseAndRoundTrip) {
  const auto cfg = parse_environment_config(
      "tp = socket\nsocket_domain = tcp\nsocket_coalesce_bytes = 123\n"
      "socket_max_frame_records = 77\n");
  EXPECT_EQ(cfg.tp_flavor, TpFlavor::kSocket);
  EXPECT_EQ(cfg.socket.domain, SocketDomain::kTcpLoopback);
  EXPECT_EQ(cfg.socket.coalesce_byte_budget, 123u);
  EXPECT_EQ(cfg.socket.max_frame_records, 77u);
  const auto back =
      parse_environment_config(serialize_environment_config(cfg));
  EXPECT_EQ(back.socket.domain, cfg.socket.domain);
  EXPECT_EQ(back.socket.coalesce_byte_budget, cfg.socket.coalesce_byte_budget);
  EXPECT_EQ(back.socket.max_frame_records, cfg.socket.max_frame_records);
}

TEST(ConfigIo, RejectsBadSocketValues) {
  EXPECT_THROW(parse_environment_config("socket_domain = carrier_pigeon"),
               ConfigError);
  EXPECT_THROW(parse_environment_config("socket_coalesce_bytes = 0"),
               ConfigError);
  EXPECT_THROW(parse_environment_config("socket_max_frame_records = 0"),
               ConfigError);
}

TEST(ConfigIo, ShmKeysParseAndRoundTrip) {
  const auto cfg = parse_environment_config(
      "tp = shm\nshm_ring_capacity = 4096\nshm_max_frame_records = 99\n");
  EXPECT_EQ(cfg.tp_flavor, TpFlavor::kShm);
  EXPECT_EQ(cfg.shm.ring_capacity, 4096u);
  EXPECT_EQ(cfg.shm.max_frame_records, 99u);
  const auto back =
      parse_environment_config(serialize_environment_config(cfg));
  EXPECT_EQ(back.tp_flavor, TpFlavor::kShm);
  EXPECT_EQ(back.shm.ring_capacity, cfg.shm.ring_capacity);
  EXPECT_EQ(back.shm.max_frame_records, cfg.shm.max_frame_records);
}

TEST(ConfigIo, RejectsBadShmValuesWithLineNumbers) {
  EXPECT_THROW(parse_environment_config("shm_max_frame_records = 0"),
               ConfigError);
  // Zero and non-power-of-two capacities are rejected at parse time, with
  // the offending line, instead of surfacing as a throw from deep inside
  // environment construction.
  for (const char* bad : {"shm_ring_capacity = 0", "shm_ring_capacity = 100",
                          "shm_ring_capacity = 4095"}) {
    try {
      parse_environment_config(std::string("tp = shm\n") + bad + "\n");
      FAIL() << "expected ConfigError for '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.line(), 2u);
      EXPECT_NE(std::string(e.what()).find("power of two"),
                std::string::npos);
    }
  }
}

TEST(ConfigIo, FederationKeysParseAndRoundTrip) {
  const auto cfg = parse_environment_config(
      "nodes = 200\nism_shards = 8\nshard_virtual_nodes = 16\n"
      "shard_assign = modulo\nroot_tp = socket\nagg_batch_records = 128\n");
  EXPECT_EQ(cfg.federation.shards, 8u);
  EXPECT_TRUE(cfg.federation.enabled());
  EXPECT_EQ(cfg.federation.virtual_nodes, 16u);
  EXPECT_EQ(cfg.federation.assign, ShardAssign::kModulo);
  ASSERT_TRUE(cfg.federation.root_tp.has_value());
  EXPECT_EQ(*cfg.federation.root_tp, TpFlavor::kSocket);
  EXPECT_EQ(cfg.federation.agg_batch_records, 128u);
  const auto back =
      parse_environment_config(serialize_environment_config(cfg));
  EXPECT_EQ(back.federation.shards, cfg.federation.shards);
  EXPECT_EQ(back.federation.virtual_nodes, cfg.federation.virtual_nodes);
  EXPECT_EQ(back.federation.assign, cfg.federation.assign);
  EXPECT_EQ(back.federation.root_tp, cfg.federation.root_tp);
  EXPECT_EQ(back.federation.agg_batch_records,
            cfg.federation.agg_batch_records);
}

TEST(ConfigIo, FederationDefaultsToFlatTopology) {
  const auto cfg = parse_environment_config("nodes = 4\n");
  EXPECT_FALSE(cfg.federation.enabled());
  EXPECT_FALSE(cfg.federation.root_tp.has_value());
  // An unset root_tp stays unset through a round trip (it means "inherit
  // the cluster flavor", which is not the same as an explicit value).
  const auto back =
      parse_environment_config(serialize_environment_config(cfg));
  EXPECT_FALSE(back.federation.root_tp.has_value());
  EXPECT_EQ(back.federation.shards, 0u);
}

TEST(ConfigIo, RejectsBadFederationValues) {
  EXPECT_THROW(parse_environment_config("shard_assign = zodiac"),
               ConfigError);
  EXPECT_THROW(parse_environment_config("shard_virtual_nodes = 0"),
               ConfigError);
  EXPECT_THROW(parse_environment_config("agg_batch_records = 0"),
               ConfigError);
  EXPECT_THROW(parse_environment_config("root_tp = telegraph"), ConfigError);
}

TEST(ConfigIo, TpFlavorRoundTripsAllFlavors) {
  // to_string/parse symmetry for every transport flavor, through a full
  // serialize -> parse cycle.
  for (const TpFlavor f :
       {TpFlavor::kPipe, TpFlavor::kSocket, TpFlavor::kShm}) {
    EnvironmentConfig cfg;
    cfg.tp_flavor = f;
    const auto back =
        parse_environment_config(serialize_environment_config(cfg));
    EXPECT_EQ(back.tp_flavor, f) << to_string(f);
  }
}

TEST(ConfigIo, RetiredFlavorTagsAreConfigErrorsWithTheirLine) {
  // rpc / custom were labels on the in-process link, not transports.
  for (const char* text : {"nodes = 2\ntp = rpc\n", "nodes = 2\ntp = custom\n",
                           "nodes = 2\nroot_tp = rpc\n",
                           "nodes = 2\nroot_tp = custom\n"}) {
    try {
      parse_environment_config(text);
      FAIL() << "expected ConfigError for " << text;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.line(), 2u) << text;
    }
  }
}

TEST(ConfigIo, OverflowingNumberIsAConfigErrorNotACrash) {
  // "1e999" overflows double; std::stod threw a bare std::out_of_range here.
  // The parser must surface an ordinary ConfigError with the line number.
  try {
    parse_environment_config("nodes = 2\nflush_threshold = 1e999\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(ConfigIo, SerializeParseRoundTrip) {
  EnvironmentConfig cfg;
  cfg.nodes = 3;
  cfg.lis_style = LisStyle::kForwarding;
  cfg.flush_policy = FlushPolicyKind::kThreshold;
  cfg.flush_threshold_fraction = 0.5;
  cfg.tp_flavor = TpFlavor::kPipe;
  cfg.ism.input = InputConfig::kMiso;
  cfg.ism.causal_ordering = true;
  cfg.ism.storage_path = "/tmp/rt.trc";
  const auto text = serialize_environment_config(cfg);
  const auto back = parse_environment_config(text);
  EXPECT_EQ(back.nodes, cfg.nodes);
  EXPECT_EQ(back.lis_style, cfg.lis_style);
  EXPECT_EQ(back.flush_policy, cfg.flush_policy);
  EXPECT_DOUBLE_EQ(back.flush_threshold_fraction,
                   cfg.flush_threshold_fraction);
  EXPECT_EQ(back.tp_flavor, cfg.tp_flavor);
  EXPECT_EQ(back.ism.input, cfg.ism.input);
  EXPECT_EQ(back.ism.causal_ordering, cfg.ism.causal_ordering);
  EXPECT_EQ(back.ism.storage_path, cfg.ism.storage_path);
}

TEST(ConfigIo, ParsedConfigRunsEndToEnd) {
  const auto cfg = parse_environment_config(
      "nodes = 2\nlis = buffered\nbuffer_capacity = 8\n"
      "causal_ordering = false\n");
  IntegratedEnvironment env(cfg);
  auto stats = std::make_shared<StatsTool>();
  env.attach_tool(stats);
  env.start();
  for (std::uint64_t s = 0; s < 10; ++s) {
    trace::EventRecord r;
    r.node = static_cast<std::uint32_t>(s % 2);
    r.seq = s / 2;
    env.record(r);
  }
  env.stop();
  EXPECT_EQ(stats->total(), 10u);
}

}  // namespace
}  // namespace prism::core
