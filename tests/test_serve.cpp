// Micro-batching inference server (src/serve/). The MicroBatcher tests
// drive the flush policy with a FakeClock — no sleeps, no wall time: every
// decision is asserted at an exact microsecond. The server tests cover the
// end-to-end contract (bit parity with Pipeline::predict_batch, drain on
// shutdown, typed rejections, hot reload) and stay timing-independent by
// construction: they assert on futures, never on when batches flushed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "core/pipeline_io.hpp"
#include "data/synthetic.hpp"
#include "serve/batcher.hpp"
#include "serve/clock.hpp"
#include "serve/framing.hpp"
#include "serve/online.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace lehdc {
namespace {

serve::PendingRequest make_request(std::uint64_t id,
                                   std::uint64_t deadline_us = 0) {
  serve::PendingRequest request;
  request.id = id;
  request.deadline_us = deadline_us;
  return request;
}

std::vector<std::uint64_t> ids_of(
    const std::vector<serve::PendingRequest>& requests) {
  std::vector<std::uint64_t> ids;
  for (const auto& request : requests) {
    ids.push_back(request.id);
  }
  return ids;
}

serve::BatcherConfig small_config() {
  serve::BatcherConfig config;
  config.max_batch = 4;
  config.max_wait_us = 1000;
  config.queue_capacity = 8;
  return config;
}

// ----------------------------------------------------------- MicroBatcher --

TEST(MicroBatcher, ValidatesConfig) {
  serve::BatcherConfig no_batch = small_config();
  no_batch.max_batch = 0;
  EXPECT_THROW(serve::MicroBatcher{no_batch}, std::invalid_argument);
  serve::BatcherConfig no_queue = small_config();
  no_queue.queue_capacity = 0;
  EXPECT_THROW(serve::MicroBatcher{no_queue}, std::invalid_argument);
}

TEST(MicroBatcher, FlushesOnSize) {
  serve::FakeClock clock;
  serve::MicroBatcher batcher(small_config());
  for (std::uint64_t id = 0; id < 3; ++id) {
    ASSERT_EQ(batcher.offer(make_request(id), clock.now_us()),
              serve::Reject::kNone);
    // Three pending, no time elapsed: no flush condition holds yet.
    EXPECT_TRUE(batcher.poll(clock.now_us()).batch.empty());
  }
  ASSERT_EQ(batcher.offer(make_request(3), clock.now_us()),
            serve::Reject::kNone);
  const auto flush = batcher.poll(clock.now_us());
  EXPECT_EQ(ids_of(flush.batch), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_TRUE(flush.expired.empty());
  EXPECT_EQ(batcher.depth(), 0u);
}

TEST(MicroBatcher, FlushesWhenOldestWaitsMaxWait) {
  serve::FakeClock clock;
  serve::MicroBatcher batcher(small_config());
  ASSERT_EQ(batcher.offer(make_request(0), clock.now_us()),
            serve::Reject::kNone);
  clock.advance_us(999);
  EXPECT_TRUE(batcher.poll(clock.now_us()).batch.empty());  // 1us early
  clock.advance_us(1);
  const auto flush = batcher.poll(clock.now_us());
  EXPECT_EQ(ids_of(flush.batch), (std::vector<std::uint64_t>{0}));
}

TEST(MicroBatcher, TimeFlushIsKeyedToTheOldestRequest) {
  serve::FakeClock clock;
  serve::MicroBatcher batcher(small_config());
  ASSERT_EQ(batcher.offer(make_request(0), clock.now_us()),
            serve::Reject::kNone);
  clock.advance_us(600);
  ASSERT_EQ(batcher.offer(make_request(1), clock.now_us()),
            serve::Reject::kNone);
  // The late arrival must not reset the wait window of the first request.
  clock.advance_us(400);
  const auto flush = batcher.poll(clock.now_us());
  EXPECT_EQ(ids_of(flush.batch), (std::vector<std::uint64_t>{0, 1}));
}

TEST(MicroBatcher, BacklogDrainsInMaxBatchChunks) {
  serve::FakeClock clock;
  serve::MicroBatcher batcher(small_config());  // max_batch = 4
  for (std::uint64_t id = 0; id < 7; ++id) {
    ASSERT_EQ(batcher.offer(make_request(id), clock.now_us()),
              serve::Reject::kNone);
  }
  const auto first = batcher.poll(clock.now_us());
  EXPECT_EQ(ids_of(first.batch), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  // Three remain: below max_batch and not yet aged, so the next chunk only
  // releases under force (shutdown) or once the wait elapses.
  EXPECT_TRUE(batcher.poll(clock.now_us()).batch.empty());
  const auto rest = batcher.poll(clock.now_us(), /*force=*/true);
  EXPECT_EQ(ids_of(rest.batch), (std::vector<std::uint64_t>{4, 5, 6}));
  EXPECT_EQ(batcher.depth(), 0u);
}

TEST(MicroBatcher, RejectsWhenFull) {
  serve::FakeClock clock;
  serve::MicroBatcher batcher(small_config());  // capacity 8
  for (std::uint64_t id = 0; id < 8; ++id) {
    ASSERT_EQ(batcher.offer(make_request(id), clock.now_us()),
              serve::Reject::kNone);
  }
  serve::PendingRequest overflow = make_request(8);
  EXPECT_EQ(batcher.offer(std::move(overflow), clock.now_us()),
            serve::Reject::kQueueFull);
  // Rejected offers are not consumed: the caller still owns the promise.
  overflow.promise.set_value(serve::Response{});
  EXPECT_EQ(batcher.depth(), 8u);
}

TEST(MicroBatcher, ExpiredRequestsAreCulledNotBatched) {
  serve::FakeClock clock;
  clock.set_us(100);
  serve::MicroBatcher batcher(small_config());
  ASSERT_EQ(batcher.offer(make_request(0, /*deadline_us=*/150),
                          clock.now_us()),
            serve::Reject::kNone);
  ASSERT_EQ(batcher.offer(make_request(1), clock.now_us()),
            serve::Reject::kNone);
  clock.advance_us(50);  // request 0's deadline is now due
  auto flush = batcher.poll(clock.now_us());
  EXPECT_EQ(ids_of(flush.expired), (std::vector<std::uint64_t>{0}));
  EXPECT_TRUE(flush.batch.empty());  // request 1 still has 950us of wait
  clock.advance_us(1000);
  flush = batcher.poll(clock.now_us());
  EXPECT_EQ(ids_of(flush.batch), (std::vector<std::uint64_t>{1}));
}

TEST(MicroBatcher, CloseStopsAdmissionAndForceDrains) {
  serve::FakeClock clock;
  serve::MicroBatcher batcher(small_config());
  ASSERT_EQ(batcher.offer(make_request(0), clock.now_us()),
            serve::Reject::kNone);
  batcher.close();
  EXPECT_TRUE(batcher.closed());
  serve::PendingRequest late = make_request(1);
  EXPECT_EQ(batcher.offer(std::move(late), clock.now_us()),
            serve::Reject::kShuttingDown);
  late.promise.set_value(serve::Response{});
  // The queued request survives close() and drains under force.
  const auto flush = batcher.poll(clock.now_us(), /*force=*/true);
  EXPECT_EQ(ids_of(flush.batch), (std::vector<std::uint64_t>{0}));
}

TEST(MicroBatcher, NextEventTracksFlushAndDeadline) {
  serve::FakeClock clock;
  clock.set_us(500);
  serve::MicroBatcher batcher(small_config());  // max_wait 1000
  EXPECT_EQ(batcher.next_event_us(), serve::MicroBatcher::kNever);
  ASSERT_EQ(batcher.offer(make_request(0), clock.now_us()),
            serve::Reject::kNone);
  EXPECT_EQ(batcher.next_event_us(), 1500u);  // oldest + max_wait
  ASSERT_EQ(batcher.offer(make_request(1, /*deadline_us=*/900),
                          clock.now_us()),
            serve::Reject::kNone);
  EXPECT_EQ(batcher.next_event_us(), 900u);  // the deadline is sooner
}

// -------------------------------------------------------- InferenceServer --

core::Pipeline make_pipeline(std::uint64_t seed) {
  data::SyntheticConfig synth;
  synth.feature_count = 10;
  synth.class_count = 3;
  synth.train_count = 90;
  synth.test_count = 0;
  synth.seed = seed;
  const auto split = data::generate_synthetic(synth);
  core::PipelineConfig config;
  config.dim = 256;
  config.strategy = core::Strategy::kBaseline;
  config.seed = seed;
  core::Pipeline pipeline(config);
  pipeline.fit(split.train);
  return pipeline;
}

data::Dataset make_queries(std::size_t count, std::uint64_t seed) {
  data::SyntheticConfig synth;
  synth.feature_count = 10;
  synth.class_count = 3;
  synth.train_count = count;
  synth.test_count = 0;
  synth.seed = seed;
  return data::generate_synthetic(synth).train;
}

std::vector<float> features_of(const data::Dataset& dataset, std::size_t i) {
  const auto row = dataset.sample(i);
  return {row.begin(), row.end()};
}

TEST(InferenceServer, ResponsesMatchDirectPredictBatchBitForBit) {
  serve::ModelRegistry registry;
  registry.add("default", make_pipeline(21));
  const data::Dataset queries = make_queries(64, 22);
  const std::vector<int> direct =
      registry.get("default")->predict_batch(queries);

  serve::ServerConfig config;
  config.batcher.max_batch = 16;
  serve::InferenceServer server(registry, config);
  std::vector<std::future<serve::Response>> inflight;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    inflight.push_back(server.submit(features_of(queries, i), 0, "",
                                     /*id=*/i));
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const serve::Response response = inflight[i].get();
    ASSERT_TRUE(response.ok()) << serve::reject_name(response.error);
    EXPECT_EQ(response.id, i);
    ASSERT_EQ(response.label, direct[i]) << "i=" << i;
  }
}

TEST(InferenceServer, ShutdownServesTheBacklog) {
  serve::ModelRegistry registry;
  registry.add("default", make_pipeline(23));
  const data::Dataset queries = make_queries(10, 24);
  const std::vector<int> direct =
      registry.get("default")->predict_batch(queries);

  // A flush horizon the test will never reach: nothing dispatches until
  // shutdown force-drains, so the drain path itself is what's exercised.
  serve::ServerConfig config;
  config.batcher.max_batch = 1000;
  config.batcher.max_wait_us = 3600u * 1000u * 1000u;
  serve::InferenceServer server(registry, config);
  std::vector<std::future<serve::Response>> inflight;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    inflight.push_back(server.submit(features_of(queries, i)));
  }
  server.shutdown();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const serve::Response response = inflight[i].get();
    ASSERT_TRUE(response.ok()) << serve::reject_name(response.error);
    EXPECT_EQ(response.label, direct[i]) << "i=" << i;
  }
  // After shutdown, admission fails with the typed reject, not a hang.
  EXPECT_EQ(server.predict(features_of(queries, 0)).error,
            serve::Reject::kShuttingDown);
}

TEST(InferenceServer, ExpiredDeadlineIsShedWithTypedReject) {
  serve::ModelRegistry registry;
  registry.add("default", make_pipeline(25));
  const data::Dataset queries = make_queries(2, 26);

  serve::FakeClock clock;
  clock.set_us(1000);
  serve::ServerConfig config;
  config.batcher.max_batch = 1000;  // only the deadline can act here
  serve::InferenceServer server(registry, config, &clock);
  // Deadline already in the past at submission: whenever the worker gets
  // to it, the only legal outcome is kDeadlineExceeded.
  const serve::Response expired =
      server.predict(features_of(queries, 0), /*deadline_us=*/500);
  EXPECT_EQ(expired.error, serve::Reject::kDeadlineExceeded);
  // A generous deadline must survive; advancing the fake clock past the
  // batcher's wait window (but far short of the deadline) lets the worker
  // time-flush the request.
  auto alive_future =
      server.submit(features_of(queries, 1), /*deadline_us=*/1000000);
  clock.advance_us(5000);
  const serve::Response alive = alive_future.get();
  EXPECT_TRUE(alive.ok()) << serve::reject_name(alive.error);
}

TEST(InferenceServer, UnknownModelAndBadArityRejectImmediately) {
  serve::ModelRegistry registry;
  registry.add("default", make_pipeline(27));
  serve::InferenceServer server(registry, serve::ServerConfig{});
  const data::Dataset queries = make_queries(1, 28);

  const serve::Response no_model =
      server.predict(features_of(queries, 0), 0, "missing");
  EXPECT_EQ(no_model.error, serve::Reject::kModelNotFound);

  const serve::Response bad_arity = server.predict({1.0f, 2.0f});
  EXPECT_EQ(bad_arity.error, serve::Reject::kBadRequest);
}

TEST(InferenceServer, HotReloadSwapsModelsWithoutRestart) {
  const std::string path_a = ::testing::TempDir() + "/serve_reload_a.lhdp";
  const std::string path_b = ::testing::TempDir() + "/serve_reload_b.lhdp";
  core::save_pipeline(make_pipeline(31), path_a);
  core::save_pipeline(make_pipeline(32), path_b);

  serve::ModelRegistry registry;
  registry.load("default", path_a);
  const auto first = registry.get("default");
  serve::InferenceServer server(registry, serve::ServerConfig{});
  const data::Dataset queries = make_queries(8, 33);

  registry.load("default", path_b);  // hot swap while the server runs
  const auto second = registry.get("default");
  EXPECT_NE(first.get(), second.get());
  const std::vector<int> direct = second->predict_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const serve::Response response = server.predict(features_of(queries, i));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.label, direct[i]) << "i=" << i;
  }

  // A failed reload must leave the registry serving the current model.
  EXPECT_THROW(registry.load("default", path_a + ".missing"),
               std::exception);
  EXPECT_EQ(registry.get("default").get(), second.get());

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ModelRegistry, AddRequiresFittedPipelineAndGetMisses) {
  serve::ModelRegistry registry;
  core::PipelineConfig config;
  config.dim = 128;
  EXPECT_THROW(registry.add("unfit", core::Pipeline(config)),
               std::invalid_argument);
  EXPECT_EQ(registry.get("absent"), nullptr);
  registry.add("m", make_pipeline(35));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.get("m"), nullptr);
  registry.evict("m");
  EXPECT_EQ(registry.get("m"), nullptr);
}

// --------------------------------------------------------------- protocol --

TEST(Protocol, RequestRoundTripsThroughAStream) {
  serve::WireRequest request;
  request.id = 42;
  request.deadline_budget_us = 2500;
  request.tenant = "default";
  request.features = {0.5f, -1.25f, 3.0f};

  std::stringstream stream;
  serve::write_request(stream, request);
  serve::WireRequest decoded;
  ASSERT_TRUE(serve::read_request(stream, &decoded, "test"));
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.deadline_budget_us, request.deadline_budget_us);
  EXPECT_EQ(decoded.tenant, request.tenant);
  EXPECT_EQ(decoded.features, request.features);
  // Clean EOF at the frame boundary reads as "no more requests".
  EXPECT_FALSE(serve::read_request(stream, &decoded, "test"));
}

TEST(Protocol, ResponseRoundTripsThroughAStream) {
  serve::Response response;
  response.id = 7;
  response.error = serve::Reject::kQueueFull;
  response.label = -1;
  response.batch_size = 16;
  response.latency_seconds = 0.0025;

  std::stringstream stream;
  serve::write_response(stream, response);
  serve::Response decoded;
  ASSERT_TRUE(serve::read_response(stream, &decoded, "test"));
  EXPECT_EQ(decoded.id, response.id);
  EXPECT_EQ(decoded.error, response.error);
  EXPECT_EQ(decoded.label, response.label);
  EXPECT_EQ(decoded.batch_size, response.batch_size);
  EXPECT_EQ(decoded.latency_seconds, response.latency_seconds);
}

TEST(Protocol, RejectsBadMagicTruncationAndGarbage) {
  serve::WireRequest request;
  request.features = {1.0f};
  const std::string frame = serve::encode_request(request);

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  std::stringstream wrong(bad_magic);
  serve::WireRequest out;
  EXPECT_THROW((void)serve::read_request(wrong, &out, "test"),
               std::runtime_error);

  // EOF in the middle of a frame is an error, not a silent stop.
  std::stringstream cut(frame.substr(0, frame.size() - 2));
  EXPECT_THROW((void)serve::read_request(cut, &out, "test"),
               std::runtime_error);

  // A feature count pointing past the payload must be caught by the
  // bounds-checked reader before any allocation.
  std::string lying = frame;
  lying[frame.size() - sizeof(float) - 1] = '\x7f';
  std::stringstream hostile(lying);
  EXPECT_THROW((void)serve::read_request(hostile, &out, "test"),
               std::runtime_error);
}

TEST(Protocol, RejectsOutOfRangeStatusByte) {
  serve::Response response;
  std::string frame = serve::encode_response(response);
  // The status byte sits right after the 8-byte header + 8-byte id.
  frame[8 + 8] = '\x77';
  std::stringstream stream(frame);
  serve::Response out;
  EXPECT_THROW((void)serve::read_response(stream, &out, "test"),
               std::runtime_error);
}

// ------------------------------------------------------ tenancy: protocol --

/// `frame` with its magic swapped for a retired first-generation one; the
/// payload stays well formed, so only the magic can be what rejects it.
std::string with_magic(std::string frame, const char* magic) {
  frame.replace(0, 4, magic, 4);
  return frame;
}

TEST(Protocol, V1RequestFramesAreATypedErrorOnEveryReader) {
  serve::WireRequest request;
  request.id = 9;
  request.tenant = "acme";
  request.features = {1.0f, 2.0f};
  const std::string v2 = serve::encode_request(request);
  EXPECT_EQ(v2.substr(0, 4), "LSR2");
  const std::string v1 = with_magic(v2, "LSRQ");

  std::stringstream blocking(v1);
  serve::WireRequest out;
  EXPECT_THROW((void)serve::read_request(blocking, &out, "test"),
               std::runtime_error);
  std::stringstream client(v1);
  serve::ClientFrame frame;
  EXPECT_THROW((void)serve::read_client_frame(client, &frame, "test"),
               std::runtime_error);

  serve::FrameDecoder decoder = serve::make_request_decoder("test");
  decoder.feed(v1);
  serve::FrameDecoder::Frame decoded;
  EXPECT_THROW((void)decoder.next(&decoded), std::runtime_error);

  // The payload decoder takes the frame's version and accepts only 2.
  const std::string_view payload = std::string_view(v2).substr(8);
  EXPECT_THROW((void)serve::decode_request_payload(payload, 1, "test"),
               std::runtime_error);
  EXPECT_EQ(serve::decode_request_payload(payload, 2, "test").tenant, "acme");
}

TEST(Protocol, ResponseEchoesTenantAndV1ResponseFramesAreATypedError) {
  serve::Response response;
  response.id = 3;
  response.label = 2;
  response.tenant = "globex";

  std::stringstream v2;
  serve::write_response(v2, response);
  EXPECT_EQ(v2.str().substr(0, 4), "LSS2");
  serve::Response from_v2;
  ASSERT_TRUE(serve::read_response(v2, &from_v2, "test"));
  EXPECT_EQ(from_v2.tenant, "globex");

  const std::string v1 = with_magic(serve::encode_response(response), "LSRS");
  std::stringstream blocking(v1);
  serve::Response out;
  EXPECT_THROW((void)serve::read_response(blocking, &out, "test"),
               std::runtime_error);
  serve::FrameDecoder decoder = serve::make_response_decoder("test");
  decoder.feed(v1);
  serve::FrameDecoder::Frame decoded;
  EXPECT_THROW((void)decoder.next(&decoded), std::runtime_error);
  const std::string_view payload = std::string_view(v1).substr(8);
  EXPECT_THROW((void)serve::decode_response_payload(payload, 1, "test"),
               std::runtime_error);
}

TEST(Protocol, RejectsInvalidTenantIdsAndLyingTenantLengths) {
  serve::WireRequest request;
  request.tenant = "Not.Valid";  // uppercase + '.' outside the charset
  EXPECT_THROW((void)serve::encode_request(request), std::runtime_error);

  request.tenant = "ok_tenant";
  std::string frame = serve::encode_request(request);
  // tenant_length lives after header(8) + id(8) + deadline(8); point it
  // past the payload end.
  frame[8 + 8 + 8] = '\xff';
  frame[8 + 8 + 8 + 1] = '\xff';
  std::stringstream stream(frame);
  serve::WireRequest out;
  EXPECT_THROW((void)serve::read_request(stream, &out, "test"),
               std::runtime_error);
}

TEST(Protocol, DecodeFuzzTypedErrorsNeverCrashOrHang) {
  serve::WireRequest request;
  request.id = 77;
  request.deadline_budget_us = 10;
  request.tenant = "acme";
  request.features = {0.25f, -1.0f, 8.5f};
  const std::string frame = serve::encode_request(request);
  // Every truncation point: either clean EOF (cut at a frame boundary,
  // i.e. empty input) or a typed error — never a crash or silent junk.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::stringstream stream(frame.substr(0, cut));
    serve::WireRequest out;
    if (cut == 0) {
      EXPECT_FALSE(serve::read_request(stream, &out, "fuzz"));
    } else {
      EXPECT_THROW((void)serve::read_request(stream, &out, "fuzz"),
                   std::runtime_error);
    }
  }
  // Every single-byte corruption: decoding either succeeds (the flip
  // landed in a don't-care bit like a feature value) or raises a typed
  // std::runtime_error. Anything else — a crash, an std::bad_alloc from
  // trusting a hostile length — fails the test.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (const char flip : {'\x01', '\x7f', '\xff'}) {
      std::string mutated = frame;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      std::stringstream stream(mutated);
      serve::WireRequest out;
      try {
        (void)serve::read_request(stream, &out, "fuzz");
      } catch (const std::runtime_error&) {
        // typed rejection: exactly what the contract promises
      }
    }
  }
}

// ----------------------------------------------------- tenancy: batching --

serve::PendingRequest make_tenant_request(std::uint64_t id,
                                          const std::string& tenant) {
  serve::PendingRequest request;
  request.id = id;
  request.tenant = tenant;
  return request;
}

TEST(MicroBatcher, RoundRobinAlternatesAcrossTenants) {
  serve::FakeClock clock;
  serve::BatcherConfig config = small_config();
  config.max_batch = 2;
  config.queue_capacity = 16;
  serve::MicroBatcher batcher(config);
  for (std::uint64_t id = 0; id < 6; ++id) {
    ASSERT_EQ(batcher.offer(make_tenant_request(id, "hog"), clock.now_us()),
              serve::Reject::kNone);
  }
  ASSERT_EQ(batcher.offer(make_tenant_request(100, "mouse"), clock.now_us()),
            serve::Reject::kNone);
  // Each flush serves a single tenant; consecutive force-polls must not
  // let the deep queue starve the shallow one.
  const auto first = batcher.poll(clock.now_us(), /*force=*/true);
  const auto second = batcher.poll(clock.now_us(), /*force=*/true);
  ASSERT_FALSE(first.batch.empty());
  ASSERT_FALSE(second.batch.empty());
  EXPECT_NE(first.tenant, second.tenant);
  std::vector<std::string> served = {first.tenant, second.tenant};
  EXPECT_NE(std::find(served.begin(), served.end(), "mouse"), served.end());
}

TEST(MicroBatcher, PerTenantCapacityShedsTheFloodNotTheNeighbor) {
  serve::FakeClock clock;
  serve::BatcherConfig config = small_config();
  config.queue_capacity = 8;
  config.tenant_capacity = 2;
  serve::MicroBatcher batcher(config);
  ASSERT_EQ(batcher.offer(make_tenant_request(0, "hog"), clock.now_us()),
            serve::Reject::kNone);
  ASSERT_EQ(batcher.offer(make_tenant_request(1, "hog"), clock.now_us()),
            serve::Reject::kNone);
  serve::PendingRequest overflow = make_tenant_request(2, "hog");
  EXPECT_EQ(batcher.offer(std::move(overflow), clock.now_us()),
            serve::Reject::kQueueFull);
  overflow.promise.set_value(serve::Response{});
  // The flood's shed leaves the total queue open for everyone else.
  EXPECT_EQ(batcher.offer(make_tenant_request(3, "mouse"), clock.now_us()),
            serve::Reject::kNone);
  EXPECT_EQ(batcher.tenant_depth("hog"), 2u);
  EXPECT_EQ(batcher.tenant_depth("mouse"), 1u);
  EXPECT_EQ(batcher.depth(), 3u);
}

TEST(MicroBatcher, TenantCapacityMustNotExceedQueueCapacity) {
  serve::BatcherConfig config = small_config();
  config.tenant_capacity = config.queue_capacity + 1;
  EXPECT_THROW(serve::MicroBatcher{config}, std::invalid_argument);
}

// ------------------------------------------------------- tenancy: server --

TEST(InferenceServer, RoutesEachTenantToItsOwnModel) {
  serve::ModelRegistry registry;
  registry.add("acme", make_pipeline(41));
  registry.add("globex", make_pipeline(47));
  const data::Dataset queries = make_queries(12, 43);
  const std::vector<int> acme_direct =
      registry.get("acme")->predict_batch(queries);
  const std::vector<int> globex_direct =
      registry.get("globex")->predict_batch(queries);
  // Distinct seeds must give distinct models for routing to be observable.
  ASSERT_NE(acme_direct, globex_direct);

  serve::ServerConfig config;
  config.default_tenant = "acme";
  serve::InferenceServer server(registry, config);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const serve::Response from_acme =
        server.predict(features_of(queries, i), 0, "acme");
    ASSERT_TRUE(from_acme.ok());
    EXPECT_EQ(from_acme.label, acme_direct[i]);
    EXPECT_EQ(from_acme.tenant, "acme");
    const serve::Response from_globex =
        server.predict(features_of(queries, i), 0, "globex");
    ASSERT_TRUE(from_globex.ok());
    EXPECT_EQ(from_globex.label, globex_direct[i]);
    EXPECT_EQ(from_globex.tenant, "globex");
    // An empty tenant resolves to the configured default.
    const serve::Response defaulted =
        server.predict(features_of(queries, i));
    ASSERT_TRUE(defaulted.ok());
    EXPECT_EQ(defaulted.label, acme_direct[i]);
    EXPECT_EQ(defaulted.tenant, "acme");
  }
}

TEST(InferenceServer, EvictedTenantRejectsNewTrafficTyped) {
  serve::ModelRegistry registry;
  registry.add("acme", make_pipeline(51));
  serve::ServerConfig config;
  config.default_tenant = "acme";
  serve::InferenceServer server(registry, config);
  const data::Dataset queries = make_queries(1, 52);
  ASSERT_TRUE(server.predict(features_of(queries, 0), 0, "acme").ok());
  registry.evict("acme");
  EXPECT_EQ(server.predict(features_of(queries, 0), 0, "acme").error,
            serve::Reject::kModelNotFound);
}

TEST(InferenceServer, BindRejectsInvalidTenantIds) {
  serve::ModelRegistry registry;
  EXPECT_THROW(registry.add("Bad.Tenant", make_pipeline(53)),
               std::invalid_argument);
  EXPECT_THROW(registry.add("", make_pipeline(53)), std::invalid_argument);
}

TEST(InferenceServer, ManualDispatchPumpsOnlyWhenDriven) {
  serve::ModelRegistry registry;
  registry.add("default", make_pipeline(55));
  const data::Dataset queries = make_queries(3, 56);
  const std::vector<int> direct =
      registry.get("default")->predict_batch(queries);

  serve::FakeClock clock;
  serve::ServerConfig config;
  config.manual_dispatch = true;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 1000;
  serve::InferenceServer server(registry, config, &clock);
  std::vector<std::future<serve::Response>> inflight;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    inflight.push_back(server.submit(features_of(queries, i)));
  }
  // No worker thread: nothing resolves until the harness pumps, and the
  // young batch is not yet due.
  EXPECT_EQ(server.run_until_idle(), 0u);
  EXPECT_EQ(server.queue_depth(), queries.size());
  EXPECT_EQ(server.next_event_us(), 1000u);  // oldest + max_wait
  clock.set_us(1000);
  EXPECT_EQ(server.run_until_idle(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const serve::Response response = inflight[i].get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.label, direct[i]);
  }
  server.shutdown();
}

// ------------------------------------------- online feedback: protocol --

TEST(Protocol, FeedbackFrameRoundTripsThroughClientFrameReader) {
  serve::WireFeedback feedback;
  feedback.id = 31;
  feedback.tenant = "acme";
  feedback.label = 2;
  std::stringstream stream;
  serve::write_feedback(stream, feedback);
  EXPECT_EQ(stream.str().substr(0, 4), "LSF2");
  serve::ClientFrame frame;
  ASSERT_TRUE(serve::read_client_frame(stream, &frame, "test"));
  ASSERT_TRUE(frame.is_feedback());
  EXPECT_EQ(frame.feedback.id, 31u);
  EXPECT_EQ(frame.feedback.tenant, "acme");
  EXPECT_EQ(frame.feedback.label, 2);
  // Clean EOF at the frame boundary reads as "no more frames".
  EXPECT_FALSE(serve::read_client_frame(stream, &frame, "test"));
}

TEST(Protocol, ClientFrameReaderInterleavesRequestsAndFeedback) {
  serve::WireRequest request;
  request.id = 1;
  request.tenant = "acme";
  request.features = {0.5f, 1.5f};
  serve::WireFeedback feedback;
  feedback.id = 1;
  feedback.tenant = "acme";
  feedback.label = 0;

  std::stringstream stream;
  serve::write_request(stream, request);
  serve::write_feedback(stream, feedback);
  request.id = 2;
  serve::write_request(stream, request);

  serve::ClientFrame frame;
  ASSERT_TRUE(serve::read_client_frame(stream, &frame, "test"));
  EXPECT_FALSE(frame.is_feedback());
  EXPECT_EQ(frame.request.id, 1u);
  ASSERT_TRUE(serve::read_client_frame(stream, &frame, "test"));
  ASSERT_TRUE(frame.is_feedback());
  EXPECT_EQ(frame.feedback.id, 1u);
  ASSERT_TRUE(serve::read_client_frame(stream, &frame, "test"));
  EXPECT_FALSE(frame.is_feedback());
  EXPECT_EQ(frame.request.id, 2u);
  EXPECT_FALSE(serve::read_client_frame(stream, &frame, "test"));
}

TEST(Protocol, FeedbackRejectsInvalidTenantIdsAndLabels) {
  serve::WireFeedback feedback;
  feedback.tenant = "Not.Valid";
  EXPECT_THROW((void)serve::encode_feedback(feedback), std::runtime_error);
}

TEST(Protocol, FeedbackDecodeFuzzTypedErrorsNeverCrashOrHang) {
  // The same hostile-input contract the request fuzz enforces, against
  // the LSF2 generation: every truncation is a clean EOF (empty input)
  // or a typed error, and every single-byte corruption either decodes or
  // raises std::runtime_error — never a crash, hang or silent junk.
  serve::WireFeedback feedback;
  feedback.id = 77;
  feedback.tenant = "acme";
  feedback.label = 1;
  const std::string frame = serve::encode_feedback(feedback);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::stringstream stream(frame.substr(0, cut));
    serve::ClientFrame out;
    if (cut == 0) {
      EXPECT_FALSE(serve::read_client_frame(stream, &out, "fuzz"));
    } else {
      EXPECT_THROW((void)serve::read_client_frame(stream, &out, "fuzz"),
                   std::runtime_error);
    }
  }
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (const char flip : {'\x01', '\x7f', '\xff'}) {
      std::string mutated = frame;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      std::stringstream stream(mutated);
      serve::ClientFrame out;
      try {
        (void)serve::read_client_frame(stream, &out, "fuzz");
      } catch (const std::runtime_error&) {
        // typed rejection: exactly what the contract promises
      }
    }
  }
}

// -------------------------------------------- online feedback: sidecar --

serve::OnlineSidecarConfig manual_sidecar_config() {
  serve::OnlineSidecarConfig config;
  config.manual = true;
  config.seed = 7;
  return config;
}

TEST(OnlineSidecar, UnknownAndCrossTenantFeedbackRejectTyped) {
  serve::ModelRegistry registry;
  registry.add("acme", make_pipeline(61));
  registry.add("globex", make_pipeline(62));
  serve::FakeClock clock;
  serve::OnlineSidecar sidecar(registry, manual_sidecar_config(), &clock);
  sidecar.enable("acme");
  sidecar.enable("globex");
  const data::Dataset queries = make_queries(4, 63);

  sidecar.record("acme", 5, features_of(queries, 0));
  // The correlation key is (tenant, id): globex cannot relabel acme's
  // traffic even with the right id, and an id acme never served is
  // equally unknown.
  EXPECT_EQ(sidecar.offer_feedback("globex", 5, 0),
            serve::Reject::kUnknownCorrelation);
  EXPECT_EQ(sidecar.offer_feedback("acme", 999, 0),
            serve::Reject::kUnknownCorrelation);
  // A tenant that is not online-enabled at all is the same typed reject.
  EXPECT_EQ(sidecar.offer_feedback("mouse", 5, 0),
            serve::Reject::kUnknownCorrelation);
  // Out-of-range labels are a bad request and do NOT consume the record.
  EXPECT_EQ(sidecar.offer_feedback("acme", 5, 3),
            serve::Reject::kBadRequest);
  EXPECT_EQ(sidecar.offer_feedback("acme", 5, -1),
            serve::Reject::kBadRequest);
  // The happy path accepts exactly once: acceptance consumes the record,
  // so a duplicate feedback is unknown again.
  EXPECT_EQ(sidecar.offer_feedback("acme", 5, 1), serve::Reject::kNone);
  EXPECT_EQ(sidecar.offer_feedback("acme", 5, 1),
            serve::Reject::kUnknownCorrelation);
  EXPECT_EQ(sidecar.pump(), 1u);
  EXPECT_EQ(sidecar.feedback_accepted("acme"), 1u);
  EXPECT_EQ(sidecar.feedback_accepted("globex"), 0u);
}

TEST(OnlineSidecar, FullFeedbackQueueShedsTyped) {
  serve::ModelRegistry registry;
  registry.add("acme", make_pipeline(67));
  serve::FakeClock clock;
  auto config = manual_sidecar_config();
  config.queue_capacity = 2;
  serve::OnlineSidecar sidecar(registry, config, &clock);
  sidecar.enable("acme");
  const data::Dataset queries = make_queries(3, 68);
  for (std::uint64_t id = 0; id < 3; ++id) {
    sidecar.record("acme", id, features_of(queries, id));
  }
  EXPECT_EQ(sidecar.offer_feedback("acme", 0, 0), serve::Reject::kNone);
  EXPECT_EQ(sidecar.offer_feedback("acme", 1, 0), serve::Reject::kNone);
  // Queue at capacity: shed typed, correlation NOT consumed...
  EXPECT_EQ(sidecar.offer_feedback("acme", 2, 0),
            serve::Reject::kQueueFull);
  EXPECT_EQ(sidecar.pump(), 2u);
  // ...so the same feedback succeeds once the queue drained.
  EXPECT_EQ(sidecar.offer_feedback("acme", 2, 0), serve::Reject::kNone);
  EXPECT_EQ(sidecar.pump(), 1u);
  EXPECT_EQ(sidecar.feedback_accepted("acme"), 3u);
}

TEST(OnlineSidecar, CorrelationRingEvictsOldestServedRequests) {
  serve::ModelRegistry registry;
  registry.add("acme", make_pipeline(71));
  serve::FakeClock clock;
  auto config = manual_sidecar_config();
  config.correlation_capacity = 2;
  serve::OnlineSidecar sidecar(registry, config, &clock);
  sidecar.enable("acme");
  const data::Dataset queries = make_queries(3, 72);
  for (std::uint64_t id = 0; id < 3; ++id) {
    sidecar.record("acme", id, features_of(queries, id));
  }
  // id 0 was evicted to make room for id 2; late feedback for it is the
  // same typed reject as never-served.
  EXPECT_EQ(sidecar.offer_feedback("acme", 0, 0),
            serve::Reject::kUnknownCorrelation);
  EXPECT_EQ(sidecar.offer_feedback("acme", 1, 0), serve::Reject::kNone);
  EXPECT_EQ(sidecar.offer_feedback("acme", 2, 0), serve::Reject::kNone);
}

TEST(OnlineSidecar, DriftAlarmFiresWhenLiveTrailsShadow) {
  // Concept drift as a consistent label permutation: the feedback stream
  // reports (true + 1) % 3 for clusters the live model was trained on
  // with the unshifted labels. The shadow learns the permuted concept
  // (it is exactly as separable), so at flip attempts the live holdout
  // accuracy trails the shadow's by far more than the margin — the
  // drift alarm must fire. Fully deterministic: synthetic data, manual
  // pump, FakeClock. The cadence must stay tighter than the shadow's
  // convergence horizon: the permuted concept is learned in ~10 updates,
  // after which update-count attempts stop coming, so the last attempt
  // has to land once the holdout ring already holds min_holdout samples.
  serve::ModelRegistry registry;
  registry.add("acme", make_pipeline(81));
  serve::FakeClock clock;
  auto config = manual_sidecar_config();
  config.flip_every_updates = 2;
  config.holdout_every = 4;
  config.min_holdout = 4;
  config.drift_alarm_margin = 0.25;
  serve::OnlineSidecar sidecar(registry, config, &clock);
  sidecar.enable("acme");
  const data::Dataset queries = make_queries(64, 81);
  for (std::uint64_t id = 0; id < queries.size(); ++id) {
    sidecar.record("acme", id, features_of(queries, id));
    const std::int32_t drifted = (queries.label(id) + 1) % 3;
    ASSERT_EQ(sidecar.offer_feedback("acme", id, drifted),
              serve::Reject::kNone);
    ASSERT_EQ(sidecar.pump(), 1u);
  }
  EXPECT_GE(sidecar.drift_alarms("acme"), 1u)
      << "live model trailed the shadow by > margin at a flip attempt "
         "but no drift alarm fired";
  // The alarm observes, the flip repairs: the gate still bound the
  // better (shadow) generation.
  EXPECT_GE(sidecar.flips("acme"), 1u);
}

TEST(OnlineSidecar, DriftAlarmMarginZeroDisablesTheAlarm) {
  // Same drifted stream and cadence as the test above — flip attempts
  // happen and the live model demonstrably trails the shadow — but with
  // the margin at 0 the alarm is disabled, so only the flip fires.
  serve::ModelRegistry registry;
  registry.add("acme", make_pipeline(81));
  serve::FakeClock clock;
  auto config = manual_sidecar_config();
  config.flip_every_updates = 2;
  config.holdout_every = 4;
  config.min_holdout = 4;
  config.drift_alarm_margin = 0.0;
  serve::OnlineSidecar sidecar(registry, config, &clock);
  sidecar.enable("acme");
  const data::Dataset queries = make_queries(64, 81);
  for (std::uint64_t id = 0; id < queries.size(); ++id) {
    sidecar.record("acme", id, features_of(queries, id));
    ASSERT_EQ(sidecar.offer_feedback("acme", id,
                                     (queries.label(id) + 1) % 3),
              serve::Reject::kNone);
    ASSERT_EQ(sidecar.pump(), 1u);
  }
  // The flip proves an attempt with a full holdout actually happened —
  // the quiet alarm is the margin gate, not a starved cadence.
  EXPECT_GE(sidecar.flips("acme"), 1u);
  EXPECT_EQ(sidecar.drift_alarms("acme"), 0u);
}

}  // namespace
}  // namespace lehdc
