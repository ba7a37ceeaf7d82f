// Transport layer (src/serve/framing, src/serve/transport/): incremental
// frame codec bit-identity under arbitrary byte splits, the hostile-input
// fuzz corpus from `lehdc_serve genframes --corrupt`, Connection's
// pause/shed/ordering semantics, the transport chaos scenarios, and
// byte-for-byte parity between the epoll TCP path and the AF_UNIX path
// for the same request stream, and the socket options accepted
// connections carry. Everything runs on a FakeClock with a
// manual-dispatch server — one thread is client, server and event loop.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/transport.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "serve/clock.hpp"
#include "serve/framing.hpp"
#include "serve/online.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport/connection.hpp"
#include "serve/transport/event_loop.hpp"
#include "serve/transport/socket.hpp"
#include "util/rng.hpp"

namespace lehdc {
namespace {

constexpr std::size_t kFeatures = 6;

serve::WireRequest make_request(std::uint64_t id,
                                const std::string& tenant = "acme",
                                std::uint64_t budget_us = 0) {
  serve::WireRequest request;
  request.id = id;
  request.tenant = tenant;
  request.deadline_budget_us = budget_us;
  request.features.assign(kFeatures, 0.25f * static_cast<float>(id % 4));
  return request;
}

/// A stream of LSR2 request frames with varied tenants and budgets.
std::string request_stream(std::size_t count) {
  std::string bytes;
  for (std::size_t i = 0; i < count; ++i) {
    bytes += serve::encode_request(make_request(
        i + 1, i % 3 == 0 ? "globex" : "acme", i % 4 == 0 ? 0 : 1000 * i));
  }
  return bytes;
}

/// `count` frames of both request-stream kinds: LSR2 requests with an
/// LSF2 feedback frame in every other slot, so the framing tests split
/// streams that switch magic from frame to frame.
std::string frame_stream(std::size_t count) {
  std::string bytes;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string tenant = i % 3 == 0 ? "globex" : "acme";
    if (i % 2 == 1) {
      serve::WireFeedback feedback;
      feedback.id = i + 1;
      feedback.tenant = tenant;
      feedback.label = static_cast<std::int32_t>(i % 3);
      bytes += serve::encode_feedback(feedback);
    } else {
      bytes += serve::encode_request(
          make_request(i + 1, tenant, i % 4 == 0 ? 0 : 1000 * i));
    }
  }
  return bytes;
}

/// Decodes `bytes` fed in `chunk`-sized pieces; returns each frame as
/// "version:payload" (version tells LSR2 from LSF2) so streams compare
/// bit-exactly.
std::vector<std::string> decode_chunked(const std::string& bytes,
                                        std::size_t chunk) {
  serve::FrameDecoder decoder = serve::make_request_decoder("test");
  std::vector<std::string> frames;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    decoder.feed(std::string_view(bytes).substr(off, chunk));
    serve::FrameDecoder::Frame frame;
    while (decoder.next(&frame)) {
      frames.push_back(std::to_string(frame.version) + ":" +
                       std::string(frame.payload));
    }
  }
  return frames;
}

// ----------------------------------------------------------------- codec --

TEST(Framing, ByteAtATimeMatchesOneShot) {
  const std::string bytes = frame_stream(13);
  const auto one_shot = decode_chunked(bytes, bytes.size());
  ASSERT_EQ(one_shot.size(), 13u);
  EXPECT_EQ(one_shot[0].substr(0, 2),
            std::to_string(serve::kWireVersion) + ":");
  EXPECT_EQ(one_shot[1].substr(0, 2),
            std::to_string(serve::kFeedbackFrameKind) + ":");
  EXPECT_EQ(decode_chunked(bytes, 1), one_shot);
}

TEST(Framing, RandomSplitsMatchOneShot) {
  const std::string bytes = frame_stream(9);
  const auto one_shot = decode_chunked(bytes, bytes.size());
  util::Rng rng(7);
  for (int trial = 0; trial < 32; ++trial) {
    serve::FrameDecoder decoder = serve::make_request_decoder("test");
    std::vector<std::string> frames;
    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t n =
          1 + rng.next_below(std::min<std::size_t>(97, bytes.size() - off));
      decoder.feed(std::string_view(bytes).substr(off, n));
      off += n;
      serve::FrameDecoder::Frame frame;
      while (decoder.next(&frame)) {
        frames.push_back(std::to_string(frame.version) + ":" +
                         std::string(frame.payload));
      }
    }
    EXPECT_EQ(frames, one_shot) << "split trial " << trial;
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(Framing, BytesNeededDrivesExactReads) {
  const std::string bytes = frame_stream(3);
  serve::FrameDecoder decoder = serve::make_request_decoder("test");
  std::size_t off = 0;
  std::size_t frames = 0;
  while (off < bytes.size()) {
    const std::size_t want = decoder.bytes_needed();
    ASSERT_GT(want, 0u);
    ASSERT_LE(off + want, bytes.size());
    decoder.feed(std::string_view(bytes).substr(off, want));
    off += want;
    serve::FrameDecoder::Frame frame;
    while (decoder.next(&frame)) {
      ++frames;
    }
  }
  EXPECT_EQ(frames, 3u);
}

TEST(Framing, EncoderResumesShortWrites) {
  serve::FrameEncoder encoder;
  const std::string a = serve::encode_request(make_request(1));
  serve::WireFeedback feedback;
  feedback.id = 1;
  feedback.label = 2;
  const std::string b = serve::encode_feedback(feedback);
  encoder.push(a);
  encoder.push(b);
  EXPECT_EQ(encoder.backlog_bytes(), a.size() + b.size());

  // Take 1, 2, 4, ... bytes per "write": frames come out in order, never
  // interleaved, and reassemble bit-exactly.
  std::string written;
  std::size_t take = 1;
  while (!encoder.empty()) {
    const std::string_view pending = encoder.pending();
    ASSERT_FALSE(pending.empty());
    const std::size_t n = std::min(take, pending.size());
    written.append(pending.substr(0, n));
    encoder.consume(n);
    take *= 2;
  }
  EXPECT_EQ(written, a + b);
  EXPECT_TRUE(encoder.pending().empty());
}

// ------------------------------------------------------------------ fuzz --

/// Mirror of `lehdc_serve genframes --corrupt` (tools/lehdc_serve.cpp):
/// the two sides must stay in sync so the on-disk corpus and this
/// in-process fuzz exercise the same hostile shapes.
std::string corrupt_frame(const serve::WireRequest& request,
                          std::size_t kind) {
  std::string frame = serve::encode_request(request);
  switch (kind % 8) {
    case 0:
      frame[0] = 'X';
      break;
    case 1:
      frame.resize(frame.size() - std::min<std::size_t>(frame.size() / 2,
                                                        frame.size() - 9));
      break;
    case 2: {
      const std::uint32_t size = serve::kMaxPayloadBytes + 1;
      std::memcpy(frame.data() + 4, &size, sizeof(size));
      break;
    }
    case 3: {
      const std::size_t offset = 8 + 8 + 8 + 2 + request.tenant.size();
      const std::uint32_t lying = 0x00ffffff;
      std::memcpy(frame.data() + offset, &lying, sizeof(lying));
      break;
    }
    case 4: {
      const std::uint16_t lying = 0xffff;
      std::memcpy(frame.data() + 8 + 8 + 8, &lying, sizeof(lying));
      break;
    }
    case 5:
      frame.resize(3);
      break;
    case 6:
      frame.resize(8);
      break;
    case 7:
      frame.insert(0, "\x00\xffnoise", 7);
      break;
  }
  return frame;
}

enum class FuzzOutcome { kFrames, kTypedError, kIncomplete };

/// Feeds `bytes` in `chunk` pieces through decoder + payload decode and
/// classifies what happened. Any escape other than std::runtime_error is
/// the bug this fuzz exists to catch.
FuzzOutcome classify(const std::string& bytes, std::size_t chunk) {
  serve::FrameDecoder decoder = serve::make_request_decoder("fuzz");
  bool any_frame = false;
  try {
    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
      decoder.feed(std::string_view(bytes).substr(off, chunk));
      serve::FrameDecoder::Frame frame;
      while (decoder.next(&frame)) {
        (void)serve::decode_request_payload(frame.payload, frame.version,
                                            "fuzz");
        any_frame = true;
      }
    }
  } catch (const std::runtime_error&) {
    return FuzzOutcome::kTypedError;
  }
  if (decoder.mid_frame()) {
    return FuzzOutcome::kIncomplete;  // EOF mid-frame: truncated stream.
  }
  return any_frame ? FuzzOutcome::kFrames : FuzzOutcome::kIncomplete;
}

TEST(FramingFuzz, CorruptCorpusIsTypedOrIncompleteAtEverySplit) {
  // kinds 0,2,3,4,7 must fail loudly; 1,5,6 are slowloris shapes the
  // decoder must classify as incomplete (mid_frame) without ever serving.
  const FuzzOutcome expected[8] = {
      FuzzOutcome::kTypedError, FuzzOutcome::kIncomplete,
      FuzzOutcome::kTypedError, FuzzOutcome::kTypedError,
      FuzzOutcome::kTypedError, FuzzOutcome::kIncomplete,
      FuzzOutcome::kIncomplete, FuzzOutcome::kTypedError,
  };
  const serve::WireRequest request = make_request(42);
  for (std::size_t kind = 0; kind < 8; ++kind) {
    const std::string bytes = corrupt_frame(request, kind);
    for (std::size_t chunk = 1; chunk <= bytes.size(); ++chunk) {
      EXPECT_EQ(classify(bytes, chunk), expected[kind])
          << "kind " << kind << " chunk " << chunk;
    }
  }
}

TEST(FramingFuzz, ValidFrameAfterGarbageNeverResyncs) {
  // A poisoned stream stays poisoned: after a bad magic the decoder
  // throws and the connection must drop — feeding more must not "work".
  serve::FrameDecoder decoder = serve::make_request_decoder("fuzz");
  decoder.feed(corrupt_frame(make_request(1), 0));
  serve::FrameDecoder::Frame frame;
  EXPECT_THROW((void)decoder.next(&frame), std::runtime_error);
}

// ------------------------------------------------------- connection unit --

struct ServerFixture {
  serve::FakeClock clock{0};
  serve::ModelRegistry registry;
  std::unique_ptr<serve::InferenceServer> server;

  explicit ServerFixture(std::size_t max_batch = 1) {
    data::SyntheticConfig synth;
    synth.feature_count = kFeatures;
    synth.class_count = 3;
    synth.train_count = 60;
    synth.test_count = 6;
    synth.seed = 11;
    auto split = data::generate_synthetic(synth);
    core::PipelineConfig pipeline_config;
    pipeline_config.dim = 256;
    pipeline_config.strategy = core::Strategy::kBaseline;
    pipeline_config.seed = 11;
    auto pipeline = std::make_shared<core::Pipeline>(pipeline_config);
    pipeline->fit(split.train);
    registry.bind("acme", pipeline);
    registry.bind("globex", pipeline);
    serve::ServerConfig config;
    config.default_tenant = "acme";
    config.manual_dispatch = true;
    config.batcher.max_batch = max_batch;
    config.batcher.max_wait_us = 200;
    config.batcher.queue_capacity = 64;
    server = std::make_unique<serve::InferenceServer>(registry, config,
                                                      &clock);
  }
};

/// Pump + drain helper: runs the server, encodes ready responses, drains
/// the write backlog through a response decoder, returns decoded ids.
std::vector<std::uint64_t> drain(serve::transport::Connection& conn,
                                 ServerFixture& fx,
                                 std::vector<serve::Response>* out = nullptr) {
  std::vector<std::uint64_t> ids;
  serve::FrameDecoder decoder = serve::make_response_decoder("drain");
  for (int round = 0; round < 64; ++round) {
    fx.clock.advance_us(300);
    fx.server->run_until_idle();
    conn.pump_responses(fx.clock.now_us());
    while (!conn.pending_write().empty()) {
      const std::string_view pending = conn.pending_write();
      decoder.feed(pending.substr(0, std::min<std::size_t>(5, pending.size())));
      conn.on_written(std::min<std::size_t>(5, pending.size()),
                      fx.clock.now_us());
      serve::FrameDecoder::Frame frame;
      while (decoder.next(&frame)) {
        serve::Response response = serve::decode_response_payload(
            frame.payload, frame.version, "drain");
        ids.push_back(response.id);
        if (out != nullptr) {
          out->push_back(std::move(response));
        }
      }
    }
    if (conn.inflight_count() == 0 && conn.buffered_read_bytes() == 0) {
      break;
    }
  }
  return ids;
}

TEST(Connection, InflightCapPausesDecodingWithoutLoss) {
  ServerFixture fx;
  serve::transport::ConnectionConfig config;
  config.max_inflight = 2;
  serve::transport::Connection conn(1, *fx.server, config, 0);

  ASSERT_TRUE(conn.on_bytes(request_stream(7), 0));
  // Cap reached: two submitted, the rest parked as buffered bytes.
  EXPECT_EQ(conn.inflight_count(), 2u);
  EXPECT_GT(conn.buffered_read_bytes(), 0u);
  EXPECT_FALSE(conn.wants_read());

  const auto ids = drain(conn, fx);
  ASSERT_EQ(ids.size(), 7u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1);  // strict request order, nothing dropped
  }
  EXPECT_TRUE(conn.wants_read());
}

TEST(Connection, WriteBacklogCapShedsTyped) {
  ServerFixture fx;
  serve::transport::ConnectionConfig config;
  config.write_backlog_max_bytes = 1;  // any pending response trips the cap
  serve::transport::Connection conn(1, *fx.server, config, 0);

  ASSERT_TRUE(conn.on_bytes(serve::encode_request(make_request(1)), 0));
  fx.server->run_until_idle();
  conn.pump_responses(0);  // response #1 lands in the (now-full) backlog
  ASSERT_GE(conn.write_backlog_bytes(), config.write_backlog_max_bytes);
  // Requests 2-4 decode against a saturated backlog: typed sheds.
  std::string rest;
  for (std::uint64_t i = 2; i <= 4; ++i) {
    rest += serve::encode_request(make_request(i));
  }
  ASSERT_TRUE(conn.on_bytes(rest, 0));

  std::vector<serve::Response> responses;
  const auto ids = drain(conn, fx, &responses);
  ASSERT_EQ(ids.size(), 4u);
  std::size_t sheds = 0;
  for (const serve::Response& response : responses) {
    if (!response.ok()) {
      EXPECT_EQ(response.error, serve::Reject::kQueueFull);
      EXPECT_EQ(response.label, -1);
      ++sheds;
    }
  }
  EXPECT_EQ(sheds, conn.sheds());
  EXPECT_GT(sheds, 0u);
  // Order held even with sheds interleaved among served responses.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1);
  }
}

TEST(Connection, EofDrainsThenDone) {
  ServerFixture fx;
  serve::transport::Connection conn(1, *fx.server,
                                    serve::transport::ConnectionConfig{}, 0);
  ASSERT_TRUE(conn.on_bytes(request_stream(2), 0));
  conn.on_eof();
  EXPECT_FALSE(conn.done());  // still owes two responses
  const auto ids = drain(conn, fx);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE(conn.done());
}

TEST(Connection, MalformedBytesFailTheConnection) {
  ServerFixture fx;
  serve::transport::Connection conn(1, *fx.server,
                                    serve::transport::ConnectionConfig{}, 0);
  EXPECT_FALSE(conn.on_bytes("XXXXXXXXXXXX", 0));
  EXPECT_TRUE(conn.failed());
  EXPECT_FALSE(conn.last_error().empty());
  EXPECT_TRUE(conn.done());
  EXPECT_FALSE(conn.wants_read());
}

TEST(Connection, IdleDeadlineTracksActivity) {
  ServerFixture fx;
  serve::transport::ConnectionConfig config;
  config.idle_timeout_us = 1000;
  serve::transport::Connection conn(1, *fx.server, config, 5000);
  EXPECT_EQ(conn.idle_deadline_us(), 6000u);
  EXPECT_FALSE(conn.idle_expired(5999));
  EXPECT_TRUE(conn.idle_expired(6000));
  ASSERT_TRUE(conn.on_bytes(request_stream(1), 5500));
  EXPECT_EQ(conn.idle_deadline_us(), 6500u);  // progress pushes it out
}

TEST(Connection, FeedbackAcksKeepArrivalOrderAmongResponses) {
  // One connection interleaving LSF2 feedback among request frames: acks
  // must come back exactly where the feedback arrived in the stream —
  // never jumping ahead of an earlier in-flight response, never stalling
  // a later one.
  ServerFixture fx;
  serve::OnlineSidecarConfig online_config;
  online_config.manual = true;
  serve::OnlineSidecar sidecar(fx.registry, online_config, &fx.clock);
  sidecar.enable("acme");
  fx.server->attach_online(&sidecar);
  serve::transport::Connection conn(
      1, *fx.server, serve::transport::ConnectionConfig{}, 0);

  // Serve requests 1..3 fully so their correlations are recorded.
  ASSERT_TRUE(conn.on_bytes(request_stream(3), 0));
  ASSERT_EQ(drain(conn, fx).size(), 3u);

  // Now interleave: feedback for served id 2 (an "acme" frame in
  // request_stream), two fresh requests, then feedback for a never-served
  // id.
  serve::WireFeedback good;
  good.id = 2;
  good.tenant = "acme";
  good.label = 0;
  serve::WireFeedback unknown;
  unknown.id = 999;
  unknown.tenant = "acme";
  unknown.label = 0;
  std::string bytes = serve::encode_feedback(good);
  bytes += serve::encode_request(make_request(4));
  bytes += serve::encode_request(make_request(5));
  bytes += serve::encode_feedback(unknown);
  ASSERT_TRUE(conn.on_bytes(bytes, 0));

  std::vector<serve::Response> responses;
  const auto ids = drain(conn, fx, &responses);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 4, 5, 999}));
  // The accepted ack: ok, label -1 (an ack predicts nothing).
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[0].label, -1);
  // Real predictions in between.
  EXPECT_TRUE(responses[1].ok());
  EXPECT_GE(responses[1].label, 0);
  // The unknown-correlation ack is typed, and arrives last.
  EXPECT_EQ(responses[3].error, serve::Reject::kUnknownCorrelation);
  EXPECT_EQ(responses[3].label, -1);
  EXPECT_EQ(sidecar.pump(), 1u);
  EXPECT_EQ(sidecar.feedback_accepted("acme"), 1u);
}

TEST(Connection, FeedbackRacingItsOwnResponseIsUnknownCorrelation) {
  // Feedback that arrives before the request it labels has been
  // dispatched cannot correlate (the record is written at dispatch, after
  // the prediction exists) — it must be a typed reject, not a block or a
  // retroactive match.
  ServerFixture fx;
  serve::OnlineSidecarConfig online_config;
  online_config.manual = true;
  serve::OnlineSidecar sidecar(fx.registry, online_config, &fx.clock);
  sidecar.enable("acme");
  fx.server->attach_online(&sidecar);
  serve::transport::Connection conn(
      1, *fx.server, serve::transport::ConnectionConfig{}, 0);

  serve::WireFeedback feedback;
  feedback.id = 2;
  feedback.tenant = "acme";
  feedback.label = 0;
  std::string bytes = serve::encode_request(make_request(2));
  bytes += serve::encode_feedback(feedback);
  ASSERT_TRUE(conn.on_bytes(bytes, 0));  // no dispatch yet

  std::vector<serve::Response> responses;
  const auto ids = drain(conn, fx, &responses);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 2}));
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[1].error, serve::Reject::kUnknownCorrelation);
  // The correlation recorded at dispatch is still live: feedback after
  // the response is the normal accepted path.
  ASSERT_TRUE(conn.on_bytes(serve::encode_feedback(feedback), 0));
  responses.clear();
  const auto late = drain(conn, fx, &responses);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(sidecar.pump(), 1u);
}

// -------------------------------------------------------- chaos matrix --

TEST(TransportChaos, MatrixHoldsAllInvariants) {
  for (const auto& named : chaos::transport_scenario_matrix()) {
    const auto result =
        chaos::run_transport_scenario(named.configure(0.5), named.invariants);
    EXPECT_TRUE(result.violations.empty())
        << named.name << ": "
        << (result.violations.empty() ? "" : result.violations.front());
    EXPECT_GT(result.responses_ok, 0u) << named.name;
  }
}

TEST(TransportChaos, ChurnDropsConnectionsAndSurvivorsAreWhole) {
  const auto& matrix = chaos::transport_scenario_matrix();
  ASSERT_FALSE(matrix.empty());
  const auto* churn = &matrix[0];
  ASSERT_EQ(churn->name, "connection_churn");
  const auto result =
      chaos::run_transport_scenario(churn->configure(0.5), churn->invariants);
  EXPECT_GT(result.connections_dropped, 0u);
  EXPECT_GT(result.sent_dropped, 0u);
  EXPECT_EQ(result.bleed_errors, 0u);
}

TEST(TransportChaos, SlowReadersForceTypedSheds) {
  const auto& matrix = chaos::transport_scenario_matrix();
  ASSERT_GE(matrix.size(), 2u);
  const auto* slow = &matrix[1];
  ASSERT_EQ(slow->name, "slow_reader_backpressure");
  const auto result =
      chaos::run_transport_scenario(slow->configure(0.5), slow->invariants);
  EXPECT_GT(result.sheds, 0u);
  EXPECT_GT(result.responses_rejected, 0u);
  EXPECT_EQ(result.untyped, 0u);
}

TEST(TransportChaos, ReportsAreByteIdenticalAcrossRuns) {
  for (const auto& named : chaos::transport_scenario_matrix()) {
    const auto a =
        chaos::run_transport_scenario(named.configure(0.25), named.invariants);
    const auto b =
        chaos::run_transport_scenario(named.configure(0.25), named.invariants);
    EXPECT_EQ(a.report.dump(2), b.report.dump(2)) << named.name;
  }
}

// ------------------------------------------------- event loop + parity --

/// Writes all of `bytes` to a non-blocking fd, interleaving poll_once so
/// the server drains what the socket buffer cannot hold.
void pump_write(int fd, const std::string& bytes,
                serve::transport::EventLoop& loop) {
  std::size_t off = 0;
  int spins = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
    loop.poll_once(0);
    ASSERT_LT(++spins, 10000) << "socket write wedged";
  }
}

/// Polls the loop until `count` response frames arrive on `fd`; returns
/// the raw response byte stream.
std::string pump_read(int fd, std::size_t count,
                      serve::transport::EventLoop& loop) {
  std::string bytes;
  serve::FrameDecoder decoder = serve::make_response_decoder("client");
  std::size_t frames = 0;
  char buf[4096];
  int spins = 0;
  while (frames < count) {
    loop.poll_once(0);
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes.append(buf, static_cast<std::size_t>(n));
      decoder.feed({buf, static_cast<std::size_t>(n)});
      serve::FrameDecoder::Frame frame;
      while (decoder.next(&frame)) {
        ++frames;
      }
      continue;
    }
    EXPECT_NE(n, 0) << "server closed early";
    if (++spins > 10000) {
      ADD_FAILURE() << "response stream stalled at " << frames << "/" << count;
      break;
    }
  }
  return bytes;
}

/// Round-trips `requests` through a fresh EventLoop server on `fd`,
/// one request at a time (serialized, so ordering and batching are fully
/// deterministic), returning the concatenated response bytes.
std::string round_trip(int fd, const std::vector<serve::WireRequest>& requests,
                       serve::transport::EventLoop& loop) {
  std::string responses;
  for (const serve::WireRequest& request : requests) {
    pump_write(fd, serve::encode_request(request), loop);
    responses += pump_read(fd, 1, loop);
  }
  return responses;
}

/// Accepts the connection a client just opened on `listener` (the
/// handshake already completed, so it is pending or about to be).
int accept_pending(int listener) {
  int fd = -1;
  for (int spins = 0; fd < 0 && spins < 100000; ++spins) {
    fd = serve::transport::accept_connection(listener);
    if (fd < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      break;
    }
  }
  return fd;
}

TEST(Socket, AcceptedTcpConnectionsDisableNagle) {
  // The event loop accepts through accept_connection; a TCP connection
  // must come out non-blocking with Nagle off, or a small response frame
  // waits on the peer's delayed ACK.
  const int listener = serve::transport::listen_tcp("127.0.0.1", 0, 16);
  const std::uint16_t port = serve::transport::local_port(listener);
  const int client = serve::transport::connect_tcp("127.0.0.1", port);
  const int accepted = accept_pending(listener);
  ASSERT_GE(accepted, 0) << std::strerror(errno);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0)
      << std::strerror(errno);
  EXPECT_NE(nodelay, 0);
  EXPECT_NE(::fcntl(accepted, F_GETFL) & O_NONBLOCK, 0);
  ::close(accepted);
  ::close(client);
  ::close(listener);
}

TEST(Socket, AcceptedUnixConnectionsSkipTcpOptions) {
  const std::string path = ::testing::TempDir() + "lehdc_accept.sock";
  const int listener = serve::transport::listen_unix(path, 16);
  const int client = serve::transport::connect_unix(path);
  const int accepted = accept_pending(listener);
  ASSERT_GE(accepted, 0) << std::strerror(errno);
  EXPECT_NE(::fcntl(accepted, F_GETFL) & O_NONBLOCK, 0);
  // AF_UNIX has no TCP level: the option does not exist there.
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  EXPECT_NE(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  ::close(accepted);
  ::close(client);
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(EventLoop, TcpAndUnixServeByteIdenticalStreams) {
  std::vector<serve::WireRequest> requests;
  for (std::uint64_t i = 1; i <= 12; ++i) {
    requests.push_back(make_request(i, i % 3 == 0 ? "globex" : "acme"));
  }

  // The reference stream: the same FakeClock conditions (zero latency,
  // batch of one) submitted directly.
  ServerFixture reference;
  std::string expected;
  for (const serve::WireRequest& request : requests) {
    auto future = reference.server->submit(request.features, 0,
                                           request.tenant, request.id);
    reference.server->run_until_idle();
    expected += serve::encode_response(future.get());
  }

  const auto serve_over = [&](bool tcp) {
    ServerFixture fx;
    serve::transport::EventLoopConfig config;
    serve::transport::EventLoop loop(*fx.server, config);
    int client = -1;
    std::string uds_path;
    if (tcp) {
      const int listener = serve::transport::listen_tcp("127.0.0.1", 0, 16);
      const std::uint16_t port = serve::transport::local_port(listener);
      loop.add_listener(listener);
      client = serve::transport::connect_tcp("127.0.0.1", port, true);
    } else {
      uds_path = ::testing::TempDir() + "lehdc_parity.sock";
      loop.add_listener(serve::transport::listen_unix(uds_path, 16));
      client = serve::transport::connect_unix(uds_path, true);
    }
    const std::string bytes = round_trip(client, requests, loop);
    ::close(client);
    if (!uds_path.empty()) {
      ::unlink(uds_path.c_str());
    }
    return bytes;
  };

  const std::string over_tcp = serve_over(true);
  const std::string over_unix = serve_over(false);
  EXPECT_EQ(over_tcp, expected);
  EXPECT_EQ(over_unix, expected);
  EXPECT_EQ(over_tcp, over_unix);
}

TEST(EventLoop, PipelinedBurstKeepsOrderPerConnection) {
  ServerFixture fx(/*max_batch=*/4);
  serve::transport::EventLoopConfig config;
  serve::transport::EventLoop loop(*fx.server, config);
  const int listener = serve::transport::listen_tcp("127.0.0.1", 0, 16);
  const std::uint16_t port = serve::transport::local_port(listener);
  loop.add_listener(listener);
  const int client = serve::transport::connect_tcp("127.0.0.1", port, true);

  std::string burst;
  constexpr std::size_t kCount = 64;
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    burst += serve::encode_request(make_request(i));
  }
  pump_write(client, burst, loop);
  // The batcher's flush window needs virtual time to pass for partial
  // batches; interleave clock and loop.
  std::string bytes;
  serve::FrameDecoder decoder = serve::make_response_decoder("client");
  std::vector<std::uint64_t> ids;
  char buf[4096];
  int spins = 0;
  while (ids.size() < kCount && spins++ < 10000) {
    fx.clock.advance_us(300);
    loop.poll_once(0);
    const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
    if (n <= 0) {
      continue;
    }
    decoder.feed({buf, static_cast<std::size_t>(n)});
    serve::FrameDecoder::Frame frame;
    while (decoder.next(&frame)) {
      ids.push_back(
          serve::decode_response_payload(frame.payload, frame.version, "c")
              .id);
    }
  }
  ASSERT_EQ(ids.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(ids[i], i + 1);
  }
  ::close(client);
}

TEST(EventLoop, IdleConnectionsAreReaped) {
  ServerFixture fx;
  serve::transport::EventLoopConfig config;
  config.connection.idle_timeout_us = 10'000;
  serve::transport::EventLoop loop(*fx.server, config);
  const int listener = serve::transport::listen_tcp("127.0.0.1", 0, 16);
  const std::uint16_t port = serve::transport::local_port(listener);
  loop.add_listener(listener);
  const int client = serve::transport::connect_tcp("127.0.0.1", port, true);

  int spins = 0;
  while (loop.active_connections() == 0 && spins++ < 1000) {
    loop.poll_once(0);
  }
  ASSERT_EQ(loop.active_connections(), 1u);

  fx.clock.advance_us(10'001);
  spins = 0;
  while (loop.active_connections() == 1 && spins++ < 1000) {
    loop.poll_once(0);
  }
  EXPECT_EQ(loop.active_connections(), 0u);
  EXPECT_EQ(loop.closed_total(), 1u);
  ::close(client);
}

TEST(EventLoop, MalformedClientIsDroppedOthersSurvive) {
  ServerFixture fx;
  serve::transport::EventLoopConfig config;
  serve::transport::EventLoop loop(*fx.server, config);
  const int listener = serve::transport::listen_tcp("127.0.0.1", 0, 16);
  const std::uint16_t port = serve::transport::local_port(listener);
  loop.add_listener(listener);

  const int good = serve::transport::connect_tcp("127.0.0.1", port, true);
  const int evil = serve::transport::connect_tcp("127.0.0.1", port, true);
  pump_write(evil, corrupt_frame(make_request(9), 0), loop);

  // The poisoned connection dies; the well-behaved one still serves.
  std::vector<serve::WireRequest> one = {make_request(1)};
  const std::string bytes = round_trip(good, one, loop);
  EXPECT_FALSE(bytes.empty());
  int spins = 0;
  while (loop.active_connections() > 1 && spins++ < 1000) {
    loop.poll_once(0);
  }
  EXPECT_EQ(loop.active_connections(), 1u);
  ::close(good);
  ::close(evil);
}

}  // namespace
}  // namespace lehdc
