// lehdc_serve — micro-batching inference server over pipeline bundles.
//
//   lehdc_serve serve     --model out.lhdp --uds /tmp/lehdc.sock
//   lehdc_serve serve     --model out.lhdp --tcp 127.0.0.1:7700
//   lehdc_serve pipe      --model out.lhdp --in requests.bin --out responses.bin
//   lehdc_serve genframes --data <spec> --count 64 --out requests.bin
//   lehdc_serve decode    --in responses.bin [--expect-ok 64]
//   lehdc_serve client    --socket /tmp/lehdc.sock --data <spec> --count 16
//
// `serve` runs a single-threaded epoll event loop (serve/transport/) over
// any mix of AF_UNIX (--uds, with --socket as the legacy alias) and TCP
// (--tcp HOST:PORT) listeners, speaking the length-prefixed binary
// protocol of serve/protocol.hpp with per-connection backpressure
// (--read-budget / --write-backlog / --max-inflight / --idle-timeout-us);
// SIGHUP hot-reloads the model bundles from their original paths without
// dropping traffic. `pipe` speaks the same protocol over files/stdio for
// scripted testing (CI drives it with frames built by `genframes` and
// checks the output with `decode`). Requests queue into a bounded
// micro-batcher (--max-batch / --max-wait-us / --queue-capacity);
// overload sheds with typed rejections instead of growing memory.
//
// Multi-tenant serving: --models "acme=a.lhdp,globex=b.lhdp" binds one
// model per tenant (the first listed becomes the default tenant);
// genframes/client stamp frames with --tenant, and every response echoes
// the tenant it was routed to. genframes --corrupt N appends N malformed
// frames (bad magic, truncation, oversized length, lying feature counts,
// bad tenant lengths, mid-header cuts, interleaved garbage) for
// decode-hardening tests.
//
// Online learning: --online attaches the feedback sidecar (shadow
// learner + blue-green flips, serve/online.hpp) to every tenant;
// --flip-every K sets the flip cadence in shadow updates. Clients return
// ground truth as LSF2 feedback frames: genframes/client emit one after
// every --feedback-every-th request, and each feedback is acknowledged
// with a typed response (kNone accepted, unknown_correlation otherwise)
// that never overtakes earlier in-flight responses.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "data/spec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/framing.hpp"
#include "serve/online.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport/event_loop.hpp"
#include "serve/transport/socket.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lehdc;

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;

void handle_signal(int signum) {
  if (signum == SIGHUP) {
    g_reload = 1;
  } else {
    g_stop = 1;
  }
}

serve::BatcherConfig batcher_config(const util::FlagParser& flags) {
  serve::BatcherConfig config;
  config.max_batch = static_cast<std::size_t>(flags.get_int("max-batch"));
  config.max_wait_us =
      static_cast<std::uint64_t>(flags.get_int("max-wait-us"));
  config.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue-capacity"));
  config.tenant_capacity =
      static_cast<std::size_t>(flags.get_int("tenant-capacity"));
  return config;
}

/// Binds the served models: every `tenant=path` pair from --models, or the
/// single --model bundle as "default". Returns the default tenant id (the
/// first listed); `tenants` (when non-null) collects every bound id.
std::string load_models(serve::ModelRegistry& registry,
                        const util::FlagParser& flags,
                        std::vector<std::string>* tenants = nullptr) {
  const std::string& spec = flags.get_string("models");
  if (spec.empty()) {
    registry.load("default", flags.get_string("model"));
    if (tenants != nullptr) {
      tenants->push_back("default");
    }
    return "default";
  }
  std::string default_tenant;
  std::stringstream stream(spec);
  std::string pair;
  while (std::getline(stream, pair, ',')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      throw std::runtime_error("--models expects tenant=path pairs, got '" +
                               pair + "'");
    }
    const std::string tenant = pair.substr(0, eq);
    registry.load(tenant, pair.substr(eq + 1));
    if (tenants != nullptr) {
      tenants->push_back(tenant);
    }
    if (default_tenant.empty()) {
      default_tenant = tenant;
    }
  }
  if (default_tenant.empty()) {
    throw std::runtime_error("--models was empty after parsing");
  }
  return default_tenant;
}

/// --online: builds the feedback sidecar and enables it for every bound
/// tenant. Returns null when --online was not given. Pipe mode passes
/// manual=true: the scripted replay pumps the learner at deterministic
/// stream positions instead of racing a worker thread against the
/// batcher, so two runs over the same frame file are byte-identical.
std::unique_ptr<serve::OnlineSidecar> make_sidecar(
    serve::ModelRegistry& registry, serve::InferenceServer& server,
    const util::FlagParser& flags,
    const std::vector<std::string>& tenants, bool manual) {
  if (!flags.get_flag("online")) {
    return nullptr;
  }
  serve::OnlineSidecarConfig config;
  config.flip_every_updates =
      static_cast<std::size_t>(flags.get_int("flip-every"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.manual = manual;
  auto sidecar =
      std::make_unique<serve::OnlineSidecar>(registry, config,
                                             &server.clock());
  for (const std::string& tenant : tenants) {
    sidecar->enable(tenant);
  }
  server.attach_online(sidecar.get());
  return sidecar;
}

/// --shadow-dir: path of a tenant's persisted shadow accumulators
/// (checksummed LHON file, core/online.hpp).
std::string shadow_path(const std::string& dir, const std::string& tenant) {
  return (std::filesystem::path(dir) / (tenant + ".lhon")).string();
}

/// Restores every enabled tenant's shadow accumulators from --shadow-dir
/// at startup. A missing file is a cold start, not an error; a corrupt or
/// shape-mismatched file is refused by restore_shadow's checksum/shape
/// validation and logged, keeping the fresh learner.
void restore_shadows(serve::OnlineSidecar* sidecar,
                     const util::FlagParser& flags,
                     const std::vector<std::string>& tenants) {
  const std::string& dir = flags.get_string("shadow-dir");
  if (sidecar == nullptr || dir.empty()) {
    return;
  }
  for (const std::string& tenant : tenants) {
    const std::string path = shadow_path(dir, tenant);
    if (!std::filesystem::exists(path)) {
      continue;
    }
    try {
      sidecar->restore_shadow(tenant, path);
      util::log_info("restored shadow learner for '" + tenant + "' from " +
                     path);
    } catch (const std::exception& error) {
      util::log_warn("shadow restore for '" + tenant + "' failed (" +
                     error.what() + "); starting cold");
    }
  }
}

/// Saves every enabled tenant's shadow accumulators to --shadow-dir at
/// shutdown (serve mode: on SIGINT/SIGTERM; pipe mode: after the stream
/// drains). Failures are logged, never fatal — shutdown must complete.
void save_shadows(serve::OnlineSidecar* sidecar,
                  const util::FlagParser& flags,
                  const std::vector<std::string>& tenants) {
  const std::string& dir = flags.get_string("shadow-dir");
  if (sidecar == nullptr || dir.empty()) {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const std::string& tenant : tenants) {
    const std::string path = shadow_path(dir, tenant);
    try {
      sidecar->save_shadow(tenant, path);
      util::log_info("saved shadow learner for '" + tenant + "' to " + path);
    } catch (const std::exception& error) {
      util::log_warn("shadow save for '" + tenant + "' failed: " +
                     error.what());
    }
  }
}

/// Submits one wire request (translating the relative deadline budget into
/// an absolute clock deadline) and returns its future.
std::future<serve::Response> submit_wire(serve::InferenceServer& server,
                                         serve::WireRequest request) {
  const std::uint64_t deadline =
      request.deadline_budget_us == 0
          ? 0
          : server.clock().now_us() + request.deadline_budget_us;
  return server.submit(std::move(request.features), deadline, request.tenant,
                       request.id);
}

void write_metrics(const util::FlagParser& flags, const std::string& mode) {
  const std::string& path = flags.get_string("metrics-out");
  if (path.empty()) {
    return;
  }
  obs::Json context = obs::Json::object();
  context.set("tool", "lehdc_serve");
  context.set("mode", mode);
  context.set("model", flags.get_string("model"));
  obs::write_metrics_json(path, obs::Registry::global(), std::move(context));
}

// ------------------------------------------------------------- pipe mode --

/// A pipe-stream entry: a submitted request awaiting its response, or a
/// feedback frame whose ack is resolved at drain time — after every
/// earlier request's response has been collected, so the served
/// prediction it references has been recorded by then (the same
/// ack-after-earlier-responses order the transport Connection keeps).
struct PipeEntry {
  bool is_feedback = false;
  std::future<serve::Response> future;
  serve::WireFeedback feedback;
};

int cmd_pipe(util::FlagParser& flags) {
  serve::ModelRegistry registry;
  serve::ServerConfig config;
  std::vector<std::string> tenant_ids;
  config.default_tenant = load_models(registry, flags, &tenant_ids);
  config.batcher = batcher_config(flags);
  serve::InferenceServer server(registry, config);
  const std::unique_ptr<serve::OnlineSidecar> sidecar =
      make_sidecar(registry, server, flags, tenant_ids, /*manual=*/true);
  restore_shadows(sidecar.get(), flags, tenant_ids);

  const std::string& in_path = flags.get_string("in");
  const std::string& out_path = flags.get_string("out");
  std::ifstream in_file;
  std::ofstream out_file;
  std::istream* in = &std::cin;
  std::ostream* out = &std::cout;
  if (in_path != "-") {
    in_file.open(in_path, std::ios::binary);
    if (!in_file) {
      throw std::runtime_error("cannot open " + in_path);
    }
    in = &in_file;
  }
  if (out_path != "-") {
    out_file.open(out_path, std::ios::binary | std::ios::trunc);
    if (!out_file) {
      throw std::runtime_error("cannot open " + out_path);
    }
    out = &out_file;
  }

  // Submit up to `window` requests before awaiting any response: the read
  // side runs ahead of the scorer, so the micro-batcher sees real queue
  // depth and forms real batches even from a sequential file.
  const auto window = static_cast<std::size_t>(flags.get_int("window"));
  std::size_t served = 0;
  bool eof = false;
  // A corrupt frame (bad magic, truncation, lying lengths) is a typed
  // decode error, never a crash: every request admitted before it still
  // gets its response written, then the stream is abandoned — there is no
  // way to re-synchronize a length-prefixed stream past a corrupt header.
  std::string decode_error;
  while (!eof) {
    std::vector<PipeEntry> inflight;
    serve::ClientFrame frame;
    try {
      while (inflight.size() < window &&
             serve::read_client_frame(*in, &frame, in_path)) {
        PipeEntry entry;
        if (frame.is_feedback()) {
          entry.is_feedback = true;
          entry.feedback = std::move(frame.feedback);
        } else {
          entry.future = submit_wire(server, std::move(frame.request));
        }
        inflight.push_back(std::move(entry));
      }
    } catch (const std::exception& error) {
      decode_error = error.what();
    }
    eof = inflight.size() < window || !decode_error.empty();
    for (PipeEntry& entry : inflight) {
      if (entry.is_feedback) {
        serve::Response ack;
        ack.id = entry.feedback.id;
        ack.label = -1;
        ack.tenant = entry.feedback.tenant.empty()
                         ? config.default_tenant
                         : entry.feedback.tenant;
        ack.error = sidecar == nullptr
                        ? serve::Reject::kUnknownCorrelation
                        : sidecar->offer_feedback(ack.tenant,
                                                  entry.feedback.id,
                                                  entry.feedback.label);
        serve::write_response(*out, ack);
        ++served;
        continue;
      }
      serve::write_response(*out, entry.future.get());
      ++served;
    }
    // Apply this window's accepted feedback (and any resulting flip)
    // before the next window is submitted — a deterministic stream
    // position, so the served labels don't depend on scheduler timing.
    if (sidecar != nullptr) {
      (void)sidecar->pump();
    }
  }
  out->flush();
  save_shadows(sidecar.get(), flags, tenant_ids);
  server.shutdown();
  std::fprintf(stderr, "served %zu requests from %s\n", served,
               in_path.c_str());
  write_metrics(flags, "pipe");
  if (!decode_error.empty()) {
    std::fprintf(stderr, "corrupt request stream: %s\n",
                 decode_error.c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------- socket mode --

#ifdef __unix__

bool read_exact(int fd, void* buffer, std::size_t size) {
  auto* bytes = static_cast<char*>(buffer);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, bytes + done, size - done);
    if (n == 0) {
      if (done == 0) {
        return false;  // clean EOF at a frame boundary
      }
      throw std::runtime_error("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("read failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("write failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

/// AF_UNIX serve path: --uds, falling back to the legacy --socket alias
/// when neither --uds nor --tcp was given. Empty means "no UDS listener".
std::string effective_uds_path(const util::FlagParser& flags) {
  const std::string& uds = flags.get_string("uds");
  if (!uds.empty()) {
    return uds;
  }
  if (flags.get_string("tcp").empty()) {
    return flags.get_string("socket");
  }
  return {};
}

int cmd_serve(util::FlagParser& flags) {
  serve::ModelRegistry registry;
  serve::ServerConfig config;
  std::vector<std::string> tenant_ids;
  config.default_tenant = load_models(registry, flags, &tenant_ids);
  config.batcher = batcher_config(flags);
  serve::InferenceServer server(registry, config);
  const std::unique_ptr<serve::OnlineSidecar> sidecar =
      make_sidecar(registry, server, flags, tenant_ids, /*manual=*/false);
  restore_shadows(sidecar.get(), flags, tenant_ids);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGHUP, handle_signal);

  serve::transport::EventLoopConfig loop_config;
  loop_config.connection.read_budget_bytes =
      static_cast<std::size_t>(flags.get_int("read-budget"));
  loop_config.connection.write_backlog_max_bytes =
      static_cast<std::size_t>(flags.get_int("write-backlog"));
  loop_config.connection.max_inflight =
      static_cast<std::size_t>(flags.get_int("max-inflight"));
  loop_config.connection.idle_timeout_us =
      static_cast<std::uint64_t>(flags.get_int("idle-timeout-us"));
  loop_config.max_connections =
      static_cast<std::size_t>(flags.get_int("max-connections"));
  serve::transport::EventLoop loop(server, loop_config);

  const int backlog = static_cast<int>(flags.get_int("backlog"));
  const std::string uds_path = effective_uds_path(flags);
  const std::string& tcp_spec = flags.get_string("tcp");
  if (uds_path.empty() && tcp_spec.empty()) {
    throw std::runtime_error("serve needs --uds PATH and/or --tcp HOST:PORT");
  }
  if (!uds_path.empty()) {
    loop.add_listener(serve::transport::listen_unix(uds_path, backlog));
    util::log_info("listening on unix:" + uds_path);
  }
  if (!tcp_spec.empty()) {
    const auto hp = serve::transport::parse_host_port(tcp_spec);
    loop.add_listener(
        serve::transport::listen_tcp(hp.host, hp.port, backlog));
    util::log_info("listening on tcp:" + tcp_spec);
  }

  while (g_stop == 0) {
    if (g_reload != 0) {
      g_reload = 0;
      try {
        // Rebind every tenant from its original bundle path; in-flight
        // batches finish on their pinned generation.
        (void)load_models(registry, flags);
        util::log_info("reloaded model bundles");
      } catch (const std::exception& error) {
        // Keep serving the previous models; a tenant whose bundle loaded
        // before the failure serves the fresh generation, the rest keep
        // the old one.
        util::log_warn(std::string("reload failed: ") + error.what());
      }
    }
    loop.poll_once(200);
  }
  if (!uds_path.empty()) {
    ::unlink(uds_path.c_str());
  }
  // SIGINT/SIGTERM reached here: persist the shadow learners before the
  // sidecar is torn down so the next start resumes where this one stopped.
  save_shadows(sidecar.get(), flags, tenant_ids);
  server.shutdown();
  write_metrics(flags, "serve");
  return 0;
}

int cmd_client(util::FlagParser& flags) {
  const auto split = data::load_spec(
      flags.get_string("data"), flags.get_double("scale"), 0.0,
      static_cast<std::uint64_t>(flags.get_int("seed")), /*shuffle=*/false);
  const data::Dataset& dataset = split.train;
  auto count = static_cast<std::size_t>(flags.get_int("count"));
  count = count == 0 ? dataset.size() : std::min(count, dataset.size());

  const std::string& tcp_spec = flags.get_string("tcp");
  int fd = -1;
  if (!tcp_spec.empty()) {
    const auto hp = serve::transport::parse_host_port(tcp_spec);
    fd = serve::transport::connect_tcp(hp.host, hp.port);
  } else {
    fd = serve::transport::connect_unix(effective_uds_path(flags));
  }
  const auto feedback_every =
      static_cast<std::size_t>(flags.get_int("feedback-every"));
  // The shared framing state machine validates magic and length at the
  // header, before any payload-sized buffer exists; exact-sized reads
  // (bytes_needed()) keep the socket at the next frame boundary.
  serve::FrameDecoder decoder = serve::make_response_decoder("socket");
  const auto read_one_response = [&](const char* what) {
    serve::FrameDecoder::Frame frame;
    while (!decoder.next(&frame)) {
      std::string chunk(decoder.bytes_needed(), '\0');
      if (!read_exact(fd, chunk.data(), chunk.size())) {
        throw std::runtime_error("server closed connection");
      }
      decoder.feed(chunk);
    }
    const serve::Response response = serve::decode_response_payload(
        frame.payload, frame.version, "socket");
    std::printf("%s %llu %d %s %s\n", what,
                static_cast<unsigned long long>(response.id), response.label,
                serve::reject_name(response.error),
                response.tenant.empty() ? "-" : response.tenant.c_str());
  };
  for (std::size_t i = 0; i < count; ++i) {
    serve::WireRequest request;
    request.id = i;
    request.deadline_budget_us =
        static_cast<std::uint64_t>(flags.get_int("deadline-us"));
    request.tenant = flags.get_string("tenant");
    const auto features = dataset.sample(i);
    request.features.assign(features.begin(), features.end());
    write_all(fd, serve::encode_request(request));
    read_one_response("response");

    // Ground-truth feedback for every Kth served request: the LSF2 frame
    // correlates by (tenant, id) and the ack comes back as a normal
    // response with label -1.
    if (feedback_every > 0 && (i + 1) % feedback_every == 0) {
      serve::WireFeedback feedback;
      feedback.id = i;
      feedback.tenant = flags.get_string("tenant");
      feedback.label = dataset.label(i);
      write_all(fd, serve::encode_feedback(feedback));
      read_one_response("feedback");
    }
  }
  ::close(fd);
  return 0;
}

#else  // !__unix__

int cmd_serve(util::FlagParser&) {
  std::fprintf(stderr, "socket mode requires a unix platform\n");
  return 1;
}
int cmd_client(util::FlagParser&) {
  std::fprintf(stderr, "socket mode requires a unix platform\n");
  return 1;
}

#endif  // __unix__

// -------------------------------------------------------- scripted tools --

/// One malformed request frame, cycling through the failure kinds the
/// decoder must reject with a typed error (or report as a truncated
/// stream): bad magic, truncation mid-payload, oversized length prefix,
/// lying feature count, lying tenant length, then the slowloris shapes —
/// a frame cut inside its 8-byte header, a bare header whose declared
/// payload never arrives, and garbage interleaved before a valid frame.
/// The last three also seed the incremental-decoder fuzz corpus, where
/// they are additionally re-fed at every split point.
std::string corrupt_frame(const serve::WireRequest& request,
                          std::size_t kind) {
  std::string frame = serve::encode_request(request);
  switch (kind % 8) {
    case 0:  // bad magic
      frame[0] = 'X';
      break;
    case 1:  // truncated mid-payload
      frame.resize(frame.size() - std::min<std::size_t>(frame.size() / 2,
                                                        frame.size() - 9));
      break;
    case 2: {  // hostile length prefix
      const std::uint32_t size = serve::kMaxPayloadBytes + 1;
      std::memcpy(frame.data() + 4, &size, sizeof(size));
      break;
    }
    case 3: {  // feature count larger than the payload holds
      // payload: id(8) deadline(8) tenant_len(2) tenant feature_count(4)
      const std::size_t offset = 8 + 8 + 8 + 2 + request.tenant.size();
      const std::uint32_t lying = 0x00ffffff;
      std::memcpy(frame.data() + offset, &lying, sizeof(lying));
      break;
    }
    case 4: {  // tenant length pointing past the payload end
      const std::uint16_t lying = 0xffff;
      std::memcpy(frame.data() + 8 + 8 + 8, &lying, sizeof(lying));
      break;
    }
    case 5:  // slowloris: cut inside the 8-byte frame header
      frame.resize(3);
      break;
    case 6:  // slowloris: full header, payload never arrives
      frame.resize(8);
      break;
    case 7:  // garbage interleaved ahead of an otherwise valid frame
      frame.insert(0, "\x00\xffnoise", 7);
      break;
  }
  return frame;
}

int cmd_genframes(util::FlagParser& flags) {
  const auto split = data::load_spec(
      flags.get_string("data"), flags.get_double("scale"), 0.0,
      static_cast<std::uint64_t>(flags.get_int("seed")), /*shuffle=*/false);
  const data::Dataset& dataset = split.train;
  auto count = static_cast<std::size_t>(flags.get_int("count"));
  count = count == 0 ? dataset.size() : std::min(count, dataset.size());

  const std::string& out_path = flags.get_string("out");
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open " + out_path);
  }
  const auto feedback_every =
      static_cast<std::size_t>(flags.get_int("feedback-every"));
  std::size_t feedback_count = 0;
  serve::WireRequest request;
  for (std::size_t i = 0; i < count; ++i) {
    request = serve::WireRequest{};
    request.id = i;
    request.deadline_budget_us =
        static_cast<std::uint64_t>(flags.get_int("deadline-us"));
    request.tenant = flags.get_string("tenant");
    const auto features = dataset.sample(i);
    request.features.assign(features.begin(), features.end());
    serve::write_request(out, request);
    // Interleave an LSF2 ground-truth frame right after every Kth
    // request, correlating back to it by id — the shape an online
    // client produces.
    if (feedback_every > 0 && (i + 1) % feedback_every == 0) {
      serve::WireFeedback feedback;
      feedback.id = i;
      feedback.tenant = request.tenant;
      feedback.label = dataset.label(i);
      serve::write_feedback(out, feedback);
      ++feedback_count;
    }
  }
  // Malformed frames go after the valid ones: a reader must fail with a
  // typed error at the first corrupt frame instead of crashing or hanging.
  const auto corrupt = static_cast<std::size_t>(flags.get_int("corrupt"));
  for (std::size_t i = 0; i < corrupt; ++i) {
    const std::string frame = corrupt_frame(request, i);
    out.write(frame.data(),
              static_cast<std::streamsize>(frame.size()));
  }
  std::fprintf(stderr,
               "wrote %zu request frames (+%zu feedback, +%zu corrupt) "
               "to %s\n",
               count, feedback_count, corrupt, out_path.c_str());
  return 0;
}

int cmd_decode(util::FlagParser& flags) {
  const std::string& in_path = flags.get_string("in");
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + in_path);
  }
  std::size_t ok = 0;
  std::size_t rejected = 0;
  serve::Response response;
  while (serve::read_response(in, &response, in_path)) {
    std::printf("%llu %d %s %u\n",
                static_cast<unsigned long long>(response.id), response.label,
                serve::reject_name(response.error), response.batch_size);
    response.ok() ? ++ok : ++rejected;
  }
  std::fprintf(stderr, "ok=%zu rejected=%zu\n", ok, rejected);
  if (const auto expect = flags.get_int("expect-ok");
      expect >= 0 && static_cast<std::size_t>(expect) != ok) {
    std::fprintf(stderr, "expected %lld ok responses, decoded %zu\n",
                 static_cast<long long>(expect), ok);
    return 1;
  }
  return 0;
}

void print_usage() {
  std::puts(
      "usage: lehdc_serve <serve|pipe|genframes|decode|client> [flags]\n"
      "  serve     --model out.lhdp --uds /tmp/lehdc.sock\n"
      "            [--tcp HOST:PORT] (both listeners share one epoll loop;\n"
      "            SIGHUP hot-reloads the bundles; SIGINT/SIGTERM stop)\n"
      "            [--backlog N --max-connections N --idle-timeout-us N]\n"
      "            [--read-budget B --write-backlog B --max-inflight N]\n"
      "            [--online --flip-every N] (LSF2 feedback -> shadow\n"
      "            learner -> blue-green flips)\n"
      "            [--shadow-dir DIR] (restore <tenant>.lhon at startup,\n"
      "            save on SIGINT/SIGTERM shutdown)\n"
      "  pipe      --model out.lhdp --in requests.bin --out responses.bin\n"
      "            ('-' = stdin/stdout; same binary frame protocol)\n"
      "            [--online --flip-every N --shadow-dir DIR]\n"
      "  genframes --data <spec> --count N --out requests.bin\n"
      "            [--tenant id] [--corrupt N]\n"
      "            [--feedback-every K] (true-label LSF2 frames)\n"
      "  decode    --in responses.bin [--expect-ok N]\n"
      "  client    --socket /tmp/lehdc.sock --data <spec> --count N\n"
      "            [--feedback-every K] (send feedback, print acks)\n"
      "tenancy:  --models acme=a.lhdp,globex=b.lhdp --tenant acme\n"
      "batching: --max-batch 64 --max-wait-us 1000 --queue-capacity 1024\n"
      "          --tenant-capacity 0 (per-tenant admission cap)\n"
      "data specs: csv:<path> | idx:<images>:<labels> | synth:<profile>\n"
      "run `lehdc_serve <command> --help` for the full flag list");
}

int run_command(const std::string& command, util::FlagParser& flags) {
  if (command == "serve") {
    return cmd_serve(flags);
  }
  if (command == "pipe") {
    return cmd_pipe(flags);
  }
  if (command == "genframes") {
    return cmd_genframes(flags);
  }
  if (command == "decode") {
    return cmd_decode(flags);
  }
  if (command == "client") {
    return cmd_client(flags);
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  print_usage();
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    print_usage();
    return argc < 2 ? 1 : 0;
  }
  const std::string command = argv[1];

  util::FlagParser flags("lehdc_serve " + command,
                         "Micro-batching HDC inference server");
  flags.add_string("model", "", "pipeline bundle path (.lhdp)");
  flags.add_string("models", "",
                   "multi-tenant bundles: tenant=path[,tenant=path...] "
                   "(first listed is the default tenant; overrides --model)");
  flags.add_string("tenant", "",
                   "tenant id stamped into generated frames "
                   "(empty = server default)");
  flags.add_int("corrupt", 0,
                "genframes: append N malformed frames after the valid ones");
  flags.add_int("tenant-capacity", 0,
                "per-tenant queue admission limit (0 = only the total cap)");
  flags.add_string("socket", "/tmp/lehdc.sock",
                   "unix socket path (legacy alias for --uds)");
  flags.add_string("uds", "", "AF_UNIX listener path (empty = --socket "
                   "unless --tcp was given)");
  flags.add_string("tcp", "", "TCP listener/target as HOST:PORT");
  flags.add_int("backlog", 128, "listen(2) backlog per listener");
  flags.add_int("max-connections", 4096,
                "accepted-connection cap (beyond: accept and close)");
  flags.add_int("idle-timeout-us", 60000000,
                "close a connection after this long without read/write "
                "progress (0 = never)");
  flags.add_int("read-budget", 65536,
                "bytes read per connection per event-loop turn");
  flags.add_int("write-backlog", 1048576,
                "per-connection response backlog bytes before typed "
                "kQueueFull shedding");
  flags.add_int("max-inflight", 256,
                "per-connection submitted-but-unanswered request cap");
  flags.add_string("in", "-", "request/response frame input ('-' = stdin)");
  flags.add_string("out", "-", "frame output path ('-' = stdout)");
  flags.add_string("data", "synth:mnist", "data spec (see --help)");
  flags.add_int("count", 0, "samples to encode as requests (0 = all)");
  flags.add_int("deadline-us", 0,
                "per-request deadline budget in microseconds (0 = none)");
  flags.add_int("max-batch", 64, "micro-batch flush size");
  flags.add_int("max-wait-us", 1000, "micro-batch flush deadline");
  flags.add_int("queue-capacity", 1024,
                "bounded queue admission limit (overload sheds)");
  flags.add_int("window", 256, "pipe mode: requests submitted ahead of "
                "responses (drives batch formation)");
  flags.add_int("expect-ok", -1,
                "decode: fail unless exactly N ok responses (-1 disables)");
  flags.add_int("threads", 0,
                "worker threads (0 = LEHDC_THREADS env var, then hardware)");
  flags.add_int("seed", 1, "data spec seed");
  flags.add_flag("online",
                 "serve/pipe: attach the online-learning sidecar (LSF2 "
                 "feedback -> shadow learner -> blue-green flips)");
  flags.add_int("flip-every", 64,
                "online: attempt a blue-green flip every N shadow updates");
  flags.add_string("shadow-dir", "",
                   "online: directory of per-tenant shadow-learner "
                   "snapshots (<tenant>.lhon) restored at startup and "
                   "saved at shutdown (empty = no persistence)");
  flags.add_int("feedback-every", 0,
                "genframes/client: send a true-label LSF2 feedback frame "
                "after every Kth request (0 = never)");
  flags.add_double("scale", 0.05, "synthetic profile sample scale");
  flags.add_string("metrics-out", "",
                   "write a metrics JSON snapshot here on exit");

  try {
    flags.parse(argc - 1, argv + 1);
    if (const auto threads = flags.get_int("threads"); threads > 0) {
      util::ThreadPool::configure_global(static_cast<std::size_t>(threads));
    }
    if (const std::string env_path = obs::init_from_env();
        !env_path.empty() || !flags.get_string("metrics-out").empty()) {
      obs::set_enabled(true);
    }
    return run_command(command, flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
