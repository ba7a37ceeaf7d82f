#include "serve/transport/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/transport/socket.hpp"
#include "util/log.hpp"

namespace lehdc::serve::transport {

namespace {

/// Per-connection lifetime byte totals need byte-scaled bounds, not the
/// registry's default wall-time buckets: powers of four from 64 B to
/// 64 MiB (plus overflow).
constexpr std::array<double, 11> kByteBuckets = {
    64.0,      256.0,      1024.0,      4096.0,
    16384.0,   65536.0,    262144.0,    1048576.0,
    4194304.0, 16777216.0, 67108864.0,
};

struct ConnMetrics {
  obs::Counter& accepted;
  obs::Counter& closed;
  obs::Gauge& active;
  obs::Counter& read_stalls;
  obs::Counter& write_stalls;
  obs::Histogram& bytes_read;
  obs::Histogram& bytes_written;
};

ConnMetrics& conn_metrics() {
  auto& registry = obs::Registry::global();
  static ConnMetrics metrics{
      registry.counter("serve.conn.accepted"),
      registry.counter("serve.conn.closed"),
      registry.gauge("serve.conn.active"),
      registry.counter("serve.conn.read_stalls"),
      registry.counter("serve.conn.write_stalls"),
      registry.histogram("serve.conn.bytes_read", kByteBuckets),
      registry.histogram("serve.conn.bytes_written", kByteBuckets),
  };
  return metrics;
}

}  // namespace

EventLoop::EventLoop(InferenceServer& server, const EventLoopConfig& config)
    : server_(server), config_(config) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") +
                             std::strerror(errno));
  }
}

EventLoop::~EventLoop() {
  for (const auto& [fd, state] : connections_) {
    ::close(fd);
  }
  for (const int fd : listeners_) {
    ::close(fd);
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
}

std::uint64_t EventLoop::now_us() { return server_.clock().now_us(); }

void EventLoop::add_listener(int fd) {
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
    throw std::runtime_error(std::string("epoll_ctl(listener): ") +
                             std::strerror(errno));
  }
  listeners_.insert(fd);
}

std::size_t EventLoop::inflight_total() const noexcept {
  std::size_t total = 0;
  for (const auto& [fd, state] : connections_) {
    total += state->conn.inflight_count();
  }
  return total;
}

int EventLoop::clamp_wait(int max_wait_ms) {
  int wait = std::max(0, max_wait_ms);
  if (inflight_total() > 0) {
    // Futures complete without an fd event; stay responsive. Under
    // manual dispatch virtual time only moves between turns, so never
    // block at all.
    wait = std::min(wait, server_.config().manual_dispatch ? 0 : 1);
  }
  if (wait == 0) {
    return 0;
  }
  std::uint64_t next_idle = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [fd, state] : connections_) {
    next_idle = std::min(next_idle, state->conn.idle_deadline_us());
  }
  if (next_idle != std::numeric_limits<std::uint64_t>::max()) {
    const std::uint64_t now = now_us();
    const std::uint64_t gap_ms =
        next_idle <= now ? 0 : (next_idle - now) / 1000 + 1;
    wait = static_cast<int>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(wait), gap_ms));
  }
  return wait;
}

std::size_t EventLoop::poll_once(int max_wait_ms) {
  if (server_.config().manual_dispatch) {
    server_.run_until_idle();
  }

  // Phase 1: drain ready responses into write backlogs and flush what
  // the kernel will take right now, so a turn that produced results
  // doesn't wait a whole epoll round to ship them.
  std::size_t work = 0;
  std::vector<int> doomed;
  for (auto& [fd, state] : connections_) {
    work += state->conn.pump_responses(now_us());
    if (!state->conn.pending_write().empty() && !write_ready(*state)) {
      doomed.push_back(fd);
      continue;
    }
    if (state->conn.done()) {
      doomed.push_back(fd);
      continue;
    }
    update_interest(*state);
  }
  for (const int fd : doomed) {
    close_connection(fd, nullptr);
  }
  doomed.clear();

  // Phase 2: fd events.
  std::array<epoll_event, 64> events{};
  const int n = ::epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()),
                             clamp_wait(max_wait_ms));
  if (n < 0) {
    if (errno == EINTR) {
      return work;
    }
    throw std::runtime_error(std::string("epoll_wait: ") +
                             std::strerror(errno));
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[static_cast<std::size_t>(i)].data.fd;
    const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
    if (listeners_.count(fd) != 0) {
      accept_ready(fd);
      ++work;
      continue;
    }
    const auto it = connections_.find(fd);
    if (it == connections_.end()) {
      continue;  // closed earlier this turn
    }
    ConnState& state = *it->second;
    ++work;
    if ((mask & (EPOLLERR | EPOLLHUP)) != 0 &&
        (mask & (EPOLLIN | EPOLLOUT)) == 0) {
      // Peer vanished with nothing left to read or write.
      close_connection(fd, "peer hung up");
      continue;
    }
    if ((mask & EPOLLIN) != 0) {
      read_ready(state);
      if (connections_.count(fd) == 0) {
        continue;
      }
    }
    if ((mask & EPOLLOUT) != 0 && !write_ready(state)) {
      close_connection(fd, "write failed");
      continue;
    }
    if (state.conn.done()) {
      close_connection(fd, nullptr);
      continue;
    }
    update_interest(state);
  }

  // Phase 3: manual dispatch may now have due work from this turn's
  // submissions; resolve it so the next pump pass ships the responses.
  if (server_.config().manual_dispatch) {
    server_.run_until_idle();
  }

  // Phase 4: idle sweep.
  const std::uint64_t now = now_us();
  for (const auto& [fd, state] : connections_) {
    if (state->conn.idle_expired(now)) {
      doomed.push_back(fd);
    }
  }
  for (const int fd : doomed) {
    close_connection(fd, "idle timeout");
  }
  return work;
}

void EventLoop::accept_ready(int listener_fd) {
  while (true) {
    const int fd = accept_connection(listener_fd);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      // ECONNABORTED and friends: the would-be peer is already gone;
      // EMFILE/ENFILE: out of descriptors — either way keep serving the
      // connections we have.
      util::log_warn(std::string("accept: ") + std::strerror(errno));
      return;
    }
    ++accepted_total_;
    conn_metrics().accepted.add();
    if (connections_.size() >= config_.max_connections) {
      ::close(fd);
      ++closed_total_;
      conn_metrics().closed.add();
      continue;
    }
    auto state = std::make_unique<ConnState>(
        fd, next_id_++, server_, config_.connection, now_us());
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      util::log_warn(std::string("epoll_ctl(add): ") +
                     std::strerror(errno));
      ::close(fd);
      ++closed_total_;
      conn_metrics().closed.add();
      continue;
    }
    state->interest = EPOLLIN;
    connections_.emplace(fd, std::move(state));
    conn_metrics().active.set(static_cast<double>(connections_.size()));
  }
}

void EventLoop::read_ready(ConnState& state) {
  std::array<char, 64 * 1024> buffer{};
  std::size_t budget = config_.connection.read_budget_bytes;
  while (budget > 0 && state.conn.wants_read()) {
    const std::size_t want = std::min(buffer.size(), budget);
    const ssize_t n = ::read(state.fd, buffer.data(), want);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      close_connection(state.fd, "read failed");
      return;
    }
    if (n == 0) {
      state.conn.on_eof();
      return;
    }
    budget -= static_cast<std::size_t>(n);
    if (!state.conn.on_bytes(
            {buffer.data(), static_cast<std::size_t>(n)}, now_us())) {
      util::log_warn("closing connection " +
                     std::to_string(state.conn.id()) + ": " +
                     state.conn.last_error());
      close_connection(state.fd, nullptr);
      return;
    }
    if (static_cast<std::size_t>(n) < want) {
      return;  // socket drained
    }
    // Budget exhausted with bytes possibly left: level-triggered epoll
    // re-reports this fd next turn, after every other connection has had
    // its own turn — that is the fairness bound.
  }
}

bool EventLoop::write_ready(ConnState& state) {
  while (true) {
    const std::string_view pending = state.conn.pending_write();
    if (pending.empty()) {
      return true;
    }
    // MSG_NOSIGNAL: a peer that closed mid-response must surface as EPIPE
    // here, not as a process-wide SIGPIPE.
    const ssize_t n = ::send(state.fd, pending.data(), pending.size(),
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        conn_metrics().write_stalls.add();
        return true;  // kernel buffer full; EPOLLOUT resumes us
      }
      return false;
    }
    state.conn.on_written(static_cast<std::size_t>(n), now_us());
  }
}

void EventLoop::update_interest(ConnState& state) {
  std::uint32_t want = 0;
  if (state.conn.wants_read()) {
    want |= EPOLLIN;
  }
  if (!state.conn.pending_write().empty()) {
    want |= EPOLLOUT;
  }
  if (want == state.interest) {
    return;
  }
  if ((state.interest & EPOLLIN) != 0 && (want & EPOLLIN) == 0 &&
      !state.conn.done()) {
    // Transition into read backpressure: caps hit, kernel (and then the
    // peer) hold the bytes until the backlog drains.
    conn_metrics().read_stalls.add();
  }
  epoll_event event{};
  event.events = want;
  event.data.fd = state.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, state.fd, &event) < 0) {
    util::log_warn(std::string("epoll_ctl(mod): ") + std::strerror(errno));
    return;
  }
  state.interest = want;
}

void EventLoop::close_connection(int fd, const char* reason) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) {
    return;
  }
  const Connection& conn = it->second->conn;
  if (reason != nullptr) {
    util::log_debug("closing connection " + std::to_string(conn.id()) +
                    ": " + reason);
  }
  conn_metrics().bytes_read.observe(static_cast<double>(conn.bytes_read()));
  conn_metrics().bytes_written.observe(
      static_cast<double>(conn.bytes_written()));
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  ++closed_total_;
  conn_metrics().closed.add();
  conn_metrics().active.set(static_cast<double>(connections_.size()));
}

}  // namespace lehdc::serve::transport
