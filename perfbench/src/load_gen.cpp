#include "load_gen.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "serve/framing.hpp"
#include "serve/protocol.hpp"
#include "serve/transport/socket.hpp"

namespace perfbench {

namespace {

using lehdc::serve::FrameDecoder;
using lehdc::serve::Reject;
using lehdc::serve::Response;

struct Expected {
  bool feedback = false;
  std::uint64_t id = 0;
  std::size_t request = 0;
  double t_ref = 0.0;  // latency reference instant
};

struct Conn {
  int fd = -1;
  bool dead = false;
  FrameDecoder decoder = lehdc::serve::make_response_decoder("perfbench");
  std::string out;
  std::size_t out_offset = 0;
  std::deque<Expected> expected;
};

bool typed_feedback_status(Reject status) {
  return status == Reject::kNone || status == Reject::kUnknownCorrelation ||
         status == Reject::kQueueFull || status == Reject::kBadRequest;
}

class Generator {
 public:
  Generator(const LoadPlan& plan, LoadResult& result)
      : plan_(plan), result_(result) {
    result_.labels.assign(plan.requests, -1);
    conns_.resize(plan.connections);
    for (Conn& conn : conns_) {
      conn.fd = lehdc::serve::transport::connect_tcp("127.0.0.1", plan.port,
                                                     /*nonblocking=*/true);
      const int one = 1;
      if (::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one,
                       sizeof(one)) != 0) {
        throw std::runtime_error(std::string("TCP_NODELAY: ") +
                                 std::strerror(errno));
      }
    }
  }

  ~Generator() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) {
        ::close(conn.fd);
      }
    }
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void run() {
    start_ = now_s();
    if (plan_.closed_loop) {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        for (std::size_t w = 0; w < plan_.window && next_ < plan_.requests;
             ++w) {
          send_request(c, now_s());
        }
      }
    }
    double drain_deadline = 0.0;
    for (;;) {
      const double now = now_s();
      if (!plan_.closed_loop) {
        while (next_ < plan_.requests && due(next_) <= now) {
          result_.lag_ms.add((now - due(next_)) * 1e3);
          send_request(next_ % conns_.size(), due(next_));
        }
      }
      flush_all();
      const bool sending_done = next_ >= plan_.requests;
      if (sending_done && outstanding() == 0) {
        break;
      }
      if (sending_done && drain_deadline == 0.0) {
        drain_deadline = now + plan_.drain_timeout_s;
      }
      if (sending_done && now >= drain_deadline) {
        break;
      }
      double wait_s = sending_done ? drain_deadline - now : 0.25;
      if (!plan_.closed_loop && !sending_done) {
        wait_s = std::max(0.0, due(next_) - now);
      }
      wait(wait_s);
    }
    finish();
  }

 private:
  [[nodiscard]] double due(std::size_t i) const {
    return start_ + static_cast<double>(i) / plan_.rate_rps;
  }

  [[nodiscard]] std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Conn& conn : conns_) {
      n += conn.dead ? 0 : conn.expected.size();
    }
    return n;
  }

  void error(const std::string& what) {
    if (result_.errors.size() < 16) {
      result_.errors.push_back(what);
    }
  }

  void send_request(std::size_t c, double t_ref) {
    const std::size_t i = next_++;
    lehdc::serve::WireRequest request;
    request.id = plan_.id_base + i;
    request.features = (*plan_.pool)[plan_.order[i % plan_.order.size()]];
    Conn& conn = conns_[c];
    conn.out += lehdc::serve::encode_request(request);
    conn.expected.push_back(Expected{false, request.id, i, t_ref});
    ++result_.sent;
  }

  void send_feedback(Conn& conn, const Expected& answered, double now) {
    lehdc::serve::WireFeedback feedback;
    feedback.id = answered.id;
    feedback.label = (*plan_.feedback_labels)[plan_.order[answered.request %
                                                      plan_.order.size()]];
    conn.out += lehdc::serve::encode_feedback(feedback);
    conn.expected.push_back(Expected{true, feedback.id, answered.request, now});
    ++result_.feedback_sent;
  }

  void flush_all() {
    for (Conn& conn : conns_) {
      while (!conn.dead && conn.out_offset < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.out_offset,
                   conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_offset += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          error(std::string("send failed: ") + std::strerror(errno));
          conn.dead = true;
        }
      }
      if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
      }
    }
  }

  void wait(double wait_s) {
    std::vector<pollfd> fds;
    fds.reserve(conns_.size());
    for (const Conn& conn : conns_) {
      pollfd p{};
      p.fd = conn.dead ? -1 : conn.fd;
      p.events = POLLIN;
      if (conn.out_offset < conn.out.size()) {
        p.events |= POLLOUT;
      }
      fds.push_back(p);
    }
    timespec timeout{};
    const double clamped = std::max(0.0, wait_s);
    timeout.tv_sec = static_cast<time_t>(clamped);
    timeout.tv_nsec = static_cast<long>(
        (clamped - static_cast<double>(timeout.tv_sec)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0) {
      if (errno != EINTR) {
        throw std::runtime_error(std::string("ppoll: ") +
                                 std::strerror(errno));
      }
      return;
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        read_ready(c);
      }
    }
  }

  void read_ready(std::size_t c) {
    Conn& conn = conns_[c];
    char buffer[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn.decoder.feed(std::string_view(buffer, static_cast<size_t>(n)));
        try {
          FrameDecoder::Frame frame;
          while (conn.decoder.next(&frame)) {
            on_response(c, lehdc::serve::decode_response_payload(
                               frame.payload, frame.version, "perfbench"));
          }
        } catch (const std::exception& e) {
          error(std::string("bad response frame: ") + e.what());
          conn.dead = true;
          return;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      error(n == 0 ? "server closed a connection"
                   : std::string("recv failed: ") + std::strerror(errno));
      conn.dead = true;
      return;
    }
  }

  void on_response(std::size_t c, const Response& response) {
    Conn& conn = conns_[c];
    const double now = now_s();
    if (conn.expected.empty()) {
      error("response id " + std::to_string(response.id) +
            " with nothing outstanding");
      return;
    }
    const Expected head = conn.expected.front();
    conn.expected.pop_front();
    if (response.id != head.id) {
      error("out-of-order response: expected id " + std::to_string(head.id) +
            ", got " + std::to_string(response.id));
    }
    if (head.feedback) {
      ++result_.acks;
      result_.ack_ms.add((now - head.t_ref) * 1e3);
      if (response.label != -1 || !typed_feedback_status(response.error)) {
        error("feedback ack for id " + std::to_string(head.id) +
              " is not a typed ack");
      }
      if (!response.ok()) {
        ++result_.ack_rejected;
      }
      return;
    }
    const bool measured = head.request >= plan_.warmup;
    if (response.ok()) {
      ++result_.ok;
      result_.labels[head.request] = response.label;
      if (measured && !plan_.closed_loop) {
        result_.latency_ms.add((now - head.t_ref) * 1e3);
      }
      if (plan_.feedback_every > 0 && result_.ok % plan_.feedback_every == 0) {
        send_feedback(conn, head, now);
      }
    } else {
      ++result_.rejected;
      if (measured && !plan_.closed_loop) {
        result_.latency_ms.add(kMissLatencyMs);
      }
    }
    if (plan_.closed_loop) {
      ++closed_answered_;
      if (closed_answered_ == plan_.warmup) {
        window_start_ = now;
      }
      window_end_ = now;
      if (next_ < plan_.requests) {
        send_request(c, now);
      }
    }
  }

  void finish() {
    for (Conn& conn : conns_) {
      for (const Expected& left : conn.expected) {
        if (left.feedback) {
          error("feedback id " + std::to_string(left.id) + " never acked");
          continue;
        }
        ++result_.missing;
        if (left.request >= plan_.warmup && !plan_.closed_loop) {
          result_.latency_ms.add(kMissLatencyMs);
        }
      }
    }
    if (result_.sent < plan_.requests) {
      result_.missing += plan_.requests - result_.sent;
    }
    if (plan_.closed_loop && closed_answered_ > plan_.warmup &&
        window_end_ > window_start_) {
      result_.rps = static_cast<double>(closed_answered_ - plan_.warmup) /
                    (window_end_ - window_start_);
    }
  }

  const LoadPlan& plan_;
  LoadResult& result_;
  std::vector<Conn> conns_;
  std::size_t next_ = 0;
  double start_ = 0.0;
  std::size_t closed_answered_ = 0;
  double window_start_ = 0.0;
  double window_end_ = 0.0;
};

}  // namespace

LoadResult run_load(const LoadPlan& plan) {
  LoadResult result;
  Generator generator(plan, result);
  generator.run();
  return result;
}

}  // namespace perfbench
