#include "serve/transport/socket.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace lehdc::serve::transport {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl(O_NONBLOCK)");
  }
}

void set_cloexec(int fd) {
  if (::fcntl(fd, F_SETFD, FD_CLOEXEC) < 0) {
    fail("fcntl(FD_CLOEXEC)");
  }
}

struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  int release() {
    const int out = fd;
    fd = -1;
    return out;
  }
};

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

int listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = unix_address(path);
  FdGuard guard{::socket(AF_UNIX, SOCK_STREAM, 0)};
  if (guard.fd < 0) {
    fail("socket(AF_UNIX)");
  }
  set_cloexec(guard.fd);
  // A previous server that crashed leaves its socket file behind and
  // bind() would fail with EADDRINUSE forever; a fresh listener owns the
  // path, so removing the stale node is always correct here.
  ::unlink(path.c_str());
  if (::bind(guard.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    fail("bind(" + path + ")");
  }
  if (::listen(guard.fd, backlog) < 0) {
    fail("listen(" + path + ")");
  }
  set_nonblocking(guard.fd);
  return guard.release();
}

int listen_tcp(const std::string& host, std::uint16_t port, int backlog) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &results);
  if (rc != 0) {
    throw std::runtime_error("getaddrinfo(" + host + "): " +
                             ::gai_strerror(rc));
  }
  std::string error = "no usable address for " + host;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    FdGuard guard{::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol)};
    if (guard.fd < 0) {
      continue;
    }
    set_cloexec(guard.fd);
    const int one = 1;
    ::setsockopt(guard.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(guard.fd, ai->ai_addr, ai->ai_addrlen) < 0 ||
        ::listen(guard.fd, backlog) < 0) {
      error = std::string("bind/listen(") + host + "): " +
              std::strerror(errno);
      continue;
    }
    set_nonblocking(guard.fd);
    ::freeaddrinfo(results);
    return guard.release();
  }
  ::freeaddrinfo(results);
  throw std::runtime_error(error);
}

std::uint16_t local_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    fail("getsockname");
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  throw std::runtime_error("local_port: not an inet socket");
}

int connect_unix(const std::string& path, bool nonblocking) {
  const sockaddr_un addr = unix_address(path);
  FdGuard guard{::socket(AF_UNIX, SOCK_STREAM, 0)};
  if (guard.fd < 0) {
    fail("socket(AF_UNIX)");
  }
  set_cloexec(guard.fd);
  int rc = 0;
  do {
    rc = ::connect(guard.fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    fail("connect(" + path + ")");
  }
  if (nonblocking) {
    set_nonblocking(guard.fd);
  }
  return guard.release();
}

int accept_connection(int listener_fd) noexcept {
  sockaddr_storage peer{};
  int fd = -1;
  do {
    socklen_t peer_len = sizeof(peer);
    fd = ::accept4(listener_fd, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                   SOCK_NONBLOCK | SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0 && (peer.ss_family == AF_INET || peer.ss_family == AF_INET6)) {
    // Best effort: without it the connection still carries the same bytes,
    // only later.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port,
                bool nonblocking) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  const int rc =
      ::getaddrinfo(host.c_str(), service.c_str(), &hints, &results);
  if (rc != 0) {
    throw std::runtime_error("getaddrinfo(" + host + "): " +
                             ::gai_strerror(rc));
  }
  std::string error = "no usable address for " + host;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    FdGuard guard{::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol)};
    if (guard.fd < 0) {
      continue;
    }
    set_cloexec(guard.fd);
    int crc = 0;
    do {
      crc = ::connect(guard.fd, ai->ai_addr, ai->ai_addrlen);
    } while (crc < 0 && errno == EINTR);
    if (crc < 0) {
      error = "connect(" + host + ":" + service + "): " +
              std::strerror(errno);
      continue;
    }
    if (nonblocking) {
      set_nonblocking(guard.fd);
    }
    ::freeaddrinfo(results);
    return guard.release();
  }
  ::freeaddrinfo(results);
  throw std::runtime_error(error);
}

HostPort parse_host_port(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) {
    throw std::runtime_error("expected HOST:PORT, got \"" + spec + "\"");
  }
  HostPort out;
  out.host = spec.substr(0, colon);
  if (out.host.size() >= 2 && out.host.front() == '[' &&
      out.host.back() == ']') {
    out.host = out.host.substr(1, out.host.size() - 2);
  }
  const std::string port = spec.substr(colon + 1);
  std::uint32_t value = 0;
  for (const char c : port) {
    if (c < '0' || c > '9' || value > 65535) {
      throw std::runtime_error("bad port in \"" + spec + "\"");
    }
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (value == 0 || value > 65535) {
    throw std::runtime_error("bad port in \"" + spec + "\"");
  }
  out.port = static_cast<std::uint16_t>(value);
  return out;
}

}  // namespace lehdc::serve::transport
