// Socket setup helpers shared by the serve tool, the bench load
// generator and the transport tests.
//
// Everything here is the boring-but-sharp part of BSD sockets: listener
// hygiene (unlink a stale AF_UNIX path before bind, SO_REUSEADDR on TCP,
// EINTR-safe calls, close-on-exec), explicit backlog, and non-blocking
// mode set at creation so an fd can go straight into the epoll loop.
// All functions throw std::runtime_error carrying strerror(errno) context
// on failure; none of them retries transient accept/read conditions —
// that is the event loop's job.
#pragma once

#include <cstdint>
#include <string>

namespace lehdc::serve::transport {

/// Creates a non-blocking AF_UNIX listener on `path`. Any stale socket
/// file at `path` is unlinked first, so a crashed previous server never
/// wedges the next bind.
[[nodiscard]] int listen_unix(const std::string& path, int backlog);

/// Creates a non-blocking AF_INET/AF_INET6 listener on host:port with
/// SO_REUSEADDR set (name resolution via getaddrinfo, so "localhost",
/// "0.0.0.0" and numeric IPv6 all work). `port` 0 lets the kernel pick;
/// read it back with local_port().
[[nodiscard]] int listen_tcp(const std::string& host, std::uint16_t port,
                             int backlog);

/// Port a bound socket actually listens on (for port-0 listeners).
[[nodiscard]] std::uint16_t local_port(int fd);

/// Accepts one pending connection on a listener as a non-blocking,
/// close-on-exec fd, retrying EINTR. TCP connections get TCP_NODELAY: the
/// server writes each response frame as soon as it is ready, and Nagle's
/// algorithm would hold a small frame back until the peer acknowledges the
/// previous one — a delayed-ACK stall of several milliseconds at low
/// request rates. AF_UNIX connections have no such option and are left
/// as accepted. Returns -1 with errno set when accept fails (EAGAIN when
/// nothing is pending); never throws.
[[nodiscard]] int accept_connection(int listener_fd) noexcept;

/// Client-side connect; `nonblocking` selects O_NONBLOCK *after* the
/// connect completes, so callers never see EINPROGRESS.
[[nodiscard]] int connect_unix(const std::string& path,
                               bool nonblocking = false);
[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port,
                              bool nonblocking = false);

/// Splits "HOST:PORT" (last colon wins, so bare IPv6 needs [brackets]).
/// Throws on a missing or non-numeric port.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};
[[nodiscard]] HostPort parse_host_port(const std::string& spec);

}  // namespace lehdc::serve::transport
