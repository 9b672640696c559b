//===- serving/HttpMetricsServer.cpp - /metrics over HTTP -----------------===//
//
// Part of specpar, a reproduction of "Safe Programmable Speculative
// Parallelism" (PLDI 2010). MIT license.
//
//===----------------------------------------------------------------------===//

#include "serving/HttpMetricsServer.h"

#include "serving/ServerContext.h"

#include <arpa/inet.h>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

namespace specpar {
namespace serving {

namespace {

/// Writes all of \p Data to \p Fd, resuming after short writes and
/// EINTR (best effort beyond that; the peer may close). A large
/// /metrics body routinely exceeds the socket send buffer, so send()
/// returning less than requested — or -1/EINTR under a signal — is the
/// normal case, not an error.
void writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return;
    Off += static_cast<size_t>(N);
  }
}

/// How long one connection may take to deliver its request headers. The
/// accept loop serves connections one at a time, so without a bound one
/// client that connects and sends nothing wedges every later scrape and
/// `stop()`.
constexpr auto kRequestDeadline = std::chrono::seconds(1);

/// Reads until the header terminator (one request per connection, no
/// body expected on GET). Retries EINTR; bounded in size to keep a
/// misbehaving client cheap and in time by kRequestDeadline. Returns
/// false when the deadline passes before the headers are complete.
bool readRequest(int Fd, std::string &Req) {
  const auto Deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  char Buf[2048];
  while (Req.size() < 16 * 1024 &&
         Req.find("\r\n\r\n") == std::string::npos) {
    const auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
        Deadline - std::chrono::steady_clock::now());
    if (Left.count() <= 0)
      return false;
    pollfd P{Fd, POLLIN, 0};
    int Ready = ::poll(&P, 1, static_cast<int>(Left.count()));
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready <= 0)
      return false;
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Req.append(Buf, static_cast<size_t>(N));
  }
  return true;
}

/// Pulls the decimal `id` query parameter out of a
/// `GET /debug/trace?id=<n> HTTP/1.1` request line. False when the
/// parameter is missing, empty, non-numeric, or overflows.
bool parseTraceId(const std::string &Req, uint64_t &Id) {
  const size_t LineEnd = Req.find("\r\n");
  const std::string Line =
      Req.substr(0, LineEnd == std::string::npos ? Req.size() : LineEnd);
  const size_t Query = Line.find("?id=");
  if (Query == std::string::npos)
    return false;
  size_t Pos = Query + 4;
  if (Pos >= Line.size() || !std::isdigit(static_cast<unsigned char>(Line[Pos])))
    return false;
  uint64_t V = 0;
  for (; Pos < Line.size() &&
         std::isdigit(static_cast<unsigned char>(Line[Pos]));
       ++Pos) {
    const uint64_t Digit = static_cast<uint64_t>(Line[Pos] - '0');
    if (V > (UINT64_MAX - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  // The id must end the parameter: `?id=12x` or `?id=12&` with trailing
  // junk other than whitespace/& is rejected rather than half-parsed.
  if (Pos < Line.size() && Line[Pos] != ' ' && Line[Pos] != '&')
    return false;
  Id = V;
  return true;
}

} // namespace

HttpMetricsServer::HttpMetricsServer(ServerContext &Ctx, uint16_t Port)
    : Ctx(Ctx) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    throw std::runtime_error("metrics endpoint: socket() failed");
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 16) < 0) {
    ::close(Fd);
    throw std::runtime_error("metrics endpoint: bind/listen failed");
  }
  socklen_t Len = sizeof(Addr);
  ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  BoundPort = ntohs(Addr.sin_port);
  ListenFd.store(Fd, std::memory_order_release);
  Loop = std::thread([this] { acceptLoop(); });
}

HttpMetricsServer::~HttpMetricsServer() { stop(); }

void HttpMetricsServer::stop() {
  // Publish -1 first; the loop re-reads between polls and exits, so the
  // close below can never race an accept() on a live fd.
  int Fd = ListenFd.exchange(-1, std::memory_order_acq_rel);
  if (Fd < 0)
    return;
  if (Loop.joinable())
    Loop.join();
  ::close(Fd);
}

void HttpMetricsServer::acceptLoop() {
  const int Fd = ListenFd.load(std::memory_order_acquire);
  for (;;) {
    // Poll with a short timeout so stop() (which clears ListenFd) is
    // observed without needing to race close() against accept().
    pollfd P{Fd, POLLIN, 0};
    int Ready = ::poll(&P, 1, 50);
    if (ListenFd.load(std::memory_order_acquire) < 0)
      return;
    if (Ready <= 0 || !(P.revents & POLLIN))
      continue;
    int Client = ::accept(Fd, nullptr, nullptr);
    if (Client < 0)
      continue;
    std::string Req;
    if (!readRequest(Client, Req)) {
      ::close(Client);
      continue;
    }
    std::string Body, Status = "200 OK",
                       ContentType = "text/plain; version=0.0.4";
    if (Req.rfind("GET /metrics", 0) == 0) {
      Body = Ctx.metricsText();
    } else if (Req.rfind("GET /statusz", 0) == 0) {
      Body = Ctx.statusJson();
      ContentType = "application/json";
    } else if (Req.rfind("GET /debug/trace", 0) == 0) {
      uint64_t Id = 0;
      if (parseTraceId(Req, Id)) {
        if (Ctx.traceJson(Id, Body)) {
          ContentType = "application/json";
        } else {
          Status = "404 Not Found";
          Body = "trace " + std::to_string(Id) +
                 " not found (evicted from the flight recorders' retained "
                 "window, or never admitted)\n";
          ContentType = "text/plain";
        }
      } else {
        Status = "400 Bad Request";
        Body = "usage: /debug/trace?id=<TraceId>\n";
        ContentType = "text/plain";
      }
    } else if (Req.rfind("GET /healthz", 0) == 0) {
      // Real state, not a constant: a scraper must see a quarantined
      // shard (degraded, 503) and a shutting-down server (draining).
      const ServerHealth H = Ctx.health();
      Body = std::string(serverHealthName(H)) + "\n";
      if (H == ServerHealth::Degraded)
        Status = "503 Service Unavailable";
      ContentType = "text/plain";
    } else {
      Status = "404 Not Found";
      Body = "not found\n";
      ContentType = "text/plain";
    }
    std::string Resp = "HTTP/1.1 " + Status +
                       "\r\nContent-Type: " + ContentType +
                       "\r\nContent-Length: " + std::to_string(Body.size()) +
                       "\r\nConnection: close\r\n\r\n" + Body;
    writeAll(Client, Resp);
    ::close(Client);
  }
}

std::string HttpMetricsServer::get(uint16_t Port, const std::string &Path) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return "";
  }
  std::string Req = "GET " + Path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Connection: close\r\n\r\n";
  writeAll(Fd, Req);
  std::string Resp;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Resp.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  return Resp;
}

} // namespace serving
} // namespace specpar
