#include "obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/stringutil.h"

namespace disc {

namespace {

/// %XX and '+' decoding for query strings; invalid escapes pass through.
std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      const char hex[3] = {s[i + 1], s[i + 2], 0};
      out += static_cast<char>(std::strtol(hex, nullptr, 16));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 414: return "URI Too Long";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// Sends the whole buffer, tolerating short writes. SIGPIPE suppressed per
/// call (MSG_NOSIGNAL) so a vanished client never kills the process.
void SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // timeout or peer gone; nothing to salvage
    sent += static_cast<std::size_t>(n);
  }
}

void WriteResponse(int fd, const HttpResponse& response, bool head_only) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                              StatusText(response.status));
  out += "Content-Type: " + response.content_type + "\r\n";
  out += StrFormat("Content-Length: %zu\r\n", response.body.size());
  out += "Connection: close\r\n\r\n";
  if (!head_only) out += response.body;
  SendAll(fd, out);
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  return HttpResponse::Json(
      StrFormat("{\"error\":\"%s\",\"status\":%d}\n", message.c_str(), status),
      status);
}

}  // namespace

HttpResponse HttpResponse::Json(std::string body, int status) {
  HttpResponse r;
  r.status = status;
  r.content_type = "application/json; charset=utf-8";
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::Text(std::string body, int status) {
  HttpResponse r;
  r.status = status;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = std::move(body);
  return r;
}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string path, HttpHandler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("http server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::Internal(
        StrFormat("bind(%s:%u): %s", options_.bind_address.c_str(),
                  static_cast<unsigned>(options_.port),
                  std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    Status status =
        Status::Internal(std::string("listen(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  workers_ = std::make_unique<ThreadPool>(
      std::max<std::size_t>(options_.worker_threads, 1),
      /*queue_capacity=*/128);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  listener_ = std::thread([this] { ListenLoop(); });
  DISC_LOG(INFO)
      .Str("bind", options_.bind_address)
      .Uint("port", port_)
      .Uint("workers", workers_->size())
      << "observability http server listening";
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (listener_.joinable()) listener_.join();
  // Drain in-flight + queued connections before the socket closes: every
  // accepted client gets its response (graceful shutdown contract).
  workers_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  DISC_LOG(INFO).Uint("port", port_) << "observability http server stopped";
}

void HttpServer::ListenLoop() {
  FaultInjector::Site* fault_accept = FaultSiteFor("http.accept");
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/250);
    if (ready <= 0) continue;  // tick (or EINTR): re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Fault site: an injected accept-path error drops the connection as a
    // transient accept failure would (client sees a reset, listener lives).
    if (fault_accept != nullptr && !fault_accept->Hit().ok()) {
      ::close(fd);
      continue;
    }
    timeval timeout{options_.io_timeout_seconds, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    // Submit may block briefly when all workers are busy and the queue is
    // full — natural backpressure; the listener resumes accepting as soon
    // as a slot frees. Request metering happens post-parse in
    // ServeConnection, where the path label is known.
    workers_->Submit([this, fd] { ServeConnection(fd); });
  }
}

void HttpServer::ServeConnection(int fd) {
  FaultInjector::Site* fault_read = FaultSiteFor("http.read");
  std::string head;
  head.reserve(512);
  bool complete = false;
  bool timed_out = false;
  // The whole header phase shares one wall-clock budget: a slow-loris
  // client dripping one byte per recv resets the per-recv socket timeout
  // every time, so the bound must live above the recv loop.
  const auto read_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.header_read_timeout_ms);
  while (head.size() < options_.max_request_bytes) {
    // Fault site: an injected error aborts the read like a reset; a
    // latency fault here consumes header budget, deterministically
    // driving the connection into the 408 path below.
    if (fault_read != nullptr && !fault_read->Hit().ok()) {
      ::close(fd);
      return;
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            read_deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      timed_out = true;
      break;
    }
    char buf[1024];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // timeout, reset, or EOF before end of headers
    head.append(buf, static_cast<std::size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }

  HttpResponse response;
  bool head_only = false;
  std::string path_label = "other";
  if (!complete) {
    if (timed_out) {
      response = ErrorResponse(408, "request header read timed out");
    } else if (head.empty()) {
      ::close(fd);
      return;  // client connected and went away; nothing to answer
    } else {
      // Oversized request: 414 when even the request line never ended,
      // 431 when the line was fine but the header block overflowed the cap.
      response = head.find('\n') == std::string::npos
                     ? ErrorResponse(414, "request line too long")
                     : ErrorResponse(431, "request headers too large");
    }
  } else {
    const std::size_t line_end = head.find("\r\n");
    const std::string request_line =
        head.substr(0, line_end == std::string::npos ? head.find('\n')
                                                     : line_end);
    HttpRequest request;
    {
      const std::size_t sp1 = request_line.find(' ');
      const std::size_t sp2 =
          sp1 == std::string::npos ? std::string::npos
                                   : request_line.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) {
        request.method = request_line.substr(0, sp1);
        std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
        const std::size_t qmark = target.find('?');
        request.path = UrlDecode(target.substr(0, qmark));
        if (qmark != std::string::npos) {
          for (const std::string& pair :
               Split(target.substr(qmark + 1), '&')) {
            const std::size_t eq = pair.find('=');
            if (eq == std::string::npos) {
              request.query[UrlDecode(pair)] = "";
            } else {
              request.query[UrlDecode(pair.substr(0, eq))] =
                  UrlDecode(pair.substr(eq + 1));
            }
          }
        }
      }
    }

    if (request.method.empty() || request.path.empty()) {
      response = ErrorResponse(400, "malformed request line");
    } else if (request.method != "GET" && request.method != "HEAD") {
      response = ErrorResponse(405, "only GET is supported");
    } else {
      head_only = request.method == "HEAD";
      auto it = handlers_.find(request.path);
      if (it == handlers_.end()) {
        response = ErrorResponse(404, "no such endpoint");
      } else {
        path_label = request.path;  // registered route: bounded label set
        response = it->second(request);
      }
    }
  }

  // Path-labeled traffic counters. The label set is bounded by design:
  // only registered routes get their own series; everything else —
  // unknown paths, malformed or timed-out requests — pools under "other",
  // so a URL-scanning client cannot mint unbounded series.
  if (MetricsRegistry* registry = GlobalMetrics()) {
    const std::string suffix =
        "{path=\"" + PromEscapeLabelValue(path_label) + "\"}";
    if (Counter* requests = registry->GetCounter(
            "disc_http_requests_total" + suffix,
            "HTTP requests served by the observability server, by route")) {
      requests->Add(1);
    }
    if (response.status >= 400) {
      if (Counter* errors = registry->GetCounter(
              "disc_http_errors_total" + suffix,
              "HTTP responses with status >= 400, by route")) {
        errors->Add(1);
      }
    }
  }
  WriteResponse(fd, response, head_only);
  ::close(fd);
}

}  // namespace disc
