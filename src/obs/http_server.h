#ifndef DISC_OBS_HTTP_SERVER_H_
#define DISC_OBS_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/thread_pool.h"

namespace disc {

/// One parsed request. Only what the observability endpoints need: method,
/// decoded path, and the query parameters (`/statusz?logs=50`).
struct HttpRequest {
  std::string method;
  std::string path;                          ///< target up to '?'
  std::map<std::string, std::string> query;  ///< decoded key → value
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  static HttpResponse Json(std::string body, int status = 200);
  static HttpResponse Text(std::string body, int status = 200);
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Small, dependency-free HTTP/1.1 exposition server (DESIGN.md §8).
///
/// Scope: GET/HEAD on exact paths, `Connection: close`, bodies built in
/// memory — exactly what a Prometheus scrape or a `curl` health probe
/// needs, and nothing a production ingress would want beyond that. Not a
/// general web server; keep it off the open internet (binds 127.0.0.1 by
/// default).
///
/// Threading model: one listener thread polls the listening socket (250 ms
/// tick so Stop() is prompt) and hands each accepted connection to a small
/// bounded ThreadPool (`common/thread_pool`) — a slow or malicious client
/// stalls one worker, never the listener or the process. Handlers run on
/// worker threads concurrently with the save pipeline, so everything they
/// touch must be thread-safe (the metrics registry, the progress registry
/// and the log ring all are, by construction).
///
/// Shutdown ordering (mirrored in disc_cli's signal path): Stop() flips the
/// flag, joins the listener (no new connections), then drains the worker
/// pool (in-flight responses finish), then closes the listening socket.
/// Stop() is idempotent; the destructor calls it.
class HttpServer {
 public:
  struct Options {
    /// Interface to bind. Loopback by default: the exposition plane is for
    /// sidecar scrapers and operators on the host, not the open network.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (see port()).
    std::uint16_t port = 0;
    /// Worker threads answering requests.
    std::size_t worker_threads = 2;
    /// Cap on the request head (request line + headers). Longer requests
    /// are answered 414 (request line) / 431 (headers) and closed.
    std::size_t max_request_bytes = 8192;
    /// Per-connection socket read/write timeout.
    int io_timeout_seconds = 5;
    /// Wall-clock budget for reading the whole request head. A client that
    /// trickles bytes slower than this (slow loris) is answered 408 and
    /// closed — each drip resets a plain recv timeout, so the per-recv
    /// `io_timeout_seconds` alone cannot bound the header phase.
    int header_read_timeout_ms = 2000;
  };

  explicit HttpServer(Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match `path`. Must be called before
  /// Start(); handlers must be thread-safe.
  void Handle(std::string path, HttpHandler handler);

  /// Binds, listens and starts the listener thread + worker pool.
  Status Start();

  /// Graceful stop (see class comment). Idempotent, callable from any
  /// thread except a handler's own worker.
  void Stop();

  /// The bound port (resolves port 0 after Start()).
  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void ListenLoop();
  void ServeConnection(int fd);

  Options options_;
  std::map<std::string, HttpHandler> handlers_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread listener_;
  std::unique_ptr<ThreadPool> workers_;
};

}  // namespace disc

#endif  // DISC_OBS_HTTP_SERVER_H_
