// Embedded HTTP/1.1 endpoint: a small, dependency-free (std + POSIX)
// poll(2) event loop on one background thread.
//
// Scope is deliberately narrow — the serving front end needs GET/HEAD
// with query strings, keep-alive, and exact Content-Type control; it
// does not need TLS, chunked bodies, or route templates. Handlers run
// on the server thread; they must be thread-safe against the
// application's other threads (the serving handlers only touch
// epoch-protected snapshots and thread-safe registries).
//
// Robustness rules: request heads are capped at max_request_bytes
// (oversized or malformed requests get a 4xx and the connection is
// closed), idle keep-alive connections are bounded by max_connections
// (accepts beyond it are refused), and partial writes are buffered and
// drained via POLLOUT. stop() (or destruction) wakes the loop through
// a self-pipe and joins the thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace netconst::serving {

/// Ordered name/value pairs whose slots survive clear(): refilling the
/// list reuses each string's capacity, so a request object that is
/// parsed into over and over stops allocating once warm.
class HttpFields {
 public:
  using Field = std::pair<std::string, std::string>;

  const Field* begin() const { return slots_.data(); }
  const Field* end() const { return slots_.data() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }
  /// The next slot, emptied (an old slot when one is free).
  Field& append();

 private:
  std::vector<Field> slots_;
  std::size_t size_ = 0;
};

struct HttpRequest {
  std::string method;  // as sent: "GET", "HEAD", ...
  std::string path;    // percent-decoded, no query string
  /// Query parameters in order of appearance, percent-decoded.
  HttpFields query;
  /// Header fields, names lower-cased, values without leading blanks.
  HttpFields headers;
  /// False when a `Connection: close` header asked to end the session.
  bool keep_alive = true;

  /// First value of a query parameter, or `fallback`.
  const std::string& query_value(std::string_view name,
                                 const std::string& fallback) const;
  bool has_query(std::string_view name) const;
};

/// Why parse_request() rejected a head; every error is answered 400.
enum class RequestError {
  None,
  /// The request line lacks the two spaces around the target.
  NoTarget,
  /// The text after the target does not start with "HTTP/".
  NotHttp,
};

/// Parse one request head (the bytes before the blank line that ends
/// it, without that CRLFCRLF) into `out`. Pure: no I/O and no state
/// beyond `out`, whose strings and field slots are reused, so parsing
/// into one long-lived request allocates nothing once its buffers have
/// grown to the traffic's sizes. On an error `out` is unspecified.
RequestError parse_request(std::string_view head, HttpRequest& out);

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Fills `response`, which arrives as a fresh 200 text/plain with an
/// empty body but keeps the capacity of earlier answers: assigning into
/// its strings instead of replacing them keeps a warm route
/// allocation-free.
using HttpHandler = std::function<void(const HttpRequest&, HttpResponse&)>;

struct HttpServerOptions {
  /// Loopback by default: the embedded endpoint is an operator /
  /// sidecar surface, not an internet listener.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral (read the outcome from port() after start()).
  std::uint16_t port = 0;
  std::size_t max_connections = 32;
  std::size_t max_request_bytes = 16 * 1024;
};

class HttpServer {
 public:
  using Options = HttpServerOptions;

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_refused = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t bad_requests = 0;
    std::uint64_t not_found = 0;
  };

  explicit HttpServer(const Options& options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register an exact-match route (before start()). GET and HEAD hit
  /// the same handler; HEAD responses drop the body automatically.
  void route(const std::string& path, HttpHandler handler);

  /// Bind, listen, and run the event loop on a background thread.
  /// Throws netconst::Error when the socket cannot be set up.
  void start();
  /// Idempotent and safe to call from multiple threads (one caller
  /// performs the join/cleanup, the rest wait); also called by the
  /// destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  Stats stats() const;

  /// Reason phrase for the few status codes the server emits.
  static const char* status_phrase(int status);

  /// One client connection's buffers. The event loop only moves bytes
  /// between a socket and these buffers; everything in between runs in
  /// service_input(), which tests and benches drive without sockets.
  struct Connection {
    int fd = -1;
    std::string input;   // bytes received, not yet answered
    std::string output;  // bytes pending write
    /// Set once an answer ends the session: the loop stops reading and
    /// closes after draining `output`.
    bool close_after_write = false;
  };

  /// Answer every complete request head in `connection.input` (any
  /// number, so pipelining works): frame, parse_request(), dispatch,
  /// and append the serialized responses to `connection.output`. The
  /// answered bytes leave `input` in one erase per call; an incomplete
  /// head stays for the next read, or is answered 413 once it exceeds
  /// max_request_bytes. Runs handlers on the calling thread with one
  /// request and one response object owned by the server, so it must
  /// never run on two threads at once: the event loop calls it while
  /// the server runs, anyone else only while it is stopped.
  void service_input(Connection& connection);

 private:
  void event_loop();
  void accept_connections();
  void dispatch(const HttpRequest& request, HttpResponse& response);

  Options options_;
  std::map<std::string, HttpHandler> routes_;
  /// Serializes stop() callers: without it, two threads passing the
  /// running() check would both join the thread and close the fds.
  std::mutex stop_mutex_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Connection*> connections_;
  /// Parse target and answer, reused by every service_input() call.
  HttpRequest request_;
  HttpResponse response_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> bad_{0};
  std::atomic<std::uint64_t> not_found_{0};
};

}  // namespace netconst::serving
