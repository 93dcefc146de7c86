// A minimal blocking HTTP/1.1 client over one keep-alive loopback
// connection — the benchmark's /plan query client.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpAnswer {
  int status = 0;
  std::string content_type;
  std::string body;
};

class KeepAliveClient {
 public:
  /// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit KeepAliveClient(std::uint16_t port);
  ~KeepAliveClient();

  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  /// GET `target` and read one response. Throws std::runtime_error
  /// when the connection fails or the response is malformed.
  HttpAnswer get(const std::string& target);

  /// Pipelining: queue() appends a GET of `target`, flush() sends every
  /// queued request in one write, read() returns the next response
  /// (Content-Length framed) in request order.
  void queue(const std::string& target);
  void flush();
  HttpAnswer read();

 private:
  void send_all(const std::string& bytes);
  /// Reads more bytes into buffer_; throws on EOF or error.
  void fill();

  int fd_ = -1;
  std::string request_;
  std::string buffer_;
};

}  // namespace perfbench
