#include "serving/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <iterator>

#include "support/error.hpp"

namespace netconst::serving {

HttpFields::Field& HttpFields::append() {
  if (size_ == slots_.size()) slots_.emplace_back();
  Field& field = slots_[size_++];
  field.first.clear();
  field.second.clear();
  return field;
}

const std::string& HttpRequest::query_value(
    std::string_view name, const std::string& fallback) const {
  for (const auto& [key, value] : query) {
    if (key == name) return value;
  }
  return fallback;
}

bool HttpRequest::has_query(std::string_view name) const {
  for (const auto& [key, value] : query) {
    if (key == name) return true;
  }
  return false;
}

namespace {

constexpr const char* kPlainText = "text/plain; charset=utf-8";

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

char lower_ascii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Case-insensitive match against a lower-case literal.
bool equals_lower(std::string_view text, std::string_view lower) {
  if (text.size() != lower.size()) return false;
  for (std::size_t k = 0; k < text.size(); ++k) {
    if (lower_ascii(text[k]) != lower[k]) return false;
  }
  return true;
}

int hex_value(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

/// Percent-decode `text` into `out`, replacing its contents; '+'
/// becomes a space (query-string convention) and a '%' without two hex
/// digits after it stays literal.
void url_decode(std::string_view text, std::string& out) {
  out.clear();
  for (std::size_t k = 0; k < text.size(); ++k) {
    const char c = text[k];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && k + 2 < text.size() &&
               hex_value(text[k + 1]) >= 0 && hex_value(text[k + 2]) >= 0) {
      out.push_back(static_cast<char>(hex_value(text[k + 1]) * 16 +
                                      hex_value(text[k + 2])));
      k += 2;
    } else {
      out.push_back(c);
    }
  }
}

template <typename Integer>
void append_decimal(std::string& out, Integer value) {
  char digits[24];
  const auto end = std::to_chars(digits, std::end(digits), value).ptr;
  out.append(digits, end);
}

}  // namespace

RequestError parse_request(std::string_view head, HttpRequest& out) {
  // ---- Request line: METHOD SP target SP HTTP/...
  const std::size_t line_end = head.find("\r\n");
  const std::string_view line = head.substr(0, line_end);
  const std::size_t method_end = line.find(' ');
  if (method_end == std::string_view::npos) return RequestError::NoTarget;
  const std::size_t target_end = line.find(' ', method_end + 1);
  if (target_end == std::string_view::npos) return RequestError::NoTarget;
  if (line.substr(target_end + 1, 5) != "HTTP/") return RequestError::NotHttp;

  out.method.assign(line.substr(0, method_end));
  const std::string_view target =
      line.substr(method_end + 1, target_end - method_end - 1);
  const std::size_t question = target.find('?');
  url_decode(target.substr(0, question), out.path);
  out.query.clear();
  if (question != std::string_view::npos) {
    // key=value&key=value...
    std::size_t cursor = question + 1;
    while (cursor <= target.size()) {
      std::size_t amp = target.find('&', cursor);
      if (amp == std::string_view::npos) amp = target.size();
      const std::string_view pair = target.substr(cursor, amp - cursor);
      if (!pair.empty()) {
        const std::size_t eq = pair.find('=');
        HttpFields::Field& field = out.query.append();
        url_decode(pair.substr(0, eq), field.first);
        if (eq != std::string_view::npos) {
          url_decode(pair.substr(eq + 1), field.second);
        }
      }
      cursor = amp + 1;
    }
  }

  // ---- Headers (lower-cased names, values without leading blanks).
  out.headers.clear();
  out.keep_alive = true;  // HTTP/1.1 default
  std::size_t cursor =
      line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (cursor < head.size()) {
    std::size_t eol = head.find("\r\n", cursor);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view field_line = head.substr(cursor, eol - cursor);
    cursor = eol + 2;
    const std::size_t colon = field_line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view value = field_line.substr(colon + 1);
    const std::size_t first = value.find_first_not_of(" \t");
    value.remove_prefix(first == std::string_view::npos ? value.size()
                                                        : first);
    HttpFields::Field& field = out.headers.append();
    field.first.assign(field_line.substr(0, colon));
    for (char& c : field.first) c = lower_ascii(c);
    field.second.assign(value);
    if (field.first == "connection" && equals_lower(value, "close")) {
      out.keep_alive = false;
    }
  }
  return RequestError::None;
}

HttpServer::HttpServer(const Options& options) : options_(options) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(const std::string& path, HttpHandler handler) {
  NETCONST_CHECK(!running(), "routes must be registered before start()");
  NETCONST_CHECK(!path.empty() && path.front() == '/',
                 "route path must start with '/'");
  routes_[path] = std::move(handler);
}

const char* HttpServer::status_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Content Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
  }
  return "Unknown";
}

void HttpServer::start() {
  NETCONST_CHECK(!running(), "server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw Error("http: socket() failed");

  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &address.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("http: invalid bind address " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("http: bind/listen failed on " + options_.bind_address +
                ":" + std::to_string(options_.port));
  }
  socklen_t address_len = sizeof(address);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                &address_len);
  port_ = ntohs(address.sin_port);
  set_nonblocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("http: pipe() failed");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { event_loop(); });
}

void HttpServer::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  const char wake = 'x';
  [[maybe_unused]] const auto written =
      ::write(wake_write_fd_, &wake, 1);
  if (thread_.joinable()) thread_.join();
  for (Connection* connection : connections_) {
    ::close(connection->fd);
    delete connection;
  }
  connections_.clear();
  ::close(listen_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void HttpServer::accept_connections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: poll again later
    if (connections_.size() >= options_.max_connections) {
      refused_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto* connection = new Connection;
    connection->fd = fd;
    connections_.push_back(connection);
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void HttpServer::dispatch(const HttpRequest& request,
                          HttpResponse& response) {
  const auto it = routes_.find(request.path);
  if (it == routes_.end()) {
    not_found_.fetch_add(1, std::memory_order_relaxed);
    response.status = 404;
    response.body.assign("not found\n");
    return;
  }
  try {
    it->second(request, response);
  } catch (const std::exception& error) {
    response.status = 500;
    response.content_type.assign(kPlainText);
    response.body.assign("internal error: ");
    response.body += error.what();
    response.body += '\n';
  }
}

void HttpServer::service_input(Connection& connection) {
  const std::string_view input = connection.input;
  std::size_t consumed = 0;
  while (!connection.close_after_write) {
    const std::size_t head_end = input.find("\r\n\r\n", consumed);
    if (head_end == std::string_view::npos) {
      if (input.size() - consumed > options_.max_request_bytes) {
        bad_.fetch_add(1, std::memory_order_relaxed);
        connection.output +=
            "HTTP/1.1 413 Content Too Large\r\nContent-Length: 0\r\n"
            "Connection: close\r\n\r\n";
        connection.close_after_write = true;
        // Drop the oversized head: the connection only drains its
        // output from here on (the event loop stops reading once
        // close_after_write is set), so the bytes are dead weight.
        connection.input.clear();
        return;
      }
      break;
    }
    const std::string_view head = input.substr(consumed, head_end - consumed);
    consumed = head_end + 4;

    if (parse_request(head, request_) != RequestError::None) {
      bad_.fetch_add(1, std::memory_order_relaxed);
      connection.output +=
          "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n"
          "Connection: close\r\n\r\n";
      connection.close_after_write = true;
      break;
    }

    // ---- Dispatch into the reused response, then serialize.
    bool keep_alive = request_.keep_alive;
    const bool head_only = request_.method == "HEAD";
    response_.status = 200;
    response_.content_type.assign(kPlainText);
    response_.body.clear();
    if (request_.method != "GET" && !head_only) {
      bad_.fetch_add(1, std::memory_order_relaxed);
      response_.status = 405;
      response_.body.assign("only GET and HEAD are supported\n");
      keep_alive = false;
    } else {
      dispatch(request_, response_);
    }
    served_.fetch_add(1, std::memory_order_relaxed);

    std::string& out = connection.output;
    out += "HTTP/1.1 ";
    append_decimal(out, response_.status);
    out += ' ';
    out += status_phrase(response_.status);
    out += "\r\nContent-Type: ";
    out += response_.content_type;
    out += "\r\nContent-Length: ";
    append_decimal(out, response_.body.size());
    out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                      : "\r\nConnection: close\r\n\r\n";
    if (!head_only) out += response_.body;
    if (!keep_alive) connection.close_after_write = true;
  }
  connection.input.erase(0, consumed);
}

void HttpServer::event_loop() {
  std::vector<pollfd> poll_fds;
  while (!stopping_.load(std::memory_order_acquire)) {
    poll_fds.clear();
    poll_fds.push_back({listen_fd_, POLLIN, 0});
    poll_fds.push_back({wake_read_fd_, POLLIN, 0});
    for (const Connection* connection : connections_) {
      short events = POLLIN;
      if (!connection->output.empty()) events |= POLLOUT;
      poll_fds.push_back({connection->fd, events, 0});
    }

    if (::poll(poll_fds.data(), poll_fds.size(), 250) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (poll_fds[1].revents != 0) {
      char drain[64];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    if (poll_fds[0].revents != 0) accept_connections();

    // poll_fds only covers connections that existed when poll() was
    // called; accept_connections() may have appended new ones since, so
    // bound the walk by the polled entries, not connections_.size().
    // New connections are picked up by the next poll cycle.
    std::size_t index = 2;
    for (std::size_t k = 0;
         index < poll_fds.size() && k < connections_.size();
         ++index, ++k) {
      Connection& connection = *connections_[k];
      const short revents = poll_fds[index].revents;
      bool alive = (revents & (POLLERR | POLLNVAL)) == 0;

      // A connection marked close_after_write is drain-only: reading
      // more input could queue further responses (e.g. a second 413 for
      // the same oversized head) that the peer must never see.
      if (alive && !connection.close_after_write &&
          (revents & (POLLIN | POLLHUP)) != 0) {
        char buffer[4096];
        for (;;) {
          const ssize_t received =
              ::recv(connection.fd, buffer, sizeof(buffer), 0);
          if (received > 0) {
            connection.input.append(buffer,
                                    static_cast<std::size_t>(received));
            if (connection.input.size() >
                options_.max_request_bytes + sizeof(buffer)) {
              break;  // service_input answers 413 below
            }
          } else if (received == 0) {
            alive = false;  // peer closed
            break;
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK) alive = false;
            break;
          }
        }
        if (!connection.input.empty()) service_input(connection);
      }

      if (alive && !connection.output.empty()) {
        const ssize_t sent =
            ::send(connection.fd, connection.output.data(),
                   connection.output.size(), MSG_NOSIGNAL);
        if (sent > 0) {
          connection.output.erase(0, static_cast<std::size_t>(sent));
        } else if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          alive = false;
        }
        if (connection.output.empty() && connection.close_after_write) {
          alive = false;
        }
      }

      if (!alive) {
        ::close(connection.fd);
        delete connections_[k];
        connections_.erase(connections_.begin() +
                           static_cast<std::ptrdiff_t>(k));
        --k;
      }
    }
  }
}

HttpServer::Stats HttpServer::stats() const {
  Stats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_refused = refused_.load(std::memory_order_relaxed);
  stats.requests_served = served_.load(std::memory_order_relaxed);
  stats.bad_requests = bad_.load(std::memory_order_relaxed);
  stats.not_found = not_found_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace netconst::serving
