#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

KeepAliveClient::KeepAliveClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect() to the plan server failed");
  }
}

KeepAliveClient::~KeepAliveClient() {
  if (fd_ >= 0) ::close(fd_);
}

void KeepAliveClient::send_all(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send() to the plan server failed");
    sent += static_cast<std::size_t>(n);
  }
}

void KeepAliveClient::fill() {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("plan server closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return;
  }
}

HttpAnswer KeepAliveClient::get(const std::string& target) {
  queue(target);
  flush();
  return read();
}

void KeepAliveClient::queue(const std::string& target) {
  request_.append("GET ");
  request_.append(target);
  request_.append(" HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

void KeepAliveClient::flush() {
  send_all(request_);
  request_.clear();
}

HttpAnswer KeepAliveClient::read() {
  std::size_t head_end = buffer_.find("\r\n\r\n");
  while (head_end == std::string::npos) {
    fill();
    head_end = buffer_.find("\r\n\r\n");
  }

  HttpAnswer answer;
  // Status line: "HTTP/1.1 200 OK".
  const std::size_t space = buffer_.find(' ');
  if (space == std::string::npos || space > head_end) {
    throw std::runtime_error("malformed status line");
  }
  answer.status = std::atoi(buffer_.c_str() + space + 1);

  std::size_t content_length = 0;
  bool has_length = false;
  std::size_t line = buffer_.find("\r\n") + 2;
  while (line < head_end) {
    std::size_t line_end = buffer_.find("\r\n", line);
    if (line_end == std::string::npos || line_end > head_end) {
      line_end = head_end;
    }
    const std::size_t colon = buffer_.find(':', line);
    if (colon != std::string::npos && colon < line_end) {
      std::string name = buffer_.substr(line, colon - line);
      std::transform(name.begin(), name.end(), name.begin(), [](char c) {
        return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      });
      std::size_t value = colon + 1;
      while (value < line_end && buffer_[value] == ' ') ++value;
      if (name == "content-length") {
        content_length = std::strtoull(buffer_.c_str() + value, nullptr, 10);
        has_length = true;
      } else if (name == "content-type") {
        answer.content_type = buffer_.substr(value, line_end - value);
      }
    }
    line = line_end + 2;
  }
  if (!has_length) throw std::runtime_error("response without Content-Length");

  const std::size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + content_length) fill();
  answer.body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  return answer;
}

}  // namespace perfbench
