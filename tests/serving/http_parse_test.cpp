// Property tests for the pure parsers in front of the serving handlers:
// parse_request() (one HTTP request head), HttpServer::service_input()
// (framing a byte stream into heads and answers), and parse_plan_query()
// (the /plan parameters). No sockets: the server is driven directly.
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../support/proptest.hpp"
#include "serving/http.hpp"
#include "serving/server.hpp"

namespace netconst::serving {
namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

// ---------------------------------------------------------------------------
// Reference request parser: the substr-based parser the event loop ran
// before parse_request() existed, kept verbatim in behaviour.
// ---------------------------------------------------------------------------

struct ReferenceRequest {
  RequestError error = RequestError::None;
  std::string method;
  std::string path;
  Fields query;
  Fields headers;
  bool keep_alive = true;
};

std::string reference_lower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

std::string reference_decode(const std::string& text) {
  std::string out;
  for (std::size_t k = 0; k < text.size(); ++k) {
    const char c = text[k];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && k + 2 < text.size() &&
               std::isxdigit(static_cast<unsigned char>(text[k + 1])) &&
               std::isxdigit(static_cast<unsigned char>(text[k + 2]))) {
      out.push_back(static_cast<char>(
          std::stoi(text.substr(k + 1, 2), nullptr, 16)));
      k += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

ReferenceRequest reference_parse(const std::string& head) {
  ReferenceRequest request;
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t method_end = request_line.find(' ');
  const std::size_t target_end =
      method_end == std::string::npos
          ? std::string::npos
          : request_line.find(' ', method_end + 1);
  if (method_end == std::string::npos ||
      target_end == std::string::npos) {
    request.error = RequestError::NoTarget;
    return request;
  }
  if (request_line.compare(target_end + 1, 5, "HTTP/") != 0) {
    request.error = RequestError::NotHttp;
    return request;
  }
  request.method = request_line.substr(0, method_end);
  const std::string target =
      request_line.substr(method_end + 1, target_end - method_end - 1);
  const std::size_t question = target.find('?');
  request.path = reference_decode(target.substr(0, question));
  if (question != std::string::npos) {
    std::size_t cursor = question + 1;
    while (cursor <= target.size()) {
      std::size_t amp = target.find('&', cursor);
      if (amp == std::string::npos) amp = target.size();
      const std::string pair = target.substr(cursor, amp - cursor);
      if (!pair.empty()) {
        const std::size_t eq = pair.find('=');
        request.query.emplace_back(
            reference_decode(pair.substr(0, eq)),
            eq == std::string::npos ? std::string()
                                    : reference_decode(pair.substr(eq + 1)));
      }
      cursor = amp + 1;
    }
  }
  std::size_t cursor =
      line_end == std::string::npos ? head.size() : line_end + 2;
  while (cursor < head.size()) {
    std::size_t eol = head.find("\r\n", cursor);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(cursor, eol - cursor);
    cursor = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    const std::size_t first = value.find_first_not_of(" \t");
    value.erase(0, first == std::string::npos ? value.size() : first);
    request.headers.emplace_back(reference_lower(line.substr(0, colon)),
                                 std::move(value));
  }
  for (const auto& [name, value] : request.headers) {
    if (name == "connection" && reference_lower(value) == "close") {
      request.keep_alive = false;
    }
  }
  return request;
}

Fields to_fields(const HttpFields& fields) {
  return Fields(fields.begin(), fields.end());
}

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

char pick(Rng& rng, const std::string& alphabet) {
  return alphabet[testing::random_size(rng, 0, alphabet.size() - 1)];
}

std::string random_text(Rng& rng, const std::string& alphabet,
                        std::size_t max_length) {
  std::string text(testing::random_size(rng, 0, max_length), ' ');
  for (char& c : text) c = pick(rng, alphabet);
  return text;
}

/// Query/path bytes, heavy on the escapes: '%' with and without hex
/// digits after it, '+', '=' and '&'.
const std::string kTargetBytes = "abcXYZ019%%%++==&&/.-_fF?";
/// Anything a head may hold, CR and LF included.
const std::string kHeadBytes = "GETHPab /?=&%+:\t\r\n\r\n019fF";

std::string random_target(Rng& rng) {
  std::string target = "/" + random_text(rng, kTargetBytes, 12);
  if (rng.uniform() < 0.7) {
    target += '?';
    const std::size_t pairs = testing::random_size(rng, 0, 5);
    for (std::size_t k = 0; k < pairs; ++k) {
      if (k > 0) target += '&';
      target += random_text(rng, kTargetBytes, 8);
      if (rng.uniform() < 0.8) {
        target += '=' + random_text(rng, kTargetBytes, 10);
      }
    }
  }
  return target;
}

std::string random_header(Rng& rng) {
  static const std::vector<std::string> kNames = {
      "Host", "connection", "CONNECTION", "Connection", "Accept", "X-a"};
  static const std::vector<std::string> kValues = {
      "close", "Close", "CLOSE", " close", "\tclose", "close ",
      "keep-alive", "", "x:y", "localhost"};
  const double shape = rng.uniform();
  if (shape < 0.1) return random_text(rng, "abc \t", 6);  // no colon
  std::string name = kNames[testing::random_size(rng, 0, kNames.size() - 1)];
  std::string value =
      kValues[testing::random_size(rng, 0, kValues.size() - 1)];
  return name + (shape < 0.5 ? ": " : ":") + value;
}

/// A well-formed head (request line + headers), or one with a defect:
/// a bad version, a missing space, stray CR/LF, a truncation, or an
/// oversized line.
std::string random_head(Rng& rng) {
  static const std::vector<std::string> kMethods = {"GET", "HEAD", "POST",
                                                    "get", ""};
  static const std::vector<std::string> kVersions = {
      "HTTP/1.1", "HTTP/1.0", "HTTP/", "HTTX/1.1", "http/1.1", "HTTP"};
  const double shape = rng.uniform();
  if (shape < 0.1) return random_text(rng, kHeadBytes, 80);

  std::string head =
      kMethods[testing::random_size(rng, 0, kMethods.size() - 1)] + ' ' +
      random_target(rng) + ' ' +
      kVersions[testing::random_size(rng, 0, kVersions.size() - 1)];
  const std::size_t headers = testing::random_size(rng, 0, 4);
  for (std::size_t k = 0; k < headers; ++k) {
    head += "\r\n" + random_header(rng);
  }
  if (shape < 0.2) {
    head.resize(testing::random_size(rng, 0, head.size()));  // truncated
  } else if (shape < 0.3) {
    const std::size_t at = testing::random_size(rng, 0, head.size());
    head.insert(at, 1, pick(rng, "\r\n "));  // stray CR, LF or space
  } else if (shape < 0.35) {
    const std::size_t at = testing::random_size(rng, 0, head.size());
    head.insert(at, std::string(testing::random_size(rng, 1000, 20000),
                                pick(rng, "a%+&=")));  // oversized line
  }
  return head;
}

TEST(HttpParse, MatchesReferenceParserOnRandomHeads) {
  // One long-lived request, as in the event loop: stale slots from a
  // longer earlier request must never leak into a shorter later one.
  HttpRequest request;
  testing::run_property(0xBEEF01u, 4000, [&](Rng& rng) {
    const std::string head = random_head(rng);
    const ReferenceRequest expected = reference_parse(head);
    const RequestError error = parse_request(head, request);
    ASSERT_EQ(error, expected.error) << head;
    if (error != RequestError::None) return;
    EXPECT_EQ(request.method, expected.method);
    EXPECT_EQ(request.path, expected.path);
    EXPECT_EQ(to_fields(request.query), expected.query);
    EXPECT_EQ(to_fields(request.headers), expected.headers);
    EXPECT_EQ(request.keep_alive, expected.keep_alive);
  });
}

TEST(HttpParse, TypedErrors) {
  HttpRequest request;
  EXPECT_EQ(parse_request("", request), RequestError::NoTarget);
  EXPECT_EQ(parse_request("GET", request), RequestError::NoTarget);
  EXPECT_EQ(parse_request("GET /x", request), RequestError::NoTarget);
  EXPECT_EQ(parse_request("GET\r\n/x HTTP/1.1", request),
            RequestError::NoTarget);
  EXPECT_EQ(parse_request("GET /x HTTP", request), RequestError::NotHttp);
  EXPECT_EQ(parse_request("GET /x FTP/1.1", request),
            RequestError::NotHttp);
  ASSERT_EQ(parse_request("GET /a%2Fb+c?x=%4&y=1%41+&&z HTTP/1.1\r\n"
                          "Connection:  cLoSe\r\nbad line",
                          request),
            RequestError::None);
  EXPECT_EQ(request.path, "/a/b c");
  EXPECT_EQ(to_fields(request.query),
            (Fields{{"x", "%4"}, {"y", "1A "}, {"z", ""}}));
  EXPECT_EQ(to_fields(request.headers), (Fields{{"connection", "cLoSe"}}));
  EXPECT_FALSE(request.keep_alive);
}

// ---------------------------------------------------------------------------
// Framing: a pipelined stream answered whole or in arbitrary pieces.
// ---------------------------------------------------------------------------

constexpr std::size_t kMaxRequestBytes = 512;

HttpServer make_server() {
  HttpServer::Options options;
  options.max_request_bytes = kMaxRequestBytes;
  return HttpServer(options);
}

void add_routes(HttpServer& server) {
  server.route("/echo", [](const HttpRequest& request,
                           HttpResponse& response) {
    response.body.assign(request.path);
    for (const auto& [key, value] : request.query) {
      response.body += '|' + key + '=' + value;
    }
  });
  server.route("/json", [](const HttpRequest& request,
                           HttpResponse& response) {
    response.content_type.assign("application/json");
    response.body.assign(request.query_value("n", "0").size() * 40, '7');
  });
  server.route("/throw", [](const HttpRequest&, HttpResponse&) {
    throw std::runtime_error("boom");
  });
}

/// A pipelined stream of keep-alive requests, optionally followed by
/// one that closes the session (Connection: close, a malformed head, a
/// POST) and more requests, or ending in an unterminated head too large
/// to buffer.
std::string random_stream(Rng& rng) {
  static const std::vector<std::string> kTargets = {
      "/echo?a=1&b=x%20y", "/echo", "/json?n=123", "/json", "/nope",
      "/throw", "/echo?k=%ZZ+%41"};
  std::string stream;
  const std::size_t requests = testing::random_size(rng, 1, 12);
  for (std::size_t k = 0; k < requests; ++k) {
    const std::string& target =
        kTargets[testing::random_size(rng, 0, kTargets.size() - 1)];
    stream += (rng.uniform() < 0.2 ? "HEAD " : "GET ") + target +
              " HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  switch (testing::random_size(rng, 0, 5)) {
    case 0:
      stream += "GET /echo HTTP/1.1\r\nConnection: close\r\n\r\n";
      break;
    case 1:
      stream += "not http\r\n\r\n";
      break;
    case 2:
      stream += "POST /echo HTTP/1.1\r\n\r\n";
      break;
    case 3:
      return stream + "GET /" + std::string(kMaxRequestBytes + 40, 'a');
    default:
      break;  // the session stays open
  }
  if (rng.uniform() < 0.5) stream += "GET /echo?after=1 HTTP/1.1\r\n\r\n";
  return stream;
}

TEST(HttpParse, PipelinedStreamAnswersAlikeAtAnyReadBoundary) {
  HttpServer whole_server = make_server();
  HttpServer split_server = make_server();
  add_routes(whole_server);
  add_routes(split_server);
  testing::run_property(0xBEEF02u, 600, [&](Rng& rng) {
    const std::string stream = random_stream(rng);

    HttpServer::Connection whole;
    whole.input = stream;
    whole_server.service_input(whole);

    // The event loop's contract: input grows by whatever one read
    // returned, and reading stops once a response ends the session.
    HttpServer::Connection split;
    std::size_t fed = 0;
    while (fed < stream.size() && !split.close_after_write) {
      const std::size_t piece =
          std::min(stream.size() - fed, testing::random_size(rng, 1, 64));
      split.input.append(stream, fed, piece);
      fed += piece;
      split_server.service_input(split);
    }

    ASSERT_EQ(split.output, whole.output) << stream;
    EXPECT_EQ(split.close_after_write, whole.close_after_write);
    if (!whole.close_after_write) {
      EXPECT_TRUE(whole.input.empty());
      EXPECT_TRUE(split.input.empty());
    }
    EXPECT_EQ(whole.output.rfind("HTTP/1.1 ", 0), 0u);
  });
  EXPECT_EQ(split_server.stats().requests_served,
            whole_server.stats().requests_served);
  EXPECT_EQ(split_server.stats().bad_requests,
            whole_server.stats().bad_requests);
}

TEST(HttpParse, ServiceInputSerializesEveryAnswer) {
  HttpServer server = make_server();
  add_routes(server);
  HttpServer::Connection connection;
  connection.input =
      "GET /echo?a=1 HTTP/1.1\r\n\r\n"
      "HEAD /json?n=12 HTTP/1.1\r\n\r\n"
      "GET /nope HTTP/1.1\r\n\r\n"
      "GET /throw HTTP/1.1\r\n\r\n"
      "GET /echo HTTP/1.1\r\nConnection: close\r\n\r\n"
      "GET /echo HTTP/1.1\r\n\r\n";
  server.service_input(connection);
  EXPECT_EQ(connection.output,
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            "Content-Length: 9\r\nConnection: keep-alive\r\n\r\n"
            "/echo|a=1"
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            "Content-Length: 80\r\nConnection: keep-alive\r\n\r\n"
            "HTTP/1.1 404 Not Found\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            "Content-Length: 10\r\nConnection: keep-alive\r\n\r\n"
            "not found\n"
            "HTTP/1.1 500 Internal Server Error\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            "Content-Length: 21\r\nConnection: keep-alive\r\n\r\n"
            "internal error: boom\n"
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            "Content-Length: 5\r\nConnection: close\r\n\r\n"
            "/echo");
  EXPECT_TRUE(connection.close_after_write);
  // The request after the close stays unanswered.
  EXPECT_EQ(connection.input, "GET /echo HTTP/1.1\r\n\r\n");
}

// ---------------------------------------------------------------------------
// /plan query parser.
// ---------------------------------------------------------------------------

/// Independent strict-decimal reader: digits only, checked overflow.
std::optional<std::uint64_t> reference_decimal(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

std::string random_integer_text(Rng& rng) {
  static const std::vector<std::string> kEdges = {
      "0", "7", "007", "18446744073709551615", "18446744073709551616",
      "99999999999999999999", "-1", "+1", " 1", "1 ", "1x", "0x1", "",
      "1e3", "%31"};
  if (rng.uniform() < 0.4) {
    return kEdges[testing::random_size(rng, 0, kEdges.size() - 1)];
  }
  return random_text(rng, "0123456789012345678901234567890-+ x", 6);
}

TEST(PlanQueryParse, StrictDecimalsMatchReference) {
  PlanQuery query;  // reused, as the HTTP thread reuses its scratch
  testing::run_property(0xBEEF03u, 4000, [&](Rng& rng) {
    HttpRequest request;
    std::vector<std::string> tokens(testing::random_size(rng, 0, 6));
    std::string nodes;
    for (std::size_t k = 0; k < tokens.size(); ++k) {
      tokens[k] = random_integer_text(rng);
      nodes += (k > 0 ? "," : "") + tokens[k];
    }
    const bool has_kind = rng.uniform() < 0.7;
    const std::string kind = rng.uniform() < 0.5 ? "tree" : "mapping";
    const bool has_root = rng.uniform() < 0.5;
    const bool has_bytes = rng.uniform() < 0.5;
    const std::string root = random_integer_text(rng);
    const std::string bytes = random_integer_text(rng);
    auto add = [&](const char* key, const std::string& value) {
      HttpFields::Field& field = request.query.append();
      field.first = key;
      field.second = value;
    };
    add("tenant", "t");
    if (has_kind) add("kind", kind);
    if (!tokens.empty()) add("nodes", nodes);
    if (has_root) add("root", root);
    if (has_bytes) add("bytes", bytes);

    // Expected outcome, in the handler's check order.
    PlanQueryError expected_error = PlanQueryError::None;
    std::vector<std::size_t> expected_nodes;
    if (nodes.empty()) expected_error = PlanQueryError::MissingNodes;
    for (const std::string& token : tokens) {
      if (expected_error != PlanQueryError::None || token.empty()) continue;
      const auto value = reference_decimal(token);
      if (!value) {
        expected_error = PlanQueryError::BadNodes;
      } else {
        expected_nodes.push_back(static_cast<std::size_t>(*value));
      }
    }
    const auto root_value = has_root ? reference_decimal(root)
                                     : std::optional<std::uint64_t>(
                                           expected_nodes.empty()
                                               ? 0
                                               : expected_nodes.front());
    const auto bytes_value = has_bytes ? reference_decimal(bytes)
                                       : std::optional<std::uint64_t>(
                                             8ull * 1024 * 1024);
    if (expected_error == PlanQueryError::None &&
        (!root_value || !bytes_value)) {
      expected_error = PlanQueryError::BadRootOrBytes;
    }

    const PlanQueryError error = parse_plan_query(request, query);
    EXPECT_EQ(query.tenant, "t");
    ASSERT_EQ(error, expected_error)
        << "nodes=" << nodes << " root=" << (has_root ? root : "-")
        << " bytes=" << (has_bytes ? bytes : "-");
    if (error != PlanQueryError::None) return;
    EXPECT_EQ(query.request.kind, has_kind && kind == "mapping"
                                      ? PlanKind::TopologyMapping
                                      : PlanKind::BroadcastTree);
    EXPECT_EQ(query.request.nodes, expected_nodes);
    EXPECT_EQ(query.request.root, *root_value);
    EXPECT_EQ(query.request.bytes, *bytes_value);
  });
}

TEST(PlanQueryParse, KindAndMissingParameters) {
  PlanQuery query;
  HttpRequest request;
  auto set = [&](Fields fields) {
    request.query.clear();
    for (auto& [key, value] : fields) {
      HttpFields::Field& field = request.query.append();
      field.first = key;
      field.second = value;
    }
    return parse_plan_query(request, query);
  };
  EXPECT_EQ(set({{"nodes", "1,2"}}), PlanQueryError::None);
  EXPECT_TRUE(query.tenant.empty());
  EXPECT_EQ(query.request.kind, PlanKind::BroadcastTree);
  EXPECT_EQ(query.request.root, 1u);
  EXPECT_EQ(set({{"kind", "topology_mapping"}, {"nodes", ",3,,2,"}}),
            PlanQueryError::None);
  EXPECT_EQ(query.request.kind, PlanKind::TopologyMapping);
  EXPECT_EQ(query.request.nodes, (std::vector<std::size_t>{3, 2}));
  EXPECT_EQ(set({{"kind", "warp"}, {"nodes", "x"}}), PlanQueryError::BadKind);
  EXPECT_EQ(set({{"kind", ""}, {"nodes", "1,2"}}), PlanQueryError::BadKind);
  EXPECT_EQ(set({{"nodes", ""}}), PlanQueryError::MissingNodes);
  EXPECT_EQ(set({{"tenant", "a"}}), PlanQueryError::MissingNodes);
  EXPECT_EQ(query.tenant, "a");
  EXPECT_EQ(set({{"nodes", ","}}), PlanQueryError::None);
  EXPECT_TRUE(query.request.nodes.empty());
  EXPECT_EQ(query.request.root, 0u);
  EXPECT_EQ(set({{"nodes", "1,2"}, {"root", ""}}),
            PlanQueryError::BadRootOrBytes);
  EXPECT_STREQ(plan_query_error_message(PlanQueryError::BadNodes),
               "nodes must be a comma-separated id list");
}

}  // namespace
}  // namespace netconst::serving
