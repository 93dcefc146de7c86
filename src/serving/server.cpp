#include "serving/server.hpp"

#include <charconv>
#include <sstream>
#include <system_error>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::serving {

namespace {

constexpr const char* kJsonContentType = "application/json";
constexpr const char* kPlainText = "text/plain; charset=utf-8";

/// Observe a latency histogram on scope exit (success and error paths).
class LatencyScope {
 public:
  explicit LatencyScope(online::Histogram& histogram)
      : histogram_(&histogram) {}
  ~LatencyScope() { histogram_->observe(clock_.seconds()); }

 private:
  online::Histogram* histogram_;
  Stopwatch clock_;
};

void write_double(std::ostream& out, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  out << os.str();
}

void plain_answer(HttpResponse& response, int status,
                  std::string_view message) {
  response.status = status;
  response.content_type.assign(kPlainText);
  response.body.assign(message);
  response.body += '\n';
}

void bad_request(HttpResponse& response, std::string_view message) {
  plain_answer(response, 400, message);
}

/// The whole of `text` as a plain decimal: digits only, no sign or
/// blank, no overflow.
template <typename Integer>
bool parse_decimal(std::string_view text, Integer& value) {
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  return error == std::errc() && stop == end;
}

}  // namespace

const char* plan_query_error_message(PlanQueryError error) {
  switch (error) {
    case PlanQueryError::None:
      return "ok";
    case PlanQueryError::BadKind:
      return "kind must be tree or mapping";
    case PlanQueryError::MissingNodes:
      return "missing ?nodes=0,1,2";
    case PlanQueryError::BadNodes:
      return "nodes must be a comma-separated id list";
    case PlanQueryError::BadRootOrBytes:
      return "root and bytes must be integers";
  }
  return "bad query";
}

PlanQueryError parse_plan_query(const HttpRequest& request, PlanQuery& out) {
  static const std::string kEmpty;
  static const std::string kTree = "tree";
  out.tenant = request.query_value("tenant", kEmpty);

  const std::string& kind_name = request.query_value("kind", kTree);
  if (kind_name == "tree" || kind_name == "broadcast_tree") {
    out.request.kind = PlanKind::BroadcastTree;
  } else if (kind_name == "mapping" || kind_name == "topology_mapping") {
    out.request.kind = PlanKind::TopologyMapping;
  } else {
    return PlanQueryError::BadKind;
  }

  const std::string_view node_list = request.query_value("nodes", kEmpty);
  if (node_list.empty()) return PlanQueryError::MissingNodes;
  std::vector<std::size_t>& nodes = out.request.nodes;
  nodes.clear();
  std::size_t cursor = 0;
  while (cursor <= node_list.size()) {
    std::size_t comma = node_list.find(',', cursor);
    if (comma == std::string_view::npos) comma = node_list.size();
    const std::string_view token = node_list.substr(cursor, comma - cursor);
    cursor = comma + 1;
    if (token.empty()) continue;
    std::size_t node = 0;
    if (!parse_decimal(token, node)) return PlanQueryError::BadNodes;
    nodes.push_back(node);
  }

  out.request.root = nodes.empty() ? 0 : nodes.front();
  if (request.has_query("root") &&
      !parse_decimal(request.query_value("root", kEmpty), out.request.root)) {
    return PlanQueryError::BadRootOrBytes;
  }
  out.request.bytes = PlanRequest{}.bytes;
  if (request.has_query("bytes") &&
      !parse_decimal(request.query_value("bytes", kEmpty),
                     out.request.bytes)) {
    return PlanQueryError::BadRootOrBytes;
  }
  return PlanQueryError::None;
}

ConstantServer::ConstantServer(online::ConstantFinderService& service,
                               const ConstantServerOptions& options)
    : service_(&service),
      store_(epoch_),
      plans_(epoch_, options.plan_cache_capacity),
      http_(options.http),
      healthz_seconds_(
          service.metrics().histogram("serving.http.healthz_seconds")),
      metrics_seconds_(
          service.metrics().histogram("serving.http.metrics_seconds")),
      telemetry_seconds_(
          service.metrics().histogram("serving.http.telemetry_seconds")),
      tenants_seconds_(
          service.metrics().histogram("serving.http.tenants_seconds")),
      snapshot_seconds_(
          service.metrics().histogram("serving.http.snapshot_seconds")),
      plan_seconds_(
          service.metrics().histogram("serving.http.plan_seconds")),
      publishes_(service.metrics().counter("serving.snapshots_published")),
      invalidations_(
          service.metrics().counter("serving.plans_invalidated")) {
  store_.set_publish_hook(
      [this](std::size_t tenant_index, std::uint64_t version) {
        publishes_.increment();
        const std::size_t dropped =
            plans_.invalidate_below(tenant_index, version);
        if (dropped > 0) {
          invalidations_.increment(static_cast<double>(dropped));
        }
      });
  service.set_snapshot_sink(&store_);
  http_reader_ = std::make_unique<EpochDomain::Reader>(epoch_);

  http_.route("/healthz", [this](const HttpRequest& q, HttpResponse& r) {
    handle_healthz(q, r);
  });
  http_.route("/metrics", [this](const HttpRequest& q, HttpResponse& r) {
    handle_metrics(q, r);
  });
  http_.route("/telemetry", [this](const HttpRequest& q, HttpResponse& r) {
    handle_telemetry(q, r);
  });
  http_.route("/tenants", [this](const HttpRequest& q, HttpResponse& r) {
    handle_tenants(q, r);
  });
  http_.route("/snapshot", [this](const HttpRequest& q, HttpResponse& r) {
    handle_snapshot(q, r);
  });
  http_.route("/plan", [this](const HttpRequest& q, HttpResponse& r) {
    handle_plan(q, r);
  });
}

ConstantServer::~ConstantServer() {
  http_.stop();
  // Detach before the store/cache members are torn down. The detach is
  // an atomic swap that blocks until every publish already in flight
  // has returned, so service drivers running concurrently can never
  // touch the store (or its publish hook) mid-destruction.
  if (service_->snapshot_sink() == &store_) {
    service_->set_snapshot_sink(nullptr);
  }
}

void ConstantServer::sync_serving_metrics() {
  const PlanCache::Stats cache = plans_.stats();
  online::MetricsRegistry& metrics = service_->metrics();
  metrics.gauge("serving.plan_cache.hits")
      .set(static_cast<double>(cache.hits));
  metrics.gauge("serving.plan_cache.misses")
      .set(static_cast<double>(cache.misses));
  metrics.gauge("serving.plan_cache.entries")
      .set(static_cast<double>(plans_.size()));
  metrics.gauge("serving.epoch.pending")
      .set(static_cast<double>(epoch_.pending()));
  metrics.gauge("serving.epoch.reclaimed")
      .set(static_cast<double>(epoch_.reclaimed_total()));
  const HttpServer::Stats http = http_.stats();
  metrics.gauge("serving.http.requests")
      .set(static_cast<double>(http.requests_served));
  metrics.gauge("serving.http.bad_requests")
      .set(static_cast<double>(http.bad_requests));
}

void ConstantServer::handle_healthz(const HttpRequest&,
                                    HttpResponse& response) {
  LatencyScope latency(healthz_seconds_);
  plain_answer(response, 200, "ok");
}

void ConstantServer::handle_metrics(const HttpRequest&,
                                    HttpResponse& response) {
  obs::Span span("serving.http.metrics");
  LatencyScope latency(metrics_seconds_);
  sync_serving_metrics();
  std::ostringstream out;
  service_->write_prometheus(out);
  response.content_type.assign(obs::kPrometheusContentType);
  response.body = out.str();
}

void ConstantServer::handle_telemetry(const HttpRequest&,
                                      HttpResponse& response) {
  obs::Span span("serving.http.telemetry");
  LatencyScope latency(telemetry_seconds_);
  sync_serving_metrics();
  std::ostringstream out;
  service_->write_json_snapshot(out);
  response.content_type.assign(kJsonContentType);
  response.body = out.str();
}

void ConstantServer::handle_tenants(const HttpRequest&,
                                    HttpResponse& response) {
  LatencyScope latency(tenants_seconds_);
  std::ostringstream out;
  out << "{\"tenants\":[";
  const std::size_t count = store_.tenant_count();
  for (std::size_t k = 0; k < count; ++k) {
    if (k > 0) out << ',';
    out << "{\"name\":\"" << obs::json_escape(store_.tenant_name(k))
        << "\",\"version\":" << store_.version(k) << '}';
  }
  out << "]}";
  response.content_type.assign(kJsonContentType);
  response.body = out.str();
}

void ConstantServer::handle_snapshot(const HttpRequest& request,
                                     HttpResponse& response) {
  obs::Span span("serving.http.snapshot");
  LatencyScope latency(snapshot_seconds_);
  static const std::string kEmpty;
  const std::string& tenant = request.query_value("tenant", kEmpty);
  if (tenant.empty()) return bad_request(response, "missing ?tenant=");
  const std::size_t index = store_.find(tenant);
  if (index == SnapshotStore::npos) {
    return plain_answer(response, 404, "unknown tenant");
  }
  const SnapshotStore::Ref ref = store_.acquire(index, *http_reader_);
  if (!ref) {
    return plain_answer(response, 503, "tenant has not published yet");
  }

  const ConstantSnapshot& snapshot = *ref;
  const core::ConstantComponent& component = snapshot.component;
  std::ostringstream out;
  out << "{\"tenant\":\"" << obs::json_escape(snapshot.tenant)
      << "\",\"version\":" << snapshot.version
      << ",\"refresh\":" << snapshot.refresh << ",\"published_at\":";
  write_double(out, snapshot.published_at);
  out << ",\"cluster_size\":" << component.constant.size()
      << ",\"error_norm\":";
  write_double(out, component.error_norm);
  out << ",\"latency_error_norm\":";
  write_double(out, component.latency_error_norm);
  out << ",\"bandwidth_rank\":" << component.bandwidth_rank
      << ",\"latency_rank\":" << component.latency_rank;
  if (request.query_value("include", kEmpty) == "links") {
    const std::size_t n = component.constant.size();
    out << ",\"links\":[";
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        if (!first) out << ',';
        first = false;
        const netmodel::LinkParams link = component.constant.link(i, j);
        out << "{\"i\":" << i << ",\"j\":" << j << ",\"alpha\":";
        write_double(out, link.alpha);
        out << ",\"beta\":";
        write_double(out, link.beta);
        out << '}';
      }
    }
    out << ']';
  }
  out << '}';
  response.content_type.assign(kJsonContentType);
  response.body = out.str();
}

std::string ConstantServer::plan_json(const std::string& tenant,
                                      PlanKind kind,
                                      std::vector<std::size_t> nodes,
                                      std::size_t root, std::uint64_t bytes,
                                      EpochDomain::Reader& reader) {
  const std::size_t index = store_.find(tenant);
  NETCONST_CHECK(index != SnapshotStore::npos, "unknown tenant");
  const PlanRequest request =
      canonical_plan_request(kind, std::move(nodes), root, bytes);
  const SnapshotStore::Ref ref = store_.acquire(index, reader);
  NETCONST_CHECK(static_cast<bool>(ref), "tenant has not published yet");
  obs::Span span("serving.plan.lookup");
  const Plan* plan = plans_.lookup_or_compute(index, *ref, request);
  span.set_value(static_cast<double>(plan->version));
  return plan->json;
}

void ConstantServer::handle_plan(const HttpRequest& request,
                                 HttpResponse& response) {
  obs::Span span("serving.http.plan");
  LatencyScope latency(plan_seconds_);
  const PlanQueryError error = parse_plan_query(request, plan_query_);
  if (plan_query_.tenant.empty()) {
    return bad_request(response, "missing ?tenant=");
  }
  const std::size_t index = store_.find(plan_query_.tenant);
  if (index == SnapshotStore::npos) {
    return plain_answer(response, 404, "unknown tenant");
  }
  if (error != PlanQueryError::None) {
    return bad_request(response, plan_query_error_message(error));
  }

  try {
    PlanRequest& canonical = plan_query_.request;
    canonicalize_plan_request(canonical);
    const SnapshotStore::Ref ref = store_.acquire(index, *http_reader_);
    if (!ref) {
      return plain_answer(response, 503, "tenant has not published yet");
    }
    if (canonical.nodes.back() >= ref->component.constant.size()) {
      return bad_request(response,
                         "node id exceeds the tenant's cluster size");
    }
    const Plan* plan = plans_.lookup_or_compute(index, *ref, canonical);
    span.set_value(static_cast<double>(plan->version));
    response.content_type.assign(kJsonContentType);
    response.body.assign(plan->json);
  } catch (const ContractViolation& violation) {
    bad_request(response, violation.what());
  }
}

}  // namespace netconst::serving
