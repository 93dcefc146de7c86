// ConstantServer — the serving front end assembled: RCU snapshot store
// + memoized plan cache + embedded HTTP query API, wrapped around a
// ConstantFinderService.
//
// Construction wires the store in as the service's snapshot sink (every
// accepted refresh publishes a new immutable version) and the store's
// publish hook into the plan cache (superseded versions are dropped the
// moment the version bumps). start() brings the HTTP endpoint up; the
// service keeps refreshing concurrently — queries and publishes never
// block each other (see serving/snapshot_store.hpp).
//
// Routes:
//   GET /healthz            liveness ("ok")
//   GET /metrics            Prometheus text exposition (version 0.0.4)
//   GET /telemetry          JSON telemetry snapshot (metrics +
//                           convergence + flight-recorder status)
//   GET /tenants            tenant list with current snapshot versions
//   GET /snapshot?tenant=T  snapshot metadata (version, norms, ranks);
//                           &include=links adds the link parameters
//   GET /plan?tenant=T&kind=tree|mapping&nodes=0,1,2[&root=0][&bytes=N]
//                           the memoized planner — byte-identical to a
//                           direct src/mapping / src/collective
//                           invocation at the same snapshot version;
//                           the query is read by parse_plan_query()
//
// Every endpooint records a latency histogram
// (serving.http.<route>_seconds) and the plan/publish paths open
// serving.* tracing spans, all through the service's own registry — so
// /metrics observes the server that serves it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "online/service.hpp"
#include "serving/epoch.hpp"
#include "serving/http.hpp"
#include "serving/plan_cache.hpp"
#include "serving/snapshot_store.hpp"

namespace netconst::serving {

/// A /plan query as parse_plan_query() reads it.
struct PlanQuery {
  /// The `tenant` value, empty when absent. A view into the parsed
  /// HttpRequest: valid only while that request is left unchanged.
  std::string_view tenant;
  /// Kind, root and bytes as given (or defaulted); `nodes` in the
  /// order the query lists them — not canonical yet.
  PlanRequest request;
};

/// Why parse_plan_query() rejected a /plan query; each is a 400.
enum class PlanQueryError {
  None,
  BadKind,         // kind is neither tree nor mapping
  MissingNodes,    // no (or an empty) nodes parameter
  BadNodes,        // a node id is not a plain decimal integer
  BadRootOrBytes,  // root or bytes is not a plain decimal integer
};

/// The 400 body for an error (without its trailing newline).
const char* plan_query_error_message(PlanQueryError error);

/// Read the kind, nodes, root and bytes parameters of a /plan query
/// into `out`, reusing the storage of `out.request.nodes`. Pure, and
/// allocation-free once that vector has grown to the request sizes.
/// Integers are plain decimals: one or more ASCII digits whose value
/// fits the field. A sign, a blank, any other byte, or overflow is an
/// error. Empty items in `nodes` are skipped. `root` defaults to the
/// first listed node and `bytes` to 8 MiB. The tenant is only recorded
/// and the request is not canonicalized: both are the caller's job.
PlanQueryError parse_plan_query(const HttpRequest& request, PlanQuery& out);

struct ConstantServerOptions {
  HttpServer::Options http;
  std::size_t plan_cache_capacity = 4096;
};

class ConstantServer {
 public:
  /// Registers the snapshot store as `service`'s sink. The service must
  /// outlive the server; the server detaches the sink on destruction.
  explicit ConstantServer(online::ConstantFinderService& service,
                          const ConstantServerOptions& options = {});
  ~ConstantServer();

  ConstantServer(const ConstantServer&) = delete;
  ConstantServer& operator=(const ConstantServer&) = delete;

  /// Start / stop the HTTP endpoint (the store serves in-process
  /// queries from construction on, with or without HTTP).
  void start() { http_.start(); }
  void stop() { http_.stop(); }
  std::uint16_t port() const { return http_.port(); }

  SnapshotStore& store() { return store_; }
  const SnapshotStore& store() const { return store_; }
  PlanCache& plans() { return plans_; }
  const PlanCache& plans() const { return plans_; }
  EpochDomain& epoch() { return epoch_; }
  HttpServer& http() { return http_; }

  /// In-process query path (what the HTTP /plan handler runs): pin the
  /// tenant's current snapshot, serve the plan from the cache, return
  /// the response body. Useful for tests and embedded callers.
  /// `reader` must belong to epoch(). Throws on unknown tenant.
  std::string plan_json(const std::string& tenant, PlanKind kind,
                        std::vector<std::size_t> nodes, std::size_t root,
                        std::uint64_t bytes,
                        EpochDomain::Reader& reader);

 private:
  void handle_healthz(const HttpRequest& request, HttpResponse& response);
  void handle_metrics(const HttpRequest& request, HttpResponse& response);
  void handle_telemetry(const HttpRequest& request, HttpResponse& response);
  void handle_tenants(const HttpRequest& request, HttpResponse& response);
  void handle_snapshot(const HttpRequest& request, HttpResponse& response);
  void handle_plan(const HttpRequest& request, HttpResponse& response);
  /// Mirror serving-layer stats (cache, epoch, http) into registry
  /// gauges so the exporters pick them up.
  void sync_serving_metrics();

  online::ConstantFinderService* service_;
  EpochDomain epoch_;
  SnapshotStore store_;
  PlanCache plans_;
  HttpServer http_;
  /// Epoch slot of the HTTP event-loop thread (handlers run there).
  std::unique_ptr<EpochDomain::Reader> http_reader_;
  /// handle_plan()'s parse target, owned by the HTTP thread like the
  /// reader above; reusing it keeps a warm /plan hit allocation-free.
  PlanQuery plan_query_;

  online::Histogram& healthz_seconds_;
  online::Histogram& metrics_seconds_;
  online::Histogram& telemetry_seconds_;
  online::Histogram& tenants_seconds_;
  online::Histogram& snapshot_seconds_;
  online::Histogram& plan_seconds_;
  online::Counter& publishes_;
  online::Counter& invalidations_;
};

}  // namespace netconst::serving
