// Deterministic multi-tenant smoke test for ConstantFinderService: the
// per-tenant trajectory must not depend on worker-thread interleaving,
// and the bookkeeping (status, metrics, events) must stay consistent.
// The ServiceTelemetry suite pins the convergence ring: per-layer
// summaries by default, per-iteration traces only on request, and
// neither ever changes a published constant.
#include "online/service.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "support/error.hpp"

namespace netconst::online {
namespace {

cloud::SyntheticCloudConfig tiny_cloud(std::uint64_t seed) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 6;
  config.datacenter_racks = 3;
  config.seed = seed;
  return config;
}

TenantConfig tenant_config(const std::string& name,
                           cloud::NetworkProvider& provider,
                           std::uint64_t seed) {
  TenantConfig config;
  config.name = name;
  config.provider = &provider;
  config.window_capacity = 4;
  config.snapshot_interval = 600.0;
  config.operation_gap = 300.0;
  // Base interval of 1500 s = 5 operation gaps: interval recalibrations
  // fire within a short run even without breaches.
  config.scheduler.base_interval = 1500.0;
  config.seed = seed;
  return config;
}

TEST(ConstantFinderService, TenantRegistrationContracts) {
  ConstantFinderService service;
  cloud::SyntheticCloud cloud_a(tiny_cloud(1));
  cloud::SyntheticCloud cloud_b(tiny_cloud(2));

  TenantConfig nameless = tenant_config("", cloud_a, 1);
  EXPECT_THROW(service.add_tenant(nameless), ContractViolation);

  TenantConfig no_provider = tenant_config("a", cloud_a, 1);
  no_provider.provider = nullptr;
  EXPECT_THROW(service.add_tenant(no_provider), ContractViolation);

  EXPECT_EQ(service.add_tenant(tenant_config("a", cloud_a, 1)), 0u);
  EXPECT_THROW(service.add_tenant(tenant_config("a", cloud_b, 2)),
               ContractViolation);  // duplicate name
  EXPECT_THROW(service.add_tenant(tenant_config("b", cloud_a, 2)),
               ContractViolation);  // shared provider
  EXPECT_EQ(service.add_tenant(tenant_config("b", cloud_b, 2)), 1u);
  EXPECT_EQ(service.tenant_count(), 2u);
}

TEST(ConstantFinderService, RunWithNoTenantsThrows) {
  ConstantFinderService service;
  EXPECT_THROW(service.run(1), ContractViolation);
}

TEST(ConstantFinderService, SmokeRunKeepsBookkeepingConsistent) {
  ConstantFinderService service;
  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  for (std::uint64_t t = 0; t < 3; ++t) {
    clouds.push_back(
        std::make_unique<cloud::SyntheticCloud>(tiny_cloud(10 + t)));
    service.add_tenant(
        tenant_config("tenant" + std::to_string(t), *clouds.back(), t + 1));
  }

  // Long enough that even a Stable tenant (interval stretched 4x to
  // 6000 s) passes its recalibration deadline: 24 x 300 s = 7200 s.
  constexpr std::size_t kSteps = 24;
  service.run(kSteps);

  std::uint64_t total_refreshes = 0;
  std::uint64_t total_snapshots = 0;
  for (std::size_t t = 0; t < 3; ++t) {
    const TenantStatus status = service.status(t);
    EXPECT_EQ(status.steps, kSteps);
    // Bootstrap filled the whole window, and every recalibration adds one.
    EXPECT_GE(status.snapshots_ingested, 4u);
    EXPECT_GE(status.refreshes, 1u);
    // Bootstrap is a cold solve of both layers.
    EXPECT_GE(status.cold_solves, 2u);
    // 12 steps x 300 s past the 1500 s interval: maintenance must have
    // run at least once beyond bootstrap.
    EXPECT_EQ(status.refreshes,
              1u + status.breaches + status.interval_recalibrations);
    EXPECT_GE(status.breaches + status.interval_recalibrations, 1u);
    EXPECT_GT(status.error_norm, 0.0);
    EXPECT_EQ(service.component(t).constant.size(), 6u);
    total_refreshes += status.refreshes;
    total_snapshots += status.snapshots_ingested;
  }

  // Global metrics aggregate the per-tenant ones exactly.
  const MetricsRegistry& metrics = service.metrics();
  EXPECT_DOUBLE_EQ(metrics.counter_value("online.operations"),
                   3.0 * kSteps);
  EXPECT_DOUBLE_EQ(metrics.counter_value("online.refreshes"),
                   static_cast<double>(total_refreshes));
  EXPECT_DOUBLE_EQ(metrics.counter_value("online.snapshots_ingested"),
                   static_cast<double>(total_snapshots));
  EXPECT_EQ(
      metrics.histogram_summary("online.operation_relative_error").count,
      3u * kSteps);

  // The event log saw every refresh (bootstrap Refresh + Recalibration).
  const EventLog& events = service.events();
  EXPECT_EQ(events.count(EventKind::Refresh) +
                events.count(EventKind::Recalibration),
            total_refreshes);
  EXPECT_EQ(events.count(EventKind::SnapshotIngested),
            total_snapshots - 3u * 4u);  // bootstrap fills are not events

  // Report renders without blowing up.
  std::ostringstream report;
  service.print_report(report);
  EXPECT_NE(report.str().find("tenant0"), std::string::npos);
}

TEST(ConstantFinderService, RepeatedRunContinuesTheCampaign) {
  ConstantFinderService service;
  cloud::SyntheticCloud cloud(tiny_cloud(20));
  service.add_tenant(tenant_config("t", cloud, 3));
  service.run(4);
  const double time_after_first = service.status(0).provider_time;
  service.run(4);
  const TenantStatus status = service.status(0);
  EXPECT_EQ(status.steps, 8u);
  EXPECT_GT(status.provider_time, time_after_first);
  // Second run() must not re-bootstrap.
  EXPECT_EQ(service.status(0).snapshots_ingested,
            4u + status.refreshes - 1u);
}

// A healthy tenant's per-cycle events (ingests, recalibrations,
// suppressed probes, breaches) are counted and digested, not retained:
// serving twice as many cycles keeps the event log the same size. The
// clouds never congest, so no retained kind (a level change, a cold
// fallback) has cause to fire after the bootstrap refresh.
TEST(ConstantFinderService, RetainedEventsDoNotGrowWithCyclesServed) {
  constexpr std::size_t kSteps = 60;
  ConstantFinderService service;
  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  for (std::uint64_t t = 0; t < 2; ++t) {
    cloud::SyntheticCloudConfig quiet = tiny_cloud(30 + t);
    quiet.mean_quiet_duration = 1e12;
    quiet.mean_rack_quiet_duration = 1e12;
    clouds.push_back(std::make_unique<cloud::SyntheticCloud>(quiet));
    service.add_tenant(
        tenant_config("tenant" + std::to_string(t), *clouds.back(), t + 1));
  }
  service.run(kSteps);
  const EventLog& events = service.events();
  const std::size_t retained = events.size();
  const std::uint64_t recorded = events.recorded();
  const std::uint64_t digest = events.digest("tenant0");

  service.run(kSteps);
  EXPECT_EQ(service.status(0).steps, 2 * kSteps);
  EXPECT_EQ(events.size(), retained);
  // Not vacuous: the second half served maintenance cycles.
  EXPECT_GT(events.recorded(), recorded);
  EXPECT_NE(events.digest("tenant0"), digest);
  for (const Event& event : events.snapshot()) {
    EXPECT_FALSE(is_routine(event.kind)) << event_kind_name(event.kind);
  }
}

TEST(ConstantFinderService, TrajectoryIndependentOfThreadCount) {
  // Same tenant configs driven by a single worker and by four workers
  // must produce bit-identical trajectories: tenants share no mutable
  // state, so the interleaving cannot leak into the results.
  const auto drive = [](std::size_t threads) {
    ServiceOptions options;
    options.threads = threads;
    auto service = std::make_unique<ConstantFinderService>(options);
    std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
    for (std::uint64_t t = 0; t < 3; ++t) {
      clouds.push_back(
          std::make_unique<cloud::SyntheticCloud>(tiny_cloud(30 + t)));
      service->add_tenant(tenant_config("tenant" + std::to_string(t),
                                        *clouds.back(), 100 + t));
    }
    service->run(10);
    struct Outcome {
      TenantStatus status;
      core::ConstantComponent component;
    };
    std::vector<Outcome> outcomes;
    for (std::size_t t = 0; t < 3; ++t) {
      outcomes.push_back({service->status(t), service->component(t)});
    }
    return outcomes;
  };

  const auto serial = drive(1);
  const auto threaded = drive(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    const TenantStatus& a = serial[t].status;
    const TenantStatus& b = threaded[t].status;
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_DOUBLE_EQ(a.provider_time, b.provider_time);
    EXPECT_EQ(a.error_norm, b.error_norm);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.snapshots_ingested, b.snapshots_ingested);
    EXPECT_EQ(a.refreshes, b.refreshes);
    EXPECT_EQ(a.warm_solves, b.warm_solves);
    EXPECT_EQ(a.cold_solves, b.cold_solves);
    EXPECT_EQ(a.breaches, b.breaches);
    EXPECT_EQ(a.interval_recalibrations, b.interval_recalibrations);
    EXPECT_EQ(a.suppressed_recalibrations, b.suppressed_recalibrations);
    EXPECT_EQ(serial[t].component.constant.bandwidth().max_abs_diff(
                  threaded[t].component.constant.bandwidth()),
              0.0);
    EXPECT_EQ(serial[t].component.constant.latency().max_abs_diff(
                  threaded[t].component.constant.latency()),
              0.0);
  }
}

TEST(ConstantFinderService, ConcurrentTenantsMatchTenantsRunAlone) {
  // A tenant solving while other tenants solve concurrently on the
  // shared runtime must land exactly where it lands solving alone —
  // at every driver parallelism and quantum size. This is the paper's
  // reproducibility requirement for the multi-tenant service: results
  // must not depend on co-tenancy.
  struct Outcome {
    TenantStatus status;
    core::ConstantComponent component;
  };
  const auto outcome_of = [](const ConstantFinderService& service,
                             std::size_t t) {
    return Outcome{service.status(t), service.component(t)};
  };
  constexpr std::size_t kSteps = 10;

  // Baseline: each tenant alone on a single-threaded service.
  std::vector<Outcome> alone;
  for (std::uint64_t t = 0; t < 2; ++t) {
    ServiceOptions options;
    options.threads = 1;
    ConstantFinderService service(options);
    cloud::SyntheticCloud cloud(tiny_cloud(40 + t));
    service.add_tenant(
        tenant_config("tenant" + std::to_string(t), cloud, 200 + t));
    service.run(kSteps);
    alone.push_back(outcome_of(service, 0));
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t slice : {1u, 3u, 16u}) {
      ServiceOptions options;
      options.threads = threads;
      options.batch_slice = slice;
      ConstantFinderService service(options);
      std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
      for (std::uint64_t t = 0; t < 2; ++t) {
        clouds.push_back(
            std::make_unique<cloud::SyntheticCloud>(tiny_cloud(40 + t)));
        service.add_tenant(tenant_config("tenant" + std::to_string(t),
                                         *clouds.back(), 200 + t));
      }
      service.run(kSteps);
      for (std::size_t t = 0; t < 2; ++t) {
        const Outcome together = outcome_of(service, t);
        const TenantStatus& a = alone[t].status;
        const TenantStatus& b = together.status;
        EXPECT_EQ(a.steps, b.steps);
        EXPECT_DOUBLE_EQ(a.provider_time, b.provider_time);
        EXPECT_EQ(a.error_norm, b.error_norm);
        EXPECT_EQ(a.level, b.level);
        EXPECT_EQ(a.snapshots_ingested, b.snapshots_ingested);
        EXPECT_EQ(a.refreshes, b.refreshes);
        EXPECT_EQ(a.warm_solves, b.warm_solves);
        EXPECT_EQ(a.cold_solves, b.cold_solves);
        EXPECT_EQ(a.breaches, b.breaches);
        EXPECT_EQ(a.interval_recalibrations, b.interval_recalibrations);
        EXPECT_EQ(alone[t].component.constant.bandwidth().max_abs_diff(
                      together.component.constant.bandwidth()),
                  0.0)
            << "threads=" << threads << " slice=" << slice;
        EXPECT_EQ(alone[t].component.constant.latency().max_abs_diff(
                      together.component.constant.latency()),
                  0.0)
            << "threads=" << threads << " slice=" << slice;
      }
    }
  }
}

TEST(ConstantFinderService, SharedGlobalPoolByDefault) {
  // threads == 0 shares ThreadPool::global(): tenants still finish and
  // the trajectory matches a dedicated single-threaded pool.
  ServiceOptions dedicated;
  dedicated.threads = 1;
  ConstantFinderService serial(dedicated);
  cloud::SyntheticCloud cloud_a(tiny_cloud(50));
  serial.add_tenant(tenant_config("t", cloud_a, 7));
  serial.run(6);

  ConstantFinderService shared;  // default options
  cloud::SyntheticCloud cloud_b(tiny_cloud(50));
  shared.add_tenant(tenant_config("t", cloud_b, 7));
  shared.run(6);

  EXPECT_DOUBLE_EQ(serial.status(0).provider_time,
                   shared.status(0).provider_time);
  EXPECT_EQ(serial.status(0).refreshes, shared.status(0).refreshes);
  EXPECT_EQ(serial.component(0).constant.bandwidth().max_abs_diff(
                shared.component(0).constant.bandwidth()),
            0.0);
}

// ---- Convergence telemetry through the service.

// Tenant "full" re-solves every refresh; tenant "tracked" lets the
// incremental row update serve single slides, so its ring also holds
// layers no solve produced.
std::vector<TenantConfig> telemetry_tenants(
    std::vector<std::unique_ptr<cloud::SyntheticCloud>>& clouds) {
  clouds.clear();
  clouds.push_back(std::make_unique<cloud::SyntheticCloud>(tiny_cloud(60)));
  clouds.push_back(std::make_unique<cloud::SyntheticCloud>(tiny_cloud(61)));
  std::vector<TenantConfig> configs;
  configs.push_back(tenant_config("full", *clouds[0], 11));
  configs.push_back(tenant_config("tracked", *clouds[1], 12));
  configs[1].refresher.incremental = true;
  return configs;
}

constexpr std::size_t kTelemetrySteps = 24;

/// Every record of `log`, checked to be one summary per layer per
/// refresh (latency then bandwidth, refresh ordinals 1..refreshes).
std::vector<obs::SolveConvergence> checked_records(
    const obs::ConvergenceLog& log, std::uint64_t refreshes) {
  EXPECT_EQ(log.recorded(), 2 * refreshes);
  EXPECT_LE(log.recorded(), log.capacity()) << "ring wrapped; raise steps";
  const std::vector<obs::SolveConvergence> records = log.snapshot();
  EXPECT_EQ(records.size(), 2 * refreshes);
  for (std::size_t k = 0; k < records.size(); ++k) {
    EXPECT_EQ(records[k].refresh, k / 2 + 1);
    EXPECT_EQ(records[k].layer, k % 2 == 0 ? "latency" : "bandwidth");
  }
  return records;
}

TEST(ServiceTelemetry, DefaultsKeepSummariesWithoutTraces) {
  // Default options: the ring holds one summary per layer per refresh
  // with the stop-rule flags filled, and no tenant runs the solver with
  // a probe attached (an attached probe always leaves a trace).
  ConstantFinderService service;
  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  for (const TenantConfig& config : telemetry_tenants(clouds)) {
    service.add_tenant(config);
  }
  service.run(kTelemetrySteps);

  const MetricsRegistry& metrics = service.metrics();
  double nonconverged_total = 0.0;
  double polish_nonconverged_total = 0.0;
  std::size_t incremental_layers = 0;
  for (std::size_t t = 0; t < service.tenant_count(); ++t) {
    const TenantStatus status = service.status(t);
    const std::vector<obs::SolveConvergence> records =
        checked_records(service.convergence(t), status.refreshes);
    double nonconverged = 0.0;
    double polish_nonconverged = 0.0;
    for (const obs::SolveConvergence& record : records) {
      EXPECT_TRUE(record.trace.empty());
      if (record.incremental) {
        ++incremental_layers;
        EXPECT_EQ(record.iterations, 0);
        EXPECT_EQ(record.polish_iterations, 0);
        continue;
      }
      EXPECT_GT(record.iterations, 0);
      // The online refresher always polishes a full-path solve.
      EXPECT_GT(record.polish_iterations, 0);
      EXPECT_GT(record.solve_seconds, 0.0);
      if (!record.converged) ++nonconverged;
      if (!record.polish_converged) ++polish_nonconverged;
    }
    const std::string prefix = "tenant." + status.name + ".";
    EXPECT_EQ(metrics.counter_value(prefix + "rpca.nonconverged"),
              nonconverged);
    EXPECT_EQ(metrics.counter_value(prefix + "rpca.polish.nonconverged"),
              polish_nonconverged);
    nonconverged_total += nonconverged;
    polish_nonconverged_total += polish_nonconverged;
  }
  EXPECT_GT(incremental_layers, 0u);
  EXPECT_EQ(metrics.counter_value("rpca.nonconverged"), nonconverged_total);
  EXPECT_EQ(metrics.counter_value("rpca.polish.nonconverged"),
            polish_nonconverged_total);

  // Both exporters carry the flags and the counters.
  std::ostringstream json;
  service.write_json_snapshot(json);
  for (const char* field :
       {"\"converged\":", "\"polish_iterations\":", "\"polish_converged\":",
        "\"incremental\":", "\"trace\":[]", "\"rpca.nonconverged\"",
        "\"rpca.polish.nonconverged\"",
        "\"tenant.full.rpca.polish.nonconverged\""}) {
    EXPECT_NE(json.str().find(field), std::string::npos) << field;
  }
  std::ostringstream prom;
  service.write_prometheus(prom);
  for (const char* series :
       {"# TYPE netconst_rpca_nonconverged counter\n",
        "# TYPE netconst_rpca_polish_nonconverged counter\n",
        "netconst_tenant_rpca_nonconverged{tenant=\"tracked\"} ",
        "netconst_tenant_rpca_polish_nonconverged{tenant=\"full\"} "}) {
    EXPECT_NE(prom.str().find(series), std::string::npos) << series;
  }
}

TEST(ServiceTelemetry, TraceCollectionIsPerTenant) {
  // A tenant that asks for traces gets them through the service; its
  // neighbour with default refresher options does not.
  ConstantFinderService service;
  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  std::vector<TenantConfig> configs = telemetry_tenants(clouds);
  configs[0].refresher.collect_convergence = true;
  for (const TenantConfig& config : configs) service.add_tenant(config);
  service.run(kTelemetrySteps);

  const std::size_t capacity =
      configs[0].refresher.convergence_trace_capacity;
  const std::vector<obs::SolveConvergence> traced =
      checked_records(service.convergence(0), service.status(0).refreshes);
  for (const obs::SolveConvergence& record : traced) {
    // The trace belongs to the accepted solve: one sample per
    // iteration up to the cap, the last one being the final iteration.
    ASSERT_FALSE(record.incremental);
    const auto iterations = static_cast<std::size_t>(record.iterations);
    ASSERT_EQ(record.trace.size(), std::min(iterations, capacity));
    EXPECT_EQ(record.trace.front().iteration, 1);
    if (iterations <= capacity) {
      EXPECT_EQ(record.trace.back().iteration, record.iterations);
    }
  }
  for (const obs::SolveConvergence& record : checked_records(
           service.convergence(1), service.status(1).refreshes)) {
    EXPECT_TRUE(record.trace.empty());
  }
}

/// Bit patterns of every constant a tenant published, in order.
class RecordingSink final : public SnapshotSink {
 public:
  void publish(const std::string& tenant,
               const core::ConstantComponent& component, double,
               std::uint64_t) override {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t>& bits = published_[tenant];
    for (const linalg::Matrix* layer : {&component.constant.latency(),
                                        &component.constant.bandwidth()}) {
      for (const double value : layer->data()) {
        bits.push_back(std::bit_cast<std::uint64_t>(value));
      }
    }
  }
  const std::map<std::string, std::vector<std::uint64_t>>& published()
      const {
    return published_;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::vector<std::uint64_t>> published_;
};

TEST(ServiceTelemetry, TracingNeverChangesPublishedConstants) {
  // The probe only reads: a seeded campaign publishes bit-identical
  // constants with traces on, with the default summaries, and with the
  // convergence ring disabled.
  const auto campaign = [](bool collect, std::size_t capacity) {
    ServiceOptions options;
    options.convergence_capacity = capacity;
    ConstantFinderService service(options);
    RecordingSink sink;
    service.set_snapshot_sink(&sink);
    std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
    for (TenantConfig config : telemetry_tenants(clouds)) {
      config.refresher.collect_convergence = collect;
      service.add_tenant(config);
    }
    service.run(kTelemetrySteps);
    service.set_snapshot_sink(nullptr);
    return std::make_pair(sink.published(),
                          service.metrics().counter_value(
                              "rpca.polish.nonconverged"));
  };
  const auto summaries = campaign(false, 64);
  const auto traced = campaign(true, 64);
  const auto disabled = campaign(false, 0);
  ASSERT_EQ(summaries.first.size(), 2u);
  for (const auto& [tenant, bits] : summaries.first) {
    EXPECT_FALSE(bits.empty()) << tenant;
  }
  EXPECT_EQ(summaries.first, traced.first);
  EXPECT_EQ(summaries.first, disabled.first);
  EXPECT_EQ(summaries.second, traced.second);
  EXPECT_EQ(summaries.second, disabled.second);
}

}  // namespace
}  // namespace netconst::online
