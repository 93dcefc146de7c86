#include "online/service.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::online {

namespace {

/// The change-point detector needs the sparse-support geometry, so the
/// service turns it on for a tenant whose detector is enabled. The
/// per-iteration convergence probe stays the tenant's own choice
/// (RefresherOptions::collect_convergence): the convergence ring keeps
/// per-layer summaries either way.
RefresherOptions tenant_refresher_options(const TenantConfig& config) {
  RefresherOptions options = config.refresher;
  if (config.detector_enabled) options.collect_support_stats = true;
  return options;
}

}  // namespace

/// Service-wide metric handles, resolved once at construction so the
/// hot paths never build a name or take the registry's lock. The
/// registry keeps the referenced objects alive for its lifetime.
struct ConstantFinderService::ServiceMetrics {
  explicit ServiceMetrics(MetricsRegistry& registry) : metrics(registry) {
    for (std::size_t k = 0; k < detect::kVerdictKindCount; ++k) {
      verdicts[k] = &metrics.counter(
          std::string("detect.verdicts.") +
          detect::verdict_kind_name(static_cast<detect::VerdictKind>(k)));
    }
  }

  Counter& recalibration_reason(TriggerReason reason) {
    switch (reason) {
      case TriggerReason::ThresholdBreach:
        return breach_recalibrations;
      case TriggerReason::ForcedDegraded:
        return forced_recalibrations;
      case TriggerReason::DetectorSignal:
        return detector_recalibrations;
      default:
        return interval_recalibrations;
    }
  }

  MetricsRegistry& metrics;  // first: the handles below bind through it
  Counter& snapshots_ingested = metrics.counter("online.snapshots_ingested");
  Counter& operations = metrics.counter("online.operations");
  Counter& refreshes = metrics.counter("online.refreshes");
  Counter& warm_solves = metrics.counter("online.warm_solves");
  Counter& cold_solves = metrics.counter("online.cold_solves");
  Counter& cold_fallbacks = metrics.counter("online.cold_fallbacks");
  Counter& recalibrations = metrics.counter("online.recalibrations");
  Counter& breach_recalibrations =
      metrics.counter("online.recalibrations.breach");
  Counter& forced_recalibrations =
      metrics.counter("online.recalibrations.forced");
  Counter& detector_recalibrations =
      metrics.counter("online.recalibrations.detector");
  Counter& interval_recalibrations =
      metrics.counter("online.recalibrations.interval");
  Counter& suppressed = metrics.counter("online.recalibrations_suppressed");
  Counter& level_changes = metrics.counter("online.level_changes");
  Counter& dropped_probes = metrics.counter("online.dropped_probes");
  Counter& calibration_failures =
      metrics.counter("online.calibration_failures");
  Counter& stale_rows = metrics.counter("online.stale_rows_reused");
  Counter& imputed_entries = metrics.counter("online.imputed_entries");
  Counter& svd_full = metrics.counter("rpca.svd.path.full");
  Counter& svd_incremental = metrics.counter("rpca.svd.path.incremental");
  Counter& incremental_updates = metrics.counter("rpca.incremental.updates");
  Counter& anchors = metrics.counter("rpca.incremental.anchors");
  Counter& drift_fallbacks =
      metrics.counter("rpca.incremental.drift_fallbacks");
  Counter& masked_fallbacks =
      metrics.counter("rpca.incremental.masked_fallbacks");
  Counter& nonconverged = metrics.counter("rpca.nonconverged");
  Counter& polish_nonconverged = metrics.counter("rpca.polish.nonconverged");
  Counter& preemptions = metrics.counter("detect.preemptions");
  std::array<Counter*, detect::kVerdictKindCount> verdicts{};
  Histogram& calibration_seconds =
      metrics.histogram("online.calibration_seconds");
  Histogram& refresh_seconds = metrics.histogram("online.refresh_seconds");
  Histogram& error_norm = metrics.histogram("online.error_norm");
  Histogram& solver_iterations = metrics.histogram("online.solver_iterations");
  Histogram& operation_relative_error =
      metrics.histogram("online.operation_relative_error");
  Histogram& detect_latency_slides = metrics.histogram("detect.latency_slides");
};

struct ConstantFinderService::Tenant {
  Tenant(const TenantConfig& config_in, MetricsRegistry& metrics,
         std::size_t convergence_capacity)
      : config(config_in),
        window(config_in.window_capacity),
        refresher(tenant_refresher_options(config_in)),
        detector(config_in.detector),
        convergence(convergence_capacity == 0 ? 1 : convergence_capacity),
        scheduler(config_in.scheduler),
        ingestor(*config_in.provider, window, config_in.ingest),
        rng(config_in.seed),
        // Hot-path metric handles resolved once; the registry keeps the
        // referenced objects alive for the service's lifetime.
        snapshots(metrics.counter(prefix() + "snapshots_ingested")),
        operations(metrics.counter(prefix() + "operations")),
        refreshes(metrics.counter(prefix() + "refreshes")),
        warm_solves(metrics.counter(prefix() + "warm_solves")),
        cold_solves(metrics.counter(prefix() + "cold_solves")),
        cold_fallbacks(metrics.counter(prefix() + "cold_fallbacks")),
        recalibrations(metrics.counter(prefix() + "recalibrations")),
        suppressed(metrics.counter(prefix() + "recalibrations_suppressed")),
        dropped_probes(metrics.counter(prefix() + "dropped_probes")),
        calibration_failures(
            metrics.counter(prefix() + "calibration_failures")),
        stale_rows(metrics.counter(prefix() + "stale_rows_reused")),
        forced(metrics.counter(prefix() + "forced_recalibrations")),
        imputed_entries(metrics.counter(prefix() + "imputed_entries")),
        incremental_updates(
            metrics.counter(prefix() + "incremental_updates")),
        drift_fallbacks(metrics.counter(prefix() + "drift_fallbacks")),
        nonconverged(metrics.counter(prefix() + "rpca.nonconverged")),
        polish_nonconverged(
            metrics.counter(prefix() + "rpca.polish.nonconverged")),
        detector_verdicts(metrics.counter(prefix() + "detector_verdicts")),
        detector_recalibrations(
            metrics.counter(prefix() + "detector_recalibrations")),
        error_norm_gauge(metrics.gauge(prefix() + "error_norm")),
        refresh_seconds(metrics.histogram(prefix() + "refresh_seconds")),
        solver_iterations(
            metrics.histogram(prefix() + "solver_iterations")) {
    NETCONST_CHECK(config.provider->cluster_size() >= 2,
                   "tenant cluster must have at least two VMs");
    NETCONST_CHECK(config.operation_gap >= 0.0,
                   "operation gap must be >= 0");
  }

  std::string prefix() const { return "tenant." + config.name + "."; }

  TenantConfig config;
  SlidingWindow window;
  WindowRefresher refresher;
  detect::ChangePointDetector detector;
  /// Per-pair transfer times of the accepted constant — the detector's
  /// direction/level reference space (reused scratch).
  std::vector<double> constant_flat;
  /// A persistent-change verdict arms this; the next step() runs a
  /// pre-emptive maintenance (TriggerReason::DetectorSignal).
  bool detector_preempt_pending = false;
  double detector_preempt_score = 0.0;
  obs::ConvergenceLog convergence;  // per-refresh solver telemetry
  RecalibrationScheduler scheduler;
  SnapshotIngestor ingestor;
  Rng rng;
  core::ConstantComponent component;
  bool bootstrapped = false;
  std::size_t steps = 0;
  std::size_t drop_streak = 0;  // consecutive lost operation probes
  // Ingestor lifetime totals already folded into the metrics.
  std::uint64_t synced_failures = 0;
  std::uint64_t synced_stale = 0;

  // Batch-scheduler state, touched only under the batch mutex or by
  // the single driver that currently owns the tenant.
  std::size_t batch_remaining = 0;
  double step_ewma = 0.0;  // seconds per step; 0 = not yet measured

  Counter& snapshots;
  Counter& operations;
  Counter& refreshes;
  Counter& warm_solves;
  Counter& cold_solves;
  Counter& cold_fallbacks;
  Counter& recalibrations;
  Counter& suppressed;
  Counter& dropped_probes;
  Counter& calibration_failures;
  Counter& stale_rows;
  Counter& forced;
  Counter& imputed_entries;
  Counter& incremental_updates;
  Counter& drift_fallbacks;
  Counter& nonconverged;
  Counter& polish_nonconverged;
  Counter& detector_verdicts;
  Counter& detector_recalibrations;
  Gauge& error_norm_gauge;
  Histogram& refresh_seconds;
  Histogram& solver_iterations;
};

ConstantFinderService::ConstantFinderService(const ServiceOptions& options)
    : options_(options),
      owned_pool_(options.threads == 0
                      ? nullptr
                      : std::make_unique<ThreadPool>(options.threads)),
      pool_(owned_pool_ ? owned_pool_.get() : &ThreadPool::global()),
      global_(std::make_unique<ServiceMetrics>(metrics_)),
      events_(options.event_capacity) {}

ConstantFinderService::~ConstantFinderService() = default;

std::size_t ConstantFinderService::add_tenant(const TenantConfig& config) {
  NETCONST_CHECK(!config.name.empty(), "tenant name must not be empty");
  // Checked before the Tenant's members bind *config.provider.
  NETCONST_CHECK(config.provider != nullptr, "tenant needs a provider");
  for (const auto& tenant : tenants_) {
    NETCONST_CHECK(tenant->config.name != config.name,
                   "duplicate tenant name");
    NETCONST_CHECK(tenant->config.provider != config.provider,
                   "providers must not be shared between tenants");
  }
  tenants_.push_back(std::make_unique<Tenant>(config, metrics_,
                                              options_.convergence_capacity));
  return tenants_.size() - 1;
}

void ConstantFinderService::sync_ingest_totals(Tenant& tenant) {
  const std::uint64_t failures = tenant.ingestor.failed_measurements();
  if (failures > tenant.synced_failures) {
    const auto delta =
        static_cast<double>(failures - tenant.synced_failures);
    tenant.calibration_failures.increment(delta);
    global_->calibration_failures.increment(delta);
    tenant.synced_failures = failures;
  }
  const std::uint64_t stale = tenant.ingestor.stale_rows_reused();
  if (stale > tenant.synced_stale) {
    const auto delta = static_cast<double>(stale - tenant.synced_stale);
    tenant.stale_rows.increment(delta);
    global_->stale_rows.increment(delta);
    // One event per reused row, so the event log, the counters, and
    // TenantStatus all agree — bootstrap fills included.
    for (std::uint64_t k = tenant.synced_stale; k < stale; ++k) {
      events_.record({tenant.config.provider->now(), tenant.config.name,
                      EventKind::StaleRowReused,
                      "snapshot too degraded; re-pushed last good",
                      static_cast<double>(k + 1)});
    }
    tenant.synced_stale = stale;
  }
}

void ConstantFinderService::account_refresh_imputation(
    Tenant& tenant, const RefreshReport& report) {
  if (!report.degraded()) return;
  const auto imputed = static_cast<double>(report.missing_entries());
  tenant.imputed_entries.increment(imputed);
  global_->imputed_entries.increment(imputed);
}

void ConstantFinderService::account_layers(Tenant& tenant,
                                           const RefreshReport& report) {
  ServiceMetrics& global = *global_;
  for (const LayerRefresh* layer : {&report.latency, &report.bandwidth}) {
    // Which machinery produced this layer's factors: the incremental
    // row update or the full solver.
    if (layer->incremental_used) {
      tenant.incremental_updates.increment();
      global.incremental_updates.increment();
      global.svd_incremental.increment();
      continue;  // no solve ran for this layer
    }
    global.svd_full.increment();
    if (layer->drift_fallback) {
      tenant.drift_fallbacks.increment();
      global.drift_fallbacks.increment();
    }
    if (layer->incremental_masked) global.masked_fallbacks.increment();
    if (layer->anchored) global.anchors.increment();
    if (layer->warm_used) {
      tenant.warm_solves.increment();
      global.warm_solves.increment();
    } else {
      tenant.cold_solves.increment();
      global.cold_solves.increment();
    }
    if (layer->cold_fallback) {
      tenant.cold_fallbacks.increment();
      global.cold_fallbacks.increment();
    }
    // The accepted solve's stop rules: what an operator used to read
    // off the per-iteration trace, as counters.
    if (!layer->converged) {
      tenant.nonconverged.increment();
      global.nonconverged.increment();
    }
    if (!layer->polish_converged) {
      tenant.polish_nonconverged.increment();
      global.polish_nonconverged.increment();
    }
  }
  tenant.refresh_seconds.observe(report.total_seconds);
  global.refresh_seconds.observe(report.total_seconds);
  global.error_norm.observe(report.component.error_norm);
  tenant.error_norm_gauge.set(report.component.error_norm);
}

void ConstantFinderService::record_convergence(Tenant& tenant,
                                               RefreshReport& report) {
  for (const LayerRefresh* layer : {&report.latency, &report.bandwidth}) {
    const auto iterations = static_cast<double>(layer->iterations);
    tenant.solver_iterations.observe(iterations);
    global_->solver_iterations.observe(iterations);
  }
  if (options_.convergence_capacity == 0) return;

  const auto refresh =
      static_cast<std::uint64_t>(tenant.refreshes.value());
  const double now = tenant.config.provider->now();
  LayerRefresh* layers[] = {&report.latency, &report.bandwidth};
  const char* names[] = {"latency", "bandwidth"};
  for (std::size_t k = 0; k < 2; ++k) {
    obs::SolveConvergence record;
    record.refresh = refresh;
    record.time = now;
    record.layer = names[k];
    record.incremental = layers[k]->incremental_used;
    record.warm = layers[k]->warm_used;
    record.cold_fallback = layers[k]->cold_fallback;
    record.iterations = layers[k]->iterations;
    record.residual = layers[k]->residual;
    record.converged = layers[k]->converged;
    record.polish_iterations = layers[k]->polish_iterations;
    record.polish_converged = layers[k]->polish_converged;
    record.solve_seconds = layers[k]->solve_seconds;
    record.trace = std::move(layers[k]->trace);
    tenant.convergence.record(std::move(record));
  }
}

void ConstantFinderService::run_detector(Tenant& tenant,
                                         const RefreshReport& report) {
  cloud::NetworkProvider& provider = *tenant.config.provider;
  // The constant's direction/level signal: per-pair transfer times of
  // the tenant's own message size — one unit-free vector that moves
  // with both alpha and beta exactly as the operation stream does. A
  // placement shift bends its direction; a uniform (diurnal) swing
  // moves its level and leaves the direction alone.
  const netmodel::PerformanceMatrix& constant = tenant.component.constant;
  const std::size_t n = constant.size();
  tenant.constant_flat.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      tenant.constant_flat[i * n + j] =
          i == j ? 0.0
                 : constant.transfer_time(i, j,
                                          tenant.config.operation_bytes);
    }
  }

  detect::RefreshSignals signals;
  signals.time = provider.now();
  signals.refresh = static_cast<std::uint64_t>(tenant.refreshes.value());
  signals.sparsity = std::max(report.component.error_norm,
                              report.component.latency_error_norm);
  signals.residual =
      std::max(report.latency.residual, report.bandwidth.residual);
  signals.drift = std::max(report.latency.drift, report.bandwidth.drift);
  const LayerRefresh& support_layer =
      report.bandwidth.support_fraction >= report.latency.support_fraction
          ? report.bandwidth
          : report.latency;
  signals.support_concentration = support_layer.support_concentration;
  signals.support_vm = support_layer.support_vm;
  signals.constant = &tenant.constant_flat;

  const std::optional<detect::Verdict> verdict =
      tenant.detector.observe(signals);
  if (!verdict) return;

  const char* kind = detect::verdict_kind_name(verdict->kind);
  tenant.detector_verdicts.increment();
  global_->verdicts[static_cast<std::size_t>(verdict->kind)]->increment();
  global_->detect_latency_slides.observe(
      static_cast<double>(verdict->latency_slides));
  std::string detail = std::string(kind) + " (signal " +
                       detect::signal_name(verdict->signal) + ", latency " +
                       std::to_string(verdict->latency_slides) + " slides";
  if (verdict->kind == detect::VerdictKind::PlacementShift) {
    detail += ", vm " + std::to_string(verdict->vm);
  }
  detail += ")";
  events_.record({provider.now(), tenant.config.name,
                  EventKind::ChangeDetected, std::move(detail),
                  verdict->score});
  // A verdict is exactly the anomaly the flight recorder exists for.
  obs::FlightRecorder::instance().maybe_auto_dump(
      verdict->kind == detect::VerdictKind::PlacementShift
          ? "detector_placement_shift"
      : verdict->kind == detect::VerdictKind::OutlierStorm
          ? "detector_outlier_storm"
          : "detector_baseline_drift");
  if (tenant.config.detector_preempt &&
      verdict->kind != detect::VerdictKind::OutlierStorm) {
    tenant.detector_preempt_pending = true;
    tenant.detector_preempt_score = verdict->score;
    global_->preemptions.increment();
  }
}

void ConstantFinderService::set_snapshot_sink(SnapshotSink* sink) {
  snapshot_sink_.store(sink, std::memory_order_seq_cst);
  // A driver that loaded the old sink raised publishes_in_flight_
  // before its load (seq_cst on both sides), so once the counter reads
  // zero here no publish can still be running — or start — on it.
  while (publishes_in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

void ConstantFinderService::publish_snapshot(Tenant& tenant) {
  publishes_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  struct Leave {
    std::atomic<std::size_t>* counter;
    ~Leave() { counter->fetch_sub(1, std::memory_order_release); }
  } leave{&publishes_in_flight_};
  SnapshotSink* sink = snapshot_sink_.load(std::memory_order_seq_cst);
  if (sink == nullptr) return;
  sink->publish(
      tenant.config.name, tenant.component, tenant.config.provider->now(),
      static_cast<std::uint64_t>(tenant.refreshes.value()));
}

void ConstantFinderService::bootstrap(Tenant& tenant) {
  obs::Span bootstrap_span("svc.bootstrap");
  cloud::NetworkProvider& provider = *tenant.config.provider;
  const double fill_seconds = [&] {
    obs::Span ingest_span("svc.ingest");
    return tenant.ingestor.fill(tenant.config.snapshot_interval);
  }();
  const double ingested = static_cast<double>(tenant.window.size());
  tenant.snapshots.increment(ingested);
  global_->snapshots_ingested.increment(ingested);
  global_->calibration_seconds.observe(fill_seconds);
  sync_ingest_totals(tenant);

  RefreshReport report = tenant.refresher.refresh(tenant.window);
  tenant.component = report.component;
  tenant.scheduler.record_refresh(provider.now(),
                                  report.component.error_norm);
  tenant.refreshes.increment();
  global_->refreshes.increment();
  publish_snapshot(tenant);
  account_refresh_imputation(tenant, report);
  record_convergence(tenant, report);
  // A bootstrap solve has no seed and no anchored tracker, so both
  // layers account as cold full-path solves.
  account_layers(tenant, report);
  events_.record({provider.now(), tenant.config.name, EventKind::Refresh,
                  "bootstrap (" + std::to_string(tenant.window.size()) +
                      " snapshots, cold solve)",
                  report.component.error_norm});
  if (tenant.config.detector_enabled) run_detector(tenant, report);
  tenant.bootstrapped = true;
}

void ConstantFinderService::maintain(Tenant& tenant, TriggerReason reason,
                                     double trigger_value) {
  obs::Span maintain_span("svc.maintain");
  cloud::NetworkProvider& provider = *tenant.config.provider;

  // The online analogue of Algorithm 1's "re-calibrate": slide the
  // window by one fresh all-link calibration — stale rows phase out of
  // the window instead of being thrown away wholesale, so maintenance
  // costs one snapshot, not time_step of them.
  const IngestReport ingest = [&] {
    obs::Span ingest_span("svc.ingest");
    return tenant.ingestor.ingest_calibrated();
  }();
  tenant.snapshots.increment();
  global_->snapshots_ingested.increment();
  global_->calibration_seconds.observe(ingest.elapsed_seconds);
  sync_ingest_totals(tenant);
  events_.record_routine(tenant.config.name, provider.now(),
                         EventKind::SnapshotIngested, ingest.elapsed_seconds,
                         static_cast<double>(reason));

  RefreshReport report = tenant.refresher.refresh(tenant.window);
  tenant.component = report.component;
  const bool level_changed = tenant.scheduler.record_refresh(
      provider.now(), report.component.error_norm);

  tenant.refreshes.increment();
  global_->refreshes.increment();
  publish_snapshot(tenant);
  account_refresh_imputation(tenant, report);
  record_convergence(tenant, report);
  account_layers(tenant, report);
  if (report.any_cold_fallback()) {
    events_.record({provider.now(), tenant.config.name,
                    EventKind::ColdSolveFallback,
                    "warm solve diverged; solved cold",
                    report.component.error_norm});
    // A rejected warm solve is an anomaly worth a post-mortem: freeze
    // the flight recorder's view of the refresh that led here.
    obs::FlightRecorder::instance().maybe_auto_dump("cold_fallback");
  }

  tenant.recalibrations.increment();
  global_->recalibrations.increment();
  global_->recalibration_reason(reason).increment();
  if (reason == TriggerReason::ForcedDegraded) {
    tenant.forced.increment();
    obs::FlightRecorder::instance().maybe_auto_dump("forced_recalibration");
  }
  if (reason == TriggerReason::DetectorSignal) {
    tenant.detector_recalibrations.increment();
  }
  events_.record_routine(tenant.config.name, provider.now(),
                         EventKind::Recalibration, trigger_value,
                         static_cast<double>(reason));
  if (level_changed) {
    global_->level_changes.increment();
    events_.record(
        {provider.now(), tenant.config.name, EventKind::LevelChange,
         core::effectiveness_name(tenant.scheduler.level()),
         report.component.error_norm});
  }
  if (tenant.config.detector_enabled) run_detector(tenant, report);
}

void ConstantFinderService::step(Tenant& tenant) {
  obs::Span step_span("svc.step");
  cloud::NetworkProvider& provider = *tenant.config.provider;
  provider.advance(tenant.config.operation_gap);

  // A persistent-change verdict pre-empts the threshold/interval
  // policies: refresh the model now, before more operations are planned
  // against a constant the detector says is stale.
  if (tenant.detector_preempt_pending) {
    tenant.detector_preempt_pending = false;
    maintain(tenant, TriggerReason::DetectorSignal,
             tenant.detector_preempt_score);
  }

  // One operation of the tenant's stream: a point-to-point transfer
  // between a random pair, planned with the constant component.
  const auto n = static_cast<std::int64_t>(provider.cluster_size());
  const auto i = static_cast<std::size_t>(tenant.rng.uniform_int(0, n - 1));
  auto j = static_cast<std::size_t>(tenant.rng.uniform_int(0, n - 2));
  if (j >= i) ++j;
  const double expected =
      tenant.component.constant.transfer_time(i, j,
                                              tenant.config.operation_bytes);
  const double observed =
      provider.measure(i, j, tenant.config.operation_bytes);
  tenant.operations.increment();
  global_->operations.increment();

  SchedulerDecision decision;
  if (!std::isfinite(observed)) {
    // Lost probe (timeout / dropped measurement): there is no error
    // signal this cycle, so the threshold policy cannot fire — but a
    // run of blind cycles is itself a signal. Track the streak, keep
    // the adaptive interval policy ticking, and force a maintenance
    // once the streak says the constant can no longer be checked.
    ++tenant.drop_streak;
    tenant.dropped_probes.increment();
    global_->dropped_probes.increment();
    events_.record({provider.now(), tenant.config.name,
                    EventKind::ProbeDropped, "operation probe lost",
                    static_cast<double>(tenant.drop_streak)});
    if (tenant.config.forced_recalibration_after > 0 &&
        tenant.drop_streak >= tenant.config.forced_recalibration_after) {
      events_.record({provider.now(), tenant.config.name,
                      EventKind::ForcedRecalibration,
                      "consecutive lost probes reached the limit",
                      static_cast<double>(tenant.drop_streak)});
      tenant.drop_streak = 0;
      decision.recalibrate = true;
      decision.reason = TriggerReason::ForcedDegraded;
    } else {
      decision = tenant.scheduler.poll(provider.now());
    }
  } else {
    tenant.drop_streak = 0;
    decision = tenant.scheduler.observe_operation(provider.now(), expected,
                                                  observed);
    global_->operation_relative_error.observe(decision.relative_error);
  }

  if (decision.suppressed_probes > 0) {
    const auto count = static_cast<double>(decision.suppressed_probes);
    tenant.suppressed.increment(count);
    global_->suppressed.increment(count);
    events_.record_routine(
        tenant.config.name, provider.now(),
        EventKind::RecalibrationSuppressed, count,
        tenant.scheduler.advisor().recalibration_interval_factor());
  }
  if (decision.recalibrate) {
    if (decision.reason == TriggerReason::ThresholdBreach) {
      events_.record_routine(tenant.config.name, provider.now(),
                             EventKind::ThresholdBreach,
                             decision.relative_error);
    }
    maintain(tenant, decision.reason, decision.relative_error);
  }
  ++tenant.steps;
}

void ConstantFinderService::run(std::size_t steps) {
  NETCONST_CHECK(!tenants_.empty(), "run() with no tenants");
  const std::size_t slice =
      options_.batch_slice == 0 ? 1 : options_.batch_slice;

  // Shared batch state. Reference-counted because a submitted driver
  // task can outlive run(): once the last tenant finishes the caller
  // is released, but a driver that found the ready queue empty may
  // still be unwinding.
  struct Batch {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::vector<Tenant*> ready;  // claimable tenants with work left
    std::size_t unfinished = 0;
    std::exception_ptr first_error;
  };
  auto batch = std::make_shared<Batch>();
  batch->ready.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    tenant->batch_remaining = steps;
    batch->ready.push_back(tenant.get());
  }
  batch->unfinished = tenants_.size();

  // One driver: repeatedly claim the tenant with the largest estimated
  // remaining work and advance it one quantum. Longest-remaining-first
  // keeps a straggling tenant from serializing the batch tail — it gets
  // picked up early and stays in flight while short tenants fill the
  // other workers. Drivers never block: an empty ready queue means
  // every unfinished tenant is already owned by some other driver, so
  // the driver retires instead of waiting (a blocked pool worker would
  // starve the solver regions that share these threads).
  auto drive = [this, batch, slice] {
    for (;;) {
      Tenant* tenant = nullptr;
      {
        std::lock_guard<std::mutex> lock(batch->mutex);
        std::size_t best = batch->ready.size();
        double best_estimate = -1.0;
        for (std::size_t k = 0; k < batch->ready.size(); ++k) {
          const Tenant& candidate = *batch->ready[k];
          // Unmeasured tenants (not yet bootstrapped, or never timed)
          // sort first: they could be arbitrarily expensive.
          const double estimate =
              !candidate.bootstrapped || candidate.step_ewma <= 0.0
                  ? std::numeric_limits<double>::infinity()
                  : candidate.step_ewma *
                        static_cast<double>(candidate.batch_remaining);
          if (estimate > best_estimate) {
            best_estimate = estimate;
            best = k;
          }
        }
        if (best == batch->ready.size()) return;
        tenant = batch->ready[best];
        batch->ready.erase(batch->ready.begin() +
                           static_cast<std::ptrdiff_t>(best));
      }

      bool failed = false;
      std::size_t executed = 0;
      double step_seconds = 0.0;
      try {
        if (!tenant->bootstrapped) bootstrap(*tenant);
        const std::size_t quantum =
            std::min(slice, tenant->batch_remaining);
        const Stopwatch clock;
        for (; executed < quantum; ++executed) step(*tenant);
        step_seconds = clock.seconds();
      } catch (...) {
        failed = true;
        std::lock_guard<std::mutex> lock(batch->mutex);
        if (!batch->first_error) {
          batch->first_error = std::current_exception();
        }
      }

      std::lock_guard<std::mutex> lock(batch->mutex);
      if (executed > 0) {
        // EWMA of wall seconds per step feeds the remaining-work
        // estimate. Noisy (a quantum with a refresh is much dearer
        // than one without) but plenty for straggler ordering.
        const double per_step =
            step_seconds / static_cast<double>(executed);
        tenant->step_ewma = tenant->step_ewma <= 0.0
                                ? per_step
                                : 0.3 * per_step + 0.7 * tenant->step_ewma;
        tenant->batch_remaining -= executed;
      }
      if (!failed && tenant->batch_remaining > 0) {
        batch->ready.push_back(tenant);
      } else if (--batch->unfinished == 0) {
        batch->done_cv.notify_all();
      }
    }
  };

  // min(workers, tenants) pool drivers plus the caller. With a single
  // worker this degenerates gracefully: the caller and one worker
  // drain the batch in longest-remaining-first order.
  const std::size_t drivers =
      std::min(pool_->thread_count(), tenants_.size());
  for (std::size_t d = 0; d < drivers; ++d) pool_->submit(drive);
  drive();

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done_cv.wait(lock, [&] { return batch->unfinished == 0; });
  if (batch->first_error) std::rethrow_exception(batch->first_error);
}

TenantStatus ConstantFinderService::status(std::size_t tenant_index) const {
  NETCONST_CHECK(tenant_index < tenants_.size(), "tenant out of range");
  const Tenant& tenant = *tenants_[tenant_index];
  TenantStatus status;
  status.name = tenant.config.name;
  status.steps = tenant.steps;
  status.provider_time = tenant.config.provider->now();
  status.error_norm = tenant.component.error_norm;
  status.level = tenant.scheduler.level();
  status.snapshots_ingested =
      static_cast<std::uint64_t>(tenant.snapshots.value());
  status.refreshes = static_cast<std::uint64_t>(tenant.refreshes.value());
  status.warm_solves =
      static_cast<std::uint64_t>(tenant.warm_solves.value());
  status.cold_solves =
      static_cast<std::uint64_t>(tenant.cold_solves.value());
  status.cold_fallbacks =
      static_cast<std::uint64_t>(tenant.cold_fallbacks.value());
  status.breaches = tenant.scheduler.breaches();
  status.interval_recalibrations = tenant.scheduler.interval_triggers();
  status.suppressed_recalibrations = tenant.scheduler.suppressed();
  status.dropped_probes =
      static_cast<std::uint64_t>(tenant.dropped_probes.value());
  status.calibration_failures =
      static_cast<std::uint64_t>(tenant.calibration_failures.value());
  status.stale_rows_reused =
      static_cast<std::uint64_t>(tenant.stale_rows.value());
  status.forced_recalibrations =
      static_cast<std::uint64_t>(tenant.forced.value());
  status.imputed_entries =
      static_cast<std::uint64_t>(tenant.imputed_entries.value());
  status.detector_verdicts =
      static_cast<std::uint64_t>(tenant.detector_verdicts.value());
  status.detector_recalibrations =
      static_cast<std::uint64_t>(tenant.detector_recalibrations.value());
  return status;
}

const core::ConstantComponent& ConstantFinderService::component(
    std::size_t tenant_index) const {
  NETCONST_CHECK(tenant_index < tenants_.size(), "tenant out of range");
  return tenants_[tenant_index]->component;
}

const obs::ConvergenceLog& ConstantFinderService::convergence(
    std::size_t tenant_index) const {
  NETCONST_CHECK(tenant_index < tenants_.size(), "tenant out of range");
  return tenants_[tenant_index]->convergence;
}

void ConstantFinderService::write_prometheus(std::ostream& out) const {
  obs::write_prometheus(out, metrics_.samples());
}

void ConstantFinderService::write_json_snapshot(std::ostream& out) const {
  obs::TelemetrySnapshot snapshot;
  snapshot.metrics = metrics_.samples();
  snapshot.convergence.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    snapshot.convergence.emplace_back(tenant->config.name,
                                      &tenant->convergence);
  }
  obs::write_json_snapshot(out, snapshot);
}

void ConstantFinderService::print_report(std::ostream& out) const {
  print_banner(out, "ConstantFinderService report");
  ConsoleTable table({"tenant", "steps", "Norm(N_E)", "level", "snapshots",
                      "refreshes", "warm rate", "fallbacks", "breaches",
                      "interval", "suppressed", "dropped", "stale",
                      "forced"});
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantStatus s = status(t);
    table.add_row({s.name, std::to_string(s.steps),
                   ConsoleTable::cell(s.error_norm),
                   core::effectiveness_name(s.level),
                   std::to_string(s.snapshots_ingested),
                   std::to_string(s.refreshes),
                   ConsoleTable::cell_percent(s.warm_hit_rate()),
                   std::to_string(s.cold_fallbacks),
                   std::to_string(s.breaches),
                   std::to_string(s.interval_recalibrations),
                   std::to_string(s.suppressed_recalibrations),
                   std::to_string(s.dropped_probes),
                   std::to_string(s.stale_rows_reused),
                   std::to_string(s.forced_recalibrations)});
  }
  table.print(out);
  out << '\n';
  print_banner(out, "Metrics");
  metrics_.to_table().print(out);
  out << '\n'
      << "events recorded: " << events_.recorded() << " (retained "
      << events_.size() << ")\n";
}

}  // namespace netconst::online
