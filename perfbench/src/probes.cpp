#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point g_origin =
    std::chrono::steady_clock::now();

std::atomic<std::uint64_t> g_generation{0};
std::atomic<std::uint64_t> g_batch{0};

/// A published cycle waits on the publishing thread for that thread's
/// next time-spending provider call, which ends it.
struct Pending {
  std::uint64_t generation = 0;
  std::uint64_t batch = 0;
  Recorder* recorder = nullptr;
  CycleRecord record;
};
thread_local Pending t_pending;

void close_pending(double t) {
  if (t_pending.recorder == nullptr) return;
  if (t_pending.generation == g_generation.load()) {
    t_pending.record.end = t;
    t_pending.record.cut = t_pending.batch != g_batch.load();
    t_pending.recorder->add_cycle(t_pending.record);
  }
  t_pending.recorder = nullptr;
}

std::vector<Span> cycle_spans(const CycleRecord& r) {
  auto child = [&r](const char* name, double start, double end) {
    Span span;
    span.name = name;
    span.tenant = r.tenant;
    span.refresh = r.refresh;
    span.parent = 0;
    span.start = start;
    span.end = end;
    span.version = r.version;
    return span;
  };
  std::vector<Span> spans;
  spans.reserve(6);
  spans.push_back(child("cycle", r.start, r.end));
  spans.back().parent = kNoParent;
  spans.push_back(child("ingest", r.start, r.ingest_end));
  spans.push_back(child("refresh", r.ingest_end, r.publish_start));
  spans.push_back(child("publish", r.publish_start, r.publish_end));
  spans.push_back(child("bench.bookkeeping", r.publish_end,
                        r.publish_end + r.bookkeeping));
  spans.push_back(
      child("post_publish", r.publish_end + r.bookkeeping, r.end));
  return spans;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_origin)
      .count();
}

void begin_generation() { g_generation.fetch_add(1); }

void end_of_batch() { g_batch.fetch_add(1); }

std::uint64_t fnv_mix(std::uint64_t hash, const void* data,
                      std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < size; ++k) {
    hash ^= bytes[k];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Recorder::Recorder(std::size_t tenants) : setup_done_(tenants) {
  for (auto& done : setup_done_) done.store(-1.0);
}

void Recorder::add_cycle(const CycleRecord& record) {
  // Spans are built before taking the lock; only the traced run pays.
  if (tracing.load(std::memory_order_relaxed)) {
    spans.append(cycle_spans(record));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  cycles_.push_back(record);
}

void Recorder::add_publish(const PublishRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  publishes_.push_back(record);
}

void Recorder::mark_setup(std::size_t tenant, double wall) {
  setup_done_[tenant].store(wall);
}

double Recorder::setup_complete() const {
  double last = 0.0;
  for (const auto& done : setup_done_) {
    const double t = done.load();
    if (t < 0.0) return -1.0;
    last = std::max(last, t);
  }
  return last;
}

std::vector<CycleRecord> Recorder::cycles() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cycles_;
}

std::vector<PublishRecord> Recorder::publishes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return publishes_;
}

ProbeProvider::ProbeProvider(netconst::cloud::NetworkProvider& inner,
                             std::uint64_t operation_bytes,
                             const std::atomic<bool>& stop)
    : inner_(inner), operation_bytes_(operation_bytes), stop_(stop) {
  provider_time_.store(inner.now());
}

double ProbeProvider::spend() {
  const double t = now_s();
  close_pending(t);
  return t;
}

void ProbeProvider::open_cycle(double t) {
  if (cycle_open) return;
  cycle_open = true;
  cycle_start = t;
  calibration_probes = 0;
}

void ProbeProvider::calibration_done(std::size_t probes) {
  last_calibration_end = now_s();
  calibration_probes += probes;
  provider_time_.store(inner_.now(), std::memory_order_relaxed);
}

void ProbeProvider::advance(double seconds) {
  spend();
  if (stop_.load(std::memory_order_relaxed)) throw StopRun{};
  inner_.advance(seconds);
  provider_time_.store(inner_.now(), std::memory_order_relaxed);
}

double ProbeProvider::measure(std::size_t i, std::size_t j,
                              std::uint64_t bytes) {
  const double t = spend();
  if (bytes == operation_bytes_) {
    const double elapsed = inner_.measure(i, j, bytes);
    provider_time_.store(inner_.now(), std::memory_order_relaxed);
    return elapsed;
  }
  open_cycle(t);  // a calibration retry probe
  const double elapsed = inner_.measure(i, j, bytes);
  calibration_done(1);
  return elapsed;
}

std::vector<double> ProbeProvider::measure_concurrent(
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    std::uint64_t bytes) {
  open_cycle(spend());
  std::vector<double> elapsed = inner_.measure_concurrent(pairs, bytes);
  calibration_done(pairs.size());
  return elapsed;
}

StampSink::StampSink(netconst::serving::SnapshotStore& store,
                     std::vector<ProbeProvider*> probes,
                     std::vector<std::string> names,
                     std::vector<TenantTruth> truth, Recorder& recorder,
                     std::uint64_t operation_bytes,
                     double horizon)
    : store_(store),
      probes_(std::move(probes)),
      names_(std::move(names)),
      truth_(std::move(truth)),
      recorder_(recorder),
      operation_bytes_(operation_bytes),
      horizon_(horizon),
      digests_(names_.size(), kFnvOffsetBasis) {}

void StampSink::publish(const std::string& tenant,
                        const netconst::core::ConstantComponent& component,
                        double provider_now, std::uint64_t refresh) {
  const double publish_start = now_s();
  store_.publish(tenant, component, provider_now, refresh);
  const double publish_end = now_s();

  const std::size_t index = static_cast<std::size_t>(
      std::find(names_.begin(), names_.end(), tenant) - names_.begin());
  ProbeProvider& probe = *probes_.at(index);
  const std::uint64_t version = store_.version(store_.find(tenant));

  // The benchmark's own checks; timed and taken out of the cycle.
  const netconst::netmodel::PerformanceMatrix& constant = component.constant;
  const std::size_t n = constant.size();
  const TenantTruth& truth = truth_[index];
  const std::size_t epoch = static_cast<std::size_t>(
      std::upper_bound(truth.shift_times.begin(), truth.shift_times.end(),
                       provider_now) -
      truth.shift_times.begin());
  const std::vector<double>& expected = truth.transfer[epoch];
  bool finite = true;
  double diff2 = 0.0;
  double norm2 = 0.0;
  std::uint64_t& digest = digests_[index];
  const bool digested = provider_now <= horizon_;
  if (digested) digest = fnv_mix(digest, &refresh, sizeof(refresh));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const netconst::netmodel::LinkParams link = constant.link(i, j);
      if (!std::isfinite(link.alpha) || !std::isfinite(link.beta)) {
        finite = false;
      }
      if (digested) {
        digest = fnv_mix(digest, &link.alpha, sizeof(double));
        digest = fnv_mix(digest, &link.beta, sizeof(double));
      }
      const double got = link.transfer_time(operation_bytes_);
      const double want = expected[i * n + j];
      diff2 += (got - want) * (got - want);
      norm2 += want * want;
    }
  }
  if (!finite) recorder_.count_nonfinite();
  recorder_.add_publish(
      {provider_now, index, std::sqrt(diff2) / std::sqrt(norm2)});
  const double bookkeeping = now_s() - publish_end;

  if (refresh == 1) {
    recorder_.mark_setup(index, publish_end);
  } else {
    CycleRecord record;
    record.tenant = index;
    record.refresh = refresh;
    record.version = version;
    record.start = probe.cycle_open ? probe.cycle_start : publish_start;
    record.ingest_end =
        probe.cycle_open ? probe.last_calibration_end : publish_start;
    record.publish_start = publish_start;
    record.publish_end = publish_end;
    record.bookkeeping = bookkeeping;
    record.calibration_probes = probe.calibration_probes;
    t_pending.generation = g_generation.load();
    t_pending.batch = g_batch.load();
    t_pending.recorder = &recorder_;
    t_pending.record = record;
  }
  probe.cycle_open = false;
}

}  // namespace perfbench
