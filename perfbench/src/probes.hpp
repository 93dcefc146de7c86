// The benchmark's stamps at the program's public seams:
//  * ProbeProvider — a cloud::NetworkProvider wrapper that stamps
//    calibration probes (measure_concurrent, and single probes of any
//    size but the operation size) and operation probes;
//  * StampSink — an online::SnapshotSink wrapper that stamps the publish
//    and forwards it to the serving store.
//
// A maintenance cycle runs from its first calibration probe to the next
// time-spending provider call (advance / measure) made by the thread
// that published it — the driver's next step, of this tenant or of the
// next one it claims. Provider clock reads (now()) do not end a cycle:
// the service reads the clock inside its own post-publish bookkeeping.
// The sink's own checks (finiteness, truth error, digest) are timed and
// taken out of the cycle.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cloud/provider.hpp"
#include "online/service.hpp"
#include "serving/snapshot_store.hpp"
#include "trace.hpp"

namespace perfbench {

/// Seconds on the benchmark's steady clock since process start.
double now_s();

/// Thrown from ProbeProvider::advance once a stop is requested; ends the
/// service's run() at a step boundary.
struct StopRun {};

struct CycleRecord {
  std::size_t tenant = 0;
  std::uint64_t refresh = 0;
  std::uint64_t version = 0;
  double start = 0.0;          // first calibration probe
  double ingest_end = 0.0;     // last calibration probe returned
  double publish_start = 0.0;  // sink called
  double publish_end = 0.0;    // store publish returned
  double bookkeeping = 0.0;    // the sink's own checks, excluded
  double end = 0.0;            // next time-spending provider call
  std::size_t calibration_probes = 0;
  /// A run() batch ended between publish and end: the end includes the
  /// wait at the batch barrier, so the cycle's total is not a sample.
  bool cut = false;

  double ingest() const { return ingest_end - start; }
  double refresh_time() const { return publish_start - ingest_end; }
  double publish() const { return publish_end - publish_start; }
  double post_publish() const { return end - publish_end - bookkeeping; }
  double cycle() const { return end - start - bookkeeping; }
};

struct PublishRecord {
  double provider_time = 0.0;
  std::size_t tenant = 0;
  double rel_err = 0.0;
};

/// Everything the stamps of one service instance record. Thread-safe.
class Recorder {
 public:
  explicit Recorder(std::size_t tenants);

  void add_cycle(const CycleRecord& record);
  void add_publish(const PublishRecord& record);
  void mark_setup(std::size_t tenant, double wall);
  /// Wall time every tenant had published version 1, or < 0.
  double setup_complete() const;
  void count_nonfinite() { nonfinite_.fetch_add(1); }

  std::vector<CycleRecord> cycles() const;
  std::vector<PublishRecord> publishes() const;
  std::uint64_t nonfinite() const { return nonfinite_.load(); }

  /// Traced run: every cycle closed while this is on also lands in the
  /// span log.
  std::atomic<bool> tracing{false};
  SpanLog spans;

 private:
  mutable std::mutex mutex_;
  std::vector<CycleRecord> cycles_;
  std::vector<PublishRecord> publishes_;
  std::vector<std::atomic<double>> setup_done_;
  std::atomic<std::uint64_t> nonfinite_{0};
};

/// Start a new recording generation: cycles still pending on some
/// thread from an earlier service instance are dropped, not recorded.
void begin_generation();

/// Called after each ConstantFinderService::run() batch returns.
void end_of_batch();

class ProbeProvider final : public netconst::cloud::NetworkProvider {
 public:
  ProbeProvider(netconst::cloud::NetworkProvider& inner,
                std::uint64_t operation_bytes, const std::atomic<bool>& stop);

  std::size_t cluster_size() const override { return inner_.cluster_size(); }
  double now() const override { return inner_.now(); }
  void advance(double seconds) override;
  double measure(std::size_t i, std::size_t j, std::uint64_t bytes) override;
  std::vector<double> measure_concurrent(
      const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
      std::uint64_t bytes) override;
  netconst::netmodel::PerformanceMatrix oracle_snapshot() override {
    return inner_.oracle_snapshot();
  }

  /// Provider time after the latest call (readable from any thread).
  double provider_time() const { return provider_time_.load(); }

  // Cycle state: touched only by the driver that owns the tenant.
  bool cycle_open = false;
  double cycle_start = 0.0;
  double last_calibration_end = 0.0;
  std::size_t calibration_probes = 0;

 private:
  double spend();
  void open_cycle(double t);
  void calibration_done(std::size_t probes);

  netconst::cloud::NetworkProvider& inner_;
  std::uint64_t operation_bytes_;
  const std::atomic<bool>& stop_;
  std::atomic<double> provider_time_{0.0};
};

/// Per-tenant truth: the transfer times (operation size) of the cloud's
/// true constant, one entry per scripted placement shift applied.
struct TenantTruth {
  std::vector<double> shift_times;               // ascending
  std::vector<std::vector<double>> transfer;     // shift_times.size() + 1
};

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

class StampSink final : public netconst::online::SnapshotSink {
 public:
  StampSink(netconst::serving::SnapshotStore& store,
            std::vector<ProbeProvider*> probes, std::vector<std::string> names,
            std::vector<TenantTruth> truth, Recorder& recorder,
            std::uint64_t operation_bytes, double horizon);

  void publish(const std::string& tenant,
               const netconst::core::ConstantComponent& component,
               double provider_now, std::uint64_t refresh) override;

  /// FNV-1a over the tenant's publishes up to the horizon. Valid once
  /// the service is stopped.
  std::uint64_t digest(std::size_t tenant) const { return digests_[tenant]; }

 private:
  netconst::serving::SnapshotStore& store_;
  std::vector<ProbeProvider*> probes_;
  std::vector<std::string> names_;
  std::vector<TenantTruth> truth_;
  Recorder& recorder_;
  std::uint64_t operation_bytes_;
  double horizon_;
  std::vector<std::uint64_t> digests_;  // one writer per tenant
};

/// FNV-1a 64 over `size` bytes at `data`, continuing from `hash`.
std::uint64_t fnv_mix(std::uint64_t hash, const void* data, std::size_t size);

}  // namespace perfbench
