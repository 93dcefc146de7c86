// The benchmark's workloads: seeded synthetic clouds, per-tenant service
// configuration, fault scripts and the query client's key sets. Every
// input is a pure function of (workload name, seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/synthetic.hpp"
#include "faults/fault_plan.hpp"
#include "online/service.hpp"
#include "serving/plan.hpp"

namespace perfbench {

struct PlanKey {
  netconst::serving::PlanKind kind = netconst::serving::PlanKind::BroadcastTree;
  std::vector<std::size_t> nodes;  // canonical: sorted, distinct
  std::size_t root = 0;
  std::uint64_t bytes = 8ull * 1024 * 1024;
  /// The same request as an HTTP /plan target (tenant filled in).
  std::string target;
};

struct TenantSetup {
  netconst::cloud::SyntheticCloudConfig cloud;
  /// Set when the tenant's probes go through a FaultInjectionProvider.
  std::optional<netconst::faults::FaultPlanConfig> faults;
  /// Provider pointer left null; the benchmark wires its probe wrapper.
  netconst::online::TenantConfig config;
  std::vector<PlanKey> keys;
};

struct Workload {
  std::string name;
  std::vector<TenantSetup> tenants;
  /// Query over HTTP /plan (one keep-alive connection) instead of the
  /// in-process ConstantServer::plan_json path.
  bool http = false;
  /// HTTP requests the client sends in one write before reading their
  /// answers (1: one request at a time). In-process queries are never
  /// batched.
  std::size_t pipeline = 1;
  /// With HTTP: of every `pipeline` queries, this many ask for a key
  /// whose tenant published since it was last answered (a cache miss)
  /// and the rest for a key answered at the current version (a hit), so
  /// the hit/miss mix does not follow the publish rate. 0: keys in
  /// round-robin order.
  std::size_t misses_per_batch = 0;
  /// ConstantServerOptions::plan_cache_capacity.
  std::size_t plan_cache_capacity = 4096;
  /// Worker threads of the shared pool (NETCONST_THREADS): tenant
  /// drivers are these workers plus the service's calling thread, and
  /// solver regions multiplex over the same workers.
  std::size_t pool_workers = 2;
  /// Wall seconds between set-up and the measured window.
  double warmup_seconds = 2.0;
  /// Steps per ConstantFinderService::run() call. The service runs
  /// one batch after another, as a deployment's control loop would:
  /// longest-remaining-first claims inside a batch, a barrier between
  /// batches.
  std::size_t steps_per_run = 256;
  /// Provider-time horizon (seconds) every tenant passes early in a run.
  /// The determinism digest covers every publish and verdict up to it,
  /// and constant_rel_err every publish up to it.
  double horizon = 0.0;
};

/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
