#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>

#include "support/rng.hpp"

namespace perfbench {

namespace {

using netconst::serving::PlanKind;

constexpr std::size_t kWindow = 10;
/// Distinct from the calibration's 8 MiB ping-pong probe, so the probe
/// wrapper tells operation probes from calibration probes by size.
constexpr std::uint64_t kOperationBytes = 6ull * 1024 * 1024;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// `count` distinct plan requests: kinds alternate (when `with_mapping`)
/// and sizes cycle through [min_nodes, max_nodes], so every seed asks
/// for the same mix of plan shapes; only which nodes is drawn from
/// `rng`. A draw that repeats an earlier request (mapping plans ignore
/// the root) is drawn again.
std::vector<PlanKey> make_keys(netconst::Rng& rng, const std::string& tenant,
                               std::size_t cluster, std::size_t count,
                               std::size_t min_nodes, std::size_t max_nodes,
                               bool with_mapping) {
  std::vector<PlanKey> keys;
  std::set<std::tuple<PlanKind, std::vector<std::size_t>, std::size_t>> seen;
  std::vector<std::size_t> all(cluster);
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (std::size_t k = 0; k < count; ++k) {
    PlanKey key;
    key.kind = with_mapping && k % 2 == 1 ? PlanKind::TopologyMapping
                                          : PlanKind::BroadcastTree;
    const std::size_t shape = with_mapping ? k / 2 : k;
    const std::size_t size = min_nodes + shape % (max_nodes - min_nodes + 1);
    do {
      rng.shuffle(all);
      key.nodes.assign(all.begin(),
                       all.begin() + static_cast<std::ptrdiff_t>(size));
      key.root = key.nodes.front();
      std::sort(key.nodes.begin(), key.nodes.end());
    } while (!seen.emplace(key.kind, key.nodes,
                           key.kind == PlanKind::BroadcastTree ? key.root : 0)
                  .second);
    key.target = "/plan?tenant=" + tenant + "&kind=" +
                 (key.kind == PlanKind::BroadcastTree ? "tree" : "mapping") +
                 "&nodes=";
    for (std::size_t n = 0; n < key.nodes.size(); ++n) {
      if (n > 0) key.target += ',';
      key.target += std::to_string(key.nodes[n]);
    }
    key.target += "&root=" + std::to_string(key.root) +
                  "&bytes=" + std::to_string(key.bytes);
    keys.push_back(std::move(key));
  }
  return keys;
}

TenantSetup base_tenant(std::uint64_t seed, std::size_t t,
                        std::size_t cluster) {
  TenantSetup tenant;
  tenant.cloud.cluster_size = cluster;
  tenant.cloud.seed = mix(seed, 1000 + t);
  netconst::online::TenantConfig& config = tenant.config;
  config.name = std::to_string(t).insert(0, 1, 't');
  config.window_capacity = kWindow;
  config.operation_bytes = kOperationBytes;
  config.seed = mix(seed, 2000 + t);
  config.refresher.incremental = true;
  config.detector_enabled = true;
  return tenant;
}

/// Production scheduler defaults (adaptive interval, threshold 1.0) on
/// sixteen fault-free N=16 clouds: the incremental tracker serves about
/// half the slides. Sixteen tenants rather than four average out how
/// much one seed's clouds differ from another's.
Workload track_small(std::uint64_t seed, bool wide_keys) {
  Workload workload;
  netconst::Rng rng(mix(seed, 7));
  for (std::size_t t = 0; t < 16; ++t) {
    TenantSetup tenant = base_tenant(seed, t, 16);
    tenant.keys =
        wide_keys
            ? make_keys(rng, tenant.config.name, 16, 640, 4, 14, true)
            : make_keys(rng, tenant.config.name, 16, 4, 6, 6, false);
    workload.tenants.push_back(std::move(tenant));
  }
  workload.horizon = 60000.0;
  return workload;
}

/// Eight N=32 tenants behind a fault plan, fixed 1500 s maintenance
/// cadence with the reactive threshold parked (as in the detector
/// accuracy campaigns): the tracker breaches on most slides, so
/// warm/cold solves dominate and detector verdicts can be scored against
/// the scripted events. The first shift comes late enough for the
/// detector to have a baseline; a run reaches ~1e5 provider seconds.
Workload resolve_wide(std::uint64_t seed) {
  Workload workload;
  netconst::Rng rng(mix(seed, 7));
  for (std::size_t t = 0; t < 8; ++t) {
    TenantSetup tenant = base_tenant(seed, t, 32);
    netconst::online::TenantConfig& config = tenant.config;
    config.scheduler.base_interval = 1500.0;
    config.scheduler.threshold = 1e9;
    config.scheduler.adaptive_interval = false;
    config.detector.direction_confirm_slides = config.window_capacity;

    netconst::faults::FaultPlanConfig faults;
    faults.seed = mix(seed, 3000 + t);
    faults.drop_probability = 0.02;
    faults.storms = {{20000.0, 22000.0, 4.0}, {50000.0, 52000.0, 4.0}};
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, 31));
    auto second = static_cast<std::size_t>(rng.uniform_int(0, 30));
    if (second >= first) ++second;
    faults.placement_changes = {{30000.0, first, 2.0},
                                {65000.0, second, 2.0}};
    tenant.faults = faults;
    tenant.keys = make_keys(rng, config.name, 32, 4, 6, 6, false);
    workload.tenants.push_back(std::move(tenant));
  }
  // Before the first scripted storm: the detector metrics score the
  // storms and shifts; the constant's error is taken where the truth is
  // settled and no window row is storm-corrupted.
  workload.horizon = 19500.0;
  workload.steps_per_run = 40;
  workload.warmup_seconds = 3.0;
  return workload;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload workload;
  if (name == "track_small") {
    workload = track_small(seed, false);
  } else if (name == "resolve_wide") {
    workload = resolve_wide(seed);
  } else if (name == "plan_fanout") {
    // The track_small service behind one keep-alive HTTP connection
    // over a wide key set, eight requests in flight. A quarter of the
    // queries ask for keys a publish has invalidated and the rest for
    // keys cached at the current version, so the hit/miss mix stays
    // fixed instead of rising and falling with the publish rate. The
    // cache holds the whole key set, so misses come from version bumps,
    // not from capacity.
    workload = track_small(seed, true);
    workload.http = true;
    workload.pipeline = 8;
    workload.misses_per_batch = 2;
    workload.plan_cache_capacity = 16384;
    workload.pool_workers = 1;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  workload.name = name;
  return workload;
}

}  // namespace perfbench
