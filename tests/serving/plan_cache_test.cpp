// PlanCache + plan canonicalization: permuted requests share one key
// and one byte-identical plan, cache hits serve exactly what a direct
// planner invocation produces, and version bumps invalidate precisely.
#include "serving/plan_cache.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serving/plan.hpp"
#include "support/error.hpp"

namespace netconst::serving {
namespace {

/// Asymmetric deterministic component: link quality varies by pair so
/// FNF ordering and the greedy mapping have real structure to find.
ConstantSnapshot test_snapshot(std::size_t size, std::uint64_t version) {
  ConstantSnapshot snapshot;
  snapshot.tenant = "t";
  snapshot.version = version;
  snapshot.refresh = version;
  snapshot.published_at = static_cast<double>(version);
  snapshot.component.constant = netmodel::PerformanceMatrix(size);
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      if (i == j) continue;
      const double alpha =
          1e-4 * (1.0 + 0.1 * static_cast<double>((i * 7 + j * 3) % 11));
      const double beta =
          1e8 / (1.0 + 0.2 * static_cast<double>((i + 2 * j) % 7) +
                 0.01 * static_cast<double>(version));
      snapshot.component.constant.set_link(i, j, {alpha, beta});
    }
  }
  return snapshot;
}

TEST(PlanCache, CanonicalizationSortsAndDedups) {
  const PlanRequest request = canonical_plan_request(
      PlanKind::BroadcastTree, {5, 1, 3, 1, 5, 0}, 3, 1024);
  EXPECT_EQ(request.nodes, (std::vector<std::size_t>{0, 1, 3, 5}));
  EXPECT_EQ(request.root, 3u);
  EXPECT_EQ(request.bytes, 1024u);

  EXPECT_THROW(canonical_plan_request(PlanKind::BroadcastTree, {1}, 1, 1),
               ContractViolation);  // < 2 nodes
  EXPECT_THROW(canonical_plan_request(PlanKind::BroadcastTree, {1, 2}, 3, 1),
               ContractViolation);  // root not in set
  EXPECT_THROW(canonical_plan_request(PlanKind::BroadcastTree, {1, 2}, 1, 0),
               ContractViolation);  // zero bytes
}

TEST(PlanCache, PermutedNodeOrdersReturnByteIdenticalPlans) {
  const ConstantSnapshot snapshot = test_snapshot(8, 1);
  EpochDomain epoch;
  PlanCache cache(epoch, 64);
  EpochDomain::Reader reader(epoch);

  std::vector<std::size_t> nodes{2, 7, 0, 4, 5};
  std::mt19937_64 rng(42);
  for (const PlanKind kind :
       {PlanKind::BroadcastTree, PlanKind::TopologyMapping}) {
    std::string first_json;
    for (int permutation = 0; permutation < 8; ++permutation) {
      std::shuffle(nodes.begin(), nodes.end(), rng);
      const PlanRequest request = canonical_plan_request(
          kind, nodes, kind == PlanKind::BroadcastTree ? 4 : 0,
          1 << 20);
      EpochDomain::ReadGuard guard(reader);
      const Plan* plan = cache.lookup_or_compute(0, snapshot, request);
      ASSERT_NE(plan, nullptr);
      if (first_json.empty()) {
        first_json = plan->json;
        EXPECT_FALSE(first_json.empty());
      } else {
        // Byte-identical: permuted spellings share one cache entry.
        EXPECT_EQ(plan->json, first_json);
      }
    }
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // one compute per kind
  EXPECT_EQ(stats.hits, 14u);   // everything else served from cache
}

TEST(PlanCache, CachedPlanMatchesDirectPlannerInvocation) {
  const ConstantSnapshot snapshot = test_snapshot(8, 3);
  EpochDomain epoch;
  PlanCache cache(epoch, 64);
  EpochDomain::Reader reader(epoch);

  for (const PlanKind kind :
       {PlanKind::BroadcastTree, PlanKind::TopologyMapping}) {
    const PlanRequest request = canonical_plan_request(
        kind, {0, 1, 2, 3, 6, 7}, 2, 8 * 1024 * 1024);
    const Plan direct = compute_plan(snapshot, request);

    EpochDomain::ReadGuard guard(reader);
    // Twice: once to fill (miss), once to hit.
    cache.lookup_or_compute(0, snapshot, request);
    const Plan* cached = cache.lookup_or_compute(0, snapshot, request);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(cached->json, direct.json);
    EXPECT_EQ(cached->edges, direct.edges);
    EXPECT_EQ(cached->assignment, direct.assignment);
    EXPECT_DOUBLE_EQ(cached->predicted_seconds, direct.predicted_seconds);
    EXPECT_EQ(cached->version, snapshot.version);
  }
}

TEST(PlanCache, BroadcastPlanShape) {
  const ConstantSnapshot snapshot = test_snapshot(6, 1);
  const PlanRequest request = canonical_plan_request(
      PlanKind::BroadcastTree, {1, 2, 4, 5}, 2, 1 << 16);
  const Plan plan = compute_plan(snapshot, request);
  // A broadcast tree over k nodes has k-1 edges, all endpoints from the
  // request's node set, the root transmitting first.
  ASSERT_EQ(plan.edges.size(), 3u);
  EXPECT_EQ(plan.edges.front().parent, 2u);
  for (const Plan::TreeEdge& edge : plan.edges) {
    EXPECT_TRUE(std::binary_search(request.nodes.begin(),
                                   request.nodes.end(), edge.parent));
    EXPECT_TRUE(std::binary_search(request.nodes.begin(),
                                   request.nodes.end(), edge.child));
    EXPECT_NE(edge.parent, edge.child);
  }
  EXPECT_GT(plan.predicted_seconds, 0.0);
  EXPECT_NE(plan.json.find("\"kind\":\"broadcast_tree\""),
            std::string::npos);
}

TEST(PlanCache, MappingPlanShape) {
  const ConstantSnapshot snapshot = test_snapshot(6, 1);
  const PlanRequest request = canonical_plan_request(
      PlanKind::TopologyMapping, {0, 2, 3, 5}, 0, 1 << 16);
  const Plan plan = compute_plan(snapshot, request);
  // A full permutation: every requested node hosts exactly one task.
  ASSERT_EQ(plan.assignment.size(), 4u);
  std::vector<std::size_t> hosts = plan.assignment;
  std::sort(hosts.begin(), hosts.end());
  EXPECT_EQ(hosts, request.nodes);
  EXPECT_GT(plan.predicted_seconds, 0.0);
  EXPECT_NE(plan.json.find("\"kind\":\"topology_mapping\""),
            std::string::npos);
}

TEST(PlanCache, BroadcastPlanJsonMatchesGoldenBytes) {
  // Served bytes are an interface: clients and caches compare them, so
  // tree plans keep this exact serialization — escapes, integer widths
  // and 17-significant-digit reals included.
  ConstantSnapshot snapshot = test_snapshot(16, 5);
  snapshot.tenant = "rack \"a\"\\1";
  const struct {
    std::vector<std::size_t> nodes;
    std::size_t root;
    std::uint64_t bytes;
    std::string json;
  } cases[] = {
      {{0, 1, 2, 3},
       2,
       1 << 16,
       R"({"tenant":"rack \"a\"\\1","version":5,"kind":"broadcast_tree",)"
       R"("bytes":65536,"nodes":[0,1,2,3],"root":2,)"
       R"("edges":[[2,3],[3,1],[2,0]],"predicted_seconds":0.002392688})"},
      {{1, 3, 4, 6, 9, 12},
       9,
       8ull << 20,
       R"({"tenant":"rack \"a\"\\1","version":5,"kind":"broadcast_tree",)"
       R"("bytes":8388608,"nodes":[1,3,4,6,9,12],"root":9,)"
       R"("edges":[[9,6],[6,4],[6,12],[9,3],[9,1]],)"
       R"("predicted_seconds":0.34852723199999996})"},
      {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15},
       13,
       3'000'000'000ull,
       R"({"tenant":"rack \"a\"\\1","version":5,"kind":"broadcast_tree",)"
       R"("bytes":3000000000,"nodes":[0,1,2,3,4,5,6,7,8,9,10,11,13,15],)"
       R"("root":13,"edges":[[13,11],[11,5],[5,8],[5,3],[11,9],[9,0],)"
       R"([11,6],[13,4],[4,2],[4,10],[13,15],[15,7],[13,1]],)"
       R"("predicted_seconds":150.00051000000002})"},
  };
  for (const auto& golden : cases) {
    const Plan plan = compute_plan(
        snapshot, canonical_plan_request(PlanKind::BroadcastTree,
                                         golden.nodes, golden.root,
                                         golden.bytes));
    EXPECT_EQ(plan.json, golden.json);
  }
}

TEST(PlanCache, PredictedSecondsRoundTripsThroughJson) {
  // The JSON real must parse back to exactly the plan's double, for
  // both kinds, over many node sets, sizes and message sizes.
  std::mt19937_64 rng(11);
  const std::string field = "\"predicted_seconds\":";
  std::size_t plans = 0;
  for (std::uint64_t version = 1; version <= 4; ++version) {
    const ConstantSnapshot snapshot = test_snapshot(16, version);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<std::size_t> nodes(16);
      for (std::size_t k = 0; k < nodes.size(); ++k) nodes[k] = k;
      std::shuffle(nodes.begin(), nodes.end(), rng);
      nodes.resize(2 + rng() % 15);
      const std::uint64_t bytes = 1 + rng() % (1ull << 32);
      for (const PlanKind kind :
           {PlanKind::BroadcastTree, PlanKind::TopologyMapping}) {
        const Plan plan = compute_plan(
            snapshot,
            canonical_plan_request(kind, nodes, nodes.front(), bytes));
        const std::size_t at = plan.json.find(field);
        ASSERT_NE(at, std::string::npos);
        const char* begin = plan.json.c_str() + at + field.size();
        char* end = nullptr;
        EXPECT_EQ(std::strtod(begin, &end), plan.predicted_seconds)
            << plan.json;
        EXPECT_EQ(std::string(end), "}") << plan.json;
        if (kind == PlanKind::TopologyMapping) {
          std::vector<std::size_t> hosts = plan.assignment;
          std::sort(hosts.begin(), hosts.end());
          EXPECT_EQ(hosts, plan.request.nodes);
        }
        ++plans;
      }
    }
  }
  EXPECT_EQ(plans, 800u);
}

TEST(PlanCache, VersionBumpInvalidatesExactlyOlderEntries) {
  const ConstantSnapshot v1 = test_snapshot(8, 1);
  const ConstantSnapshot v2 = test_snapshot(8, 2);
  EpochDomain epoch;
  PlanCache cache(epoch, 64);
  EpochDomain::Reader reader(epoch);
  const PlanRequest request = canonical_plan_request(
      PlanKind::BroadcastTree, {0, 1, 2, 3}, 0, 4096);

  {
    EpochDomain::ReadGuard guard(reader);
    const Plan* old_plan = cache.lookup_or_compute(0, v1, request);
    EXPECT_EQ(old_plan->version, 1u);
    EXPECT_EQ(cache.size(), 1u);
    // Version in the key: a v1 probe hits, a v2 probe misses.
    EXPECT_NE(cache.find(0, 1, request), nullptr);
    EXPECT_EQ(cache.find(0, 2, request), nullptr);
  }

  // The publish hook's path: drop entries below the new version.
  EXPECT_EQ(cache.invalidate_below(0, 2), 1u);
  EXPECT_EQ(cache.size(), 0u);
  {
    EpochDomain::ReadGuard guard(reader);
    EXPECT_EQ(cache.find(0, 1, request), nullptr);
    const Plan* new_plan = cache.lookup_or_compute(0, v2, request);
    EXPECT_EQ(new_plan->version, 2u);
  }
  // Different snapshot -> different plan bytes (beta depends on version).
  EXPECT_EQ(cache.stats().invalidated, 1u);
  epoch.reclaim();
  EXPECT_EQ(epoch.pending(), 0u);
}

// Regression: invalidate_below scans (and dereferences) live table
// entries from the publishing thread. Without its internal read guard,
// a query thread can stale-replace + retire the entry mid-scan and a
// concurrent publish for the *other* tenant can reclaim() it — a
// use-after-free on the key compare and a potential ABA double-retire.
// Two per-tenant publishers bump versions and invalidate while query
// threads keep inserting plans for whatever version they last saw
// (including just-superseded ones, which forces stale replacements).
// ASan/TSan make the unguarded variant fail loudly.
TEST(PlanCache, InvalidateRacesQueriesAndCrossTenantReclaims) {
  EpochDomain epoch;
  // Small table: probe windows collide, so stale in-place replacement
  // and probe-window-exhausted paths all fire.
  PlanCache cache(epoch, 64);
  constexpr std::size_t kTenants = 2;
  constexpr std::uint64_t kVersions = 160;
  constexpr std::size_t kQueryThreads = 4;

  std::array<std::vector<ConstantSnapshot>, kTenants> snapshots;
  for (std::size_t t = 0; t < kTenants; ++t) {
    for (std::uint64_t v = 1; v <= kVersions; ++v) {
      snapshots[t].push_back(test_snapshot(6, v));
    }
  }
  std::array<std::atomic<std::uint64_t>, kTenants> current{};
  for (auto& version : current) version.store(1);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> queriers;
  for (std::size_t q = 0; q < kQueryThreads; ++q) {
    queriers.emplace_back([&, q] {
      EpochDomain::Reader reader(epoch);
      std::mt19937_64 rng(1000 * q + 7);
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t t = rng() % kTenants;
        // The version a real querier pinned may lag the publisher's
        // bump — exactly the window where invalidation races inserts.
        const std::uint64_t v =
            current[t].load(std::memory_order_acquire);
        std::vector<std::size_t> nodes{rng() % 6, 0, 0};
        nodes[1] = (nodes[0] + 1 + rng() % 5) % 6;
        nodes[2] = (nodes[0] + 1 + rng() % 5) % 6;
        const PlanRequest request = canonical_plan_request(
            PlanKind::BroadcastTree, nodes, nodes.front(),
            1024 * (1 + rng() % 4));
        EpochDomain::ReadGuard guard(reader);
        const Plan* plan = cache.lookup_or_compute(
            t, snapshots[t][static_cast<std::size_t>(v - 1)], request);
        if (plan == nullptr || plan->version != v ||
            plan->request.nodes != request.nodes) {
          failed.store(true, std::memory_order_release);
          return;
        }
      }
    });
  }

  std::vector<std::thread> publishers;
  for (std::size_t t = 0; t < kTenants; ++t) {
    publishers.emplace_back([&, t] {
      for (std::uint64_t v = 2; v <= kVersions; ++v) {
        current[t].store(v, std::memory_order_release);
        cache.invalidate_below(t, v);
        // The cross-tenant hazard: this reclaim can free entries the
        // other tenant's invalidation scan is still dereferencing.
        epoch.reclaim();
        std::this_thread::yield();
      }
    });
  }

  for (std::thread& publisher : publishers) publisher.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& querier : queriers) querier.join();
  EXPECT_FALSE(failed.load());

  // Only entries at each tenant's final version may remain.
  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(cache.invalidate_below(t, kVersions), 0u);
  }
  epoch.reclaim();
  EXPECT_EQ(epoch.pending(), 0u);
}

TEST(PlanCache, InsertBelowTheFloorRetiresItself) {
  // A querier pinned v1, then the v2 publish invalidated before the
  // querier's insert: the plan is still served, but its entry must not
  // stay linked past the last invalidation.
  const ConstantSnapshot v1 = test_snapshot(6, 1);
  EpochDomain epoch;
  PlanCache cache(epoch, 64);
  EpochDomain::Reader reader(epoch);
  const PlanRequest request = canonical_plan_request(
      PlanKind::BroadcastTree, {0, 1, 2}, 0, 4096);
  EXPECT_EQ(cache.invalidate_below(0, 2), 0u);
  // The floor never lowers.
  EXPECT_EQ(cache.invalidate_below(0, 1), 0u);
  {
    EpochDomain::ReadGuard guard(reader);
    const Plan* plan = cache.lookup_or_compute(0, v1, request);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->version, 1u);
    EXPECT_EQ(plan->request.nodes, request.nodes);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.find(0, 1, request), nullptr);
    // The floor is per tenant: tenant 1 still caches version 1.
    cache.lookup_or_compute(1, v1, request);
    EXPECT_NE(cache.find(1, 1, request), nullptr);
  }
  EXPECT_EQ(cache.stats().invalidated, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_THROW(cache.invalidate_below(SnapshotStore::kMaxTenants, 1),
               ContractViolation);
  epoch.reclaim();
  EXPECT_EQ(epoch.pending(), 0u);
}

TEST(PlanCache, TenantsAreIsolated) {
  const ConstantSnapshot snapshot = test_snapshot(6, 1);
  EpochDomain epoch;
  PlanCache cache(epoch, 64);
  EpochDomain::Reader reader(epoch);
  const PlanRequest request = canonical_plan_request(
      PlanKind::BroadcastTree, {0, 1, 2}, 0, 4096);
  EpochDomain::ReadGuard guard(reader);
  cache.lookup_or_compute(0, snapshot, request);
  cache.lookup_or_compute(1, snapshot, request);
  EXPECT_EQ(cache.size(), 2u);
  // Invalidating tenant 0 leaves tenant 1's entry alone.
  EXPECT_EQ(cache.invalidate_below(0, 99), 1u);
  EXPECT_EQ(cache.find(1, 1, request) != nullptr, true);
  EXPECT_EQ(cache.find(0, 1, request), nullptr);
}

}  // namespace
}  // namespace netconst::serving
