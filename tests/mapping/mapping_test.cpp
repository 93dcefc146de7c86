#include "mapping/mapping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "../support/proptest.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::mapping {
namespace {

netmodel::PerformanceMatrix uniform_perf(std::size_t n, double beta) {
  netmodel::PerformanceMatrix p(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) p.set_link(i, j, {1e-4, beta});
    }
  }
  return p;
}

/// The greedy expansion as first written: every candidate scans all n
/// indices and skips the unmapped ones. Kept as the oracle that the
/// production loop (pair sums over the sorted mapped sets) must match
/// assignment for assignment.
Mapping reference_greedy_mapping(const TaskGraph& tasks,
                                 const MachineGraph& machines) {
  const std::size_t n = tasks.size();
  constexpr auto kUnmapped = std::numeric_limits<std::size_t>::max();
  Mapping task_to_machine(n, kUnmapped);
  auto heaviest = [](auto&& weight, const std::vector<bool>& used,
                     std::size_t count) {
    std::size_t best = count;
    double best_weight = -1.0;
    for (std::size_t k = 0; k < count; ++k) {
      if (used[k]) continue;
      const double w = weight(k);
      if (w > best_weight) {
        best_weight = w;
        best = k;
      }
    }
    return best;
  };
  std::vector<bool> machine_used(n, false), task_used(n, false);
  const std::size_t v0 = heaviest(
      [&](std::size_t i) { return machines.vertex_weight(i); },
      machine_used, n);
  const std::size_t s0 = heaviest(
      [&](std::size_t u) { return tasks.vertex_weight(u); }, task_used, n);
  machine_used[v0] = true;
  task_used[s0] = true;
  task_to_machine[s0] = v0;
  for (std::size_t placed = 1; placed < n; ++placed) {
    std::size_t best_machine = n;
    double best_bw = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (machine_used[i]) continue;
      double bw = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (!machine_used[j]) continue;
        bw += machines.bandwidth(i, j) + machines.bandwidth(j, i);
      }
      if (bw > best_bw) {
        best_bw = bw;
        best_machine = i;
      }
    }
    std::size_t best_task = n;
    double best_volume = -1.0;
    for (std::size_t u = 0; u < n; ++u) {
      if (task_used[u]) continue;
      double vol = 0.0;
      for (std::size_t w = 0; w < n; ++w) {
        if (!task_used[w]) continue;
        vol += tasks.volume(u, w) + tasks.volume(w, u);
      }
      if (vol > best_volume) {
        best_volume = vol;
        best_task = u;
      }
    }
    machine_used[best_machine] = true;
    task_used[best_task] = true;
    task_to_machine[best_task] = best_machine;
  }
  return task_to_machine;
}

TEST(RingMapping, IsIdentity) {
  const Mapping m = ring_mapping(5);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_EQ(m[k], k);
  EXPECT_TRUE(is_valid_mapping(m, 5, 5));
}

TEST(IsValidMapping, DetectsProblems) {
  EXPECT_FALSE(is_valid_mapping({0, 0}, 2, 2));      // duplicate
  EXPECT_FALSE(is_valid_mapping({0, 5}, 2, 2));      // out of range
  EXPECT_FALSE(is_valid_mapping({0}, 2, 2));         // wrong size
  EXPECT_TRUE(is_valid_mapping({1, 0}, 2, 2));
}

TEST(GreedyMapping, ProducesBijection) {
  Rng rng(1);
  const TaskGraph tasks = random_task_graph(10, rng);
  MachineGraph machines(10);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      if (i != j) machines.set_bandwidth(i, j, rng.uniform(1e6, 1e8));
    }
  }
  const Mapping m = greedy_mapping(tasks, machines);
  EXPECT_TRUE(is_valid_mapping(m, 10, 10));
}

TEST(GreedyMapping, SeedsHeaviestTaskOnHeaviestMachine) {
  // Task 2 is the heaviest; machine 1 has the highest total bandwidth.
  TaskGraph tasks(3);
  tasks.set_volume(2, 0, 100.0);
  tasks.set_volume(2, 1, 100.0);
  tasks.set_volume(0, 1, 1.0);
  MachineGraph machines(3);
  machines.set_bandwidth(0, 1, 10.0);
  machines.set_bandwidth(1, 0, 10.0);
  machines.set_bandwidth(1, 2, 10.0);
  machines.set_bandwidth(2, 1, 10.0);
  machines.set_bandwidth(0, 2, 1.0);
  machines.set_bandwidth(2, 0, 1.0);
  const Mapping m = greedy_mapping(tasks, machines);
  EXPECT_EQ(m[2], 1u);
}

TEST(GreedyMapping, MatchesTheFullScanReference) {
  // Random task/machine graphs, k = 2..16, in three weight families:
  //  - small integers: sums tie exactly, so the first-index tie-break
  //    decides;
  //  - a few decimal fractions (0.1, 0.2, ...): sums that tie in exact
  //    arithmetic differ in the last bit depending on the order of the
  //    additions, so only the reference's order reproduces its picks;
  //  - continuous values.
  // In every family the assignment must be the reference's exactly.
  testing::run_property(0x6EEDu, 12000, [](Rng& rng) {
    const std::size_t n = testing::random_size(rng, 2, 16);
    const std::int64_t family = rng.uniform_int(0, 2);
    const auto weight = [&](bool may_be_zero) {
      const std::int64_t lowest = may_be_zero ? 0 : 1;
      switch (family) {
        case 0:
          return static_cast<double>(rng.uniform_int(lowest, 2));
        case 1:
          return 0.1 * static_cast<double>(rng.uniform_int(lowest, 4));
        default:
          return may_be_zero && rng.uniform() < 0.2 ? 0.0
                                                    : rng.uniform(1e3, 1e9);
      }
    };
    TaskGraph tasks(n);
    MachineGraph machines(n);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        tasks.set_volume(a, b, weight(true));
        machines.set_bandwidth(a, b, weight(false));
      }
    }
    const Mapping expected = reference_greedy_mapping(tasks, machines);
    ASSERT_EQ(greedy_mapping(tasks, machines), expected) << "n=" << n;
  });
}

TEST(GreedyMapping, SizeMismatchThrows) {
  TaskGraph tasks(3);
  MachineGraph machines(4);
  EXPECT_THROW(greedy_mapping(tasks, machines), ContractViolation);
}

TEST(GreedyMapping, BeatsRingOnHeterogeneousNetwork) {
  // Machines 0..3 form a fast clique; 4..7 are slow. Heavy tasks should
  // land on the fast machines.
  Rng rng(2);
  const std::size_t n = 8;
  netmodel::PerformanceMatrix perf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const bool fast = i < 4 && j < 4;
      perf.set_link(i, j, {1e-4, fast ? 1e8 : 1e6});
    }
  }
  // Tasks 4..7 talk heavily to each other; under ring mapping they sit
  // on the slow machines.
  TaskGraph tasks(n);
  for (std::size_t u = 4; u < 8; ++u) {
    for (std::size_t v = 4; v < 8; ++v) {
      if (u != v) tasks.set_volume(u, v, 10e6);
    }
  }
  for (std::size_t u = 0; u < 4; ++u) {
    tasks.set_volume(u, (u + 1) % 4, 1e3);
  }
  const MachineGraph machines = MachineGraph::from_performance(perf);
  const double greedy_cost =
      mapping_cost(greedy_mapping(tasks, machines), tasks, perf);
  const double ring_cost =
      mapping_cost(ring_mapping(n), tasks, perf);
  EXPECT_LT(greedy_cost, ring_cost);
}

TEST(MappingCost, PerTaskSerializationParallelAcrossTasks) {
  TaskGraph tasks(3);
  tasks.set_volume(0, 1, 100.0);
  tasks.set_volume(0, 2, 100.0);
  tasks.set_volume(1, 2, 100.0);
  netmodel::PerformanceMatrix perf = uniform_perf(3, 100.0);
  // Task 0 sends twice sequentially: 2 * (1e-4 + 1 s); task 1 once.
  const double cost = mapping_cost(ring_mapping(3), tasks, perf);
  EXPECT_NEAR(cost, 2.0 * (1e-4 + 1.0), 1e-9);
}

TEST(MappingCost, InvalidMappingThrows) {
  TaskGraph tasks(2);
  const auto perf = uniform_perf(2, 1.0);
  EXPECT_THROW(mapping_cost({0, 0}, tasks, perf), ContractViolation);
}

TEST(MappingVolumeCost, SumsVolumeOverBandwidth) {
  TaskGraph tasks(2);
  tasks.set_volume(0, 1, 200.0);
  netmodel::PerformanceMatrix perf(2);
  perf.set_link(0, 1, {0.0, 50.0});
  perf.set_link(1, 0, {0.0, 50.0});
  EXPECT_NEAR(mapping_volume_cost(ring_mapping(2), tasks, perf), 4.0,
              1e-12);
}

TEST(MappingCost, UniformGraphIsBijectionInvariant) {
  // The dense uniform task graph serving::compute_plan builds: every
  // ordered pair exchanges the same volume. Each task then pays its
  // machine's full row of transfer times, so every bijection costs the
  // largest row sum and no swap can improve the greedy mapping.
  Rng rng(7);
  for (std::size_t n = 2; n <= 16; ++n) {
    netmodel::PerformanceMatrix perf(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) {
          perf.set_link(i, j, {rng.uniform(1e-5, 1e-3),
                               rng.uniform(1e6, 1e9)});
        }
      }
    }
    TaskGraph tasks(n);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        if (u != v) tasks.set_volume(u, v, 8.0 * 1024 * 1024);
      }
    }
    const Mapping greedy =
        greedy_mapping(tasks, MachineGraph::from_performance(perf));
    ASSERT_TRUE(is_valid_mapping(greedy, n, n));
    const double greedy_cost = mapping_cost(greedy, tasks, perf);
    Mapping shuffled = ring_mapping(n);
    for (int trial = 0; trial < 50; ++trial) {
      rng.shuffle(shuffled);
      EXPECT_NEAR(mapping_cost(shuffled, tasks, perf), greedy_cost,
                  1e-14 * greedy_cost)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(MappingCost, ZeroVolumeEdgesAreFree) {
  TaskGraph tasks(3);
  const auto perf = uniform_perf(3, 1.0);
  EXPECT_EQ(mapping_cost(ring_mapping(3), tasks, perf), 0.0);
}

}  // namespace
}  // namespace netconst::mapping
