#include "mapping/mapping.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace netconst::mapping {

Mapping ring_mapping(std::size_t tasks) {
  Mapping m(tasks);
  for (std::size_t k = 0; k < tasks; ++k) m[k] = k;
  return m;
}

Mapping greedy_mapping(const TaskGraph& tasks,
                       const MachineGraph& machines) {
  const std::size_t n = tasks.size();
  NETCONST_CHECK(machines.size() == n,
                 "task and machine counts must match");
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

  // Seed: heaviest machine vertex <- heaviest task vertex.
  const std::size_t v0 = heaviest(
      [&](std::size_t i) { return machines.vertex_weight(i); },
      machine_used, n);
  const std::size_t s0 = heaviest(
      [&](std::size_t u) { return tasks.vertex_weight(u); }, task_used, n);
  machine_used[v0] = true;
  task_used[s0] = true;
  task_to_machine[s0] = v0;

  // Expansion: next machine = unmapped machine with the strongest total
  // connection to the mapped machines; next task = unmapped task with
  // the heaviest total connection to the tasks already placed on those
  // mapped machines. Both sums run over the mapped sets in ascending
  // index order, adding the pair sums precomputed below, so they are
  // the same additions in the same order as a scan of all n indices
  // that skips the unmapped ones — without the branch.
  std::vector<double> link_pair(n * n), volume_pair(n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      link_pair[a * n + b] =
          machines.bandwidth(a, b) + machines.bandwidth(b, a);
      volume_pair[a * n + b] = tasks.volume(a, b) + tasks.volume(b, a);
    }
  }
  const auto connection = [n](const std::vector<double>& pair,
                              const std::vector<std::size_t>& mapped) {
    return [&pair, &mapped, n](std::size_t i) {
      const double* row = pair.data() + i * n;
      double sum = 0.0;
      for (const std::size_t j : mapped) sum += row[j];
      return sum;
    };
  };
  const auto insert_sorted = [](std::vector<std::size_t>& set,
                                std::size_t index) {
    set.insert(std::upper_bound(set.begin(), set.end(), index), index);
  };
  std::vector<std::size_t> mapped_machines{v0}, mapped_tasks{s0};
  mapped_machines.reserve(n);
  mapped_tasks.reserve(n);
  for (std::size_t placed = 1; placed < n; ++placed) {
    const std::size_t best_machine = heaviest(
        connection(link_pair, mapped_machines), machine_used, n);
    const std::size_t best_task =
        heaviest(connection(volume_pair, mapped_tasks), task_used, n);
    NETCONST_ASSERT(best_machine < n && best_task < n);
    machine_used[best_machine] = true;
    task_used[best_task] = true;
    task_to_machine[best_task] = best_machine;
    insert_sorted(mapped_machines, best_machine);
    insert_sorted(mapped_tasks, best_task);
  }
  return task_to_machine;
}

bool is_valid_mapping(const Mapping& mapping, std::size_t tasks,
                      std::size_t machines) {
  if (mapping.size() != tasks) return false;
  std::vector<bool> used(machines, false);
  for (std::size_t machine : mapping) {
    if (machine >= machines || used[machine]) return false;
    used[machine] = true;
  }
  return true;
}

double mapping_cost(const Mapping& mapping, const TaskGraph& tasks,
                    const netmodel::PerformanceMatrix& performance) {
  NETCONST_CHECK(
      is_valid_mapping(mapping, tasks.size(), performance.size()),
      "invalid mapping");
  double worst = 0.0;
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    double task_time = 0.0;
    for (std::size_t v = 0; v < tasks.size(); ++v) {
      if (u == v) continue;
      const double volume = tasks.volume(u, v);
      if (volume <= 0.0) continue;
      task_time += performance.transfer_time(
          mapping[u], mapping[v], static_cast<std::uint64_t>(volume));
    }
    worst = std::max(worst, task_time);
  }
  return worst;
}

double mapping_volume_cost(const Mapping& mapping, const TaskGraph& tasks,
                           const netmodel::PerformanceMatrix& performance) {
  NETCONST_CHECK(
      is_valid_mapping(mapping, tasks.size(), performance.size()),
      "invalid mapping");
  double total = 0.0;
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    for (std::size_t v = 0; v < tasks.size(); ++v) {
      if (u == v) continue;
      const double volume = tasks.volume(u, v);
      if (volume <= 0.0) continue;
      total += volume / performance.link(mapping[u], mapping[v]).beta;
    }
  }
  return total;
}

}  // namespace netconst::mapping
