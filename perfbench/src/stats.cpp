#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

double quantile(std::vector<double>& samples, double level) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const double rank = std::ceil(level * n);
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

namespace {

/// Samples strictly above the nearest-rank position of `level`.
std::size_t beyond(std::size_t n, double level) {
  const auto rank = static_cast<std::size_t>(
      std::max(std::ceil(level * static_cast<double>(n)), 1.0));
  return n > rank ? n - rank : 0;
}

}  // namespace

Percentile tail_percentile(std::vector<double>& samples, double wanted) {
  static constexpr double kLevels[] = {0.999, 0.99, 0.9, 0.5};
  Percentile result;
  result.n = samples.size();
  result.level = 0.5;
  for (const double level : kLevels) {
    if (level > wanted) continue;
    if (beyond(samples.size(), level) >= 10) {
      result.level = level;
      break;
    }
  }
  result.value = quantile(samples, result.level);
  return result;
}

LagMatch match_lags(const std::vector<IngestStamp>& ingests,
                    const std::vector<ServeStamp>& serves) {
  std::map<std::size_t, std::vector<const ServeStamp*>> by_tenant;
  for (const ServeStamp& serve : serves) {
    by_tenant[serve.tenant].push_back(&serve);
  }
  LagMatch match;
  match.matched.reserve(ingests.size());
  for (std::size_t k = 0; k < ingests.size(); ++k) {
    const IngestStamp& ingest = ingests[k];
    const auto found = by_tenant.find(ingest.tenant);
    if (found == by_tenant.end()) {
      ++match.unserved;
      continue;
    }
    const std::vector<const ServeStamp*>& seen = found->second;
    const auto first = std::lower_bound(
        seen.begin(), seen.end(), ingest.version,
        [](const ServeStamp* serve, std::uint64_t version) {
          return serve->version < version;
        });
    if (first == seen.end()) {
      ++match.unserved;
      continue;
    }
    const double lag = (*first)->served - ingest.ingest_end;
    if (lag < 0.0) {
      ++match.negative;
      continue;
    }
    match.matched.push_back({k, lag, (*first)->version});
  }
  return match;
}

std::vector<double> LagMatch::lags() const {
  std::vector<double> seconds;
  seconds.reserve(matched.size());
  for (const MatchedLag& lag : matched) seconds.push_back(lag.seconds);
  return seconds;
}

}  // namespace perfbench
