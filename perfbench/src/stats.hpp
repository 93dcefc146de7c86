// Sample statistics and the ingest-to-serve lag matcher of the
// end-to-end benchmark. Pure functions, unit-tested in
// perfbench/tests/helpers_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One reported percentile: the value, the percentile actually used and
/// the number of samples behind it.
struct Percentile {
  double value = 0.0;
  double level = 0.0;  // 0.5, 0.9, 0.99, ...
  std::size_t n = 0;
};

/// Nearest-rank quantile of `samples` (sorted in place). 0 when empty.
double quantile(std::vector<double>& samples, double level);

/// The tail rule: report `wanted` when at least ten samples lie beyond
/// it; otherwise the highest of {0.999, 0.99, 0.9, 0.5} below `wanted`
/// that has ten samples beyond it; the median when none has.
Percentile tail_percentile(std::vector<double>& samples, double wanted);

/// End of a maintenance cycle's ingest: the return of its last
/// calibration probe, and the snapshot version the cycle published.
struct IngestStamp {
  std::size_t tenant = 0;
  std::uint64_t version = 0;
  double ingest_end = 0.0;  // seconds, benchmark clock
};

/// The client's first answer for `tenant` carrying `version` — recorded
/// each time the version the client sees for a tenant goes up.
struct ServeStamp {
  std::size_t tenant = 0;
  std::uint64_t version = 0;
  double served = 0.0;  // seconds, benchmark clock
};

struct MatchedLag {
  std::size_t ingest = 0;  // index into the ingests
  double seconds = 0.0;
  std::uint64_t served_version = 0;
};

struct LagMatch {
  std::vector<MatchedLag> matched;  // one per served ingest
  std::size_t unserved = 0;  // no answer with that version or later
  std::size_t negative = 0;  // an answer older than its ingest (a bug)

  std::vector<double> lags() const;
};

/// Pair each ingest with the client's first answer for the same tenant
/// whose version is at least the ingest's. An ingest whose version the
/// client never saw (nor any later one) is unserved, not a sample.
/// `serves` must be in the order the client recorded them (versions
/// increasing per tenant).
LagMatch match_lags(const std::vector<IngestStamp>& ingests,
                    const std::vector<ServeStamp>& serves);

}  // namespace perfbench
