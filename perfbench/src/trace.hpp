// Benchmark-side spans for the traced run: kept in memory, folded into
// per-layer self times, and written out as a Chrome-trace JSON file.
// The spans are recorded around the calls the benchmark makes into the
// program's public seams; the program's own flight recorder stays off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct Span {
  std::string name;
  /// Spans of one maintenance cycle share (tenant, refresh ordinal).
  std::size_t tenant = 0;
  std::uint64_t refresh = 0;
  /// Index of the parent span in the same vector, or kNoParent.
  std::size_t parent = kNoParent;
  double start = 0.0;  // seconds, benchmark clock
  double end = 0.0;
  std::uint64_t version = 0;  // snapshot version (first_serve links it)
};

struct SelfTime {
  std::string name;
  double self_seconds = 0.0;
  std::size_t count = 0;
};

/// A span's self time is its duration minus the part of its interval
/// covered by its children (overlapping children counted once). Totals
/// per span name, largest first.
std::vector<SelfTime> fold_self_times(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, microseconds), one track per
/// tenant; open in chrome://tracing or Perfetto.
void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans);

/// Thread-safe append-only span store.
class SpanLog {
 public:
  /// Appends `group` (parents indexed within the group) atomically.
  void append(std::vector<Span> group);
  std::vector<Span> take();

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
