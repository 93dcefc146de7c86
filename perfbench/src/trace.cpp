#include "trace.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <utility>

#include "obs/export.hpp"

namespace perfbench {

std::vector<SelfTime> fold_self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent == kNoParent || span.parent >= spans.size()) continue;
    const Span& parent = spans[span.parent];
    const double lo = std::max(span.start, parent.start);
    const double hi = std::min(span.end, parent.end);
    if (hi > lo) children[span.parent].emplace_back(lo, hi);
  }
  std::map<std::string, SelfTime> totals;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    auto& covered = children[k];
    std::sort(covered.begin(), covered.end());
    double union_length = 0.0;
    double reach = spans[k].start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) union_length += hi - from;
      reach = std::max(reach, hi);
    }
    SelfTime& total = totals[spans[k].name];
    total.name = spans[k].name;
    total.self_seconds +=
        std::max(0.0, spans[k].end - spans[k].start - union_length);
    ++total.count;
  }
  std::vector<SelfTime> ranked;
  ranked.reserve(totals.size());
  for (auto& [name, total] : totals) ranked.push_back(std::move(total));
  std::sort(ranked.begin(), ranked.end(),
            [](const SelfTime& a, const SelfTime& b) {
              return a.self_seconds > b.self_seconds;
            });
  return ranked;
}

void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << netconst::obs::json_escape(span.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tenant
        << ",\"ts\":" << span.start * 1e6
        << ",\"dur\":" << (span.end - span.start) * 1e6
        << ",\"args\":{\"refresh\":" << span.refresh
        << ",\"version\":" << span.version << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void SpanLog::append(std::vector<Span> group) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t base = spans_.size();
  for (Span& span : group) {
    if (span.parent != kNoParent) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

}  // namespace perfbench
