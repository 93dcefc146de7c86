#include "obs/convergence.hpp"

#include <ostream>
#include <utility>

#include "support/error.hpp"

namespace netconst::obs {

ConvergenceLog::ConvergenceLog(std::size_t capacity) : capacity_(capacity) {
  NETCONST_CHECK(capacity > 0, "convergence log capacity must be > 0");
  records_.reserve(capacity);
}

void ConvergenceLog::record(SolveConvergence record) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recorded_;
  if (records_.size() < capacity_) {
    records_.push_back(std::move(record));
  } else {
    // Fixed-capacity ring: overwrite the oldest slot in place so a
    // steady-state service never reallocates the spine.
    records_[head_] = std::move(record);
    head_ = (head_ + 1) % capacity_;
  }
}

std::size_t ConvergenceLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::uint64_t ConvergenceLog::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::vector<SolveConvergence> ConvergenceLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SolveConvergence> out;
  out.reserve(records_.size());
  for (std::size_t k = 0; k < records_.size(); ++k) {
    out.push_back(records_[(head_ + k) % records_.size()]);
  }
  return out;
}

void ConvergenceLog::write_json(std::ostream& out) const {
  const std::vector<SolveConvergence> records = snapshot();
  out << "{\"capacity\":" << capacity_ << ",\"recorded\":" << recorded()
      << ",\"solves\":[";
  for (std::size_t r = 0; r < records.size(); ++r) {
    const SolveConvergence& solve = records[r];
    if (r > 0) out << ',';
    out << "{\"refresh\":" << solve.refresh << ",\"time\":" << solve.time
        << ",\"layer\":\"" << solve.layer << "\",\"incremental\":"
        << (solve.incremental ? "true" : "false") << ",\"warm\":"
        << (solve.warm ? "true" : "false") << ",\"cold_fallback\":"
        << (solve.cold_fallback ? "true" : "false")
        << ",\"iterations\":" << solve.iterations
        << ",\"residual\":" << solve.residual << ",\"converged\":"
        << (solve.converged ? "true" : "false")
        << ",\"polish_iterations\":" << solve.polish_iterations
        << ",\"polish_converged\":"
        << (solve.polish_converged ? "true" : "false")
        << ",\"solve_seconds\":" << solve.solve_seconds << ",\"trace\":[";
    for (std::size_t k = 0; k < solve.trace.size(); ++k) {
      const IterationStats& it = solve.trace[k];
      if (k > 0) out << ',';
      out << "{\"iteration\":" << it.iteration
          << ",\"objective\":" << it.objective
          << ",\"residual\":" << it.residual << ",\"rank\":" << it.rank
          << ",\"sparsity\":" << it.sparsity << ",\"mu\":" << it.mu
          << ",\"step\":" << it.step << '}';
    }
    out << "]}";
  }
  out << "]}";
}

}  // namespace netconst::obs
