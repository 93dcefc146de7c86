#include "faults/fault_plan.hpp"

#include "obs/trace.hpp"
#include "support/error.hpp"

namespace netconst::faults {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::ProbeTimeout:
      return "probe_timeout";
    case FaultKind::DroppedMeasurement:
      return "dropped_measurement";
    case FaultKind::OutlierInjected:
      return "outlier_injected";
    case FaultKind::PlacementShift:
      return "placement_shift";
  }
  return "unknown";
}

void FaultEventLog::record(const FaultEvent& event) {
  ++counts_[static_cast<std::size_t>(event.kind)];
  digest_.mix(event.sequence);
  digest_.mix(event.time);
  digest_.mix(static_cast<std::uint64_t>(event.kind));
  digest_.mix(static_cast<std::uint64_t>(event.i));
  digest_.mix(static_cast<std::uint64_t>(event.j));
  digest_.mix(event.value);
  if (event.kind == FaultKind::PlacementShift) {
    placement_shifts_.push_back(event);
  }
}

std::uint64_t FaultEventLog::count(FaultKind kind) const {
  return counts_[static_cast<std::size_t>(kind)];
}

std::uint64_t FaultEventLog::value_losses() const {
  return count(FaultKind::ProbeTimeout) +
         count(FaultKind::DroppedMeasurement);
}

FaultPlan::FaultPlan(const FaultPlanConfig& config)
    : config_(config), rng_(config.seed) {
  NETCONST_CHECK(config_.timeout_probability >= 0.0 &&
                     config_.drop_probability >= 0.0 &&
                     config_.timeout_probability +
                             config_.drop_probability <=
                         1.0,
                 "fault probabilities must form a sub-distribution");
  NETCONST_CHECK(config_.timeout_seconds > 0.0,
                 "timeout deadline must be positive");
  for (const OutlierStorm& storm : config_.storms) {
    NETCONST_CHECK(storm.start <= storm.end && storm.elapsed_factor > 0.0,
                   "malformed outlier storm");
  }
  for (std::size_t k = 0; k < config_.placement_changes.size(); ++k) {
    const PlacementChange& change = config_.placement_changes[k];
    NETCONST_CHECK(change.elapsed_factor > 0.0,
                   "placement shift factor must be positive");
    NETCONST_CHECK(
        k == 0 || config_.placement_changes[k - 1].time <= change.time,
        "placement changes must be time-sorted");
  }
}

void FaultPlan::advance_to(double now) {
  while (next_change_ < config_.placement_changes.size() &&
         config_.placement_changes[next_change_].time <= now) {
    const PlacementChange& change = config_.placement_changes[next_change_];
    if (vm_factors_.size() <= change.vm) {
      vm_factors_.resize(change.vm + 1, 1.0);
    }
    vm_factors_[change.vm] *= change.elapsed_factor;
    log_.record({sequence_, change.time, FaultKind::PlacementShift,
                 change.vm, 0, change.elapsed_factor});
    // A placement shift is exactly the anomaly the paper's dynamic
    // component models; snapshot the flight recorder so the spans
    // leading up to it survive for post-mortem inspection.
    obs::FlightRecorder::instance().maybe_auto_dump("placement_shift");
    ++next_change_;
  }
}

double FaultPlan::vm_factor(std::size_t vm) const {
  return vm < vm_factors_.size() ? vm_factors_[vm] : 1.0;
}

double FaultPlan::placement_factor(std::size_t i, std::size_t j) const {
  return vm_factor(i) * vm_factor(j);
}

double FaultPlan::storm_factor(double now) const {
  double factor = 1.0;
  for (const OutlierStorm& storm : config_.storms) {
    if (now >= storm.start && now < storm.end) {
      factor *= storm.elapsed_factor;
    }
  }
  return factor;
}

std::vector<GroundTruthEvent> FaultPlan::ground_truth_events() const {
  std::vector<GroundTruthEvent> truth;
  truth.reserve(config_.storms.size() + config_.placement_changes.size());
  for (std::size_t k = 0; k < config_.storms.size(); ++k) {
    const OutlierStorm& storm = config_.storms[k];
    truth.push_back({FaultKind::OutlierInjected, k, storm.start, storm.end,
                     0, storm.elapsed_factor});
  }
  for (std::size_t k = 0; k < config_.placement_changes.size(); ++k) {
    const PlacementChange& change = config_.placement_changes[k];
    truth.push_back({FaultKind::PlacementShift, k, change.time, change.time,
                     change.vm, change.elapsed_factor});
  }
  return truth;
}

ProbeFault FaultPlan::next_probe(double now, std::size_t i, std::size_t j) {
  advance_to(now);
  const std::uint64_t sequence = sequence_++;
  ProbeFault fault;
  fault.elapsed_factor = placement_factor(i, j);

  if (config_.timeout_probability > 0.0 || config_.drop_probability > 0.0) {
    const double u = rng_.uniform();
    if (u < config_.timeout_probability) {
      fault.timeout = true;
      log_.record({sequence, now, FaultKind::ProbeTimeout, i, j,
                   config_.timeout_seconds});
      return fault;
    }
    if (u < config_.timeout_probability + config_.drop_probability) {
      fault.dropped = true;
      log_.record({sequence, now, FaultKind::DroppedMeasurement, i, j, 0.0});
      return fault;
    }
  }

  const double storm = storm_factor(now);
  if (storm != 1.0) {
    fault.elapsed_factor *= storm;
    log_.record({sequence, now, FaultKind::OutlierInjected, i, j, storm});
  }
  return fault;
}

}  // namespace netconst::faults
