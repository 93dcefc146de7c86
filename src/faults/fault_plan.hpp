// Deterministic fault planning for chaos testing the measurement path.
//
// A FaultPlan scripts what goes wrong on a virtual cluster's probe
// stream: probe timeouts, measurements dropped in flight, latency
// outlier storms inside scripted time windows, and placement-change
// events that permanently shift the constant component of every link
// touching one VM. All stochastic decisions are drawn from one seeded
// Rng consumed strictly in probe order, and every injected fault is
// counted and digested by a FaultEventLog — so two runs of the same
// plan against the same (deterministic) provider produce identical
// logs, regardless of the thread count driving them (a provider is only
// ever probed by the single driver that owns its tenant).
//
// The plan is transport-agnostic: it decides *what* to inject per probe;
// faults::FaultInjectionProvider applies those decisions to a wrapped
// cloud::NetworkProvider.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "support/hash.hpp"
#include "support/rng.hpp"

namespace netconst::faults {

enum class FaultKind {
  ProbeTimeout,        // probe hung until the deadline; value lost
  DroppedMeasurement,  // transfer ran but the result was lost
  OutlierInjected,     // elapsed time multiplied by a storm factor
  PlacementShift,      // persistent constant change around one VM
};
inline constexpr std::size_t kFaultKindCount = 4;

const char* fault_kind_name(FaultKind kind);

struct FaultEvent {
  /// Position in the plan's probe stream (PlacementShift events carry
  /// the sequence of the next probe after the shift took effect).
  std::uint64_t sequence = 0;
  double time = 0.0;  // provider time when the fault was injected
  FaultKind kind = FaultKind::DroppedMeasurement;
  /// Directed pair of the probe; for PlacementShift, `i` is the VM and
  /// `j` is unused.
  std::size_t i = 0;
  std::size_t j = 0;
  /// Kind-specific: timeout seconds, storm factor, or shift factor.
  double value = 0.0;
};

/// Record of injected faults. Every fault is counted and folded, in
/// injection order, into a running FNV-1a digest of all its fields;
/// only placement shifts (a handful per campaign) are kept as records,
/// so the log does not grow with the probe stream. Deliberately NOT
/// thread-safe: one log belongs to one provider, and a provider is
/// probed sequentially by the single driver that owns its tenant —
/// which is exactly why the digest is reproducible run to run.
class FaultEventLog {
 public:
  void record(const FaultEvent& event);

  std::uint64_t count(FaultKind kind) const;
  /// Probes whose measured value was lost (timeouts + drops).
  std::uint64_t value_losses() const;
  /// FNV-1a over every recorded fault's fields in record order (the
  /// offset basis while empty). Equal fault streams give equal digests.
  std::uint64_t digest() const { return digest_.state; }
  /// The placement shifts, in the order they took effect.
  const std::vector<FaultEvent>& placement_shifts() const {
    return placement_shifts_;
  }

 private:
  std::vector<FaultEvent> placement_shifts_;
  Fnv1a digest_;
  std::array<std::uint64_t, kFaultKindCount> counts_{};
};

/// Scripted window of latency outliers: every probe with
/// start <= now < end reports `elapsed_factor` times its true elapsed
/// time (an interference burst as seen by the prober).
struct OutlierStorm {
  double start = 0.0;
  double end = 0.0;
  double elapsed_factor = 4.0;
};

/// Scripted placement change: from `time` on, every probe touching `vm`
/// takes `elapsed_factor` times longer — the persistent constant shift
/// Algorithm 1's maintenance must detect and recalibrate away.
struct PlacementChange {
  double time = 0.0;
  std::size_t vm = 0;
  double elapsed_factor = 2.0;
};

struct FaultPlanConfig {
  std::uint64_t seed = 0xFA017ULL;
  /// Per-probe probability the probe times out (value lost, and the
  /// prober is charged the full `timeout_seconds` deadline).
  double timeout_probability = 0.0;
  double timeout_seconds = 30.0;
  /// Per-probe probability the measured value is lost in flight (the
  /// transfer time is still spent).
  double drop_probability = 0.0;
  /// Scripted latency-outlier storms (may overlap; factors multiply).
  std::vector<OutlierStorm> storms;
  /// Scripted placement changes, in non-decreasing time order.
  std::vector<PlacementChange> placement_changes;
};

/// Per-probe injection decision.
struct ProbeFault {
  bool timeout = false;
  bool dropped = false;
  /// Multiplier on the true elapsed time (storms x placement shifts).
  double elapsed_factor = 1.0;

  bool value_lost() const { return timeout || dropped; }
};

/// One scripted chaos event in labeled, detector-scorable form: what a
/// change-point detector SHOULD find in a campaign driven by this plan.
/// Derived purely from the plan's config — the stochastic per-probe
/// faults (timeouts, drops) are noise, not ground truth.
struct GroundTruthEvent {
  FaultKind kind = FaultKind::OutlierInjected;
  /// Ordinal within the kind's script (index into storms /
  /// placement_changes), so detections can be matched 1:1.
  std::size_t ordinal = 0;
  double start = 0.0;  // storm start / shift effect time
  double end = 0.0;    // storm end; == start for point events
  std::size_t vm = 0;  // PlacementShift only
  double factor = 1.0;
};

class FaultPlan {
 public:
  explicit FaultPlan(const FaultPlanConfig& config);

  /// Decide the fate of one probe of directed pair (i, j) at provider
  /// time `now`. Consumes exactly one uniform draw per call when any
  /// stochastic fault is enabled (none otherwise), so the decision
  /// stream is a pure function of the seed and the probe order.
  ProbeFault next_probe(double now, std::size_t i, std::size_t j);

  /// Apply every scripted placement change with time <= now. Called by
  /// the provider whenever its clock moves.
  void advance_to(double now);

  /// Current persistent elapsed-time multiplier of the directed pair
  /// (product of the factors of both endpoint VMs).
  double placement_factor(std::size_t i, std::size_t j) const;
  /// Current persistent multiplier of one VM (1 when never shifted).
  double vm_factor(std::size_t vm) const;

  std::uint64_t probes() const { return sequence_; }
  const FaultEventLog& log() const { return log_; }
  const FaultPlanConfig& config() const { return config_; }

  /// The scripted events in labeled form, storms first then placement
  /// changes, each in script order. The precision/recall gates in
  /// tests/detect score detector verdicts against exactly this view.
  std::vector<GroundTruthEvent> ground_truth_events() const;

 private:
  double storm_factor(double now) const;

  FaultPlanConfig config_;
  Rng rng_;
  std::uint64_t sequence_ = 0;
  std::size_t next_change_ = 0;
  std::vector<double> vm_factors_;  // grown on demand
  FaultEventLog log_;
};

}  // namespace netconst::faults
