// Structured event log for the online service: level changes, verdicts,
// cold-solve fallbacks, probe losses — the audit trail a deployment
// replays when a tenant's model went stale. Thread-safe, optionally
// bounded (oldest dropped), exportable to CSV and JSON.
//
// Kinds split by how often they fire:
// - Routine kinds fire on every cycle of a healthy tenant:
//   SnapshotIngested, Recalibration, RecalibrationSuppressed and
//   ThresholdBreach. They are counted and folded into a per-tenant
//   FNV-1a digest (time, kind, value and the number their detail text
//   would be built from), never kept as records, so a long-running
//   service does not grow by one record per cycle.
// - Every other kind is retained as a record: ChangeDetected,
//   LevelChange, ColdSolveFallback, ProbeDropped, StaleRowReused,
//   ForcedRecalibration and the bootstrap Refresh.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/csv.hpp"
#include "support/hash.hpp"

namespace netconst::online {

enum class EventKind {
  SnapshotIngested,         // routine: one calibration row entered the window
  Refresh,                  // bootstrap RPCA refresh (value = Norm(N_E))
  ColdSolveFallback,        // warm solve diverged, redone cold
  ThresholdBreach,          // routine: |t - t'| / t' crossed the threshold
  Recalibration,            // routine: maintenance actually ran
  RecalibrationSuppressed,  // routine: base-interval probe skipped
  LevelChange,              // advisor effectiveness level moved
  ProbeDropped,             // an operation probe's value was lost (NaN)
  StaleRowReused,           // degraded calibration replaced by last good row
  ForcedRecalibration,      // consecutive probe losses forced maintenance
  ChangeDetected,           // change-point detector issued a verdict
};
inline constexpr std::size_t kEventKindCount = 11;

const char* event_kind_name(EventKind kind);
/// True for the kinds that are counted and digested, never retained.
bool is_routine(EventKind kind);

struct Event {
  double time = 0.0;  // tenant's provider time (simulated seconds)
  std::string tenant;
  EventKind kind = EventKind::Refresh;
  std::string detail;  // free-form, kind-specific
  double value = 0.0;  // kind-specific (norm, relative error, ...)
};

class EventLog {
 public:
  /// `capacity` == 0 keeps every retained-kind event; otherwise the
  /// oldest are dropped once `capacity` is exceeded (per-kind counts
  /// keep counting). Routine kinds are never retained.
  explicit EventLog(std::size_t capacity = 0);

  /// Retain one event of a non-routine kind.
  void record(Event event);
  /// Count one routine event and fold it into `tenant`'s digest.
  /// `detail` is the number the event's detail would be rendered from
  /// (a TriggerReason, the advisor's interval factor, ...), so the
  /// digest tells two streams apart wherever their text would differ.
  void record_routine(std::string_view tenant, double time, EventKind kind,
                      double value, double detail = 0.0);

  /// Retained events (<= capacity when bounded).
  std::size_t size() const;
  /// Total recorded, routine and dropped events included.
  std::uint64_t recorded() const;
  /// Per-kind total over all recorded events (dropped ones included).
  std::uint64_t count(EventKind kind) const;
  /// FNV-1a over the tenant's routine events in record order (the
  /// offset basis for a tenant that recorded none).
  std::uint64_t digest(std::string_view tenant) const;

  /// Copy of the retained events, oldest first.
  std::vector<Event> snapshot() const;

  /// Retained events; CSV columns: time,tenant,kind,value,detail.
  CsvTable to_csv() const;
  /// Retained events: {"events": [{"time": ..., "tenant": ..., ...}]}
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::deque<Event> events_;
  std::map<std::string, Fnv1a, std::less<>> digests_;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kEventKindCount> counts_{};
};

}  // namespace netconst::online
