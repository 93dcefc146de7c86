#include "online/events.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "../support/proptest.hpp"

namespace netconst::online {
namespace {

Event make_event(double time, EventKind kind, double value = 0.0) {
  return {time, "t0", kind, "d", value};
}

TEST(EventLog, RecordsAndCountsPerKind) {
  EventLog log;
  log.record(make_event(1.0, EventKind::Refresh, 0.1));
  log.record(make_event(2.0, EventKind::Refresh, 0.2));
  log.record(make_event(3.0, EventKind::ChangeDetected, 1.5));
  log.record_routine("t0", 4.0, EventKind::ThresholdBreach, 0.7);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.recorded(), 4u);
  EXPECT_EQ(log.count(EventKind::Refresh), 2u);
  EXPECT_EQ(log.count(EventKind::ChangeDetected), 1u);
  EXPECT_EQ(log.count(EventKind::ThresholdBreach), 1u);
  EXPECT_EQ(log.count(EventKind::LevelChange), 0u);

  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_EQ(events[2].kind, EventKind::ChangeDetected);
  EXPECT_DOUBLE_EQ(events[2].value, 1.5);
}

TEST(EventLog, BoundedLogDropsOldestButKeepsCounting) {
  EventLog log(2);
  log.record(make_event(1.0, EventKind::Refresh));
  log.record(make_event(2.0, EventKind::LevelChange));
  log.record(make_event(3.0, EventKind::LevelChange));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.recorded(), 3u);
  // The dropped Refresh still counts.
  EXPECT_EQ(log.count(EventKind::Refresh), 1u);
  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 2.0);
  EXPECT_DOUBLE_EQ(events[1].time, 3.0);
}

TEST(EventLog, RoutineKindsAreCountedAndDigestedNotRetained) {
  EventLog log;
  const std::uint64_t empty = log.digest("t0");
  log.record_routine("t0", 1.0, EventKind::SnapshotIngested, 0.5, 2.0);
  log.record_routine("t0", 1.0, EventKind::Recalibration, 0.25, 2.0);
  log.record_routine("t1", 2.0, EventKind::RecalibrationSuppressed, 1.0,
                     1.5);
  log.record_routine("t1", 3.0, EventKind::ThresholdBreach, 0.9);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_EQ(log.recorded(), 4u);
  EXPECT_EQ(log.count(EventKind::SnapshotIngested), 1u);
  EXPECT_EQ(log.count(EventKind::Recalibration), 1u);
  EXPECT_EQ(log.count(EventKind::RecalibrationSuppressed), 1u);
  EXPECT_EQ(log.count(EventKind::ThresholdBreach), 1u);
  EXPECT_NE(log.digest("t0"), empty);
  EXPECT_NE(log.digest("t1"), empty);
  EXPECT_NE(log.digest("t0"), log.digest("t1"));
  EXPECT_EQ(log.digest("never-seen"), empty);

  // Each kind goes through exactly one entry point.
  EXPECT_THROW(log.record(make_event(4.0, EventKind::Recalibration)),
               ContractViolation);
  EXPECT_THROW(log.record_routine("t0", 4.0, EventKind::LevelChange, 0.0),
               ContractViolation);
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    const bool routine = kind == EventKind::SnapshotIngested ||
                         kind == EventKind::Recalibration ||
                         kind == EventKind::RecalibrationSuppressed ||
                         kind == EventKind::ThresholdBreach;
    EXPECT_EQ(is_routine(kind), routine) << event_kind_name(kind);
  }
}

struct RoutineRecord {
  std::string tenant;
  double time = 0.0;
  EventKind kind = EventKind::Recalibration;
  double value = 0.0;
  double detail = 0.0;
};

// Equal routine streams give equal per-tenant digests whatever retained
// events are interleaved; changing any one field of one routine event
// changes that tenant's digest and no other tenant's.
TEST(EventLog, PropertyRoutineDigestSeparatesEveryField) {
  constexpr std::array<EventKind, 4> kRoutine = {
      EventKind::SnapshotIngested, EventKind::Recalibration,
      EventKind::RecalibrationSuppressed, EventKind::ThresholdBreach};
  const std::array<std::string, 3> tenants = {"t0", "t1", "t2"};
  testing::run_property(0xD16E57, 200, [&](Rng& rng) {
    std::vector<RoutineRecord> stream(testing::random_size(rng, 1, 40));
    double time = 0.0;
    for (RoutineRecord& record : stream) {
      time += static_cast<double>(rng.uniform_int(0, 3)) * 300.0;
      record.tenant = tenants[testing::random_size(rng, 0, 2)];
      record.time = time;
      record.kind = kRoutine[testing::random_size(rng, 0, 3)];
      record.value = rng.uniform(0.0, 2.0);
      record.detail = static_cast<double>(rng.uniform_int(0, 4));
    }
    const auto replay = [&](const std::vector<RoutineRecord>& records,
                            bool interleave_retained) {
      EventLog log;
      for (const RoutineRecord& r : records) {
        if (interleave_retained) {
          log.record(make_event(r.time, EventKind::LevelChange, r.value));
        }
        log.record_routine(r.tenant, r.time, r.kind, r.value, r.detail);
      }
      std::array<std::uint64_t, 3> digests{};
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        digests[t] = log.digest(tenants[t]);
      }
      return digests;
    };
    const auto base = replay(stream, false);
    EXPECT_EQ(replay(stream, true), base);

    std::vector<RoutineRecord> perturbed = stream;
    RoutineRecord& victim =
        perturbed[testing::random_size(rng, 0, perturbed.size() - 1)];
    const double up = std::numeric_limits<double>::infinity();
    switch (rng.uniform_int(0, 3)) {
      case 0:
        victim.time = std::nextafter(victim.time, up);
        break;
      case 1: {
        const auto k = static_cast<std::size_t>(
            std::find(kRoutine.begin(), kRoutine.end(), victim.kind) -
            kRoutine.begin());
        victim.kind = kRoutine[(k + 1 + testing::random_size(rng, 0, 2)) %
                               kRoutine.size()];
        break;
      }
      case 2:
        victim.value = std::nextafter(victim.value, up);
        break;
      default:
        victim.detail = std::nextafter(victim.detail, up);
        break;
    }
    const auto changed = replay(perturbed, false);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      if (tenants[t] == victim.tenant) {
        EXPECT_NE(changed[t], base[t]) << tenants[t];
      } else {
        EXPECT_EQ(changed[t], base[t]) << tenants[t];
      }
    }
  });
}

TEST(EventLog, KindNamesAreDistinct) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    for (std::size_t j = i + 1; j < kEventKindCount; ++j) {
      EXPECT_STRNE(event_kind_name(static_cast<EventKind>(i)),
                   event_kind_name(static_cast<EventKind>(j)));
    }
  }
  EXPECT_STREQ(event_kind_name(EventKind::ColdSolveFallback),
               "cold_solve_fallback");
}

TEST(EventLog, CsvExport) {
  EventLog log;
  log.record(make_event(5.0, EventKind::LevelChange, 2.0));
  const CsvTable table = log.to_csv();
  ASSERT_EQ(table.row_count(), 1u);
  EXPECT_DOUBLE_EQ(table.number(0, table.column_index("time")), 5.0);
  EXPECT_EQ(table.rows[0][table.column_index("tenant")], "t0");
  EXPECT_EQ(table.rows[0][table.column_index("kind")], "level_change");
  EXPECT_DOUBLE_EQ(table.number(0, table.column_index("value")), 2.0);
  EXPECT_EQ(table.rows[0][table.column_index("detail")], "d");
}

TEST(EventLog, JsonExport) {
  EventLog log;
  log.record(make_event(1.0, EventKind::ChangeDetected));
  std::ostringstream out;
  log.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"change_detected\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"t0\""), std::string::npos);
}

// Each thread plays one tenant, as a service driver does: the tenant's
// digest must match a sequential replay of its own stream.
TEST(EventLog, ConcurrentRecordsAreLossless) {
  EventLog log;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  const auto play = [](EventLog& into, const std::string& tenant) {
    for (int k = 0; k < kPerThread; ++k) {
      into.record(make_event(static_cast<double>(k), EventKind::Refresh));
      into.record_routine(tenant, static_cast<double>(k),
                          EventKind::Recalibration, 0.5 * k);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &play, t] {
      play(log, "tenant" + std::to_string(t));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(log.recorded(),
            static_cast<std::uint64_t>(2 * kThreads * kPerThread));
  EXPECT_EQ(log.count(EventKind::Refresh),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log.count(EventKind::Recalibration),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EventLog sequential;
  play(sequential, "tenant0");
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(log.digest("tenant" + std::to_string(t)),
              sequential.digest("tenant0"));
  }
}

}  // namespace
}  // namespace netconst::online
