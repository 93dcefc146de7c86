// FaultPlan unit tests: config contracts, seeded determinism of the
// per-probe decision stream, scripted storms and placement shifts, and
// the event-log bookkeeping the chaos invariants lean on.
#include "faults/fault_plan.hpp"

#include <cstdint>

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace netconst::faults {
namespace {

TEST(FaultPlan, RejectsMalformedConfigs) {
  FaultPlanConfig bad;
  bad.timeout_probability = -0.1;
  EXPECT_THROW(FaultPlan{bad}, ContractViolation);

  bad = {};
  bad.timeout_probability = 0.7;
  bad.drop_probability = 0.5;  // sums past 1
  EXPECT_THROW(FaultPlan{bad}, ContractViolation);

  bad = {};
  bad.timeout_seconds = 0.0;
  EXPECT_THROW(FaultPlan{bad}, ContractViolation);

  bad = {};
  bad.storms.push_back({100.0, 50.0, 4.0});  // end before start
  EXPECT_THROW(FaultPlan{bad}, ContractViolation);

  bad = {};
  bad.storms.push_back({0.0, 50.0, 0.0});  // non-positive factor
  EXPECT_THROW(FaultPlan{bad}, ContractViolation);

  bad = {};
  bad.placement_changes.push_back({200.0, 1, 2.0});
  bad.placement_changes.push_back({100.0, 2, 2.0});  // out of order
  EXPECT_THROW(FaultPlan{bad}, ContractViolation);

  bad = {};
  bad.placement_changes.push_back({0.0, 1, 0.0});  // non-positive factor
  EXPECT_THROW(FaultPlan{bad}, ContractViolation);
}

TEST(FaultPlan, CleanPlanInjectsNothing) {
  FaultPlan plan{FaultPlanConfig{}};
  for (int k = 0; k < 100; ++k) {
    const ProbeFault fault = plan.next_probe(10.0 * k, 0, 1);
    EXPECT_FALSE(fault.value_lost());
    EXPECT_EQ(fault.elapsed_factor, 1.0);
  }
  EXPECT_EQ(plan.probes(), 100u);
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    EXPECT_EQ(plan.log().count(static_cast<FaultKind>(k)), 0u);
  }
  EXPECT_EQ(plan.log().digest(), Fnv1a{}.state);
}

TEST(FaultPlan, SameSeedReplaysByteIdentically) {
  FaultPlanConfig config;
  config.seed = 42;
  config.timeout_probability = 0.1;
  config.drop_probability = 0.2;
  config.storms.push_back({500.0, 900.0, 3.0});
  config.placement_changes.push_back({700.0, 2, 2.0});

  auto drive = [&config] {
    FaultPlan plan(config);
    for (int k = 0; k < 500; ++k) {
      plan.next_probe(2.5 * k, static_cast<std::size_t>(k % 4),
                      static_cast<std::size_t>((k + 1) % 4));
    }
    return plan.log().digest();
  };
  const std::uint64_t first = drive();
  const std::uint64_t second = drive();
  EXPECT_NE(first, Fnv1a{}.state);
  EXPECT_EQ(first, second);

  // A different seed must not replay the same stochastic stream.
  config.seed = 43;
  EXPECT_NE(drive(), first);
}

TEST(FaultPlan, ProbabilitiesRoughlyHonored) {
  FaultPlanConfig config;
  config.timeout_probability = 0.2;
  config.drop_probability = 0.1;
  FaultPlan plan(config);
  const int probes = 20000;
  for (int k = 0; k < probes; ++k) plan.next_probe(0.0, 0, 1);

  const auto timeouts =
      static_cast<double>(plan.log().count(FaultKind::ProbeTimeout));
  const auto drops =
      static_cast<double>(plan.log().count(FaultKind::DroppedMeasurement));
  EXPECT_NEAR(timeouts / probes, 0.2, 0.02);
  EXPECT_NEAR(drops / probes, 0.1, 0.02);
  EXPECT_EQ(plan.log().value_losses(),
            plan.log().count(FaultKind::ProbeTimeout) +
                plan.log().count(FaultKind::DroppedMeasurement));
}

TEST(FaultPlan, StormWindowIsHalfOpen) {
  FaultPlanConfig config;
  config.storms.push_back({100.0, 200.0, 4.0});
  FaultPlan plan(config);

  EXPECT_EQ(plan.next_probe(99.9, 0, 1).elapsed_factor, 1.0);
  EXPECT_EQ(plan.next_probe(100.0, 0, 1).elapsed_factor, 4.0);
  EXPECT_EQ(plan.next_probe(199.9, 0, 1).elapsed_factor, 4.0);
  EXPECT_EQ(plan.next_probe(200.0, 0, 1).elapsed_factor, 1.0);
  EXPECT_EQ(plan.log().count(FaultKind::OutlierInjected), 2u);
}

TEST(FaultPlan, OverlappingStormFactorsMultiply) {
  FaultPlanConfig config;
  config.storms.push_back({0.0, 100.0, 2.0});
  config.storms.push_back({50.0, 100.0, 3.0});
  FaultPlan plan(config);
  EXPECT_EQ(plan.next_probe(10.0, 0, 1).elapsed_factor, 2.0);
  EXPECT_EQ(plan.next_probe(60.0, 0, 1).elapsed_factor, 6.0);
}

TEST(FaultPlan, PlacementShiftIsPersistentAndPerEndpoint) {
  FaultPlanConfig config;
  config.placement_changes.push_back({100.0, 1, 2.0});
  config.placement_changes.push_back({300.0, 2, 3.0});
  FaultPlan plan(config);

  EXPECT_EQ(plan.next_probe(50.0, 1, 2).elapsed_factor, 1.0);
  EXPECT_EQ(plan.vm_factor(1), 1.0);

  // First change applies from t = 100 on, to every pair touching VM 1.
  EXPECT_EQ(plan.next_probe(150.0, 1, 3).elapsed_factor, 2.0);
  EXPECT_EQ(plan.next_probe(150.0, 3, 1).elapsed_factor, 2.0);
  EXPECT_EQ(plan.next_probe(150.0, 0, 3).elapsed_factor, 1.0);

  // Second change compounds on pairs touching both shifted VMs.
  plan.advance_to(400.0);
  EXPECT_EQ(plan.vm_factor(1), 2.0);
  EXPECT_EQ(plan.vm_factor(2), 3.0);
  EXPECT_EQ(plan.placement_factor(1, 2), 6.0);
  EXPECT_EQ(plan.placement_factor(0, 3), 1.0);

  EXPECT_EQ(plan.log().count(FaultKind::PlacementShift), 2u);
}

// Every fault is counted and digested, but only placement shifts are
// kept as records: the log does not grow with the probe stream.
TEST(FaultEventLog, KeepsPlacementShiftsAndDigestsEveryFault) {
  FaultPlanConfig config;
  config.drop_probability = 1.0;
  config.placement_changes.push_back({1.5, 2, 3.0});
  FaultPlan plan(config);
  plan.next_probe(1.0, 0, 1);
  const std::uint64_t after_drop = plan.log().digest();
  plan.next_probe(2.0, 1, 0);
  for (int k = 0; k < 1000; ++k) plan.next_probe(3.0, 0, 1);

  const FaultEventLog& log = plan.log();
  EXPECT_EQ(log.count(FaultKind::DroppedMeasurement), 1002u);
  EXPECT_EQ(log.count(FaultKind::PlacementShift), 1u);
  ASSERT_EQ(log.placement_shifts().size(), 1u);
  const FaultEvent& shift = log.placement_shifts()[0];
  EXPECT_EQ(shift.kind, FaultKind::PlacementShift);
  EXPECT_EQ(shift.sequence, 1u);
  EXPECT_EQ(shift.time, 1.5);
  EXPECT_EQ(shift.i, 2u);
  EXPECT_EQ(shift.value, 3.0);
  EXPECT_NE(after_drop, Fnv1a{}.state);
  EXPECT_NE(log.digest(), after_drop);

  // One field of one fault differs (the pair's direction): the digest
  // differs while every count agrees.
  FaultEventLog a, b;
  a.record({7, 1.0, FaultKind::OutlierInjected, 0, 1, 4.0});
  b.record({7, 1.0, FaultKind::OutlierInjected, 1, 0, 4.0});
  EXPECT_EQ(a.count(FaultKind::OutlierInjected),
            b.count(FaultKind::OutlierInjected));
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace netconst::faults
