// Tests of the benchmark's own helpers: the percentile rule, the
// ingest-to-serve lag matcher and the span self-time fold.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(TailPercentile, ReportsWantedLevelWhenTenSamplesLieBeyondIt) {
  std::vector<double> samples = one_to(1000);
  const Percentile p99 = tail_percentile(samples, 0.99);
  EXPECT_DOUBLE_EQ(p99.level, 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.n, 1000u);
}

TEST(TailPercentile, FallsBackToHighestLevelWithTenSamplesBeyond) {
  // 500 samples: p99 has 5 beyond it, p90 has 50.
  std::vector<double> samples = one_to(500);
  const Percentile p = tail_percentile(samples, 0.99);
  EXPECT_DOUBLE_EQ(p.level, 0.9);
  EXPECT_DOUBLE_EQ(p.value, 450.0);
  EXPECT_EQ(p.n, 500u);
}

TEST(TailPercentile, ExactlyTenBeyondQualifies) {
  std::vector<double> samples = one_to(100);
  EXPECT_DOUBLE_EQ(tail_percentile(samples, 0.9).level, 0.9);
  std::vector<double> fewer = one_to(99);
  EXPECT_DOUBLE_EQ(tail_percentile(fewer, 0.9).level, 0.5);
}

TEST(TailPercentile, TooFewSamplesReportTheMedianAndEmptyIsZero) {
  std::vector<double> samples = {3.0, 1.0, 2.0};
  const Percentile p = tail_percentile(samples, 0.99);
  EXPECT_DOUBLE_EQ(p.level, 0.5);
  EXPECT_DOUBLE_EQ(p.value, 2.0);
  std::vector<double> empty;
  EXPECT_EQ(tail_percentile(empty, 0.9).n, 0u);
  EXPECT_DOUBLE_EQ(tail_percentile(empty, 0.9).value, 0.0);
}

TEST(MatchLags, PairsEachIngestWithFirstAnswerAtOrAfterItsVersion) {
  const std::vector<IngestStamp> ingests = {
      {0, 2, 1.0}, {0, 3, 2.0}, {1, 2, 1.5}};
  const std::vector<ServeStamp> serves = {
      {0, 2, 1.25}, {1, 2, 1.75}, {0, 3, 2.5}};
  const LagMatch match = match_lags(ingests, serves);
  ASSERT_EQ(match.matched.size(), 3u);
  EXPECT_DOUBLE_EQ(match.matched[0].seconds, 0.25);
  EXPECT_DOUBLE_EQ(match.matched[1].seconds, 0.5);
  EXPECT_DOUBLE_EQ(match.matched[2].seconds, 0.25);
  EXPECT_EQ(match.unserved, 0u);
}

TEST(MatchLags, SkippedVersionIsServedByTheNextLaterAnswer) {
  // The client never saw version 3; its first answer >= 3 carried 4.
  const std::vector<IngestStamp> ingests = {{0, 3, 1.0}, {0, 4, 2.0}};
  const std::vector<ServeStamp> serves = {{0, 2, 0.5}, {0, 4, 3.0}};
  const LagMatch match = match_lags(ingests, serves);
  ASSERT_EQ(match.matched.size(), 2u);
  EXPECT_DOUBLE_EQ(match.matched[0].seconds, 2.0);
  EXPECT_EQ(match.matched[0].served_version, 4u);
  EXPECT_DOUBLE_EQ(match.matched[1].seconds, 1.0);
}

TEST(MatchLags, VersionNeverSeenIsUnservedNotASample) {
  const std::vector<IngestStamp> ingests = {
      {0, 5, 1.0}, {0, 6, 2.0}, {2, 1, 0.0}};
  const std::vector<ServeStamp> serves = {{0, 5, 1.5}};
  const LagMatch match = match_lags(ingests, serves);
  ASSERT_EQ(match.matched.size(), 1u);
  EXPECT_EQ(match.unserved, 2u);  // version 6 and an unseen tenant
  EXPECT_EQ(match.lags(), std::vector<double>{0.5});
}

TEST(MatchLags, AnswerBeforeItsIngestIsCountedAsNegative) {
  const LagMatch match = match_lags({{0, 2, 5.0}}, {{0, 2, 4.0}});
  EXPECT_TRUE(match.matched.empty());
  EXPECT_EQ(match.negative, 1u);
}

Span span(const char* name, std::size_t parent, double start, double end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(FoldSelfTimes, SelfTimeIsDurationMinusChildCoverage) {
  const std::vector<Span> spans = {
      span("cycle", kNoParent, 0.0, 10.0),
      span("ingest", 0, 0.0, 4.0),
      span("refresh", 0, 4.0, 7.0),
      span("post_publish", 0, 8.0, 10.0),
  };
  const std::vector<SelfTime> folded = fold_self_times(spans);
  ASSERT_EQ(folded.size(), 4u);
  EXPECT_EQ(folded[0].name, "ingest");  // largest first
  EXPECT_DOUBLE_EQ(folded[0].self_seconds, 4.0);
  for (const SelfTime& entry : folded) {
    if (entry.name == "cycle") EXPECT_DOUBLE_EQ(entry.self_seconds, 1.0);
  }
}

TEST(FoldSelfTimes, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {
      span("cycle", kNoParent, 0.0, 10.0),
      span("a", 0, 1.0, 5.0),
      span("b", 0, 3.0, 6.0),    // overlaps a
      span("c", 0, 9.0, 12.0),   // overhangs the parent
      span("cycle", kNoParent, 20.0, 22.0),
  };
  const std::vector<SelfTime> folded = fold_self_times(spans);
  for (const SelfTime& entry : folded) {
    if (entry.name == "cycle") {
      // First cycle: covered [1,6] and [9,10] -> 6 s of 10; second: 2 s.
      EXPECT_DOUBLE_EQ(entry.self_seconds, 4.0 + 2.0);
      EXPECT_EQ(entry.count, 2u);
    }
  }
}

TEST(SpanLog, AppendRebasesParentsAndChromeTraceIsJson) {
  SpanLog log;
  log.append({span("cycle", kNoParent, 0.0, 1.0), span("ingest", 0, 0.0, 0.5)});
  log.append({span("cycle", kNoParent, 2.0, 3.0), span("ingest", 0, 2.0, 2.5)});
  const std::vector<Span> spans = log.take();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[3].parent, 2u);
  std::ostringstream out;
  write_chrome_trace(out, spans);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("\"name\":\"ingest\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
