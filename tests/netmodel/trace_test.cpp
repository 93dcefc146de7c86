#include "netmodel/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "../support/proptest.hpp"

namespace netconst::netmodel {
namespace {

Trace make_trace(std::size_t snapshots, std::size_t n, Rng& rng) {
  TemporalPerformance series;
  for (std::size_t s = 0; s < snapshots; ++s) {
    PerformanceMatrix p(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) {
          p.set_link(i, j, {rng.uniform(1e-4, 1e-3),
                            rng.uniform(1e7, 1e8)});
        }
      }
    }
    series.append(static_cast<double>(s) * 30.0, std::move(p));
  }
  return Trace(std::move(series));
}

TEST(Trace, Duration) {
  Rng rng(1);
  const Trace t = make_trace(5, 3, rng);
  EXPECT_EQ(t.duration(), 120.0);
  EXPECT_EQ(make_trace(1, 3, rng).duration(), 0.0);
}

TEST(Trace, CsvRoundTrip) {
  Rng rng(2);
  const Trace t = make_trace(4, 3, rng);
  const std::string path = ::testing::TempDir() + "/netconst_trace.csv";
  t.save_csv(path);
  const Trace back = Trace::load_csv(path);
  ASSERT_EQ(back.snapshot_count(), t.snapshot_count());
  ASSERT_EQ(back.cluster_size(), t.cluster_size());
  for (std::size_t s = 0; s < t.snapshot_count(); ++s) {
    EXPECT_EQ(back.series().time_at(s), t.series().time_at(s));
    for (std::size_t i = 0; i < t.cluster_size(); ++i) {
      for (std::size_t j = 0; j < t.cluster_size(); ++j) {
        if (i == j) continue;
        EXPECT_EQ(back.series().snapshot(s).link(i, j).alpha,
                  t.series().snapshot(s).link(i, j).alpha);
        EXPECT_EQ(back.series().snapshot(s).link(i, j).beta,
                  t.series().snapshot(s).link(i, j).beta);
      }
    }
  }
}

TEST(Trace, WindowSelectsInclusiveRange) {
  Rng rng(3);
  const Trace t = make_trace(5, 2, rng);  // times 0, 30, 60, 90, 120
  const Trace w = t.window(30.0, 90.0);
  EXPECT_EQ(w.snapshot_count(), 3u);
  EXPECT_EQ(w.series().time_at(0), 30.0);
  EXPECT_THROW(t.window(10.0, 5.0), ContractViolation);
}

TEST(Trace, PrefixTruncates) {
  Rng rng(4);
  const Trace t = make_trace(5, 2, rng);
  EXPECT_EQ(t.prefix(3).snapshot_count(), 3u);
  EXPECT_EQ(t.prefix(99).snapshot_count(), 5u);
}

TEST(ReplayCursor, ReplaysByTime) {
  Rng rng(5);
  const Trace t = make_trace(3, 2, rng);  // times 0, 30, 60
  ReplayCursor cursor(t);
  EXPECT_EQ(cursor.start_time(), 0.0);
  EXPECT_EQ(cursor.end_time(), 60.0);
  EXPECT_EQ(cursor.at(45.0).link(0, 1).alpha,
            t.series().snapshot(1).link(0, 1).alpha);
}

TEST(ReplayCursor, EmptyTraceThrows) {
  Trace empty;
  EXPECT_THROW(ReplayCursor{empty}, ContractViolation);
}

TEST(Trace, LoadRejectsSelfLinks) {
  const std::string path = ::testing::TempDir() + "/netconst_bad_trace.csv";
  {
    CsvTable table;
    table.header = {"time", "i", "j", "alpha", "beta"};
    table.rows = {{"0", "1", "1", "0.1", "1e6"}};
    write_csv_file(path, table);
  }
  EXPECT_THROW(Trace::load_csv(path), ContractViolation);
}

// Corrupt-input regressions: every malformed trace below used to either
// crash, allocate absurd matrices, or load garbage silently.

std::string write_rows(const std::vector<std::vector<std::string>>& rows,
                       const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/netconst_trace_" + tag + ".csv";
  CsvTable table;
  table.header = {"time", "i", "j", "alpha", "beta"};
  table.rows = rows;
  write_csv_file(path, table);
  return path;
}

TEST(Trace, LoadRejectsHeaderOnlyFile) {
  EXPECT_THROW(Trace::load_csv(write_rows({}, "empty")), Error);
}

TEST(Trace, LoadRejectsNegativeAndFractionalIndices) {
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "-1", "1", "0.1", "1e6"}}, "neg")),
      Error);
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "0", "1.5", "0.1", "1e6"}}, "frac")),
      Error);
}

TEST(Trace, LoadRejectsHugeIndexInsteadOfAllocating) {
  // A raw cast would try to build a ~1e18 x 1e18 matrix pair.
  EXPECT_THROW(Trace::load_csv(write_rows(
                   {{"0", "0", "999999999999999999", "0.1", "1e6"}}, "huge")),
               Error);
}

TEST(Trace, LoadRejectsNonFiniteTimestamp) {
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"nan", "0", "1", "0.1", "1e6"}}, "nant")),
      Error);
}

TEST(Trace, LoadRejectsInvalidLinkParameters) {
  EXPECT_THROW(Trace::load_csv(write_rows({{"0", "0", "1", "-0.1", "1e6"}},
                                          "negalpha")),
               Error);
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "0", "1", "0.1", "0"}}, "zerobeta")),
      Error);
  // Half-missing parameters are corruption, not a degraded measurement.
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "0", "1", "nan", "1e6"}}, "half")),
      Error);
}

TEST(Trace, LoadRejectsNonNumericCells) {
  EXPECT_THROW(
      Trace::load_csv(write_rows({{"0", "zero", "1", "0.1", "1e6"}}, "word")),
      Error);
}

TEST(Trace, MissingLinksSurviveTheCsvRoundTrip) {
  TemporalPerformance series;
  PerformanceMatrix snap(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) snap.set_link(i, j, {1e-4, 1e7});
    }
  }
  snap.mark_link_missing(0, 2);
  series.append(0.0, std::move(snap));

  const std::string path =
      ::testing::TempDir() + "/netconst_trace_missing.csv";
  Trace(std::move(series)).save_csv(path);
  const Trace back = Trace::load_csv(path);
  EXPECT_TRUE(back.series().snapshot(0).link_missing(0, 2));
  EXPECT_EQ(back.series().snapshot(0).missing_links(), 1u);
  EXPECT_DOUBLE_EQ(back.series().snapshot(0).link(1, 2).alpha, 1e-4);
}

TEST(Trace, LoadRejectsTimestampsGoingBackwards) {
  EXPECT_THROW(Trace::load_csv(write_rows({{"30", "0", "1", "0.1", "1e6"},
                                           {"0", "1", "0", "0.1", "1e6"}},
                                          "backwards")),
               Error);
}

// Property fuzz: seeded corruptions of valid trace files either load
// into a trace whose timestamps are finite and increasing and whose
// links are valid (alpha >= 0, beta > 0, both finite) or the missing-link
// sentinel, or fail with an Error that names the offending line or row.
TEST(Trace, PropertyFuzzedFilesLoadValidOrNameTheirRow) {
  const std::string path = ::testing::TempDir() + "/netconst_trace_fuzz.csv";
  std::size_t accepted = 0, rejected = 0;
  testing::run_property(0x7ACEF022, 400, [&](Rng& rng) {
    const std::string text =
        testing::mutate_csv(rng, testing::random_trace_csv(rng));
    SCOPED_TRACE(text);
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    Trace trace;
    try {
      trace = Trace::load_csv(path);
    } catch (const Error& e) {
      ++rejected;
      EXPECT_TRUE(testing::names_line_or_row(e.what())) << e.what();
      return;
    }
    ++accepted;
    const TemporalPerformance& series = trace.series();
    ASSERT_GT(series.row_count(), 0u);
    for (std::size_t s = 0; s < series.row_count(); ++s) {
      const double t = series.time_at(s);
      EXPECT_TRUE(std::isfinite(t));
      if (s > 0) {
        EXPECT_GT(t, series.time_at(s - 1));
      }
      const PerformanceMatrix& snap = series.snapshot(s);
      for (std::size_t i = 0; i < snap.size(); ++i) {
        for (std::size_t j = 0; j < snap.size(); ++j) {
          if (i == j) continue;
          const LinkParams link = snap.link(i, j);
          if (is_missing(link)) continue;
          EXPECT_TRUE(std::isfinite(link.alpha) && link.alpha >= 0.0 &&
                      std::isfinite(link.beta) && link.beta > 0.0)
              << "snapshot " << s << " link " << i << "->" << j
              << ": alpha " << link.alpha << ", beta " << link.beta;
        }
      }
    }
  });
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace netconst::netmodel
