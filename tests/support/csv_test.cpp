#include "support/csv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "support/error.hpp"
#include "proptest.hpp"

namespace netconst {
namespace {

TEST(Csv, WriteReadRoundTrip) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "2.5"}, {"-3", "4e-2"}};
  std::stringstream ss;
  write_csv(ss, table);
  const CsvTable back = read_csv(ss);
  ASSERT_EQ(back.header, table.header);
  ASSERT_EQ(back.rows, table.rows);
}

TEST(Csv, NumberParsing) {
  CsvTable table;
  table.header = {"x"};
  table.rows = {{"2.5"}, {"bad"}};
  EXPECT_EQ(table.number(0, 0), 2.5);
  EXPECT_THROW(table.number(1, 0), Error);
  EXPECT_THROW(table.number(5, 0), ContractViolation);
}

TEST(Csv, ColumnIndex) {
  CsvTable table;
  table.header = {"time", "value"};
  EXPECT_EQ(table.column_index("value"), 1u);
  EXPECT_THROW(table.column_index("missing"), Error);
}

TEST(Csv, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# comment\n\na,b\n# another\n1,2\n");
  const CsvTable table = read_csv(ss);
  ASSERT_EQ(table.row_count(), 1u);
  EXPECT_EQ(table.rows[0][1], "2");
}

TEST(Csv, RaggedRowThrows) {
  std::stringstream ss("a,b\n1\n");
  EXPECT_THROW(read_csv(ss), Error);
}

TEST(Csv, EmptyStreamThrows) {
  std::stringstream ss("");
  EXPECT_THROW(read_csv(ss), Error);
}

TEST(Csv, WriteRaggedThrows) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1"}};
  std::stringstream ss;
  EXPECT_THROW(write_csv(ss, table), ContractViolation);
}

TEST(Csv, FileRoundTrip) {
  CsvTable table;
  table.header = {"k", "v"};
  table.rows = {{"0", "1.25"}};
  const std::string path = ::testing::TempDir() + "/netconst_csv_test.csv";
  write_csv_file(path, table);
  const CsvTable back = read_csv_file(path);
  EXPECT_EQ(back.rows, table.rows);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/nope.csv"), Error);
}

TEST(Csv, FormatDoubleRoundTrips) {
  const double value = 0.1234567890123456789;
  const std::string s = format_double(value);
  EXPECT_EQ(std::stod(s), value);
}

TEST(Csv, CarriageReturnsStripped) {
  std::stringstream ss("a,b\r\n1,2\r\n");
  const CsvTable table = read_csv(ss);
  EXPECT_EQ(table.rows[0][1], "2");
}

TEST(Csv, ShortRowErrorNamesTheLine) {
  // A crash mid-write truncates the last row; the error must say where.
  std::stringstream ss("a,b,c\n1,2,3\n4,5\n");
  try {
    read_csv(ss);
    FAIL() << "expected a width error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("2 fields"), std::string::npos) << what;
  }
}

TEST(Csv, OverlongRowAlsoRejected) {
  std::stringstream ss("a,b\n1,2,3\n");
  EXPECT_THROW(read_csv(ss), Error);
}

TEST(Csv, TruncatedFinalLineWithoutNewlineStillParses) {
  // Truncation exactly at a row boundary is indistinguishable from a
  // complete file; a row cut mid-field is caught by the width check.
  std::stringstream whole("a,b\n1,2");
  EXPECT_EQ(read_csv(whole).rows.size(), 1u);
  std::stringstream cut("a,b\n1,2\n3");
  EXPECT_THROW(read_csv(cut), Error);
}

TEST(Csv, NumberErrorNamesRowAndColumn) {
  CsvTable table;
  table.header = {"x", "y"};
  table.rows = {{"1.0", "oops"}};
  try {
    table.number(0, 1);
    FAIL() << "expected a parse error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("row 0"), std::string::npos) << what;
    EXPECT_NE(what.find("column 1"), std::string::npos) << what;
    EXPECT_NE(what.find("oops"), std::string::npos) << what;
  }
}

TEST(Csv, NumberParsesNonFiniteSentinels) {
  // "nan" cells are the serialized missing-link sentinel; parsing must
  // hand back the NaN rather than rejecting the cell.
  CsvTable table;
  table.header = {"x"};
  table.rows = {{"nan"}, {"inf"}};
  EXPECT_TRUE(std::isnan(table.number(0, 0)));
  EXPECT_TRUE(std::isinf(table.number(1, 0)));
}

// Property: a subnormal cell reads back bit for bit, whether written by
// format_double or spelled as a short decimal; overflow, total underflow
// to zero and non-numbers stay rejected.
TEST(Csv, PropertySubnormalCellsParseAndOverflowStaysRejected) {
  testing::run_property(0x5B40, 300, [](Rng& rng) {
    const std::uint64_t mantissa = std::max<std::uint64_t>(
        rng.next_u64() & ((std::uint64_t{1} << 52) - 1), 1);
    const std::uint64_t sign =
        rng.uniform() < 0.5 ? 0 : std::uint64_t{1} << 63;
    const double subnormal = std::bit_cast<double>(sign | mantissa);
    ASSERT_EQ(std::fpclassify(subnormal), FP_SUBNORMAL);
    const std::string spelled =
        std::to_string(rng.uniform_int(1, 9)) + "e-" +
        std::to_string(rng.uniform_int(309, 323));
    const std::string overflow =
        std::to_string(rng.uniform_int(1, 9)) + "e" +
        std::to_string(rng.uniform_int(309, 999));
    const std::string underflow =
        "1e-" + std::to_string(rng.uniform_int(330, 999));

    CsvTable table;
    table.header = {"x"};
    table.rows = {{format_double(subnormal)}, {spelled}, {overflow},
                  {"-" + overflow}, {underflow}, {spelled + "x"}};
    EXPECT_EQ(std::bit_cast<std::uint64_t>(table.number(0, 0)),
              std::bit_cast<std::uint64_t>(subnormal));
    const double parsed = table.number(1, 0);
    EXPECT_EQ(std::fpclassify(parsed), FP_SUBNORMAL) << spelled;
    EXPECT_EQ(parsed, std::strtod(spelled.c_str(), nullptr)) << spelled;
    for (std::size_t r = 2; r < table.row_count(); ++r) {
      EXPECT_THROW(table.number(r, 0), Error) << table.rows[r][0];
    }
  });
  // The smallest normal and the smallest subnormal are both numbers.
  CsvTable edges;
  edges.header = {"x"};
  edges.rows = {{"2.2250738585072014e-308"}, {"4.9406564584124654e-324"}};
  EXPECT_EQ(edges.number(0, 0), std::numeric_limits<double>::min());
  EXPECT_EQ(edges.number(1, 0), std::numeric_limits<double>::denorm_min());
}

// A CRLF file may contain blank CRLF lines; they are skipped like blank
// LF lines. A CR inside a line is not a line ending and stays in its
// cell, so the cell no longer parses as a number.
TEST(Csv, BlankCrlfLinesSkippedAndInteriorCrKept) {
  std::stringstream ss("a,b\r\n\r\n1,2\r\n\r\n3,4\r5\r\n");
  const CsvTable table = read_csv(ss);
  ASSERT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.number(0, 1), 2.0);
  EXPECT_EQ(table.rows[1][1], "4\r5");
  EXPECT_THROW(table.number(1, 1), Error);
}

// Property fuzz: seeded corruptions of valid trace files either parse
// into a rectangular table, or fail with an Error that says where. On
// an accepted table every cell either reads as a number or its Error
// names the row and column.
TEST(Csv, PropertyFuzzedInputsParseOrNameTheirLine) {
  std::size_t accepted = 0, rejected = 0;
  testing::run_property(0xC5F0220, 400, [&](Rng& rng) {
    const std::string text =
        testing::mutate_csv(rng, testing::random_trace_csv(rng));
    SCOPED_TRACE(text);
    std::istringstream in(text);
    CsvTable table;
    try {
      table = read_csv(in);
    } catch (const Error& e) {
      ++rejected;
      EXPECT_TRUE(testing::names_line_or_row(e.what())) << e.what();
      return;
    }
    ++accepted;
    for (std::size_t r = 0; r < table.row_count(); ++r) {
      ASSERT_EQ(table.rows[r].size(), table.column_count());
      for (std::size_t c = 0; c < table.column_count(); ++c) {
        try {
          table.number(r, c);
        } catch (const Error& e) {
          const std::string where = "(row " + std::to_string(r) +
                                    ", column " + std::to_string(c) + ")";
          EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
              << e.what();
        }
      }
    }
  });
  // Both outcomes must occur, or the property is vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace netconst
