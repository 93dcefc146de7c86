#include "support/csv.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace netconst {
namespace {

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(field);
  return fields;
}

}  // namespace

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw Error("CSV header has no column: " + name);
}

double CsvTable::number(std::size_t row, std::size_t col) const {
  NETCONST_CHECK(row < rows.size() && col < rows[row].size(),
                 "CSV cell out of range");
  const std::string& cell = rows[row][col];
  // strtod sets ERANGE on overflow, on underflow to zero and on every
  // subnormal result. A subnormal is still the nearest double to the
  // cell, so it is a number; the other two are not.
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  const bool range_ok =
      errno != ERANGE || std::fpclassify(v) == FP_SUBNORMAL;
  if (end == cell.c_str() || end != cell.c_str() + cell.size() ||
      !range_ok) {
    throw Error("CSV cell (row " + std::to_string(row) + ", column " +
                std::to_string(col) + ") is not a number: '" + cell + "'");
  }
  return v;
}

void write_csv(std::ostream& out, const CsvTable& table) {
  auto write_row = [&out](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out << ',';
      out << row[i];
    }
    out << '\n';
  };
  write_row(table.header);
  for (const auto& row : table.rows) {
    NETCONST_CHECK(row.size() == table.header.size(),
                   "CSV row width differs from header");
    write_row(row);
  }
}

void write_csv_file(const std::string& path, const CsvTable& table) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  write_csv(out, table);
  if (!out) throw Error("write failed: " + path);
}

CsvTable read_csv(std::istream& in) {
  CsvTable table;
  std::string line;
  bool have_header = false;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // CRLF files: drop the line's own CR before anything else, so a
    // blank CRLF line is skipped like a blank LF one. A CR anywhere else
    // is corruption and stays in its field, where a numeric cell then
    // fails to parse instead of silently joining two digit runs.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    auto fields = split_line(line);
    if (!have_header) {
      table.header = std::move(fields);
      have_header = true;
    } else {
      // A short (or long) row is how both hand truncation and a crash
      // mid-write typically present; name the line so the corrupt spot
      // is findable in a multi-megabyte file.
      if (fields.size() != table.header.size()) {
        throw Error("CSV line " + std::to_string(line_number) + " has " +
                    std::to_string(fields.size()) + " fields, header has " +
                    std::to_string(table.header.size()));
      }
      table.rows.push_back(std::move(fields));
    }
  }
  if (in.bad()) throw Error("CSV stream read error");
  if (!have_header) throw Error("CSV stream has no header row");
  return table;
}

CsvTable read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open for reading: " + path);
  return read_csv(in);
}

std::string format_double(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

}  // namespace netconst
