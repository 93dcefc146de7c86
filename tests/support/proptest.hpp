// Minimal seeded property-based testing support.
//
// run_property() executes N independent cases, each with its own Rng
// derived deterministically from a base seed, and names the case (and
// its derived seed) in the failure trace — a failing case replays by
// construction, no shrinking machinery needed at this scale.
//
// The generators below build the structured random inputs the chaos
// suite fuzzes: rank-1-plus-sparse data matrices shaped like TP-matrix
// layers, and exact-count NaN fault masks. The CSV helpers build valid
// trace files and hostile mutations of them for the parser fuzzers.
#pragma once

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"

namespace netconst::testing {

/// Run `cases` property cases; `body` receives (Rng&) seeded per case.
template <typename Body>
void run_property(std::uint64_t seed, int cases, Body&& body) {
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t case_seed =
        seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(c + 1);
    SCOPED_TRACE("property case " + std::to_string(c) + " (derived seed " +
                 std::to_string(case_seed) + ")");
    Rng rng(case_seed);
    body(rng);
  }
}

inline std::size_t random_size(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/// A random instance of the paper's data model: every row repeats one
/// positive constant row (rank 1), and a sparse set of entries is
/// multiplied by an outlier factor (interference).
struct Rank1SparseCase {
  linalg::Matrix data;          // constant + sparse outliers
  linalg::Matrix constant_row;  // 1 x cols ground truth
  std::size_t outliers = 0;
};

inline Rank1SparseCase random_rank1_sparse(Rng& rng, std::size_t rows,
                                           std::size_t cols,
                                           double outlier_fraction,
                                           double outlier_factor = 5.0) {
  Rank1SparseCase out;
  out.constant_row = linalg::Matrix(1, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    out.constant_row(0, j) = rng.uniform(0.05, 1.0);
  }
  out.data = linalg::Matrix(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      double v = out.constant_row(0, j);
      if (rng.uniform() < outlier_fraction) {
        v *= outlier_factor;
        ++out.outliers;
      }
      out.data(i, j) = v;
    }
  }
  return out;
}

/// Overwrite exactly floor(fraction * rows * cols) distinct entries with
/// quiet NaN (partial Fisher-Yates over the flattened index space).
/// Returns the masked entry count.
inline std::size_t mask_entries(Rng& rng, linalg::Matrix& data,
                                double fraction) {
  const std::size_t total = data.rows() * data.cols();
  const auto masked =
      static_cast<std::size_t>(fraction * static_cast<double>(total));
  std::vector<std::size_t> indices(total);
  for (std::size_t k = 0; k < total; ++k) indices[k] = k;
  for (std::size_t k = 0; k < masked; ++k) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(k),
                        static_cast<std::int64_t>(total - 1)));
    std::swap(indices[k], indices[pick]);
    data(indices[k] / data.cols(), indices[k] % data.cols()) =
        std::numeric_limits<double>::quiet_NaN();
  }
  return masked;
}

/// A valid trace CSV (the Trace::save_csv format: time,i,j,alpha,beta,
/// one row per directed link per snapshot) of 1-4 snapshots over 2-4
/// VMs, with an occasional comment line and missing-link ("nan") row.
inline std::string random_trace_csv(Rng& rng) {
  const std::size_t snapshots = random_size(rng, 1, 4);
  const std::size_t n = random_size(rng, 2, 4);
  std::string text = "time,i,j,alpha,beta\n";
  for (std::size_t s = 0; s < snapshots; ++s) {
    if (rng.uniform() < 0.2) text += "# snapshot " + std::to_string(s) + "\n";
    const std::string time = format_double(30.0 * static_cast<double>(s));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const bool missing = rng.uniform() < 0.05;
        text += time + "," + std::to_string(i) + "," + std::to_string(j) +
                "," + (missing ? "nan" : format_double(rng.uniform(1e-5, 1e-3))) +
                "," + (missing ? "nan" : format_double(rng.uniform(1e6, 1e9))) +
                "\n";
      }
    }
  }
  return text;
}

/// Apply 1-3 seeded corruptions to CSV text: truncation at any byte,
/// ragged rows (a comma dropped or added), a cell replaced by a
/// non-numeric, huge, tiny, non-finite or out-of-domain spelling,
/// CR/LF mixes (CRLF, bare CR, blank CRLF lines, stray CRs), and lines
/// duplicated, dropped or swapped.
inline std::string mutate_csv(Rng& rng, std::string text) {
  static const char* const kHostileCells[] = {
      "",     "abc",  "1.2.3", "--1",  "1e",    "0x",   " ",
      "+",    "1e999", "-1e400", "1e308", "1e-310", "-0", "-1",
      "0.5",  "0",    "nan",  "-nan", "inf",   "-inf", "Infinity",
      "123456789012345678901234567890", "99999999999999999999"};
  constexpr std::size_t kHostileCount =
      sizeof(kHostileCells) / sizeof(kHostileCells[0]);
  const auto line_starts = [&text] {
    std::vector<std::size_t> starts{0};
    for (std::size_t k = 0; k + 1 < text.size(); ++k) {
      if (text[k] == '\n') starts.push_back(k + 1);
    }
    return starts;
  };
  const auto line_end = [&text](std::size_t start) {
    const std::size_t nl = text.find('\n', start);
    return nl == std::string::npos ? text.size() : nl + 1;
  };
  const std::size_t mutations = random_size(rng, 1, 3);
  for (std::size_t m = 0; m < mutations; ++m) {
    switch (rng.uniform_int(0, 4)) {
      case 0:  // truncation
        text.resize(random_size(rng, 0, text.size()));
        break;
      case 1: {  // ragged row
        const std::size_t at = random_size(rng, 0, text.size());
        const std::size_t comma = text.find(',', at);
        if (comma != std::string::npos && rng.uniform() < 0.5) {
          text.erase(comma, 1);
        } else {
          text.insert(at, 1, ',');
        }
        break;
      }
      case 2: {  // hostile cell
        const auto starts = line_starts();
        const std::size_t begin = starts[random_size(rng, 0, starts.size() - 1)];
        std::size_t end = line_end(begin);
        while (end > begin && (text[end - 1] == '\n' || text[end - 1] == '\r')) {
          --end;
        }
        std::vector<std::size_t> cuts{begin};
        for (std::size_t k = begin; k < end; ++k) {
          if (text[k] == ',') cuts.push_back(k + 1);
        }
        const std::size_t field = random_size(rng, 0, cuts.size() - 1);
        const std::size_t from = cuts[field];
        const std::size_t to =
            field + 1 < cuts.size() ? cuts[field + 1] - 1 : end;
        std::string cell = kHostileCells[random_size(rng, 0, kHostileCount - 1)];
        if (rng.uniform() < 0.1) cell = std::string(400, '9');
        text.replace(from, to - from, cell);
        break;
      }
      case 3: {  // CR/LF mix
        static const char* const kBreaks[] = {"\r\n", "\r", "\n\r\n",
                                              "\r\n\r\n", "\n\n"};
        const std::size_t nl = text.find('\n', random_size(rng, 0, text.size()));
        if (nl != std::string::npos && rng.uniform() < 0.7) {
          text.replace(nl, 1, kBreaks[random_size(rng, 0, 4)]);
        } else {
          text.insert(random_size(rng, 0, text.size()), 1, '\r');
        }
        break;
      }
      default: {  // duplicate, drop or swap whole lines
        const auto starts = line_starts();
        const std::size_t a = starts[random_size(rng, 0, starts.size() - 1)];
        const std::string line_a = text.substr(a, line_end(a) - a);
        const double pick = rng.uniform();
        if (pick < 0.34) {
          text.insert(a, line_a);
        } else if (pick < 0.67) {
          text.erase(a, line_a.size());
        } else {
          const std::size_t b = starts[random_size(rng, 0, starts.size() - 1)];
          if (b <= a) break;
          const std::string line_b = text.substr(b, line_end(b) - b);
          if (line_a.empty() || line_a.back() != '\n' || line_b.empty() ||
              line_b.back() != '\n') {
            break;  // swap only complete lines
          }
          text.replace(b, line_b.size(), line_a);
          text.replace(a, line_a.size(), line_b);
        }
        break;
      }
    }
  }
  return text;
}

/// True when a parse error says where the problem is: a "line N" or
/// "row N" location, or the header (the input's first non-comment line).
inline bool names_line_or_row(const std::string& message) {
  for (const char* word : {"line ", "row "}) {
    for (std::size_t at = message.find(word); at != std::string::npos;
         at = message.find(word, at + 1)) {
      const std::size_t digit = at + std::char_traits<char>::length(word);
      if (digit < message.size() &&
          std::isdigit(static_cast<unsigned char>(message[digit])) != 0) {
        return true;
      }
    }
  }
  return message.find("header") != std::string::npos;
}

}  // namespace netconst::testing
