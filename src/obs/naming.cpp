#include "obs/naming.hpp"

#include <cctype>

namespace netconst::obs {

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::Counter:
      return "counter";
    case MetricType::Gauge:
      return "gauge";
    case MetricType::Histogram:
      return "histogram";
  }
  return "unknown";
}

namespace {

bool ends_with(const std::string& name, const char* suffix) {
  const std::string s(suffix);
  return name.size() >= s.size() &&
         name.compare(name.size() - s.size(), s.size(), s) == 0;
}

}  // namespace

const char* metric_unit(const std::string& dotted_name) {
  if (ends_with(dotted_name, "_seconds")) return "seconds";
  if (ends_with(dotted_name, "_bytes")) return "bytes";
  return "";
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const auto uc = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(uc) != 0 || c == '_' ? c : '_');
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

namespace {

/// Escape a label value per the exposition format (backslash, quote,
/// newline).
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

PrometheusSeries prometheus_series(const std::string& dotted_name) {
  constexpr const char* kTenantPrefix = "tenant.";
  constexpr std::size_t kTenantPrefixLen = 7;
  constexpr const char* kSvdPathPrefix = "rpca.svd.path.";
  constexpr std::size_t kSvdPathPrefixLen = 14;
  PrometheusSeries series;
  if (dotted_name.compare(0, kSvdPathPrefixLen, kSvdPathPrefix) == 0 &&
      dotted_name.size() > kSvdPathPrefixLen) {
    // The decomposition-path counters fold into one labeled series so
    // dashboards can stack full/incremental shares.
    const std::string path = dotted_name.substr(kSvdPathPrefixLen);
    series.name = "netconst_rpca_svd_path";
    series.labels = "path=\"" + escape_label_value(path) + '"';
    return series;
  }
  constexpr const char* kVerdictPrefix = "detect.verdicts.";
  constexpr std::size_t kVerdictPrefixLen = 16;
  if (dotted_name.compare(0, kVerdictPrefixLen, kVerdictPrefix) == 0 &&
      dotted_name.size() > kVerdictPrefixLen) {
    // Per-kind verdict counters fold into one labeled series so a
    // dashboard can stack placement_shift/outlier_storm/baseline_drift
    // shares in a single query.
    const std::string kind = dotted_name.substr(kVerdictPrefixLen);
    series.name = "netconst_detect_verdicts";
    series.labels = "kind=\"" + escape_label_value(kind) + '"';
    return series;
  }
  if (dotted_name.compare(0, kTenantPrefixLen, kTenantPrefix) == 0) {
    const std::size_t dot = dotted_name.find('.', kTenantPrefixLen);
    if (dot != std::string::npos && dot + 1 < dotted_name.size()) {
      const std::string tenant =
          dotted_name.substr(kTenantPrefixLen, dot - kTenantPrefixLen);
      series.name =
          "netconst_tenant_" + sanitize_metric_name(dotted_name.substr(dot + 1));
      series.labels = "tenant=\"" + escape_label_value(tenant) + '"';
      return series;
    }
  }
  series.name = "netconst_" + sanitize_metric_name(dotted_name);
  return series;
}

}  // namespace netconst::obs
