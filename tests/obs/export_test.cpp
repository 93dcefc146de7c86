// Exporter tests: the shared naming helpers, a Prometheus text golden
// file, the JSON snapshot round-trip, and the contract that the online
// MetricsRegistry and the obs exporters agree on every spelling.
#include "obs/export.hpp"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/convergence.hpp"
#include "obs/naming.hpp"
#include "online/metrics.hpp"
#include "../support/json.hpp"

namespace netconst::obs {
namespace {

TEST(ObsNaming, MetricTypeNames) {
  EXPECT_STREQ(metric_type_name(MetricType::Counter), "counter");
  EXPECT_STREQ(metric_type_name(MetricType::Gauge), "gauge");
  EXPECT_STREQ(metric_type_name(MetricType::Histogram), "histogram");
}

TEST(ObsNaming, UnitFromSuffix) {
  EXPECT_STREQ(metric_unit("online.refresh_seconds"), "seconds");
  EXPECT_STREQ(metric_unit("tenant.a.operation_bytes"), "bytes");
  EXPECT_STREQ(metric_unit("online.refreshes"), "");
}

TEST(ObsNaming, SanitizeMetricName) {
  EXPECT_EQ(sanitize_metric_name("online.refresh_seconds"),
            "online_refresh_seconds");
  EXPECT_EQ(sanitize_metric_name("weird-name with spaces"),
            "weird_name_with_spaces");
  EXPECT_EQ(sanitize_metric_name("9lives"), "_9lives");
}

TEST(ObsNaming, PrometheusSeriesMapping) {
  const PrometheusSeries plain = prometheus_series("online.refreshes");
  EXPECT_EQ(plain.name, "netconst_online_refreshes");
  EXPECT_EQ(plain.labels, "");

  const PrometheusSeries tenant =
      prometheus_series("tenant.bursty0.refresh_seconds");
  EXPECT_EQ(tenant.name, "netconst_tenant_refresh_seconds");
  EXPECT_EQ(tenant.labels, "tenant=\"bursty0\"");

  // The per-path SVT counters fold into one labeled series, so the
  // full/incremental split is a single Prometheus query.
  const PrometheusSeries svd = prometheus_series("rpca.svd.path.full");
  EXPECT_EQ(svd.name, "netconst_rpca_svd_path");
  EXPECT_EQ(svd.labels, "path=\"full\"");
  const PrometheusSeries inc =
      prometheus_series("rpca.svd.path.incremental");
  EXPECT_EQ(inc.name, "netconst_rpca_svd_path");
  EXPECT_EQ(inc.labels, "path=\"incremental\"");
  // The bare prefix has no path suffix to label: plain mapping.
  const PrometheusSeries bare = prometheus_series("rpca.svd.path.");
  EXPECT_EQ(bare.name, "netconst_rpca_svd_path_");

  // Detector verdict counters fold the same way: one series, the
  // verdict kind as a label.
  const PrometheusSeries verdict =
      prometheus_series("detect.verdicts.placement_shift");
  EXPECT_EQ(verdict.name, "netconst_detect_verdicts");
  EXPECT_EQ(verdict.labels, "kind=\"placement_shift\"");
  const PrometheusSeries latency =
      prometheus_series("detect.latency_slides");
  EXPECT_EQ(latency.name, "netconst_detect_latency_slides");
  EXPECT_EQ(latency.labels, "");
}

TEST(ObsNaming, PrometheusLabelValuesAreEscaped) {
  // Exposition format: label values must escape backslash, double
  // quote, and line feed — a tenant named with any of them must not be
  // able to break the series line apart.
  const PrometheusSeries slash =
      prometheus_series("tenant.a\\b.refreshes");
  EXPECT_EQ(slash.labels, "tenant=\"a\\\\b\"");
  const PrometheusSeries quote =
      prometheus_series("tenant.a\"b.refreshes");
  EXPECT_EQ(quote.labels, "tenant=\"a\\\"b\"");
  const PrometheusSeries newline =
      prometheus_series("tenant.a\nb.refreshes");
  EXPECT_EQ(newline.labels, "tenant=\"a\\nb\"");
}

TEST(ObsExport, PrometheusContentTypeConstant) {
  // Scrapers key the parser off the version parameter; HTTP endpoints
  // must serve write_prometheus() output under exactly this type.
  EXPECT_STREQ(kPrometheusContentType, "text/plain; version=0.0.4");
}

TEST(ObsExport, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape(std::string("a\nb")), "a b");
}

std::vector<MetricSample> sample_fixture() {
  std::vector<MetricSample> samples;
  MetricSample counter;
  counter.name = "online.refreshes";
  counter.type = MetricType::Counter;
  counter.value = 42.0;
  samples.push_back(counter);

  MetricSample gauge;
  gauge.name = "tenant.a.error_norm";
  gauge.type = MetricType::Gauge;
  gauge.value = 0.25;
  samples.push_back(gauge);

  // Two tenants of the same histogram: must group under ONE # TYPE.
  for (const char* tenant : {"a", "b"}) {
    MetricSample hist;
    hist.name = std::string("tenant.") + tenant + ".refresh_seconds";
    hist.type = MetricType::Histogram;
    hist.histogram.count = 4;
    hist.histogram.sum = 10.0;
    hist.histogram.min = 1.0;
    hist.histogram.max = 4.0;
    hist.histogram.p50 = 2.0;
    hist.histogram.p99 = 4.0;
    samples.push_back(hist);
  }

  // Detector verdict counters: per-kind names fold into one labeled
  // series and must share a single # TYPE header.
  for (const char* kind : {"placement_shift", "outlier_storm"}) {
    MetricSample verdicts;
    verdicts.name = std::string("detect.verdicts.") + kind;
    verdicts.type = MetricType::Counter;
    verdicts.value = kind[0] == 'p' ? 3.0 : 1.0;
    samples.push_back(verdicts);
  }
  MetricSample latency;
  latency.name = "detect.latency_slides";
  latency.type = MetricType::Histogram;
  latency.histogram.count = 4;
  latency.histogram.sum = 9.0;
  latency.histogram.min = 1.0;
  latency.histogram.max = 4.0;
  latency.histogram.p50 = 2.0;
  latency.histogram.p99 = 4.0;
  samples.push_back(latency);
  return samples;
}

TEST(ObsExport, PrometheusGolden) {
  std::ostringstream out;
  write_prometheus(out, sample_fixture());
  // Series render in sorted order; the per-kind verdict counters land
  // under one # TYPE with their kind labels.
  const std::string expected =
      "# TYPE netconst_detect_latency_slides summary\n"
      "netconst_detect_latency_slides{quantile=\"0.5\"} 2\n"
      "netconst_detect_latency_slides{quantile=\"0.99\"} 4\n"
      "netconst_detect_latency_slides_sum 9\n"
      "netconst_detect_latency_slides_count 4\n"
      "# TYPE netconst_detect_verdicts counter\n"
      "netconst_detect_verdicts{kind=\"outlier_storm\"} 1\n"
      "netconst_detect_verdicts{kind=\"placement_shift\"} 3\n"
      "# TYPE netconst_online_refreshes counter\n"
      "netconst_online_refreshes 42\n"
      "# TYPE netconst_tenant_error_norm gauge\n"
      "netconst_tenant_error_norm{tenant=\"a\"} 0.25\n"
      "# TYPE netconst_tenant_refresh_seconds summary\n"
      "netconst_tenant_refresh_seconds{tenant=\"a\",quantile=\"0.5\"} 2\n"
      "netconst_tenant_refresh_seconds{tenant=\"a\",quantile=\"0.99\"} 4\n"
      "netconst_tenant_refresh_seconds_sum{tenant=\"a\"} 10\n"
      "netconst_tenant_refresh_seconds_count{tenant=\"a\"} 4\n"
      "netconst_tenant_refresh_seconds{tenant=\"b\",quantile=\"0.5\"} 2\n"
      "netconst_tenant_refresh_seconds{tenant=\"b\",quantile=\"0.99\"} 4\n"
      "netconst_tenant_refresh_seconds_sum{tenant=\"b\"} 10\n"
      "netconst_tenant_refresh_seconds_count{tenant=\"b\"} 4\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(ObsExport, PrometheusGoldenEscapesHostileLabels) {
  std::vector<MetricSample> samples;
  MetricSample gauge;
  gauge.name = "tenant.bad\\ten\"ant\nname.error_norm";
  gauge.type = MetricType::Gauge;
  gauge.value = 1.0;
  samples.push_back(gauge);
  std::ostringstream out;
  write_prometheus(out, samples);
  EXPECT_EQ(
      out.str(),
      "# TYPE netconst_tenant_error_norm gauge\n"
      "netconst_tenant_error_norm{tenant=\"bad\\\\ten\\\"ant\\nname\"} "
      "1\n");
}

TEST(ObsExport, JsonSnapshotRoundTrips) {
  ConvergenceLog log(4);
  SolveConvergence record;
  record.refresh = 1;
  record.layer = "latency";
  record.iterations = 12;
  log.record(record);

  TelemetrySnapshot snapshot;
  snapshot.metrics = sample_fixture();
  snapshot.convergence.emplace_back("tenant_a", &log);

  std::ostringstream out;
  write_json_snapshot(out, snapshot);
  const testjson::Value doc = testjson::parse(out.str());

  const testjson::Value& metrics = doc.at("metrics");
  ASSERT_EQ(metrics.size(), 7u);
  EXPECT_EQ(metrics.at(0).at("name").string, "online.refreshes");
  EXPECT_EQ(metrics.at(0).at("type").string, "counter");
  EXPECT_EQ(metrics.at(0).at("value").number, 42.0);
  EXPECT_EQ(metrics.at(2).at("type").string, "histogram");
  EXPECT_EQ(metrics.at(2).at("unit").string, "seconds");
  EXPECT_EQ(metrics.at(2).at("count").number, 4.0);
  EXPECT_EQ(metrics.at(2).at("p99").number, 4.0);
  // Detector metrics keep their dotted names in JSON (the labeled fold
  // is a Prometheus-only concern).
  EXPECT_EQ(metrics.at(4).at("name").string,
            "detect.verdicts.placement_shift");
  EXPECT_EQ(metrics.at(4).at("value").number, 3.0);
  EXPECT_EQ(metrics.at(6).at("name").string, "detect.latency_slides");
  EXPECT_EQ(metrics.at(6).at("type").string, "histogram");
  EXPECT_EQ(metrics.at(6).at("count").number, 4.0);

  const testjson::Value& convergence = doc.at("convergence");
  const testjson::Value& tenant_log = convergence.at("tenant_a");
  EXPECT_EQ(tenant_log.at("capacity").number, 4.0);
  EXPECT_EQ(tenant_log.at("recorded").number, 1.0);
  ASSERT_EQ(tenant_log.at("solves").size(), 1u);
  EXPECT_EQ(tenant_log.at("solves").at(0).at("layer").string, "latency");
  EXPECT_EQ(tenant_log.at("solves").at(0).at("iterations").number, 12.0);

  const testjson::Value& trace = doc.at("trace");
  EXPECT_TRUE(trace.at("enabled").is_bool());
  EXPECT_TRUE(trace.at("recorded").is_number());
}

// Satellite contract: the registry's own exports and the obs exporters
// render from the SAME samples() rows, so names, types and units can
// never disagree between the CSV/console path and Prometheus/JSON.
TEST(ObsExport, RegistrySamplesAgreeAcrossExporters) {
  online::MetricsRegistry registry;
  registry.counter("online.refreshes").increment(3.0);
  registry.gauge("tenant.x.error_norm").set(0.5);
  registry.histogram("tenant.x.refresh_seconds").observe(1.5);

  const auto samples = registry.samples();
  ASSERT_EQ(samples.size(), 3u);
  // samples() is name-sorted.
  EXPECT_EQ(samples[0].name, "online.refreshes");
  EXPECT_EQ(samples[1].name, "tenant.x.error_norm");
  EXPECT_EQ(samples[2].name, "tenant.x.refresh_seconds");
  EXPECT_EQ(samples[2].histogram.count, 1u);

  // CSV rows carry the canonical type names.
  const CsvTable csv = registry.to_csv();
  ASSERT_EQ(csv.rows.size(), 3u);
  for (std::size_t k = 0; k < csv.rows.size(); ++k) {
    EXPECT_EQ(csv.rows[k][0], samples[k].name);
    EXPECT_EQ(csv.rows[k][1], metric_type_name(samples[k].type));
  }

  // The Prometheus rendering of the same rows uses the shared series
  // mapping — tenant prefix becomes a label, not a name fragment.
  std::ostringstream prom;
  write_prometheus(prom, samples);
  const std::string text = prom.str();
  EXPECT_NE(text.find("netconst_online_refreshes 3\n"), std::string::npos);
  EXPECT_NE(text.find("netconst_tenant_error_norm{tenant=\"x\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("netconst_tenant_refresh_seconds_count{tenant=\"x\"} 1\n"),
      std::string::npos);
  EXPECT_EQ(text.find("tenant.x"), std::string::npos);
}

}  // namespace
}  // namespace netconst::obs
