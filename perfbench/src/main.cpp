// perfbench — end-to-end benchmark of the online constant service and
// its serving front end.
//
//   perfbench --workload <track_small|resolve_wide|plan_fanout>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// One process runs the real ConstantFinderService + ConstantServer on
// seeded synthetic clouds, with one closed-loop /plan query client
// (in-process or over one keep-alive HTTP connection). Set-up is
// repeated and its median reported; then, after a warm-up, the service
// is measured for --seconds. The last stdout line is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1
// (the traced run also writes a Chrome-trace file to --out-dir). Exit
// status is non-zero when any correctness check failed.
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cloud/synthetic.hpp"
#include "faults/fault_provider.hpp"
#include "http_client.hpp"
#include "linalg/simd.hpp"
#include "obs/trace.hpp"
#include "online/service.hpp"
#include "probes.hpp"
#include "serving/plan.hpp"
#include "serving/server.hpp"
#include "stats.hpp"
#include "support/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using netconst::serving::ConstantServer;
using netconst::serving::EpochDomain;
using netconst::serving::SnapshotStore;

/// Set-ups per run; the median is setup_s.
constexpr int kSetups = 5;
/// The client keeps querying this long after the window so that ingests
/// near its end can still be served.
constexpr double kGraceSeconds = 1.0;
/// Every this-many-th answer is checked against compute_plan.
constexpr std::uint64_t kCheckEvery = 61;
constexpr std::size_t kReservoir = 1 << 18;
/// In traced slices every this-many-th client batch is a lone request
/// whose latency is filed under plan hits or misses.
constexpr std::uint64_t kProbeEvery = 16;
/// The client's CPU moves to the next one this often (see Placement).
constexpr double kRotateSeconds = 0.25;
/// A placement-shift verdict within this many provider seconds after a
/// scripted shift is credited to it: the detector holds a direction
/// verdict for a window's worth of slides (10 x 1500 s), plus slack.
constexpr double kShiftMatchWindow = 30000.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++k];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return args;
}

/// Thread placement. The query client and the HTTP loop, which only
/// runs while the client waits for it, share one CPU, so the
/// client/server ping-pong stays on one CPU instead of wherever the
/// scheduler puts it; every other thread of the process (service
/// drivers, the shared pool, the main thread) runs on the remaining
/// CPUs. rotate() moves the shared CPU to the next allowed one: each
/// virtual CPU of a shared host runs up to half again faster or slower
/// for seconds at a time as its neighbours come and go, and a client
/// held on one CPU would measure that CPU's luck. Threads are named by
/// kernel thread id, so threads the program starts itself (its pool,
/// the HTTP loop) are placed too. No pinning below two CPUs.
class Placement {
 public:
  Placement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  bool pinned() const { return cpus_.size() >= 2; }
  std::size_t cpus() const { return cpus_.size(); }

  /// Places the calling thread as the query client.
  void add_client() { add(client_tid_); }

  /// Starts the server's HTTP loop and places its thread with the client.
  void start_http(ConstantServer& server) {
    const std::vector<pid_t> before = thread_ids();
    server.start();
    for (const pid_t tid : thread_ids()) {
      if (std::find(before.begin(), before.end(), tid) == before.end()) {
        std::lock_guard<std::mutex> lock(mutex_);
        http_tid_ = tid;
        apply();
      }
    }
  }

  void rotate() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++turn_;
    apply();
  }

  /// Places every thread of the process for the current turn.
  void place() {
    std::lock_guard<std::mutex> lock(mutex_);
    apply();
  }

 private:
  static std::vector<pid_t> thread_ids() {
    std::vector<pid_t> ids;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ids.push_back(
          static_cast<pid_t>(std::stol(entry.path().filename().string())));
    }
    return ids;
  }

  void add(pid_t& slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    slot = static_cast<pid_t>(syscall(SYS_gettid));
    apply();
  }

  void apply() {
    if (!pinned()) return;
    const int shared = cpus_[turn_ % cpus_.size()];
    cpu_set_t client;
    cpu_set_t others;
    CPU_ZERO(&client);
    CPU_ZERO(&others);
    CPU_SET(shared, &client);
    for (const int cpu : cpus_) {
      if (cpu != shared) CPU_SET(cpu, &others);
    }
    for (const pid_t tid : thread_ids()) {
      const bool with_client = tid == client_tid_ || tid == http_tid_;
      // A thread that exited meanwhile fails with ESRCH; nothing to do.
      sched_setaffinity(tid, sizeof(cpu_set_t), with_client ? &client : &others);
    }
  }

  std::vector<int> cpus_;
  std::mutex mutex_;
  std::size_t turn_ = 0;
  pid_t client_tid_ = -1;
  pid_t http_tid_ = -1;
};

/// Uniform random sample of a stream (Algorithm R, fixed seed), so
/// percentiles come from exact measured values at bounded memory.
class Reservoir {
 public:
  explicit Reservoir(std::uint64_t seed) : rng_(seed) {}
  void add(double value) {
    ++seen_;
    if (samples_.size() < kReservoir) {
      samples_.push_back(value);
      return;
    }
    const std::uint64_t slot = rng_() % seen_;
    if (slot < kReservoir) samples_[slot] = value;
  }
  std::vector<double>& samples() { return samples_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::mt19937_64 rng_;
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
};

/// The true constant's transfer times before and after each scripted
/// placement shift, computed before the service starts.
TenantTruth make_truth(const TenantSetup& setup) {
  const netconst::cloud::SyntheticCloud cloud(setup.cloud);
  const std::size_t n = setup.cloud.cluster_size;
  const std::uint64_t bytes = setup.config.operation_bytes;
  auto flatten = [&](const netconst::netmodel::PerformanceMatrix& m) {
    std::vector<double> flat(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) flat[i * n + j] = m.transfer_time(i, j, bytes);
      }
    }
    return flat;
  };
  TenantTruth truth;
  const netconst::netmodel::PerformanceMatrix base =
      cloud.ground_truth_constant();
  truth.transfer.push_back(flatten(base));
  if (!setup.faults) return truth;
  for (const auto& change : setup.faults->placement_changes) {
    netconst::cloud::SyntheticCloud shadow_cloud(setup.cloud);
    netconst::faults::FaultInjectionProvider shadow(shadow_cloud,
                                                    *setup.faults);
    shadow.advance(change.time);
    netconst::netmodel::PerformanceMatrix shifted = base;
    shadow.apply_placement_shift(shifted);
    truth.shift_times.push_back(change.time);
    truth.transfer.push_back(flatten(shifted));
  }
  return truth;
}

/// One service + server instance over the workload's tenants.
class Rig {
 public:
  Rig(const Workload& workload, std::vector<TenantTruth> truth)
      : workload_(workload) {
    const std::size_t tenants = workload.tenants.size();
    recorder_ = std::make_unique<Recorder>(tenants);
    std::vector<ProbeProvider*> probe_ptrs;
    std::vector<std::string> names;
    for (const TenantSetup& setup : workload.tenants) {
      clouds_.push_back(
          std::make_unique<netconst::cloud::SyntheticCloud>(setup.cloud));
      netconst::cloud::NetworkProvider* inner = clouds_.back().get();
      faulted_.push_back(nullptr);
      if (setup.faults) {
        faulted_.back() =
            std::make_unique<netconst::faults::FaultInjectionProvider>(
                *clouds_.back(), *setup.faults);
        inner = faulted_.back().get();
      }
      probes_.push_back(std::make_unique<ProbeProvider>(
          *inner, setup.config.operation_bytes, stop_));
      probe_ptrs.push_back(probes_.back().get());
      names.push_back(setup.config.name);
    }
    begin_generation();
    netconst::serving::ConstantServerOptions server_options;
    server_options.plan_cache_capacity = workload.plan_cache_capacity;
    server_ = std::make_unique<ConstantServer>(service_, server_options);
    sink_ = std::make_unique<StampSink>(
        server_->store(), probe_ptrs, names, std::move(truth), *recorder_,
        workload.tenants.front().config.operation_bytes,
        workload.horizon);
    for (std::size_t t = 0; t < tenants; ++t) {
      netconst::online::TenantConfig config = workload.tenants[t].config;
      config.provider = probes_[t].get();
      service_.add_tenant(config);
    }
    service_.set_snapshot_sink(sink_.get());
  }

  ~Rig() {
    stop();
    service_.set_snapshot_sink(nullptr);
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void start() {
    runner_ = std::thread([this] {
      try {
        while (!stop_.load()) {
          service_.run(workload_.steps_per_run);
          end_of_batch();
        }
      } catch (const StopRun&) {
      } catch (const std::exception& error) {
        std::lock_guard<std::mutex> lock(error_mutex_);
        error_ = error.what();
      }
      finished_.store(true);
    });
  }

  void stop() {
    stop_.store(true);
    if (runner_.joinable()) runner_.join();
  }

  bool finished() const { return finished_.load(); }
  std::string error() const {
    std::lock_guard<std::mutex> lock(error_mutex_);
    return error_;
  }

  netconst::online::ConstantFinderService& service() { return service_; }
  ConstantServer& server() { return *server_; }
  Recorder& recorder() { return *recorder_; }
  StampSink& sink() { return *sink_; }
  const ProbeProvider& probe(std::size_t t) const { return *probes_[t]; }
  const netconst::faults::FaultInjectionProvider* faulted(std::size_t t) const {
    return faulted_[t].get();
  }

 private:
  const Workload& workload_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> finished_{false};
  std::vector<std::unique_ptr<netconst::cloud::SyntheticCloud>> clouds_;
  std::vector<std::unique_ptr<netconst::faults::FaultInjectionProvider>>
      faulted_;
  std::vector<std::unique_ptr<ProbeProvider>> probes_;
  std::unique_ptr<Recorder> recorder_;
  netconst::online::ConstantFinderService service_;
  std::unique_ptr<ConstantServer> server_;
  std::unique_ptr<StampSink> sink_;
  mutable std::mutex error_mutex_;
  std::string error_;
  std::thread runner_;
};

/// Waits until every tenant published version 1; returns that wall time
/// or throws when the service died first.
double wait_setup(Rig& rig) {
  for (;;) {
    const double done = rig.recorder().setup_complete();
    if (done >= 0.0) return done;
    if (rig.finished()) {
      throw std::runtime_error("service stopped during set-up: " + rig.error());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

// ----------------------------------------------------------------------
// The query client.

struct ClientStats {
  std::uint64_t answers = 0;  // inside the window
  double check_seconds = 0.0;  // inside the window, excluded from qps
  Reservoir latency{1};
  Reservoir hit_latency{2};   // traced slices only
  Reservoir miss_latency{3};  // traced slices only
  std::vector<ServeStamp> serves;
  std::uint64_t checked_every = 0;  // answers seen, for kCheckEvery
  std::uint64_t mix_shortfalls = 0;  // no key of the wanted class
  std::uint64_t checks = 0;
  std::uint64_t checks_skipped = 0;  // a publish raced the pinned copy
  std::uint64_t wrong_plans = 0;
  std::uint64_t non_monotone = 0;
  std::uint64_t bad_responses = 0;
  std::uint64_t errors = 0;
  std::string first_error;
};

/// Wall-time intervals (the traced slices of a traced run).
class Slices {
 public:
  void add(double from, double to) { intervals_.emplace_back(from, to); }
  bool contains(double t) const {
    for (const auto& [from, to] : intervals_) {
      if (t >= from && t < to) return true;
    }
    return false;
  }
  double seconds() const {
    double total = 0.0;
    for (const auto& [from, to] : intervals_) total += to - from;
    return total;
  }

 private:
  std::vector<std::pair<double, double>> intervals_;
};

struct Window {
  std::atomic<double> start{std::numeric_limits<double>::infinity()};
  std::atomic<double> end{std::numeric_limits<double>::infinity()};
};

/// The "version" field of a plan body; 0 when absent.
std::uint64_t body_version(const std::string& body) {
  static const std::string kField = "\"version\":";
  const std::size_t at = body.find(kField);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + kField.size(), nullptr, 10);
}

void run_client(const Workload& workload, Rig& rig, const Window& window,
                const std::atomic<bool>& stop, ClientStats& stats) {
  ConstantServer& server = rig.server();
  SnapshotStore& store = server.store();
  EpochDomain::Reader reader(server.epoch());
  const std::size_t tenants = workload.tenants.size();
  std::vector<std::size_t> slots(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    slots[t] = store.find(workload.tenants[t].config.name);
  }
  std::vector<std::uint64_t> last_version(tenants, 0);
  std::unique_ptr<KeepAliveClient> http;
  if (workload.http) http = std::make_unique<KeepAliveClient>(server.port());

  struct Query {
    std::size_t tenant;
    std::size_t index;  // into the tenant's keys
    const PlanKey* key;
  };
  std::vector<Query> batch;
  std::uint64_t query = 0;
  std::uint64_t batches = 0;
  std::string body;

  // Fixed mix (workload.misses_per_batch > 0): query k of the stream
  // asks for a stale key (its tenant published since the key was last
  // answered, so the cache misses) when (k * misses) mod pipeline <
  // misses, and for a fresh one (answered at the tenant's current
  // version, so the cache hits) otherwise. Each class walks the keys
  // in round-robin order with its own cursor, skipping keys of the
  // other class.
  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::vector<std::vector<std::uint64_t>> served(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    served[t].assign(workload.tenants[t].keys.size(), 0);
  }
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (std::size_t t = 0; t < tenants; ++t) {
      if (k >= served[t].size()) continue;
      order.emplace_back(t, k);
      any = true;
    }
    if (!any) break;
  }
  std::size_t cursors[2] = {0, 0};  // [stale, fresh]
  auto next_key = [&]() -> Query {
    std::size_t t = query % tenants;
    std::size_t index = (query / tenants) % served[t].size();
    if (workload.misses_per_batch > 0) {
      const bool fresh = (query * workload.misses_per_batch) %
                             workload.pipeline >=
                         workload.misses_per_batch;
      std::size_t& cursor = cursors[fresh ? 1 : 0];
      std::size_t scanned = 0;
      for (; scanned < order.size(); ++scanned) {
        std::tie(t, index) = order[cursor];
        cursor = (cursor + 1) % order.size();
        if ((served[t][index] == store.version(slots[t])) == fresh) break;
      }
      if (scanned == order.size()) ++stats.mix_shortfalls;
    }
    ++query;
    return {t, index, &workload.tenants[t].keys[index]};
  };

  // Checks and records one answer; latency runs from the batch's send.
  auto record = [&](const Query& q, double t0, double t1, int hit) {
    const bool in_window =
        t1 >= window.start.load(std::memory_order_relaxed) &&
        t1 <= window.end.load(std::memory_order_relaxed);
    if (in_window) {
      ++stats.answers;
      stats.latency.add(t1 - t0);
      if (hit >= 0) (hit ? stats.hit_latency : stats.miss_latency).add(t1 - t0);
    }
    const std::size_t t = q.tenant;
    const std::uint64_t version = body_version(body);
    served[t][q.index] = version;
    if (version > last_version[t]) {
      stats.serves.push_back({t, version, t1});
      last_version[t] = version;
    } else if (version < last_version[t]) {
      ++stats.non_monotone;
    }
    if (++stats.checked_every % kCheckEvery == 0) {
      const SnapshotStore::Ref ref = store.acquire(slots[t], reader);
      if (ref && ref->version == version) {
        const netconst::serving::Plan plan = netconst::serving::compute_plan(
            *ref, netconst::serving::canonical_plan_request(
                      q.key->kind, q.key->nodes, q.key->root, q.key->bytes));
        ++stats.checks;
        if (plan.json != body) ++stats.wrong_plans;
      } else {
        ++stats.checks_skipped;
      }
      if (in_window) stats.check_seconds += now_s() - t1;
    }
  };

  while (!stop.load(std::memory_order_relaxed)) {
    const bool traced = rig.recorder().tracing.load(std::memory_order_relaxed);
    // Traced slices time every kProbeEvery-th batch as one lone request,
    // so its latency can be split by hit and miss.
    const bool probe = traced && batches++ % kProbeEvery == 0;
    const std::size_t depth = probe ? 1 : workload.pipeline;
    batch.clear();
    for (std::size_t k = 0; k < depth; ++k) batch.push_back(next_key());
    // Answers are filed as hit or miss only where the cache's hit
    // counter moves for that one query alone.
    const bool classify = http ? probe : traced;
    const std::uint64_t hits_before =
        classify ? server.plans().stats().hits : 0;
    auto hit_or_none = [&] {
      return classify
                 ? static_cast<int>(server.plans().stats().hits > hits_before)
                 : -1;
    };

    const double t0 = now_s();
    try {
      if (!http) {
        const Query& q = batch.front();
        body = server.plan_json(workload.tenants[q.tenant].config.name,
                                q.key->kind, q.key->nodes, q.key->root,
                                q.key->bytes, reader);
        const double t1 = now_s();
        record(q, t0, t1, hit_or_none());
        continue;
      }
      for (const Query& q : batch) http->queue(q.key->target);
      http->flush();
      for (const Query& q : batch) {
        HttpAnswer answer = http->read();
        const double t1 = now_s();
        const bool json =
            answer.content_type.rfind("application/json", 0) == 0 &&
            !answer.body.empty() && answer.body.front() == '{' &&
            answer.body.back() == '}';
        if (answer.status != 200 || !json) {
          if (++stats.bad_responses == 1) {
            stats.first_error = "HTTP " + std::to_string(answer.status) +
                                ": " + answer.body;
          }
          continue;
        }
        body = std::move(answer.body);
        record(q, t0, t1, hit_or_none());
      }
    } catch (const std::exception& error) {
      if (++stats.errors == 1) stats.first_error = error.what();
      if (http) break;  // the connection is gone
    }
  }
}

// ----------------------------------------------------------------------
// Counters read at the window's edges.

struct Counters {
  std::map<std::string, double> values;
  netconst::serving::PlanCache::Stats plans;
  double calibration_seconds = 0.0;
  double provider_seconds = 0.0;  // sum over tenants
};

const char* const kCounterNames[] = {
    "online.recalibrations",
    "online.recalibrations.interval",
    "online.recalibrations.breach",
    "online.recalibrations.forced",
    "online.recalibrations.detector",
    "online.warm_solves",
    "online.cold_fallbacks",
    "online.imputed_entries",
    "online.calibration_failures",
    "online.stale_rows_reused",
    "rpca.incremental.updates",
    "rpca.incremental.drift_fallbacks",
    "rpca.incremental.masked_fallbacks",
    "rpca.svd.path.full",
    "rpca.svd.path.randomized",
    "rpca.svd.path.incremental",
};

Counters read_counters(Rig& rig, std::size_t tenants) {
  Counters counters;
  const auto& metrics = rig.service().metrics();
  for (const char* name : kCounterNames) {
    counters.values[name] = metrics.counter_value(name);
  }
  counters.plans = rig.server().plans().stats();
  counters.calibration_seconds =
      metrics.histogram_summary("online.calibration_seconds").sum;
  for (std::size_t t = 0; t < tenants; ++t) {
    counters.provider_seconds += rig.probe(t).provider_time();
  }
  return counters;
}

/// Peak resident set of the process (Linux reports ru_maxrss in KiB).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Detection {
  std::size_t due = 0;      // scripted shifts whose match window ended
  std::size_t matched = 0;  // of those, followed by a shift verdict
  std::size_t false_alarms = 0;  // shift verdicts matching no shift
};

/// Scores one tenant's placement-shift verdicts against the scripted
/// shifts of its fault plan (`script`, empty when fault-free). A verdict
/// within `match_window` provider seconds after a shift is credited to
/// it. Only shifts whose window ended before `provider_end` count
/// toward recall.
void score_detection(
    const std::vector<netconst::faults::GroundTruthEvent>& script,
    const std::vector<const netconst::online::Event*>& verdicts,
    double provider_end, double match_window, Detection& score) {
  std::vector<netconst::faults::GroundTruthEvent> shifts;
  for (const auto& truth : script) {
    if (truth.kind == netconst::faults::FaultKind::PlacementShift) {
      shifts.push_back(truth);
    }
  }
  auto is_shift = [](const netconst::online::Event* event) {
    return event->detail.rfind("placement_shift", 0) == 0;
  };
  auto within = [&](const netconst::online::Event* event,
                    const netconst::faults::GroundTruthEvent& shift) {
    return event->time >= shift.start &&
           event->time <= shift.start + match_window;
  };
  for (const auto& shift : shifts) {
    if (shift.start + match_window > provider_end) continue;
    ++score.due;
    for (const auto* event : verdicts) {
      if (is_shift(event) && within(event, shift)) {
        ++score.matched;
        break;
      }
    }
  }
  for (const auto* event : verdicts) {
    if (!is_shift(event)) continue;
    bool matched = false;
    for (const auto& shift : shifts) matched = matched || within(event, shift);
    if (!matched) ++score.false_alarms;
  }
}

// ----------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count / percentile / base
};

std::string number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

std::string percentile_note(const Percentile& p) {
  std::ostringstream out;
  out << "p" << number(p.level * 100.0) << ", n=" << p.n;
  return out.str();
}

Metric percentile_metric(const std::string& name, std::vector<double> samples,
                         double level, double scale, const std::string& unit) {
  const Percentile p = tail_percentile(samples, level);
  return {name, p.value * scale, unit, percentile_note(p)};
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::cout << "== " << title << '\n';
  for (const Metric& metric : metrics) {
    std::cout << "  " << std::left << std::setw(40) << metric.name
              << std::right << std::setw(16) << number(metric.value) << ' '
              << std::left << std::setw(6) << metric.unit << ' '
              << metric.note << '\n';
  }
}

/// The traced run's outputs: first_serve spans from the matched lags,
/// the self-time table ranked by share of cycle time, and the
/// Chrome-trace file at `path`.
void write_trace(std::vector<Span> spans, const LagMatch& lag,
                 const std::vector<IngestStamp>& ingests, const Slices& traced,
                 const std::string& path) {
  for (const MatchedLag& m : lag.matched) {
    const IngestStamp& ingest = ingests[m.ingest];
    if (!traced.contains(ingest.ingest_end)) continue;
    Span span;
    span.name = "first_serve";
    span.tenant = ingest.tenant;
    span.refresh = ingest.version;
    span.start = ingest.ingest_end;
    span.end = ingest.ingest_end + m.seconds;
    span.version = m.served_version;
    spans.push_back(span);
  }
  const std::vector<SelfTime> folded = fold_self_times(spans);
  double cycle_total = 0.0;
  for (const Span& span : spans) {
    if (span.name == "cycle") cycle_total += span.end - span.start;
  }
  std::cout << "== self time by layer (traced slices, share of cycle time)\n";
  for (const SelfTime& entry : folded) {
    if (entry.name == "first_serve") continue;
    std::cout << "  " << std::left << std::setw(20) << entry.name << std::right
              << std::setw(12) << number(entry.self_seconds * 1e3) << " ms  "
              << std::setw(8) << std::fixed << std::setprecision(2)
              << 100.0 * ratio(entry.self_seconds, cycle_total) << " %  n="
              << entry.count << std::defaultfloat << std::setprecision(6)
              << '\n';
  }
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream file(path);
  write_chrome_trace(file, spans);
  std::cout << "trace: " << path << " (" << spans.size() << " spans)\n";
}

/// The result line: one JSON object, the last line of standard output.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& reported) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < reported.size(); ++k) {
    if (k > 0) json << ", ";
    double value = reported[k].value;
    if (!std::isfinite(value)) value = 0.0;
    json << '"' << reported[k].name << "\": {\"value\": " << number(value)
         << ", \"unit\": \"" << reported[k].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int run(const Args& args, Placement& placement) {
  const Workload workload = make_workload(args.workload, args.seed);
  const std::size_t tenants = workload.tenants.size();

  // ---- repeated set-up; the last instance goes on to be measured.
  std::vector<TenantTruth> truth;
  for (const TenantSetup& setup : workload.tenants) {
    truth.push_back(make_truth(setup));
  }
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int k = 0; k < kSetups; ++k) {
    rig.reset();
    const double t0 = now_s();
    rig = std::make_unique<Rig>(workload, truth);
    rig->start();
    setups.push_back(wait_setup(*rig) - t0);
    if (k + 1 < kSetups) rig->stop();
  }
  if (workload.http) placement.start_http(rig->server());

  // ---- warm-up, then the measured window.
  Window window;
  std::atomic<bool> client_stop{false};
  ClientStats client;
  std::thread client_thread([&] {
    placement.add_client();
    try {
      run_client(workload, *rig, window, client_stop, client);
    } catch (const std::exception& error) {
      ++client.errors;
      client.first_error = error.what();
    }
  });
  // Waits `seconds`, moving the client's CPU every kRotateSeconds and
  // sampling the epoch domain's backlog when `sample` is set.
  std::size_t pending_max = 0;
  double next_turn = now_s() + kRotateSeconds;
  auto wait = [&](double seconds, bool sample) {
    const double until = now_s() + seconds;
    for (double now = now_s(); now < until; now = now_s()) {
      if (now >= next_turn) {
        placement.rotate();
        next_turn += kRotateSeconds;
      }
      if (sample) {
        pending_max = std::max(pending_max, rig->server().epoch().pending());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  wait(workload.warmup_seconds, false);
  const Counters before = read_counters(*rig, tenants);
  const double window_start = now_s();
  window.start.store(window_start);
  // Traced run: tracing alternates off/on in one-second slices, so the
  // untraced and traced cycle rates compare like with like.
  Slices traced;
  if (args.trace) {
    const auto slices = static_cast<std::size_t>(std::ceil(args.seconds));
    for (std::size_t k = 0; k < slices; ++k) {
      const double length =
          std::min(1.0, args.seconds - static_cast<double>(k));
      const bool on = k % 2 == 1;
      const double from = now_s();
      rig->recorder().tracing.store(on);
      wait(length, true);
      if (on) traced.add(from, now_s());
    }
  } else {
    wait(args.seconds, true);
  }
  const double window_end = now_s();
  window.end.store(window_end);
  rig->recorder().tracing.store(false);
  const Counters after = read_counters(*rig, tenants);
  std::this_thread::sleep_for(std::chrono::duration<double>(kGraceSeconds));
  rig->stop();
  client_stop.store(true);
  client_thread.join();

  // HTTP layer timing on the in-process workloads: a short keep-alive
  // probe of the hot keys after the window (traced run only).
  if (args.trace && !workload.http) {
    placement.start_http(rig->server());
    try {
      KeepAliveClient probe(rig->server().port());
      for (int k = 0; k < 2000; ++k) {
        const auto& keys = workload.tenants[k % tenants].keys;
        const HttpAnswer answer =
            probe.get(keys[(k / tenants) % keys.size()].target);
        if (answer.status != 200) ++client.bad_responses;
      }
    } catch (const std::exception& error) {
      ++client.errors;
      client.first_error = error.what();
    }
    rig->server().stop();
  }

  std::string service_error = rig->error();
  const double window_seconds = window_end - window_start;
  auto& metrics = rig->service().metrics();

  // ---- cycles inside the window.
  const std::vector<CycleRecord> all_cycles = rig->recorder().cycles();
  std::vector<CycleRecord> cycles;
  for (const CycleRecord& c : all_cycles) {
    if (c.end >= window_start && c.end <= window_end) cycles.push_back(c);
  }
  std::vector<double> cycle_s, ingest_s, refresh_s, publish_s, post_s;
  double probes_total = 0.0;
  double busy = 0.0;
  std::size_t untraced_cycles = 0;
  std::size_t traced_cycles = 0;
  std::size_t cut_cycles = 0;
  for (const CycleRecord& c : cycles) {
    if (c.cut) {
      ++cut_cycles;
    } else {
      cycle_s.push_back(c.cycle());
      post_s.push_back(c.post_publish());
    }
    ingest_s.push_back(c.ingest());
    refresh_s.push_back(c.refresh_time());
    publish_s.push_back(c.publish());
    probes_total += static_cast<double>(c.calibration_probes);
    (traced.contains(c.end) ? traced_cycles : untraced_cycles) += 1;
  }
  for (const CycleRecord& c : all_cycles) {
    const double end = c.cut ? c.publish_end + c.bookkeeping : c.end;
    const double lo = std::max(c.start, window_start);
    const double hi = std::min(end, window_end);
    if (hi > lo) busy += std::max(0.0, (hi - lo) - c.bookkeeping);
  }

  // ---- ingest-to-serve lag: ingests that ended inside the window.
  std::vector<IngestStamp> ingests;
  for (const CycleRecord& c : all_cycles) {
    if (c.ingest_end >= window_start && c.ingest_end <= window_end) {
      ingests.push_back({c.tenant, c.version, c.ingest_end});
    }
  }
  const LagMatch lag = match_lags(ingests, client.serves);

  // ---- constant error over the publishes up to the horizon: a fixed
  // stretch of each tenant's deterministic trajectory, so the figure
  // does not depend on how far a run got.
  std::vector<double> rel_errs;
  for (const PublishRecord& p : rig->recorder().publishes()) {
    if (p.provider_time <= workload.horizon) rel_errs.push_back(p.rel_err);
  }

  // ---- detection quality over the whole run, and the digest.
  const std::vector<netconst::online::Event> events =
      rig->service().events().snapshot();
  Detection detection;
  std::uint64_t digest = kFnvOffsetBasis;
  bool digest_complete = true;
  std::string refreshes_per_tenant;
  for (std::size_t t = 0; t < tenants; ++t) {
    std::vector<const netconst::online::Event*> verdicts;
    for (const netconst::online::Event& event : events) {
      if (event.kind == netconst::online::EventKind::ChangeDetected &&
          event.tenant == workload.tenants[t].config.name) {
        verdicts.push_back(&event);
      }
    }
    const double provider_end = rig->probe(t).provider_time();
    const auto* faulted = rig->faulted(t);
    score_detection(faulted ? faulted->plan().ground_truth_events()
                            : std::vector<netconst::faults::GroundTruthEvent>{},
                    verdicts, provider_end, kShiftMatchWindow, detection);

    std::uint64_t h = rig->sink().digest(t);
    for (const auto* event : verdicts) {
      if (event->time > workload.horizon) continue;
      h = fnv_mix(h, event->detail.data(), event->detail.size());
      h = fnv_mix(h, &event->time, sizeof(double));
    }
    digest = fnv_mix(digest, &h, sizeof(h));
    if (provider_end <= workload.horizon) digest_complete = false;

    const netconst::online::TenantStatus status = rig->service().status(t);
    refreshes_per_tenant += (t > 0 ? " " : "") +
                            std::to_string(status.refreshes) + "/" +
                            std::to_string(status.steps);
  }

  // ---- correctness.
  const std::uint64_t nonfinite = rig->recorder().nonfinite();
  const std::uint64_t failed = client.wrong_plans + client.non_monotone +
                               client.bad_responses + client.errors +
                               nonfinite + lag.negative +
                               (service_error.empty() ? 0 : 1);
  const std::uint64_t attempted = client.answers + cycles.size();
  std::vector<std::string> problems;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  };
  check(service_error.empty(), "service error: " + service_error);
  check(client.first_error.empty(), "client: " + client.first_error);
  check(client.wrong_plans == 0, "plan answers differ from compute_plan");
  check(client.non_monotone == 0, "non-monotone versions seen");
  check(nonfinite == 0, "non-finite published constant");
  check(lag.negative == 0, "answer older than its ingest");
  check(digest_complete, "a tenant did not reach the digest horizon");
  check(client.checks > 0, "no plan answer was checked");
  check(!cycles.empty(), "no maintenance cycle completed in the window");
  check(client.answers > 0, "no plan answer in the window");
  const bool correct = failed == 0 && problems.empty();

  // ---- end-to-end metrics.
  std::vector<Metric> e2e;
  e2e.push_back({"setup_s", quantile(setups, 0.5), "s",
                 "median of " + std::to_string(setups.size()) + " set-ups"});
  e2e.push_back({"cycles_per_s",
                 static_cast<double>(cycles.size()) / window_seconds, "1/s",
                 "n=" + std::to_string(cycles.size())});
  for (const auto& [name, level] : {std::pair{"cycle_ms_p50", 0.5},
                                     std::pair{"cycle_ms_p90", 0.9}}) {
    e2e.push_back(percentile_metric(name, cycle_s, level, 1e3, "ms"));
    e2e.back().note +=
        ", " + std::to_string(cut_cycles) + " cut by a batch end";
  }
  for (const auto& [name, level] :
       {std::pair{"ingest_to_serve_ms_p50", 0.5},
        std::pair{"ingest_to_serve_ms_p90", 0.9}}) {
    e2e.push_back(percentile_metric(name, lag.lags(), level, 1e3, "ms"));
    e2e.back().note += ", unserved=" + std::to_string(lag.unserved);
  }
  e2e.push_back({"plan_qps",
                 static_cast<double>(client.answers) /
                     (window_seconds - client.check_seconds),
                 "1/s", "n=" + std::to_string(client.answers)});
  for (const auto& [name, level] : {std::pair{"plan_us_p50", 0.5},
                                     std::pair{"plan_us_p99", 0.99}}) {
    e2e.push_back(
        percentile_metric(name, client.latency.samples(), level, 1e6, "us"));
    e2e.back().note += " sampled from " + std::to_string(client.latency.seen());
  }
  e2e.push_back({"calib_share",
                 ratio(after.calibration_seconds - before.calibration_seconds,
                       after.provider_seconds - before.provider_seconds),
                 "ratio", "provider seconds"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss"});
  std::vector<Metric> quality;
  quality.push_back({"constant_rel_err", quantile(rel_errs, 0.5), "ratio",
                     "median of " + std::to_string(rel_errs.size()) +
                         " publishes up to the horizon"});
  quality.push_back({"detect_recall",
                     detection.due == 0
                         ? 1.0
                         : ratio(detection.matched, detection.due),
                     "ratio",
                     std::to_string(detection.matched) + "/" +
                         std::to_string(detection.due) + " shifts due"});
  quality.push_back({"detect_false_alarms",
                     static_cast<double>(detection.false_alarms), "count",
                     "placement_shift verdicts"});
  quality.push_back({"failed_share", ratio(failed, attempted), "ratio",
                     std::to_string(failed) + "/" + std::to_string(attempted)});

  // ---- per-layer metrics.
  std::vector<Metric> layer;
  auto delta = [&](const std::string& name) {
    return after.values.at(name) - before.values.at(name);
  };
  auto count = [&](const std::string& name, double value,
                   std::string note = "") {
    layer.push_back({name, value, "count", std::move(note)});
  };
  auto tail = [&](const std::string& name, const std::vector<double>& samples,
                  double level, double scale, const char* unit) {
    layer.push_back(percentile_metric(name, samples, level, scale, unit));
  };
  auto share = [&](const std::string& name, double part, double base,
                   const std::string& what) {
    layer.push_back(
        {name, ratio(part, base), "ratio", "base " + number(base) + what});
  };
  const auto iterations =
      metrics.histogram_summary("online.solver_iterations");
  const auto slides = metrics.histogram_summary("detect.latency_slides");
  const auto http_plan =
      metrics.histogram_summary("serving.http.plan_seconds");
  const auto& plans_after = after.plans;
  const auto& plans_before = before.plans;
  const auto hits = static_cast<double>(plans_after.hits - plans_before.hits);
  const auto misses = static_cast<double>(
      plans_after.misses + plans_after.uncached - plans_before.misses -
      plans_before.uncached);
  const std::size_t drivers = netconst::ThreadPool::global().thread_count() + 1;

  tail("online.ingest.ms_p50", ingest_s, 0.5, 1e3, "ms");
  tail("online.ingest.ms_p90", ingest_s, 0.9, 1e3, "ms");
  count("online.ingest.probes_per_cycle",
        ratio(probes_total, static_cast<double>(cycles.size())));
  count("online.ingest.failed_measurements",
        delta("online.calibration_failures"));
  count("online.ingest.stale_rows_reused", delta("online.stale_rows_reused"));
  tail("online.refresh.ms_p50", refresh_s, 0.5, 1e3, "ms");
  tail("online.refresh.ms_p90", refresh_s, 0.9, 1e3, "ms");
  share("online.refresh.tracker_ratio", delta("rpca.incremental.updates"),
        2.0 * delta("online.recalibrations"), " layer refreshes");
  share("online.refresh.warm_ratio", delta("online.warm_solves"),
        delta("online.warm_solves") + delta("online.cold_fallbacks"),
        " warm attempts");
  for (const char* name :
       {"online.cold_fallbacks", "rpca.incremental.drift_fallbacks",
        "rpca.incremental.masked_fallbacks", "online.imputed_entries"}) {
    count(name, delta(name));
  }
  count("rpca.iterations_p50", iterations.p50,
        "whole run, n=" + std::to_string(iterations.count));
  count("rpca.iterations_max", iterations.max, "whole run");
  for (const char* path : {"full", "randomized", "incremental"}) {
    count(std::string("rpca.svd.path.") + path,
          delta(std::string("rpca.svd.path.") + path));
  }
  for (const char* kind :
       {"placement_shift", "outlier_storm", "baseline_drift"}) {
    const std::string name = std::string("detect.verdicts.") + kind;
    count(name, metrics.counter_value(name), "whole run");
  }
  count("detect.preemptions", metrics.counter_value("detect.preemptions"),
        "whole run");
  layer.push_back({"detect.latency_slides_p50", slides.p50, "slides",
                   "whole run, n=" + std::to_string(slides.count)});
  tail("online.post_publish.ms_p50", post_s, 0.5, 1e3, "ms");
  for (const char* reason : {"interval", "breach", "forced", "detector"}) {
    const std::string name = std::string("online.recalibrations.") + reason;
    count(name, delta(name));
  }
  tail("serving.publish.us_p50", publish_s, 0.5, 1e6, "us");
  tail("serving.publish.us_p99", publish_s, 0.99, 1e6, "us");
  count("serving.epoch.pending_max", static_cast<double>(pending_max),
        "sampled every 2 ms");
  share("serving.plan.hit_ratio", hits, hits + misses, " lookups");
  count("serving.plan.misses", misses);
  count("serving.plan.invalidated",
        static_cast<double>(plans_after.invalidated -
                            plans_before.invalidated));
  tail("serving.plan.hit_us_p50", client.hit_latency.samples(), 0.5, 1e6,
       "us");
  tail("serving.plan.miss_us_p50", client.miss_latency.samples(), 0.5, 1e6,
       "us");
  for (const auto& [name, value] :
       {std::pair{"serving.http.req_us_p50", http_plan.p50},
        std::pair{"serving.http.req_us_p99", http_plan.p99}}) {
    layer.push_back({name, value * 1e6, "us",
                     "handler, n=" + std::to_string(http_plan.count)});
  }
  count("serving.http.bad_requests",
        static_cast<double>(rig->server().http().stats().bad_requests));
  layer.push_back(
      {"support.drivers.idle_share",
       1.0 - ratio(busy, static_cast<double>(drivers) * window_seconds),
       "ratio", std::to_string(drivers) + " drivers"});
  const double untraced_cps =
      ratio(untraced_cycles, window_seconds - traced.seconds());
  const double traced_cps = ratio(traced_cycles, traced.seconds());
  layer.push_back(
      {"bench.trace_overhead_pct",
       args.trace ? 100.0 * ratio(untraced_cps - traced_cps, untraced_cps)
                  : 0.0,
       "%", "traced vs untraced 1 s slices, cycles/s"});

  // ---- human-readable record.
  const std::string pinning =
      placement.pinned()
          ? "client and http loop share one CPU, moving over " +
                std::to_string(placement.cpus()) + " CPUs every " +
                number(kRotateSeconds) + " s; other threads on the rest"
          : std::string("none");
  const char* threads_env = std::getenv("NETCONST_THREADS");
  std::cout << "perfbench workload=" << workload.name << " seed=" << args.seed
            << " seconds=" << number(args.seconds)
            << " trace=" << (args.trace ? 1 : 0) << '\n'
            << "host: nproc=" << std::thread::hardware_concurrency()
            << " simd=" << netconst::linalg::simd::active_level_name()
            << " NETCONST_THREADS=" << (threads_env ? threads_env : "unset")
            << " compiler=" << PERFBENCH_COMPILER
            << " build=" << PERFBENCH_BUILD_TYPE << '\n'
            << "threads: drivers=" << drivers << " (pool "
            << netconst::ThreadPool::global().thread_count()
            << " + service caller) client=1 http_loop="
            << (workload.http ? 1 : 0) << " pinning=" << pinning
            << '\n'
            << "config: tenants=" << tenants
            << " cluster=" << workload.tenants.front().cloud.cluster_size
            << " client=" << (workload.http ? "http keep-alive" : "in-process")
            << " keys/tenant=" << workload.tenants.front().keys.size()
            << " pipeline=" << workload.pipeline
            << " misses/batch=" << workload.misses_per_batch
            << " mix_shortfalls=" << client.mix_shortfalls
            << " plan_cache=" << workload.plan_cache_capacity
            << " warmup_s=" << number(workload.warmup_seconds)
            << " window_s=" << number(window_seconds)
            << " setups=" << setups.size() << '\n'
            << "checks: sampled=" << client.checks
            << " skipped_raced=" << client.checks_skipped
            << " wrong=" << client.wrong_plans
            << " non_monotone=" << client.non_monotone
            << " bad_http=" << client.bad_responses
            << " errors=" << client.errors << " nonfinite=" << nonfinite << '\n'
            << "refreshes/steps per tenant: " << refreshes_per_tenant << '\n'
            << "digest: " << std::hex << std::setw(16) << std::setfill('0')
            << digest << std::dec << std::setfill(' ')
            << " (publishes and verdicts up to provider time "
            << number(workload.horizon)
            << (digest_complete ? "" : ", INCOMPLETE") << ")\n";
  for (const std::string& problem : problems) {
    std::cout << "FAILED: " << problem << '\n';
  }
  print_table("end-to-end", e2e);
  print_table("quality", quality);
  print_table("per-layer", layer);

  if (args.trace) {
    write_trace(rig->recorder().spans.take(), lag, ingests, traced,
                args.out_dir + "/" + workload.name + "-seed" +
                    std::to_string(args.seed) + ".trace.json");
  }

  // ---- the result line.
  // Quality figures vary with the seed's clouds far more than any bound
  // allows, so they are reported with the per-layer metrics.
  std::vector<Metric> reported = e2e;
  if (args.trace) {
    reported = layer;
    reported.insert(reported.end(), quality.begin(), quality.end() - 1);
  }
  print_result(correct, attempted, failed, reported);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::Placement placement;
  // Before any thread exists, so the pool's workers start off the
  // client's CPU.
  placement.place();
  try {
    args = perfbench::parse_args(argc, argv);
    const perfbench::Workload probe =
        perfbench::make_workload(args.workload, 1);
    // Pin the shared pool before anything creates it, and keep the
    // program's own flight recorder off.
    const std::string workers = std::to_string(probe.pool_workers);
    setenv("NETCONST_THREADS", workers.c_str(), 1);
    netconst::obs::FlightRecorder::instance().set_enabled(false);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 2;
  }
  try {
    return perfbench::run(args, placement);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
