// One metro day of one benchmark workload, driven only through the
// simulator's public entry points, reported as one JSON line on stdout.
//
//   udp_day    psim::run_day       (packet-level UDP trains, chaos on)
//   tcp_day    psim::run_tcp_day   (TCP + an MPTCP slice, chaos on)
//   nocdn_day  metro::build_metro + metro::MetroDriver on a serial
//              sim::Simulator (NoCDN peers, attic pairs, sharded
//              directory, flash crowds, DSLAM outages, directory chaos)
//
// The timed binary (metro_day) reports what a user of the day sees: the
// wall time of the run phase and of everything else in the call (set-up),
// the CPU it burned, the process peak RSS, the operations the simulated
// day attempted and failed, and pass/fail output checks. The traced binary
// (metro_day_traced, built with PERFBENCH_TRACED) runs the same day and
// adds per-layer numbers read from outside the layers: result structs,
// telemetry registry deltas, an allocation hook, spans around its own
// calls, and a probe of the psim barrier's per-epoch cost.
//
// Usage:
//   metro_day --workload W --seed S --homes N --day-s D --workers K
//             [--rate R] [--spans PATH]
// run.py picks the sizes; see perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "hpop/dir_cluster.hpp"
#include "metro/driver.hpp"
#include "metro/partition.hpp"
#include "metro/topology.hpp"
#include "metro/workload.hpp"
#include "net/network.hpp"
#include "psim/day.hpp"
#include "psim/engine.hpp"
#include "psim/tcp_day.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

#ifdef PERFBENCH_TRACED
#include "bench/alloc_hook.hpp"
#endif

namespace {

using namespace hpop;
using Clock = std::chrono::steady_clock;

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// User + system CPU of the whole process (every thread, live or joined).
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Spans the benchmark records around its own calls into the layers. Kept
/// in memory; written out once, when the day is over.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
  };

  int begin(std::string name) {
    spans_.push_back({std::move(name), now_s(), 0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  /// Ends span `id` and returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now_s();
    open_ = s.parent;
    return s.end_s - s.start_s;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                   i, s.name.c_str(), s.parent, s.start_s, s.end_s);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

Spans g_spans;

/// Ordered "name": value pairs rendered as one JSON object.
class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    add(key, buf);
  }
  void boolean(const std::string& key, bool v) { add(key, v ? "true" : "false"); }
  void str(const std::string& key, const std::string& v) {
    add(key, "\"" + v + "\"");
  }
  void object(const std::string& key, const JsonObject& o) { add(key, o.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + raw;
  }
  std::string body_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t homes = 10'000;
  double day_s = 20;
  std::size_t workers = 1;
  double rate = 0.05;
  std::string spans_path;
};

/// What one day reports. The layer object is filled by the traced binary.
struct DayOut {
  double sim_s = 0;
  double setup_s = 0;
  double run_s = 0;
  double cpu_run_s = 0;
  /// Operations the simulated day attempted and lost (fail_share inputs).
  double ops_attempted = 0;
  double ops_failed = 0;
  JsonObject checks;
  bool all_ok = true;
  JsonObject layer;

  void check(const std::string& name, bool ok) {
    checks.boolean(name, ok);
    all_ok = all_ok && ok;
  }
};

util::Duration sim_duration(double seconds) {
  return static_cast<util::Duration>(seconds * static_cast<double>(util::kSecond));
}

// --- Traced-only instruments ----------------------------------------------

/// Sum of every labelled series of `name` in a registry snapshot.
double sum_of(const telemetry::Snapshot& snap, const std::string& name) {
  double total = 0;
  for (const auto& s : snap.samples) {
    if (s.name != name) continue;
    total += s.kind == telemetry::MetricKind::kSummary
                 ? static_cast<double>(s.count)
                 : s.value;
  }
  return total;
}

#ifdef PERFBENCH_TRACED
/// Polls the alloc hook's live-byte gauge from a side thread, keeping the
/// highest value seen: the peak inside calls the benchmark cannot pause.
class LivePeakSampler {
 public:
  LivePeakSampler()
      : peak_(benchhook::live_bytes()), thread_([this] { loop(); }) {}
  ~LivePeakSampler() { stop(); }
  LivePeakSampler(const LivePeakSampler&) = delete;
  LivePeakSampler& operator=(const LivePeakSampler&) = delete;

  double stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      peak_ = std::max(peak_, benchhook::live_bytes());
    }
    return static_cast<double>(peak_);
  }

 private:
  void loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      peak_ = std::max(peak_, benchhook::live_bytes());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  std::atomic<bool> stop_{false};
  std::int64_t peak_;
  std::thread thread_;
};

std::uint64_t allocs_now() { return benchhook::alloc_count(); }
#else
/// The timed binary has no alloc hook: nothing to sample or count.
struct LivePeakSampler {
  double stop() { return 0; }
};
std::uint64_t allocs_now() { return 0; }
#endif

/// Median wall time of build_metro and plan_shards at the workload's size,
/// each in its own span, plus the allocations one build+plan makes (so the
/// psim days can take set-up allocations out of their per-event figure).
struct SetupCost {
  double build_s = 0;
  double plan_s = 0;
  double allocs = 0;
  std::size_t samples = 0;
  std::size_t partitions = 0;
};

SetupCost measure_setup(std::size_t homes, std::uint64_t seed) {
  constexpr std::size_t kReps = 3;
  SetupCost c;
  std::vector<double> build, plan;
  for (std::size_t i = 0; i < kReps; ++i) {
    sim::Simulator sim;
    net::Network net(sim, util::Rng(seed));
    metro::MetroParams mp;
    mp.homes = homes;
    util::Rng rng(seed);
    const std::uint64_t a0 = allocs_now();
    int span = g_spans.begin("metro.build_metro");
    metro::MetroTopology topo = metro::build_metro(net, mp, rng);
    build.push_back(g_spans.end(span));
    span = g_spans.begin("metro.plan_shards");
    const metro::ShardPlan plan_out = metro::plan_shards(topo);
    plan.push_back(g_spans.end(span));
    c.allocs = static_cast<double>(allocs_now() - a0);
    c.partitions = plan_out.partitions;
  }
  c.build_s = median(build);
  c.plan_s = median(plan);
  c.samples = kReps;
  return c;
}

/// The psim barrier probe, from outside: `partitions` partitions, each
/// holding one trivial event per epoch (a tick that re-arms itself just
/// past the epoch's deadline), run through Engine::run_until in timed
/// batches. Returns per-epoch cost samples in microseconds.
std::vector<double> probe_epoch_us(std::size_t workers, std::size_t partitions) {
  constexpr util::Duration kLookahead = 2 * util::kMillisecond;
  constexpr util::Duration kPeriod = kLookahead + util::kMicrosecond;
  constexpr std::size_t kBatches = 20;
  constexpr std::size_t kEpochsPerBatch = 400;

  psim::Engine::Config ec;
  ec.workers = workers;
  ec.lookahead = kLookahead;
  psim::Engine eng(ec);
  struct Tick {
    sim::Simulator* sim;
    void operator()() const { sim->schedule(kPeriod, Tick{sim}); }
  };
  for (std::size_t p = 0; p < partitions; ++p) {
    const std::size_t id = eng.add_partition();
    eng.sim(id).schedule_at(kPeriod, Tick{&eng.sim(id)});
  }
  util::TimePoint t = 20 * kPeriod;
  eng.run_until(t);  // warm-up: threads started, heaps sized
  std::vector<double> samples;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::uint64_t e0 = eng.stats().epochs;
    const double w0 = now_s();
    t += static_cast<util::Duration>(kEpochsPerBatch) * kPeriod;
    eng.run_until(t);
    const double wall = now_s() - w0;
    const auto epochs = static_cast<double>(eng.stats().epochs - e0);
    samples.push_back(wall / epochs * 1e6);
  }
  return samples;
}

/// Per-layer numbers every workload reports, whether or not the layer ran
/// (0 where it did not), so one traced run prints the whole table.
void layer_registry(JsonObject& j, const telemetry::Snapshot& d) {
  const double tx_pkts = sum_of(d, "link.tx_pkts");
  const double tx_bytes = sum_of(d, "link.tx_bytes");
  j.num("net.link.tx_pkts", tx_pkts);
  j.num("net.link.tx_bytes", tx_bytes);
  j.num("net.link.queue_drops", sum_of(d, "link.queue_drops"));
  j.num("net.link.loss_drops", sum_of(d, "link.loss_drops"));
  j.num("net.link.admin_drops", sum_of(d, "link.admin_drops"));
  j.num("net.bytes_per_pkt", tx_pkts > 0 ? tx_bytes / tx_pkts : 0);
  j.num("tcp.connections", sum_of(d, "tcp.connections"));
  j.num("tcp.retransmits", sum_of(d, "tcp.retransmits"));
  j.num("tcp.timeouts", sum_of(d, "tcp.timeouts"));
  j.num("tcp.rtt_samples", sum_of(d, "tcp.rtt_ms"));
  j.num("mptcp.sched_bytes", sum_of(d, "mptcp.sched_bytes"));
  j.num("mptcp.subflow_switches", sum_of(d, "mptcp.subflow_switches"));
  j.num("cache.hits", sum_of(d, "cache.hits"));
  j.num("cache.misses", sum_of(d, "cache.misses"));
  j.num("nocdn.peer.requests", sum_of(d, "nocdn.peer.requests"));
  j.num("nocdn.origin.bytes_served", sum_of(d, "nocdn.origin.bytes_served"));
  j.num("nocdn.ledger.records_accepted",
        sum_of(d, "nocdn.ledger.records_accepted"));
  j.num("nocdn.ledger.records_rejected",
        sum_of(d, "nocdn.ledger.records_rejected"));
  j.num("overload.admitted", sum_of(d, "overload.admitted"));
  j.num("overload.shed", sum_of(d, "overload.shed_rate") +
                             sum_of(d, "overload.shed_queue_full") +
                             sum_of(d, "overload.shed_deadline") +
                             sum_of(d, "overload.shed_preempted"));
  j.num("durable.wal.appends", sum_of(d, "durable.wal.appends"));
  j.num("durable.wal.syncs", sum_of(d, "durable.wal.syncs"));
  j.num("durable.device.fsyncs", sum_of(d, "durable.device.fsyncs"));
  j.num("fault.node_crashes", sum_of(d, "fault.node_crashes"));
  j.num("fault.partitions", sum_of(d, "fault.partitions"));
  j.num("telemetry.instruments",
        static_cast<double>(telemetry::registry().size()));
}

void layer_setup(JsonObject& j, const SetupCost& c) {
  j.num("metro.build_s", c.build_s);
  j.num("metro.plan_s", c.plan_s);
  j.num("metro.setup_samples", static_cast<double>(c.samples));
}

/// Probes the barrier at 1, 2 and 4 workers. The barrier share estimate
/// uses the probe at the day's own worker count (0 when it did not run).
void layer_probe(JsonObject& j, double run_wall_s, std::uint64_t epochs,
                 std::size_t workers, std::size_t partitions) {
  double per_epoch_us = 0;
  for (const std::size_t w : {1, 2, 4}) {
    const std::vector<double> samples = probe_epoch_us(w, partitions);
    const std::string name = "psim.epoch_overhead_us.w" + std::to_string(w);
    j.num(name, median(samples));
    j.num(name + ".samples", static_cast<double>(samples.size()));
    if (w == workers) per_epoch_us = median(samples);
  }
  j.num("psim.barrier_est_share",
        run_wall_s > 0
            ? static_cast<double>(epochs) * per_epoch_us * 1e-6 / run_wall_s
            : 0);
}

/// The nocdn-only rows, zero on the psim days.
void layer_no_service(JsonObject& j) {
  for (const char* k :
       {"nocdn.offload", "nocdn.peer_hit_rate", "dir.lookups", "dir.failed",
        "dir.busy", "dir.lookup_p99_s", "dir.sync_rounds", "driver.start_s",
        "teardown_s"}) {
    j.num(k, 0);
  }
}

// --- Workloads -------------------------------------------------------------

/// The number after `key` in a day report ("served=123" -> 123), 0 if absent.
std::uint64_t report_field(const std::string& report, const char* key) {
  const std::size_t at = report.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(report.c_str() + at + std::strlen(key), nullptr, 10);
}

/// Splits a run_*_day call into run phase (the day's own wall_s) and
/// set-up (everything else in the call: build, bind, teardown). Set-up is
/// serial, so its CPU is taken as equal to its wall time.
void split_call(DayOut& out, double call_wall, double call_cpu, double run_wall) {
  out.run_s = run_wall;
  out.setup_s = call_wall - run_wall;
  out.cpu_run_s = call_cpu - out.setup_s;
}

/// The per-layer rows of a psim day, from its result struct (DayResult or
/// TcpDayResult), the 1-worker registry counts and the alloc hook.
template <class Result>
void layer_psim_day(JsonObject& j, const Options& o, const DayOut& out,
                    const Result& r, const SetupCost& setup,
                    const telemetry::Snapshot& counts, double speedup_vs_1w,
                    double allocs_per_event, double live_peak) {
  const auto events = static_cast<double>(r.events);
  j.num("psim.epochs", static_cast<double>(r.epochs));
  j.num("psim.crossings", static_cast<double>(r.crossings));
  j.num("psim.spilled", static_cast<double>(r.spilled));
  j.num("psim.wall_per_epoch_us", r.wall_s / static_cast<double>(r.epochs) * 1e6);
  j.num("psim.cpu_util", out.cpu_run_s / out.run_s);
  j.num("psim.speedup_vs_1w", speedup_vs_1w);
  layer_probe(j, r.wall_s, r.epochs, o.workers, setup.partitions);
  j.num("sim.events", events);
  j.num("sim.events_per_wall_s", events / r.wall_s);
  j.num("sim.allocs_per_event", allocs_per_event);
  // run_*_day is one call: its run phase is one slice.
  j.num("sim.slice_wall_p50_ms", r.wall_s / o.day_s * 1e3);
  j.num("sim.slice_wall_p99_ms", r.wall_s / o.day_s * 1e3);
  j.num("sim.slice_wall_samples", 1);
  j.num("chaos.partition_drops", static_cast<double>(r.partition_drops));
  layer_registry(j, counts);
  layer_setup(j, setup);
  layer_no_service(j);
  j.num("alloc.live_bytes_peak_per_home", live_peak / static_cast<double>(o.homes));
}

DayOut udp_day(const Options& o) {
  DayOut out;
  psim::DayConfig cfg;
  cfg.homes = o.homes;
  cfg.workers = o.workers;
  cfg.seed = o.seed;
  cfg.day = sim_duration(o.day_s);
  cfg.base_rate_per_home = o.rate;
  cfg.chaos = true;  // flash_crowds keeps its default of 2

  SetupCost setup;
  telemetry::Snapshot before;
  if constexpr (kTraced) {
    setup = measure_setup(o.homes, o.seed);
    before = telemetry::registry().snapshot();
  }
  const std::uint64_t a0 = allocs_now();
  LivePeakSampler live;
  const double c0 = cpu_s();
  const int span = g_spans.begin("psim.run_day");
  const psim::DayResult r = psim::run_day(cfg);
  const double call = g_spans.end(span);
  split_call(out, call, cpu_s() - c0, r.wall_s);
  out.sim_s = o.day_s;
  // A request fails when it never reaches the origin, and in the share of
  // its chunk train that never arrives. Chunk loss alone counts only the
  // trains in flight at a fault's edges; requests a fault blocks send no
  // chunks at all.
  const double served = static_cast<double>(report_field(r.report, "served="));
  out.ops_attempted = static_cast<double>(r.requests);
  out.ops_failed = out.ops_attempted -
                   served * static_cast<double>(r.rx_pkts) /
                       static_cast<double>(std::max<std::uint64_t>(1, r.chunks));
  out.check("chaos_fired", r.chaos_crashes >= 1 && r.chaos_restarts >= 1 &&
                               r.partition_drops >= 1);
  out.check("traffic_flowed",
            served > 0 && r.rx_bytes > 0 && r.crossings > 0);

  if constexpr (kTraced) {
    const double live_peak = live.stop();
    const double allocs = static_cast<double>(allocs_now() - a0) - setup.allocs;
    const auto counts = telemetry::MetricsRegistry::delta(
        before, telemetry::registry().snapshot());
    layer_psim_day(out.layer, o, out, r, setup, counts, 1.0,
                   allocs / static_cast<double>(r.events), live_peak);
  }
  return out;
}

psim::TcpDayConfig tcp_config(const Options& o, std::size_t workers) {
  psim::TcpDayConfig cfg;
  cfg.homes = o.homes;
  cfg.workers = workers;
  cfg.seed = o.seed;
  cfg.day = sim_duration(o.day_s);
  cfg.base_rate_per_home = o.rate;
  cfg.chaos = true;
  return cfg;  // flash_crowds and mptcp_every keep their defaults
}

DayOut tcp_day(const Options& o) {
  DayOut out;
  SetupCost setup;
  telemetry::Snapshot counts;
  psim::TcpDayResult serial;
  double serial_allocs = 0;
  if constexpr (kTraced) {
    // Registry counts come from a 1-worker run: inline, every instrument
    // lands in this thread's registry (worker-thread registries are never
    // merged). The same run is the speedup base and the identity reference.
    setup = measure_setup(o.homes, o.seed);
    const telemetry::Snapshot before = telemetry::registry().snapshot();
    const std::uint64_t a0 = allocs_now();
    const int span = g_spans.begin("psim.run_tcp_day.w1");
    serial = psim::run_tcp_day(tcp_config(o, 1));
    g_spans.end(span);
    serial_allocs = static_cast<double>(allocs_now() - a0) - setup.allocs;
    counts = telemetry::MetricsRegistry::delta(before,
                                               telemetry::registry().snapshot());
  }

  LivePeakSampler live;
  const double c0 = cpu_s();
  const int span = g_spans.begin("psim.run_tcp_day");
  const psim::TcpDayResult r = psim::run_tcp_day(tcp_config(o, o.workers));
  const double call = g_spans.end(span);
  split_call(out, call, cpu_s() - c0, r.wall_s);
  out.sim_s = o.day_s;
  out.ops_attempted = static_cast<double>(r.conns);
  out.ops_failed = static_cast<double>(r.conns - std::min(r.conns, r.completed));
  out.check("chaos_fired", r.chaos_crashes >= 1 && r.chaos_restarts >= 1 &&
                               r.partition_drops >= 1);
  out.check("traffic_flowed",
            r.completed > 0 && r.rx_bytes > 0 && r.crossings > 0);

  if constexpr (kTraced) {
    out.check("identical_to_1w", serial.report == r.report);
    layer_psim_day(out.layer, o, out, r, setup, counts,
                   serial.wall_s / r.wall_s,
                   serial_allocs / static_cast<double>(serial.events),
                   live.stop());
  }
  return out;
}

/// Everything a NoCDN service day owns, in construction order (so it is
/// torn down in reverse, after the MetroDriver and the chaos controller).
struct NocdnWorld {
  sim::Simulator sim;
  net::Network net;
  metro::MetroTopology topo;
  std::unique_ptr<metro::MetroDriver> driver;
  std::unique_ptr<fault::ChaosController> chaos;

  explicit NocdnWorld(std::uint64_t seed) : net(sim, util::Rng(seed)) {}
};

DayOut nocdn_day(const Options& o) {
  DayOut out;
  const util::Duration day = sim_duration(o.day_s);
  const util::Duration tail = 10 * util::kSecond;  // in-flight loads finish
  const std::uint64_t seed = o.seed;

  telemetry::Snapshot before;
  if constexpr (kTraced) before = telemetry::registry().snapshot();
  const std::uint64_t a0 = allocs_now();
  LivePeakSampler live;

  const double setup0 = now_s();
  auto w = std::make_unique<NocdnWorld>(seed);
  metro::MetroParams params;
  params.homes = o.homes;
  util::Rng topo_rng(seed ^ 0x4d455452u);
  int span = g_spans.begin("metro.build_metro");
  w->topo = metro::build_metro(w->net, params, topo_rng);
  const double build_s = g_spans.end(span);
  span = g_spans.begin("metro.plan_shards");  // measured, not used serially
  const std::size_t partitions = metro::plan_shards(w->topo).partitions;
  const double plan_s = g_spans.end(span);

  // A hand-built plan of fixed shape, so day-to-day load stays comparable
  // across seeds (the seed picks only targets and hot objects): two DSLAM
  // flash crowds, and four DSLAMs spread over the metro that lose their
  // uplink for most of the day — longer than the HTTP timeout, so loads
  // and lookups from those homes fail. Targets are browsing DSLAMs only:
  // MetroDriver puts peers, directory shards and attic pairs in the last
  // homes, and an outage there would change the day's shape, not its size.
  metro::ZipfCatalog catalog(512, 0.9);
  util::Rng plan_rng(seed ^ 0x504c414eu);
  const std::size_t peers = std::max<std::size_t>(8, o.homes / 128);
  constexpr std::size_t kAtticPairs = 4;
  constexpr std::size_t kDirShards = 6;
  const std::size_t reserved = peers + 2 * kAtticPairs + kDirShards;
  const std::size_t browsing = o.homes > reserved ? o.homes - reserved : 0;
  const std::size_t dslams =
      std::max<std::size_t>(1, browsing / params.homes_per_dslam);
  metro::EventPlan plan;
  for (const util::TimePoint at : {day * 3 / 10, day * 6 / 10}) {
    metro::EventSpec crowd;
    crowd.kind = metro::EventSpec::Kind::kFlashCrowd;
    crowd.scope = metro::EventSpec::Scope::kDslam;
    crowd.target = plan_rng.next_u64() % dslams;
    crowd.start = at;
    crowd.duration = day / 10;
    crowd.intensity = 8.0;
    crowd.hot_object = catalog.draw(plan_rng);
    plan.events.push_back(crowd);
  }
  const std::size_t first_out = plan_rng.next_u64() % dslams;
  for (std::size_t k = 0; k < 4; ++k) {
    metro::EventSpec outage;
    outage.kind = metro::EventSpec::Kind::kOutage;
    outage.scope = metro::EventSpec::Scope::kDslam;
    outage.target = (first_out + k * dslams / 4) % dslams;
    outage.start = day / 4;
    outage.duration = day * 6 / 10;
    plan.events.push_back(outage);
  }
  metro::WorkloadModel model(metro::DiurnalCurve::residential(day), catalog,
                             plan, o.rate);

  metro::MetroDriverConfig dc;
  dc.active_homes = o.homes;  // clamped to leave room for the other roles
  dc.peers = peers;
  dc.attic_pairs = kAtticPairs;
  dc.attic_interval = 10 * util::kSecond;
  dc.horizon = day;
  dc.dir_shards = kDirShards;
  dc.dir_replication = 2;
  dc.dir_lease = 10 * util::kSecond;
  dc.dir_anti_entropy = 2 * util::kSecond;
  dc.dir_registered_homes = std::min<std::size_t>(2000, o.homes / 2);
  dc.dir_silent_homes = 64;
  dc.dir_silent_lease_s = 3;
  dc.dir_warmup = 5 * util::kSecond;
  w->driver = std::make_unique<metro::MetroDriver>(w->topo, model, dc,
                                                   util::Rng(seed ^ 0xd1ce5u));
  span = g_spans.begin("metro.driver.start");
  w->driver->start();
  const double start_s = g_spans.end(span);

  // Directory chaos in two disjoint windows (one shard crash, one shard
  // cut off), so R=2 always leaves a live replica; plus the plan's outages.
  w->chaos = std::make_unique<fault::ChaosController>(w->sim,
                                                      util::Rng(seed ^ 0xfa017u));
  w->chaos->execute(plan.to_fault_plan(w->topo));
  core::DirectoryCluster* cluster = w->driver->directory();
  cluster->register_with_chaos(*w->chaos);
  w->chaos->crash_at(cluster->host(1).name(), day * 3 / 10, day * 2 / 15);
  w->chaos->partition_at({&cluster->host(2)}, {}, day * 8 / 15, day / 5);
  out.setup_s = now_s() - setup0;

  // The run phase, sliced into simulated seconds through run_until so the
  // traced run can report the wall cost of each.
  const double c0 = cpu_s();
  const double run0 = now_s();
  span = g_spans.begin("sim.run_until");
  std::vector<double> slice_ms;
  for (util::TimePoint t = util::kSecond; t <= day + tail; t += util::kSecond) {
    const double s0 = now_s();
    w->sim.run_until(t);
    slice_ms.push_back((now_s() - s0) * 1e3);
  }
  g_spans.end(span);
  out.run_s = now_s() - run0;
  out.cpu_run_s = cpu_s() - c0;
  out.sim_s = static_cast<double>(day + tail) / static_cast<double>(util::kSecond);

  const metro::MetroDriver& drv = *w->driver;
  const metro::MetroDriver::Stats& st = drv.stats();
  // attic_puts and attic_gets count successes, so attic attempts add the
  // failures back in.
  out.ops_attempted = static_cast<double>(st.arrivals + st.attic_puts +
                                          st.attic_gets + st.attic_failures +
                                          st.dir_lookups);
  out.ops_failed = static_cast<double>(st.loads_failed + st.attic_failures +
                                       st.dir_failed);
  out.check("offload_ge_0.5", drv.offload() >= 0.5);
  out.check("no_stale_directory_answers", st.dir_stale_served == 0);
  out.check("traffic_flowed", st.loads_ok > 0 && st.bytes_from_peers > 0 &&
                                  st.attic_gets > 0 && st.dir_ok > 0);

  if constexpr (kTraced) {
    const auto d = telemetry::MetricsRegistry::delta(
        before, telemetry::registry().snapshot());
    const double events = static_cast<double>(w->sim.events_executed());
    const double allocs = static_cast<double>(allocs_now() - a0);
    JsonObject& j = out.layer;
    for (const char* k : {"psim.epochs", "psim.crossings", "psim.spilled",
                          "psim.wall_per_epoch_us", "psim.cpu_util",
                          "psim.speedup_vs_1w"}) {
      j.num(k, 0);  // no engine on this day
    }
    layer_probe(j, 0, 0, 1, partitions);
    j.num("sim.events", events);
    j.num("sim.events_per_wall_s", events / out.run_s);
    j.num("sim.allocs_per_event", allocs / events);
    j.num("sim.slice_wall_p50_ms", median(slice_ms));
    j.num("sim.slice_wall_p99_ms", quantile(slice_ms, 0.99));
    j.num("sim.slice_wall_samples", static_cast<double>(slice_ms.size()));
    j.num("chaos.partition_drops",
          static_cast<double>(w->chaos->stats().partition_drops));
    layer_registry(j, d);
    j.num("metro.build_s", build_s);
    j.num("metro.plan_s", plan_s);
    j.num("metro.setup_samples", 1);
    j.num("nocdn.offload", drv.offload());
    j.num("nocdn.peer_hit_rate", drv.peer_hit_rate());
    j.num("dir.lookups", static_cast<double>(st.dir_lookups));
    j.num("dir.failed", static_cast<double>(st.dir_failed));
    j.num("dir.busy", static_cast<double>(st.dir_busy));
    j.num("dir.lookup_p99_s", drv.dir_lookup_p99_s());
    j.num("dir.sync_rounds", static_cast<double>(cluster->sync_totals().rounds));
    j.num("driver.start_s", start_s);
  }

  span = g_spans.begin("teardown");
  w.reset();
  const double teardown_s = g_spans.end(span);
  if constexpr (kTraced) {
    out.layer.num("teardown_s", teardown_s);
    out.layer.num("alloc.live_bytes_peak_per_home",
                  live.stop() / static_cast<double>(o.homes));
  }
  return out;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--homes") o.homes = std::strtoull(v, nullptr, 10);
    else if (a == "--day-s") o.day_s = std::strtod(v, nullptr);
    else if (a == "--workers") o.workers = std::strtoull(v, nullptr, 10);
    else if (a == "--rate") o.rate = std::strtod(v, nullptr);
    else if (a == "--spans") o.spans_path = v;
    else return false;
  }
  return !o.workload.empty() && o.homes > 0 && o.day_s > 0 && o.workers > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload udp_day|tcp_day|nocdn_day --seed S "
                 "--homes N --day-s D --workers K [--rate R] [--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  DayOut out;
  if (o.workload == "udp_day") out = udp_day(o);
  else if (o.workload == "tcp_day") out = tcp_day(o);
  else if (o.workload == "nocdn_day") out = nocdn_day(o);
  else {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }

  JsonObject j;
  j.str("workload", o.workload);
  j.num("seed", static_cast<double>(o.seed));
  j.num("homes", static_cast<double>(o.homes));
  j.num("workers", static_cast<double>(o.workers));
  j.boolean("traced", kTraced);
  j.num("sim_s", out.sim_s);
  j.num("setup_s", out.setup_s);
  j.num("run_s", out.run_s);
  j.num("cpu_run_s", out.cpu_run_s);
  j.num("peak_rss_bytes", peak_rss_bytes());
  j.num("ops_attempted", out.ops_attempted);
  j.num("ops_failed", out.ops_failed);
  j.object("checks", out.checks);
  if (kTraced) j.object("layer", out.layer);
  std::printf("%s\n", j.text().c_str());

  if (!o.spans_path.empty() && !g_spans.write(o.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", o.spans_path.c_str());
    return 1;
  }
  return out.all_ok ? 0 : 1;
}
