// Hot-path engine baseline: a self-gating microbench suite for the event
// core, the packet path and the bench-scale days every experiment funnels
// through (E15). Unlike bench_micro (google-benchmark, human numbers), this
// binary writes its results as BENCH_CORE.json and exits non-zero when a
// gate fails. Each gate is one row of the table in main; among them:
//
//   - the scheduler stays under 0.01 allocations per event on the hot
//     self-rescheduling loop and per op on the timer churn, and runs the
//     hot loop at >= 5 M events/s;
//   - the TCP bulk transfer and the packet hops deliver every byte;
//   - a packet crossing an idle link costs one event per hop.
//
// Allocation counts come from a global operator new/delete hook, so
// "allocation-free hot path" is a measured number, not a claim.
//
// Flags: --out PATH (default BENCH_CORE.json), --smoke (small sizes for
// CI).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_hook.hpp"
#include "bench/durability_workloads.hpp"
#include "metro/driver.hpp"
#include "metro/topology.hpp"
#include "net/pool.hpp"
#include "net/topology.hpp"
#include "psim/day.hpp"
#include "psim/tcp_day.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep.hpp"
#include "transport/mux.hpp"
#include "transport/payloads.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace {

using namespace hpop;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t alloc_count() { return benchhook::alloc_count(); }

// --- Workload 1: hot self-rescheduling timer ----------------------------
// The inner loop of every simulated protocol: an event whose handler
// schedules the next one. The closure captures a shared_ptr, as real timer
// closures capture their owners, so a scheduler that boxes its closures
// (std::function does, past its small buffer) pays an allocation per event
// here. A pool of far-future background timers keeps the heap
// realistically deep.

struct SchedulerResult {
  double events_per_sec = 0;
  double allocs_per_event = 0;
};

struct Ticker {
  sim::Simulator* sched;
  std::uint64_t* count;
  std::uint64_t limit;
  std::shared_ptr<std::uint64_t> owner;
  void operator()() const {
    if (++*count < limit) sched->schedule(util::kMicrosecond, Ticker{*this});
  }
};

SchedulerResult run_hot_loop(std::uint64_t events, int background) {
  sim::Simulator sim;
  for (int i = 0; i < background; ++i) {
    sim.schedule(3600 * util::kSecond + i, [] {});
  }
  std::uint64_t count = 0;
  sim.schedule(0, Ticker{&sim, &count, events,
                         std::make_shared<std::uint64_t>(0)});
  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  sim.run(events);
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  return {static_cast<double>(events) / elapsed,
          static_cast<double>(allocs) / static_cast<double>(events)};
}

// --- Workload 2: schedule / cancel / rearm churn ------------------------
// The connection-timer pattern: a population of armed timers that are
// mostly rearmed (every ACK pushes out the RTO) or cancelled before they
// fire. The engine rearms in place, so a rearm allocates nothing.

struct ChurnResult {
  double ops_per_sec = 0;
  double allocs_per_op = 0;
};

ChurnResult run_churn(std::uint64_t timers, std::uint64_t ops) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<sim::TimerId> ids(timers);
  util::Rng rng(42);
  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < timers; ++i) {
    ids[i] = sim.schedule(
        util::kSecond + static_cast<util::Duration>(rng.uniform_index(1000)) *
                            util::kMillisecond,
        [&fired] { ++fired; });
  }
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t i = rng.uniform_index(timers);
    const auto delay = util::kSecond + static_cast<util::Duration>(
                                           rng.uniform_index(1000)) *
                                           util::kMillisecond;
    if (rng.uniform_index(10) == 0) {
      sim.cancel(ids[i]);
      ids[i] = sim.schedule(delay, [&fired] { ++fired; });
    } else if (!sim.reschedule(ids[i], delay)) {
      ids[i] = sim.schedule(delay, [&fired] { ++fired; });
    }
  }
  sim.run();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const double total_ops = static_cast<double>(timers + ops + fired);
  return {total_ops / elapsed, static_cast<double>(allocs) / total_ops};
}

// --- Workload 3: packet-hop throughput ----------------------------------
// UDP datagrams across host -- router -- host: every datagram is copied
// per hop by the link layer, so this measures the copy-on-write packet
// body end to end (the body is shared, never cloned, across both hops).
//
// Senders are bursty — 32 datagrams arrive back to back every 320 us
// (~980 Mbps average) — and the first hop runs at 10 Gbps into a 1 Gbps
// bottleneck hop, so real queues form at BOTH links (a batch crosses the
// fast hop nearly intact and piles up at the bottleneck) and the burst
// service loop has something to drain on every hop. Runs with
// burst_limit=1 (strict per-packet servicing, the pre-burst engine) and
// with burst_limit=16 alternate (run_burst_ab); delivery schedules are
// identical by construction, so the same packets arrive and only the wall
// clock moves.

struct PacketHopResult {
  double packets_per_sec = 0;
  double allocs_per_packet = 0;
  std::uint64_t delivered = 0;
};

PacketHopResult run_packet_hop(std::uint64_t packets, int burst_limit) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(7));
  const net::PathParams fast{10 * util::kGbps, 1 * util::kMillisecond, 0.0,
                             16 << 20};
  const net::PathParams bottleneck{1 * util::kGbps, 1 * util::kMillisecond,
                                   0.0, 16 << 20};
  auto path = net::make_two_host_path(net, fast, bottleneck);
  for (const auto& link : net.links()) link->set_burst_limit(burst_limit);
  transport::TransportMux mux_a(*path.a), mux_b(*path.b);
  auto rx = mux_b.udp_open(9000);
  std::uint64_t delivered = 0;
  rx->set_on_datagram(
      [&delivered](net::Endpoint, net::PayloadPtr) { ++delivered; });
  auto tx = mux_a.udp_open(9001);
  const auto payload = std::make_shared<transport::FillerPayload>(1200);
  const net::Endpoint dst{path.b->address(), 9000};
  std::uint64_t sent = 0;
  struct Pump {
    sim::Simulator* sim;
    std::shared_ptr<transport::UdpSocket> tx;
    net::Endpoint dst;
    net::PayloadPtr payload;
    std::uint64_t* sent;
    std::uint64_t total;
    void operator()() const {
      for (int b = 0; b < 32 && *sent < total; ++b) {
        tx->send_to(dst, payload);
        ++*sent;
      }
      if (*sent < total) sim->schedule(320 * util::kMicrosecond, Pump{*this});
    }
  };
  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  sim.schedule(0, Pump{&sim, tx, dst, payload, &sent, packets});
  sim.run();
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  return {static_cast<double>(delivered) / elapsed,
          static_cast<double>(allocs) / static_cast<double>(packets),
          delivered};
}

/// The packet-hop A/B as `reps` interleaved pairs, alternating which mode
/// runs first. The gate reads the median of the per-pair speedups, so a
/// neighbour that slows one run on a shared box moves one ratio, not the
/// verdict. Each mode reports its median rate, its worst allocs/pkt and
/// its fewest deliveries.
struct BurstAbResult {
  PacketHopResult per_packet;  // burst_limit 1
  PacketHopResult burst;       // burst_limit 16
  std::vector<double> speedups;  // burst / per-packet, sorted

  double median_speedup() const { return speedups[speedups.size() / 2]; }
};

BurstAbResult run_burst_ab(std::uint64_t packets, int reps) {
  BurstAbResult r;
  std::vector<double> pp_rates, burst_rates;
  r.per_packet.delivered = r.burst.delivered = packets;
  auto fold = [](PacketHopResult& into, std::vector<double>& rates,
                 const PacketHopResult& run) {
    rates.push_back(run.packets_per_sec);
    into.allocs_per_packet =
        std::max(into.allocs_per_packet, run.allocs_per_packet);
    into.delivered = std::min(into.delivered, run.delivered);
  };
  for (int i = 0; i < reps; ++i) {
    PacketHopResult pp, burst;
    if (i % 2 == 0) {
      pp = run_packet_hop(packets, 1);
      burst = run_packet_hop(packets, 16);
    } else {
      burst = run_packet_hop(packets, 16);
      pp = run_packet_hop(packets, 1);
    }
    fold(r.per_packet, pp_rates, pp);
    fold(r.burst, burst_rates, burst);
    r.speedups.push_back(
        pp.packets_per_sec > 0 ? burst.packets_per_sec / pp.packets_per_sec
                               : 0.0);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  r.per_packet.packets_per_sec = median(pp_rates);
  r.burst.packets_per_sec = median(burst_rates);
  std::sort(r.speedups.begin(), r.speedups.end());
  return r;
}

// --- Workload 4: TCP bulk transfer --------------------------------------
// The macro check: a full simulated TCP flow (IW10, SACK, delayed ACKs,
// RTO rearms) moving `mb` MiB over a 1 Gbps / 10 ms RTT path. Reports
// simulator events per wall-second and allocations per MSS segment, and
// gates on every byte arriving.

struct TcpBulkResult {
  double events_per_sec = 0;
  double allocs_per_segment = 0;
  double wall_ms = 0;
  std::uint64_t received = 0;
  std::uint64_t expected = 0;
};

TcpBulkResult run_tcp_bulk(std::size_t mb) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(11));
  const net::PathParams params{1 * util::kGbps, 5 * util::kMillisecond, 0.0,
                               16 << 20};
  auto path = net::make_two_host_path(net, params, params);
  transport::TransportMux mux_a(*path.a), mux_b(*path.b);
  auto listener = mux_b.tcp_listen(80);
  std::uint64_t received = 0;
  listener->set_on_accept([&](std::shared_ptr<transport::TcpConnection> c) {
    c->set_on_bytes([&received](std::size_t n) { received += n; });
  });
  const std::uint64_t expected = static_cast<std::uint64_t>(mb) << 20;
  auto client = mux_a.tcp_connect({path.b->address(), 80});
  client->set_on_established([&] { client->send_bytes(expected); });
  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  sim.run_until(120 * util::kSecond);
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const double segments =
      static_cast<double>(expected) / static_cast<double>(1460);
  return {static_cast<double>(sim.events_executed()) / elapsed,
          static_cast<double>(allocs) / segments, elapsed * 1e3, received,
          expected};
}

// --- Workload 5: pooled vs malloc'd packet lifecycle --------------------
// The isolated cost of the arena itself: acquire/touch/release a packet
// from the per-simulator PacketPool versus a fresh heap Packet per
// iteration — the lifecycle every hop of the wire path used to pay.

struct PoolResult {
  double ops_per_sec = 0;
  double allocs_per_op = 0;
};

PoolResult run_pool_pooled(std::uint64_t ops) {
  sim::Simulator sim;
  net::PacketPool& pool = net::PacketPool::of(sim);
  { net::PooledPacket warm = pool.acquire(); }  // first slab pre-faulted
  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    net::PooledPacket p = pool.acquire();
    p->payload_len = static_cast<std::size_t>(i);
    sink += p->payload_len;
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  volatile std::uint64_t keep = sink;  // the loop must stay observable
  (void)keep;
  return {static_cast<double>(ops) / elapsed,
          static_cast<double>(allocs) / static_cast<double>(ops)};
}

PoolResult run_pool_malloc(std::uint64_t ops) {
  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    auto p = std::make_unique<net::Packet>();
    p->payload_len = static_cast<std::size_t>(i);
    sink += p->payload_len;
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  volatile std::uint64_t keep = sink;
  (void)keep;
  return {static_cast<double>(ops) / elapsed,
          static_cast<double>(allocs) / static_cast<double>(ops)};
}

// --- Workload 6: parallel sweep scaling ---------------------------------
// The metro seed sweep run serially and on worker threads: each seed is a
// whole diurnal NoCDN day, enough work per seed for the threads to show
// their scaling. Two properties gate: the outputs must be byte-identical
// (always), and on hardware with >= 8 threads the parallel run must be
// >= 3x faster (the gate stays disarmed on smaller boxes rather than
// failing on machine size).

struct SweepScalingResult {
  sweep::Scenario scenario = sweep::Scenario::kMetro;
  unsigned hw_threads = 0;
  std::size_t jobs = 1;
  std::size_t seeds = 0;
  double serial_s = 0;
  double parallel_s = 0;
  bool identical = false;

  double speedup() const {
    return parallel_s > 0 ? serial_s / parallel_s : 0.0;
  }
};

SweepScalingResult run_sweep_scaling(std::size_t n_seeds) {
  SweepScalingResult r;
  r.hw_threads = std::thread::hardware_concurrency();
  r.jobs = r.hw_threads >= 8 ? 8 : (r.hw_threads > 1 ? r.hw_threads : 2);
  std::vector<std::uint64_t> seeds;
  for (std::size_t s = 1; s <= n_seeds; ++s) seeds.push_back(s);
  r.seeds = seeds.size();

  auto start = Clock::now();
  const auto serial = sweep::run_sweep(r.scenario, seeds, 1);
  r.serial_s = seconds_since(start);
  start = Clock::now();
  const auto parallel = sweep::run_sweep(r.scenario, seeds, r.jobs);
  r.parallel_s = seconds_since(start);
  r.identical = serial == parallel;
  return r;
}

// --- Workload 7: metro topology build + per-home memory footprint -------
// Builds a metro access tree (E17's capacity axis) and measures two
// numbers: construction throughput (homes/sec, hierarchical routing — not
// auto_route()'s O(N^2) BFS) and live heap bytes per home while the world
// is standing. The byte number is what bounds how many HPoPs fit in one
// process.

struct MetroBuildResult {
  std::size_t homes = 0;
  double build_s = 0;
  double homes_per_sec = 0;
  double bytes_per_home = 0;
  std::uint64_t fingerprint = 0;
};

MetroBuildResult run_metro_build(std::size_t homes) {
  MetroBuildResult r;
  r.homes = homes;
  const std::int64_t live_before = benchhook::live_bytes();
  const auto start = Clock::now();
  sim::Simulator sim;
  net::Network net(sim, util::Rng(17));
  metro::MetroParams params;
  params.homes = homes;
  util::Rng rng(17);
  metro::MetroTopology topo = metro::build_metro(net, params, rng);
  r.build_s = seconds_since(start);
  const std::int64_t live_after = benchhook::live_bytes();
  r.homes_per_sec = static_cast<double>(homes) / r.build_s;
  r.bytes_per_home = static_cast<double>(live_after - live_before) /
                     static_cast<double>(homes);
  r.fingerprint = topo.fingerprint();
  return r;
}

// --- Workload 8: durability (E18 gates) ---------------------------------
// The bench_durability workloads at BENCH_CORE sizes, so the durability
// gates live in BENCH_CORE.json next to the engine gates: WAL replay
// rebuilds the store byte-identically, an epoch snapshot bounds recovery
// to the post-snapshot tail, and a 1%-churn day ships <10% of the
// whole-object bytes as an epoch delta.

struct DurabilityResult {
  benchdur::RecoveryPoint recovery;
  benchdur::CompactionResult compaction;
  benchdur::IncrementalResult incremental;
};

DurabilityResult run_durability(std::size_t records, std::size_t tail,
                                std::size_t day_files) {
  DurabilityResult r;
  r.recovery = benchdur::run_recovery(records, 1'024, 18);
  r.compaction = benchdur::run_compaction(records, tail, 1'024, 18);
  r.incremental = benchdur::run_incremental(day_files, 0.01, 18);
  return r;
}

// --- Workload 9: sharded directory day (E19 gates) ----------------------
// bench_directory's world (metro::run_service_day) at a compact size: a
// replicated DirectoryCluster under a shard crash and a shard partition in
// disjoint windows. The E19 invariants gate here so they land in
// BENCH_CORE.json: post-warmup lookup success, zero acked-registration
// loss, no stale adverts past lease expiry, and anti-entropy actually
// repairing the crashed shard.

metro::ServiceDayResult run_directory_day(std::size_t homes) {
  using util::kSecond;
  metro::ServiceDayParams p;
  p.seed = 42;
  p.topology.homes = homes;
  p.catalog_objects = 128;
  p.base_rate_per_home = 0.1;
  p.driver.horizon = 24 * kSecond;
  p.driver.active_homes = homes;
  p.driver.peers = 8;
  p.driver.attic_pairs = 2;
  p.driver.dir_shards = 4;
  p.driver.dir_lease = 6 * kSecond;
  p.driver.dir_registered_homes = std::min<std::size_t>(300, homes / 2);
  p.driver.dir_silent_homes = 24;
  p.driver.dir_silent_lease_s = 2;
  p.driver.dir_warmup = 3 * kSecond;
  // Disjoint windows: crash [6, 10), partition [12, 16) — R=2 always
  // leaves one live replica.
  p.crash = metro::ShardWindow{1, 6 * kSecond, 4 * kSecond};
  p.cut = metro::ShardWindow{2, 12 * kSecond, 4 * kSecond};
  p.drain = 8 * kSecond;
  return metro::run_service_day(p);
}

/// Polls the alloc hook's live-byte count from a side thread and keeps the
/// highest value seen: the peak inside a call that cannot be paused.
class LivePeakSampler {
 public:
  LivePeakSampler()
      : peak_(benchhook::live_bytes()), thread_([this] { loop(); }) {}
  ~LivePeakSampler() { stop(); }
  LivePeakSampler(const LivePeakSampler&) = delete;
  LivePeakSampler& operator=(const LivePeakSampler&) = delete;

  std::int64_t stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      peak_ = std::max(peak_, benchhook::live_bytes());
    }
    return peak_;
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
  std::thread thread_;  // declared last: starts after peak_ and stop_
};

// --- Workload 10: sharded parallel metro day (E20 gates) ----------------
// psim's conservative-lookahead engine running the 10k-home compressed
// diurnal day at 1, 2, and 4 workers. The determinism gate — all three day
// reports byte-identical — is a pure software property and always armed.
// The speedup gate (>= 2.5x at 4 workers) is a hardware property, armed
// only where >= 8 hardware threads exist; elsewhere it is recorded as
// "skipped", never as a pass.

struct ParallelMetroResult {
  std::size_t homes = 0;
  unsigned hw_threads = 0;
  double wall_1 = 0, wall_2 = 0, wall_4 = 0;
  bool identical = false;
  std::uint64_t requests = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t epochs = 0;
  std::uint64_t crossings = 0;

  double speedup_4() const { return wall_4 > 0 ? wall_1 / wall_4 : 0.0; }
};

ParallelMetroResult run_parallel_metro(std::size_t homes, bool smoke) {
  ParallelMetroResult r;
  r.homes = homes;
  r.hw_threads = std::thread::hardware_concurrency();
  psim::DayConfig cfg;
  cfg.homes = homes;
  cfg.seed = 42;
  cfg.day = (smoke ? 10 : 20) * util::kSecond;

  cfg.workers = 1;
  const psim::DayResult w1 = psim::run_day(cfg);
  cfg.workers = 2;
  const psim::DayResult w2 = psim::run_day(cfg);
  cfg.workers = 4;
  const psim::DayResult w4 = psim::run_day(cfg);

  r.wall_1 = w1.wall_s;
  r.wall_2 = w2.wall_s;
  r.wall_4 = w4.wall_s;
  r.identical = w1.report == w2.report && w1.report == w4.report;
  r.requests = w4.requests;
  r.rx_bytes = w4.rx_bytes;
  r.epochs = w4.epochs;
  r.crossings = w4.crossings;
  return r;
}

// --- Workload 11: sharded parallel metro day over TCP (E21 gates) -------
// The same day shape, but every transfer is a real TCP (or MPTCP)
// connection: cwnd, SACK scoreboards, and RTO timers live in per-home
// muxes bound to the home's shard while their segments cross the pop
// uplink boundaries. Same gate structure as workload 10 — identity is
// always armed, speedup (>= 2.0x at 4 workers; transport adds serial
// per-segment work the UDP day doesn't have) only on >= 8 hw threads —
// plus the 4-worker day's peak live heap per home, sampled while it runs
// (its world, engine, crossing buffers, link queues and connections).

struct ParallelTcpMetroResult {
  std::size_t homes = 0;
  unsigned hw_threads = 0;
  double wall_1 = 0, wall_2 = 0, wall_4 = 0;
  bool identical = false;
  std::uint64_t conns = 0;
  std::uint64_t completed = 0;
  std::uint64_t mptcp_sessions = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t epochs = 0;
  std::uint64_t crossings = 0;
  double peak_bytes_per_home_4 = 0;  // live heap above the pre-day level

  double speedup_4() const { return wall_4 > 0 ? wall_1 / wall_4 : 0.0; }
};

ParallelTcpMetroResult run_parallel_tcp_metro(std::size_t homes, bool smoke) {
  ParallelTcpMetroResult r;
  r.homes = homes;
  r.hw_threads = std::thread::hardware_concurrency();
  psim::TcpDayConfig cfg;
  cfg.homes = homes;
  cfg.seed = 42;
  cfg.day = (smoke ? 10 : 20) * util::kSecond;

  cfg.workers = 1;
  const psim::TcpDayResult w1 = psim::run_tcp_day(cfg);
  cfg.workers = 2;
  const psim::TcpDayResult w2 = psim::run_tcp_day(cfg);
  cfg.workers = 4;
  const std::int64_t live_before = benchhook::live_bytes();
  LivePeakSampler live;
  const psim::TcpDayResult w4 = psim::run_tcp_day(cfg);
  r.peak_bytes_per_home_4 = static_cast<double>(live.stop() - live_before) /
                            static_cast<double>(homes);

  r.wall_1 = w1.wall_s;
  r.wall_2 = w2.wall_s;
  r.wall_4 = w4.wall_s;
  r.identical = w1.report == w2.report && w1.report == w4.report;
  r.conns = w4.conns;
  r.completed = w4.completed;
  r.mptcp_sessions = w4.mptcp_sessions;
  r.rx_bytes = w4.rx_bytes;
  r.retransmits = w4.retransmits;
  r.timeouts = w4.timeouts;
  r.epochs = w4.epochs;
  r.crossings = w4.crossings;
  return r;
}

// --- Workload 12: events per packet hop on an idle path ----------------
// The paper's home links sit idle almost all the time (§II), so the common
// hop finds its transmitter free. Datagrams spaced far apart cross
// host -- router -- host one at a time, and each should cost one event per
// link: its delivery at the far end. A count, not a rate, so the gate
// reads the same on any box.

struct IdleHopResult {
  std::uint64_t packets = 0;
  std::uint64_t delivered = 0;
  double events_per_hop = 0;
};

IdleHopResult run_idle_hop(std::uint64_t packets) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(7));
  const net::PathParams params{1 * util::kGbps, 1 * util::kMillisecond, 0.0,
                               1 << 20};
  auto path = net::make_two_host_path(net, params, params);
  transport::TransportMux mux_a(*path.a), mux_b(*path.b);
  auto rx = mux_b.udp_open(9000);
  IdleHopResult r;
  r.packets = packets;
  rx->set_on_datagram([&r](net::Endpoint, net::PayloadPtr) { ++r.delivered; });
  auto tx = mux_a.udp_open(9001);
  const auto payload = std::make_shared<transport::FillerPayload>(1200);
  const net::Endpoint dst{path.b->address(), 9000};
  // One send event every 100 us; a datagram serializes in ~10 us per hop.
  for (std::uint64_t i = 0; i < packets; ++i) {
    sim.schedule_at(static_cast<util::TimePoint>(i) * 100 * util::kMicrosecond,
                    [&] { tx->send_to(dst, payload); });
  }
  sim.run();
  constexpr std::uint64_t kLinks = 2;
  const std::uint64_t hop_events = sim.events_executed() - packets;
  r.events_per_hop = static_cast<double>(hop_events) /
                     static_cast<double>(packets * kLinks);
  return r;
}

/// One row of the `gates` block: the verdict `<name>_ok`, preceded by its
/// threshold `limit_key` when it has one. A hardware row is a speedup that
/// needs the threads to show: it also prints `<name>_armed`, and on a box
/// without them it reads "skipped" and does not fail the run.
struct Gate {
  const char* name;
  bool ok;
  const char* limit_key = nullptr;
  double limit = 0;
  int decimals = 0;  // digits after the point when `limit` prints
  bool hardware = false;

  bool skipped(bool hw_armed) const { return hardware && !hw_armed; }
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_CORE.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out PATH] [--smoke]\n", argv[0]);
      return 2;
    }
  }

  // The hot loop and the packet hops keep their full size on --smoke
  // (~0.2 s and ~30 ms a run), so one preemption on a shared box shifts a
  // rate by a tenth, not a third, and cannot sink an absolute floor.
  const std::uint64_t hot_events = 2'000'000;
  const std::uint64_t churn_timers = smoke ? 1'024 : 4'096;
  const std::uint64_t churn_ops = smoke ? 100'000 : 1'000'000;
  const std::uint64_t hop_packets = 50'000;
  const std::size_t bulk_mb = smoke ? 8 : 64;

  std::fprintf(stderr, "[bench_core] scheduler hot loop (%llu events)...\n",
               static_cast<unsigned long long>(hot_events));
  const SchedulerResult hot = run_hot_loop(hot_events, 512);

  std::fprintf(stderr, "[bench_core] schedule/cancel/rearm churn...\n");
  const ChurnResult churn = run_churn(churn_timers, churn_ops);

  constexpr int kBurstReps = 15;
  std::fprintf(stderr,
               "[bench_core] packet-hop throughput (burst A/B, %d pairs)...\n",
               kBurstReps);
  const BurstAbResult hop_ab = run_burst_ab(hop_packets, kBurstReps);
  const PacketHopResult& hop_pp = hop_ab.per_packet;
  const PacketHopResult& hop = hop_ab.burst;
  const double burst_speedup = hop_ab.median_speedup();

  const std::uint64_t idle_packets = 1'000;
  std::fprintf(stderr, "[bench_core] idle-path hops (%llu datagrams)...\n",
               static_cast<unsigned long long>(idle_packets));
  const IdleHopResult idle = run_idle_hop(idle_packets);

  std::fprintf(stderr, "[bench_core] TCP bulk transfer (%zu MiB)...\n",
               bulk_mb);
  const TcpBulkResult bulk = run_tcp_bulk(bulk_mb);

  const std::uint64_t pool_ops = smoke ? 200'000 : 2'000'000;
  std::fprintf(stderr, "[bench_core] pooled vs malloc packet lifecycle...\n");
  const PoolResult pooled = run_pool_pooled(pool_ops);
  const PoolResult malloced = run_pool_malloc(pool_ops);

  const std::size_t sweep_seeds = smoke ? 8 : 16;
  std::fprintf(stderr, "[bench_core] sweep scaling (%zu metro seeds)...\n",
               sweep_seeds);
  const SweepScalingResult sweep = run_sweep_scaling(sweep_seeds);

  const std::size_t metro_homes = smoke ? 10'000 : 50'000;
  std::fprintf(stderr, "[bench_core] metro build (%zu homes)...\n",
               metro_homes);
  const MetroBuildResult metro = run_metro_build(metro_homes);

  const std::size_t dur_records = smoke ? 20'000 : 100'000;
  const std::size_t dur_tail = 500;
  const std::size_t dur_day_files = smoke ? 500 : 2'000;
  std::fprintf(stderr, "[bench_core] durability (%zu-record WAL)...\n",
               dur_records);
  const DurabilityResult dur =
      run_durability(dur_records, dur_tail, dur_day_files);

  const std::size_t dir_homes = smoke ? 300 : 1'000;
  std::fprintf(stderr, "[bench_core] directory day (%zu homes)...\n",
               dir_homes);
  const metro::ServiceDayResult dir = run_directory_day(dir_homes);

  const std::size_t pm_homes = smoke ? 2'000 : 10'000;
  std::fprintf(stderr, "[bench_core] parallel metro day (%zu homes)...\n",
               pm_homes);
  const ParallelMetroResult pmetro = run_parallel_metro(pm_homes, smoke);

  std::fprintf(stderr, "[bench_core] parallel TCP metro day (%zu homes)...\n",
               pm_homes);
  const ParallelTcpMetroResult ptcp = run_parallel_tcp_metro(pm_homes, smoke);

  // The engine boxes no closure and rearms in place; a scheduler that
  // boxes closures or rearms by rescheduling reads 1.0 or more here.
  constexpr double kSchedulerAllocsMax = 0.01;
  // Twice the pre-overhaul scheduler's hot-loop rate on a shared 4-vCPU
  // box (2.5 M events/s there; the engine runs 8-18 M on the same box).
  constexpr double kSchedulerEventsPerSecMin = 5'000'000.0;
  // Link queues and in-flight FIFOs allocate nothing per packet, so what
  // remains is pool slabs, one per 256 packets in flight.
  constexpr double kPacketHopAllocsMax = 0.1;
  // Burst servicing is a single-thread algorithmic win (one heap dispatch
  // per burst instead of per packet), so this gate is armed everywhere.
  constexpr double kBurstSpeedupMin = 1.2;
  // A hop over an idle link is its delivery event alone; a link that
  // scheduled its return to idle would read 2.
  constexpr double kIdleHopEventsPerHopMax = 1.0;
  // The smoke transfer (8 MiB) never fills the 16 MiB buffer; the full one
  // (64 MiB) overflows it and recovers through SACK, whose scoreboard and
  // reassembly map allocate per out-of-order segment (~0.48/segment).
  const double kTcpBulkAllocsMax = smoke ? 0.1 : 0.6;
  constexpr double kSweepSpeedupMin = 3.0;
  constexpr double kMetroHomesPerSecMin = 20'000.0;
  constexpr double kMetroBytesPerHomeMax = 4'096.0;
  constexpr double kIncrementalRatioMax = 0.10;
  constexpr double kDirSuccessMin = 0.99;
  constexpr double kParallelMetroSpeedupMin = 2.5;
  constexpr double kParallelTcpMetroSpeedupMin = 2.0;
  constexpr double kTcpDayBytesPerHomeMax = 4'096.0;
  // Speedup is a hardware property: armed only where 8 threads exist.
  const bool hw_armed = std::thread::hardware_concurrency() >= 8;
  const std::vector<Gate> gates = {
      {"scheduler_allocs",
       hot.allocs_per_event <= kSchedulerAllocsMax &&
           churn.allocs_per_op <= kSchedulerAllocsMax,
       "scheduler_allocs_max", kSchedulerAllocsMax, 2},
      {"scheduler_events_per_sec",
       hot.events_per_sec >= kSchedulerEventsPerSecMin,
       "scheduler_events_per_sec_min", kSchedulerEventsPerSecMin, 0},
      {"delivery", bulk.received == bulk.expected &&
                       hop.delivered == hop_packets &&
                       hop_pp.delivered == hop_packets},
      {"packet_hop_allocs",
       hop.allocs_per_packet <= kPacketHopAllocsMax &&
           hop_pp.allocs_per_packet <= kPacketHopAllocsMax,
       "packet_hop_allocs_max", kPacketHopAllocsMax, 2},
      {"burst_speedup", burst_speedup >= kBurstSpeedupMin,
       "burst_speedup_min", kBurstSpeedupMin, 1},
      {"idle_hop_events_per_hop",
       idle.delivered == idle.packets &&
           idle.events_per_hop <= kIdleHopEventsPerHopMax,
       "idle_hop_events_per_hop_max", kIdleHopEventsPerHopMax, 1},
      {"tcp_bulk_allocs", bulk.allocs_per_segment <= kTcpBulkAllocsMax,
       "tcp_bulk_allocs_max", kTcpBulkAllocsMax, 2},
      {"sweep_identical", sweep.identical},
      {"sweep_speedup", sweep.speedup() >= kSweepSpeedupMin,
       "sweep_speedup_min", kSweepSpeedupMin, 1, /*hardware=*/true},
      {"metro_build", metro.homes_per_sec >= kMetroHomesPerSecMin,
       "metro_homes_per_sec_min", kMetroHomesPerSecMin, 0},
      {"bytes_per_home",
       metro.bytes_per_home > 0 &&
           metro.bytes_per_home <= kMetroBytesPerHomeMax,
       "bytes_per_home_max", kMetroBytesPerHomeMax, 0},
      {"durability_recovery",
       dur.recovery.fingerprint_ok &&
           dur.recovery.replayed ==
               static_cast<std::uint64_t>(dur.recovery.log_records) &&
           dur.recovery.replayed >= dur_records,
       "durability_replay_min", static_cast<double>(dur_records), 0},
      {"durability_compaction",
       dur.compaction.bounded() && dur.compaction.fingerprint_ok},
      {"durability_incremental",
       dur.incremental.ratio() < kIncrementalRatioMax &&
           dur.incremental.fingerprint_ok,
       "incremental_ratio_max", kIncrementalRatioMax, 2},
      {"directory_lookup",
       dir.stats.dir_lookups > 0 && dir.dir_success >= kDirSuccessMin,
       "directory_success_min", kDirSuccessMin, 2},
      {"directory_no_loss", dir.acked > 0 && dir.resolved == dir.acked},
      {"directory_no_stale", dir.stats.dir_silent_probes > 0 &&
                                 dir.stats.dir_stale_served == 0},
      {"directory_sync", dir.sync.rounds > 0 && dir.sync.entries_applied > 0 &&
                             dir.chaos.crashes == 1 &&
                             dir.chaos.restarts == 1 &&
                             dir.chaos.partitions == 1 &&
                             dir.chaos.partition_heals == 1},
      {"parallel_metro_identical", pmetro.identical && pmetro.requests > 0 &&
                                       pmetro.rx_bytes > 0 &&
                                       pmetro.crossings > 0},
      {"parallel_metro_speedup",
       pmetro.speedup_4() >= kParallelMetroSpeedupMin,
       "parallel_metro_speedup_min", kParallelMetroSpeedupMin, 1,
       /*hardware=*/true},
      {"parallel_tcp_metro_identical",
       ptcp.identical && ptcp.completed > 0 && ptcp.mptcp_sessions > 0 &&
           ptcp.rx_bytes > 0 && ptcp.crossings > 0},
      {"parallel_tcp_metro_speedup",
       ptcp.speedup_4() >= kParallelTcpMetroSpeedupMin,
       "parallel_tcp_metro_speedup_min", kParallelTcpMetroSpeedupMin, 1,
       /*hardware=*/true},
      {"parallel_tcp_metro_bytes_per_home",
       ptcp.peak_bytes_per_home_4 > 0 &&
           ptcp.peak_bytes_per_home_4 <= kTcpDayBytesPerHomeMax,
       "parallel_tcp_metro_bytes_per_home_max", kTcpDayBytesPerHomeMax, 0},
  };
  const bool gates_passed =
      std::all_of(gates.begin(), gates.end(), [&](const Gate& g) {
        return g.ok || g.skipped(hw_armed);
      });

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench_core] cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"hpop.bench_core.v1\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"scheduler\": {\n");
  std::fprintf(out, "    \"events\": %llu,\n",
               static_cast<unsigned long long>(hot_events));
  std::fprintf(out, "    \"engine_events_per_sec\": %.0f,\n",
               hot.events_per_sec);
  std::fprintf(out, "    \"engine_allocs_per_event\": %.3f\n",
               hot.allocs_per_event);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"churn\": {\n");
  std::fprintf(out, "    \"engine_ops_per_sec\": %.0f,\n", churn.ops_per_sec);
  std::fprintf(out, "    \"engine_allocs_per_op\": %.3f\n",
               churn.allocs_per_op);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"packet_hop\": {\n");
  std::fprintf(out, "    \"packets\": %llu,\n",
               static_cast<unsigned long long>(hop.delivered));
  std::fprintf(out, "    \"per_packet_packets_per_sec\": %.0f,\n",
               hop_pp.packets_per_sec);
  std::fprintf(out, "    \"packets_per_sec\": %.0f,\n", hop.packets_per_sec);
  std::fprintf(out, "    \"burst_speedup\": %.3f,\n", burst_speedup);
  std::fprintf(out, "    \"burst_speedup_pairs\": %d,\n", kBurstReps);
  std::fprintf(out, "    \"burst_speedup_min\": %.3f,\n",
               hop_ab.speedups.front());
  std::fprintf(out, "    \"burst_speedup_max\": %.3f,\n",
               hop_ab.speedups.back());
  std::fprintf(out, "    \"per_packet_allocs_per_packet\": %.3f,\n",
               hop_pp.allocs_per_packet);
  std::fprintf(out, "    \"allocs_per_packet\": %.3f\n",
               hop.allocs_per_packet);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"idle_hop\": {\n");
  std::fprintf(out, "    \"packets\": %llu,\n",
               static_cast<unsigned long long>(idle.packets));
  std::fprintf(out, "    \"delivered\": %llu,\n",
               static_cast<unsigned long long>(idle.delivered));
  std::fprintf(out, "    \"events_per_hop\": %.3f\n", idle.events_per_hop);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"tcp_bulk\": {\n");
  std::fprintf(out, "    \"mb\": %zu,\n", bulk_mb);
  std::fprintf(out, "    \"received\": %llu,\n",
               static_cast<unsigned long long>(bulk.received));
  std::fprintf(out, "    \"expected\": %llu,\n",
               static_cast<unsigned long long>(bulk.expected));
  std::fprintf(out, "    \"wall_ms\": %.1f,\n", bulk.wall_ms);
  std::fprintf(out, "    \"events_per_sec\": %.0f,\n", bulk.events_per_sec);
  std::fprintf(out, "    \"allocs_per_segment\": %.3f\n",
               bulk.allocs_per_segment);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"packet_pool\": {\n");
  std::fprintf(out, "    \"ops\": %llu,\n",
               static_cast<unsigned long long>(pool_ops));
  std::fprintf(out, "    \"pooled_ops_per_sec\": %.0f,\n",
               pooled.ops_per_sec);
  std::fprintf(out, "    \"pooled_allocs_per_op\": %.3f,\n",
               pooled.allocs_per_op);
  std::fprintf(out, "    \"malloc_ops_per_sec\": %.0f,\n",
               malloced.ops_per_sec);
  std::fprintf(out, "    \"malloc_allocs_per_op\": %.3f\n",
               malloced.allocs_per_op);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"sweep_scaling\": {\n");
  std::fprintf(out, "    \"scenario\": \"%s\",\n",
               sweep::to_string(sweep.scenario));
  std::fprintf(out, "    \"seeds\": %zu,\n", sweep.seeds);
  std::fprintf(out, "    \"jobs\": %zu,\n", sweep.jobs);
  std::fprintf(out, "    \"hw_threads\": %u,\n", sweep.hw_threads);
  std::fprintf(out, "    \"serial_s\": %.3f,\n", sweep.serial_s);
  std::fprintf(out, "    \"parallel_s\": %.3f,\n", sweep.parallel_s);
  std::fprintf(out, "    \"speedup\": %.3f,\n", sweep.speedup());
  std::fprintf(out, "    \"identical\": %s\n",
               sweep.identical ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"metro_build\": {\n");
  std::fprintf(out, "    \"homes\": %zu,\n", metro.homes);
  std::fprintf(out, "    \"build_s\": %.3f,\n", metro.build_s);
  std::fprintf(out, "    \"homes_per_sec\": %.0f,\n", metro.homes_per_sec);
  std::fprintf(out, "    \"bytes_per_home\": %.1f,\n", metro.bytes_per_home);
  std::fprintf(out, "    \"fingerprint\": \"%016llx\"\n",
               static_cast<unsigned long long>(metro.fingerprint));
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"durability\": {\n");
  std::fprintf(out, "    \"wal_records\": %zu,\n", dur.recovery.log_records);
  std::fprintf(out, "    \"wal_bytes\": %zu,\n", dur.recovery.log_bytes);
  std::fprintf(out, "    \"records_replayed\": %llu,\n",
               static_cast<unsigned long long>(dur.recovery.replayed));
  std::fprintf(out, "    \"recover_s\": %.3f,\n", dur.recovery.recover_s);
  std::fprintf(out, "    \"replay_records_per_sec\": %.0f,\n",
               dur.recovery.records_per_sec());
  std::fprintf(out, "    \"recovered_state_identical\": %s,\n",
               dur.recovery.fingerprint_ok ? "true" : "false");
  std::fprintf(out, "    \"compaction_tail_records\": %zu,\n",
               dur.compaction.tail_records);
  std::fprintf(out, "    \"replayed_before_compaction\": %llu,\n",
               static_cast<unsigned long long>(dur.compaction.replayed_before));
  std::fprintf(out, "    \"replayed_after_compaction\": %llu,\n",
               static_cast<unsigned long long>(dur.compaction.replayed_after));
  std::fprintf(out, "    \"churn_day_files\": %zu,\n", dur.incremental.files);
  std::fprintf(out, "    \"full_backup_bytes\": %zu,\n",
               dur.incremental.full_bytes);
  std::fprintf(out, "    \"incremental_backup_bytes\": %zu,\n",
               dur.incremental.delta_bytes);
  std::fprintf(out, "    \"incremental_ratio\": %.4f\n",
               dur.incremental.ratio());
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"directory\": {\n");
  std::fprintf(out, "    \"homes\": %zu,\n", dir_homes);
  std::fprintf(out, "    \"lookups\": %llu,\n",
               static_cast<unsigned long long>(dir.stats.dir_lookups));
  std::fprintf(out, "    \"success_rate\": %.4f,\n", dir.dir_success);
  std::fprintf(out, "    \"lookup_p99_s\": %.4f,\n", dir.dir_p99_s);
  std::fprintf(out, "    \"acked\": %zu,\n", dir.acked);
  std::fprintf(out, "    \"resolved\": %zu,\n", dir.resolved);
  std::fprintf(out, "    \"silent_probes\": %llu,\n",
               static_cast<unsigned long long>(dir.stats.dir_silent_probes));
  std::fprintf(out, "    \"stale_served\": %llu,\n",
               static_cast<unsigned long long>(dir.stats.dir_stale_served));
  std::fprintf(out, "    \"sync_rounds\": %llu,\n",
               static_cast<unsigned long long>(dir.sync.rounds));
  std::fprintf(out, "    \"sync_applied\": %llu,\n",
               static_cast<unsigned long long>(dir.sync.entries_applied));
  std::fprintf(out, "    \"partitions\": %llu,\n",
               static_cast<unsigned long long>(dir.chaos.partitions));
  std::fprintf(out, "    \"partition_heals\": %llu,\n",
               static_cast<unsigned long long>(dir.chaos.partition_heals));
  std::fprintf(out, "    \"cut_drops\": %llu\n",
               static_cast<unsigned long long>(dir.chaos.partition_drops));
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"parallel_metro\": {\n");
  std::fprintf(out, "    \"homes\": %zu,\n", pmetro.homes);
  std::fprintf(out, "    \"hw_threads\": %u,\n", pmetro.hw_threads);
  std::fprintf(out, "    \"wall_1w_s\": %.3f,\n", pmetro.wall_1);
  std::fprintf(out, "    \"wall_2w_s\": %.3f,\n", pmetro.wall_2);
  std::fprintf(out, "    \"wall_4w_s\": %.3f,\n", pmetro.wall_4);
  std::fprintf(out, "    \"speedup_4w\": %.3f,\n", pmetro.speedup_4());
  std::fprintf(out, "    \"identical\": %s,\n",
               pmetro.identical ? "true" : "false");
  std::fprintf(out, "    \"requests\": %llu,\n",
               static_cast<unsigned long long>(pmetro.requests));
  std::fprintf(out, "    \"rx_bytes\": %llu,\n",
               static_cast<unsigned long long>(pmetro.rx_bytes));
  std::fprintf(out, "    \"epochs\": %llu,\n",
               static_cast<unsigned long long>(pmetro.epochs));
  std::fprintf(out, "    \"crossings\": %llu\n",
               static_cast<unsigned long long>(pmetro.crossings));
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"parallel_tcp_metro\": {\n");
  std::fprintf(out, "    \"homes\": %zu,\n", ptcp.homes);
  std::fprintf(out, "    \"hw_threads\": %u,\n", ptcp.hw_threads);
  std::fprintf(out, "    \"wall_1w_s\": %.3f,\n", ptcp.wall_1);
  std::fprintf(out, "    \"wall_2w_s\": %.3f,\n", ptcp.wall_2);
  std::fprintf(out, "    \"wall_4w_s\": %.3f,\n", ptcp.wall_4);
  std::fprintf(out, "    \"speedup_4w\": %.3f,\n", ptcp.speedup_4());
  std::fprintf(out, "    \"identical\": %s,\n",
               ptcp.identical ? "true" : "false");
  std::fprintf(out, "    \"conns\": %llu,\n",
               static_cast<unsigned long long>(ptcp.conns));
  std::fprintf(out, "    \"completed\": %llu,\n",
               static_cast<unsigned long long>(ptcp.completed));
  std::fprintf(out, "    \"mptcp_sessions\": %llu,\n",
               static_cast<unsigned long long>(ptcp.mptcp_sessions));
  std::fprintf(out, "    \"rx_bytes\": %llu,\n",
               static_cast<unsigned long long>(ptcp.rx_bytes));
  std::fprintf(out, "    \"retransmits\": %llu,\n",
               static_cast<unsigned long long>(ptcp.retransmits));
  std::fprintf(out, "    \"timeouts\": %llu,\n",
               static_cast<unsigned long long>(ptcp.timeouts));
  std::fprintf(out, "    \"epochs\": %llu,\n",
               static_cast<unsigned long long>(ptcp.epochs));
  std::fprintf(out, "    \"crossings\": %llu,\n",
               static_cast<unsigned long long>(ptcp.crossings));
  std::fprintf(out, "    \"peak_bytes_per_home_4w\": %.1f\n",
               ptcp.peak_bytes_per_home_4);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"gates\": {\n");
  for (const Gate& g : gates) {
    if (g.limit_key != nullptr) {
      std::fprintf(out, "    \"%s\": %.*f,\n", g.limit_key, g.decimals,
                   g.limit);
    }
    if (g.hardware) {
      std::fprintf(out, "    \"%s_armed\": %s,\n", g.name,
                   hw_armed ? "true" : "false");
    }
    // A committed BENCH_CORE.json from a small box must never read as a
    // speedup pass, so a disarmed gate says "skipped" (ci.sh greps for
    // true-or-skipped).
    std::fprintf(out, "    \"%s_ok\": %s%s\n", g.name,
                 g.skipped(hw_armed) ? "\"skipped\""
                                     : (g.ok ? "true" : "false"),
                 &g == &gates.back() ? "" : ",");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"gates_passed\": %s\n", gates_passed ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::fprintf(stderr,
               "[bench_core] scheduler: %.2fM ev/s, %.2f allocs/event\n",
               hot.events_per_sec / 1e6, hot.allocs_per_event);
  std::fprintf(stderr, "[bench_core] churn: %.2fM ops/s, %.2f allocs/op\n",
               churn.ops_per_sec / 1e6, churn.allocs_per_op);
  std::fprintf(stderr,
               "[bench_core] packet hop: burst %.2fM pkts/s vs per-packet "
               "%.2fM pkts/s (median %.2fx of %d pairs, %.2f-%.2f), "
               "%.3f allocs/pkt\n",
               hop.packets_per_sec / 1e6, hop_pp.packets_per_sec / 1e6,
               burst_speedup, kBurstReps, hop_ab.speedups.front(),
               hop_ab.speedups.back(), hop.allocs_per_packet);
  std::fprintf(stderr,
               "[bench_core] idle hop: %.3f events per hop, %llu/%llu "
               "delivered\n",
               idle.events_per_hop,
               static_cast<unsigned long long>(idle.delivered),
               static_cast<unsigned long long>(idle.packets));
  std::fprintf(stderr,
               "[bench_core] tcp bulk: %llu/%llu bytes, %.2fM ev/s, "
               "%.3f allocs/segment\n",
               static_cast<unsigned long long>(bulk.received),
               static_cast<unsigned long long>(bulk.expected),
               bulk.events_per_sec / 1e6, bulk.allocs_per_segment);
  std::fprintf(stderr,
               "[bench_core] packet pool: %.2fM pooled ops/s (%.2f allocs) "
               "vs %.2fM malloc ops/s (%.2f allocs)\n",
               pooled.ops_per_sec / 1e6, pooled.allocs_per_op,
               malloced.ops_per_sec / 1e6, malloced.allocs_per_op);
  std::fprintf(stderr,
               "[bench_core] sweep: %zu seeds, jobs=%zu on %u hw threads, "
               "%.2fs serial vs %.2fs parallel (%.2fx), identical=%s\n",
               sweep.seeds, sweep.jobs, sweep.hw_threads, sweep.serial_s,
               sweep.parallel_s, sweep.speedup(),
               sweep.identical ? "yes" : "NO");
  std::fprintf(stderr,
               "[bench_core] metro build: %zu homes in %.2fs (%.0fk homes/s), "
               "%.0f bytes/home\n",
               metro.homes, metro.build_s, metro.homes_per_sec / 1e3,
               metro.bytes_per_home);
  std::fprintf(stderr,
               "[bench_core] durability: %llu records replayed in %.2fs "
               "(identical=%s), compaction %llu -> %llu replayed, "
               "incremental %.1f%% of full\n",
               static_cast<unsigned long long>(dur.recovery.replayed),
               dur.recovery.recover_s,
               dur.recovery.fingerprint_ok ? "yes" : "NO",
               static_cast<unsigned long long>(dur.compaction.replayed_before),
               static_cast<unsigned long long>(dur.compaction.replayed_after),
               dur.incremental.ratio() * 100);
  std::fprintf(stderr,
               "[bench_core] directory: %llu lookups %.2f%% ok (p99 %.2fs), "
               "acked %zu resolved %zu, stale %llu/%llu probes, "
               "sync %llu rounds %llu applied\n",
               static_cast<unsigned long long>(dir.stats.dir_lookups),
               dir.dir_success * 100, dir.dir_p99_s, dir.acked, dir.resolved,
               static_cast<unsigned long long>(dir.stats.dir_stale_served),
               static_cast<unsigned long long>(dir.stats.dir_silent_probes),
               static_cast<unsigned long long>(dir.sync.rounds),
               static_cast<unsigned long long>(dir.sync.entries_applied));
  std::fprintf(stderr,
               "[bench_core] directory clients: %llu not_found %llu "
               "unreachable %llu busy, %llu failovers %llu timeouts\n",
               static_cast<unsigned long long>(dir.dir_clients.not_found),
               static_cast<unsigned long long>(dir.dir_clients.unreachable),
               static_cast<unsigned long long>(dir.dir_clients.busy),
               static_cast<unsigned long long>(dir.dir_clients.failovers),
               static_cast<unsigned long long>(dir.dir_clients.timeouts));
  std::fprintf(stderr,
               "[bench_core] parallel metro: %zu homes, walls %.2f/%.2f/%.2f s "
               "(1/2/4 workers, %.2fx at 4), identical=%s\n",
               pmetro.homes, pmetro.wall_1, pmetro.wall_2, pmetro.wall_4,
               pmetro.speedup_4(), pmetro.identical ? "yes" : "NO");
  std::fprintf(stderr,
               "[bench_core] parallel TCP metro: %zu homes, walls "
               "%.2f/%.2f/%.2f s (1/2/4 workers, %.2fx at 4), identical=%s, "
               "%llu conns (%llu mptcp), %.0f peak bytes/home at 4\n",
               ptcp.homes, ptcp.wall_1, ptcp.wall_2, ptcp.wall_4,
               ptcp.speedup_4(), ptcp.identical ? "yes" : "NO",
               static_cast<unsigned long long>(ptcp.conns),
               static_cast<unsigned long long>(ptcp.mptcp_sessions),
               ptcp.peak_bytes_per_home_4);
  std::fprintf(stderr, "[bench_core] gates %s -> %s\n",
               gates_passed ? "PASSED" : "FAILED", out_path.c_str());

  return gates_passed ? 0 : 1;
}
