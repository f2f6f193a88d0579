// E19: the sharded, replicated HPoP directory under shard crash and
// network partition, at metro scale.
//
// Runs a compressed diurnal day (default 10k homes): a DirectoryCluster
// (6 shards, R=2 replication, per-shard WAL, anti-entropy) serves the
// metro's household lookups while the MetroDriver keeps thousands of
// households registered and renewing. Mid-day chaos, in two
// NON-overlapping windows so R=2 always leaves one live replica per
// household: one shard is crashed (process death; recovery replays its
// WAL, anti-entropy + eager replication close the gap it slept through),
// and a second shard is partitioned from the entire metro (its process
// stays up but no packet crosses the cut until it heals). A tail of
// "silent" households registers once with a short lease and goes dark —
// probes of those households past their expiry must come back empty,
// including against the crashed shard after it recovers WAL entries whose
// leases lapsed while it was down.
//
// Self-gating:
//   g_success    post-warmup lookup success >= 99% (and lookups happened)
//   g_p99        post-warmup lookup p99 bounded (failover, not hangs)
//   g_no_loss    every acked renewing registration still resolves at the
//                end of the day (zero acked-registration loss)
//   g_no_stale   no silent household served past lease expiry (stale==0,
//                with probes actually issued)
//   g_catchup    the crashed shard answers for every renewing household
//                in its replica sets (anti-entropy caught it up), and
//                sync rounds/applications actually happened
//   g_chaos      the crash restarted and the partition healed, and the
//                cut actually dropped packets
//   g_identical  a small same-seed day, run twice, reports byte-identical
//
// All stdout is deterministic (same seed => byte-identical; CI diffs two
// runs). Wall timings go to stderr. Flags: --homes N, --smoke.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "hpop/dir_cluster.hpp"
#include "metro/driver.hpp"
#include "metro/topology.hpp"
#include "metro/workload.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace hpop;
using util::kSecond;

constexpr util::Duration kDayLength = 60 * kSecond;
constexpr std::size_t kShards = 6;
constexpr std::uint32_t kCrashShard = 1;
constexpr std::uint32_t kCutShard = 2;
constexpr util::TimePoint kCrashAt = 18 * kSecond;
constexpr util::Duration kCrashDown = 8 * kSecond;   // back at 26 s
constexpr util::TimePoint kCutAt = 32 * kSecond;
constexpr util::Duration kCutFor = 12 * kSecond;     // heals at 44 s

struct DayResult {
  std::string report;
  double success = 0;
  double p99_s = 0;
  std::uint64_t lookups = 0;
  std::uint64_t silent_probes = 0;
  std::uint64_t stale_served = 0;
  std::size_t acked = 0;
  std::size_t resolved = 0;
  std::size_t crash_replicated = 0;  // renewing households on the crashed
  std::size_t crash_answers = 0;     // ... that it answers post-recovery
  std::uint64_t sync_rounds = 0;
  std::uint64_t sync_applied = 0;
  fault::ChaosController::Stats chaos;
};

DayResult run_day(std::size_t homes, std::uint64_t seed) {
  DayResult r;
  sim::Simulator sim;
  net::Network net{sim, util::Rng(seed)};
  metro::MetroParams params;
  params.homes = homes;
  util::Rng topo_rng(seed ^ 0x4d455452u);
  metro::MetroTopology topo = metro::build_metro(net, params, topo_rng);

  metro::ZipfCatalog catalog(512, 0.9);
  util::Rng plan_rng(seed ^ 0x504c414eu);
  // One flash crowd for load texture; no uplink outages — the chaos under
  // test is the directory's, and a dead access subtree would charge its
  // unreachable lookups against the directory's success gate.
  metro::EventPlan plan = metro::EventPlan::generate(
      topo, catalog, kDayLength, /*flash_crowds=*/1, /*outages=*/0, plan_rng);
  metro::WorkloadModel model(metro::DiurnalCurve::residential(kDayLength),
                             catalog, plan, /*base_rate_per_home=*/0.05);

  metro::MetroDriverConfig dconfig;
  dconfig.active_homes = homes;
  dconfig.peers = std::max<std::size_t>(8, homes / 128);
  dconfig.attic_pairs = 4;
  dconfig.attic_interval = 10 * kSecond;
  dconfig.horizon = kDayLength;
  dconfig.dir_shards = kShards;
  dconfig.dir_replication = 2;
  dconfig.dir_lease = 10 * kSecond;  // renew every 5 s
  dconfig.dir_anti_entropy = 2 * kSecond;
  dconfig.dir_registered_homes = std::min<std::size_t>(2000, homes / 2);
  dconfig.dir_silent_homes = 64;
  dconfig.dir_silent_lease_s = 3;  // expired long before the chaos windows
  dconfig.dir_warmup = 5 * kSecond;
  metro::MetroDriver driver(topo, model, dconfig, util::Rng(seed ^ 0xd1ce5u));
  driver.start();

  core::DirectoryCluster* cluster = driver.directory();
  fault::ChaosController chaos(sim, util::Rng(seed ^ 0xfa017u));
  cluster->register_with_chaos(chaos);
  // Two disjoint windows: crash [18, 26) and partition [32, 44). Never
  // both at once — with R=2 that would leave some households with zero
  // live replicas, which is a capacity statement, not a robustness one.
  chaos.crash_at(cluster->host(kCrashShard).name(), kCrashAt, kCrashDown);
  chaos.partition_at({&cluster->host(kCutShard)}, {}, kCutAt, kCutFor);

  sim.run_until(kDayLength + 10 * kSecond);

  r.report = driver.report();
  r.success = driver.dir_success_rate();
  r.p99_s = driver.dir_lookup_p99_s();
  r.lookups = driver.stats().dir_lookups;
  r.silent_probes = driver.stats().dir_silent_probes;
  r.stale_served = driver.stats().dir_stale_served;
  const auto sync = cluster->sync_totals();
  r.sync_rounds = sync.rounds;
  r.sync_applied = sync.entries_applied;
  r.chaos = chaos.stats();

  // Zero acked-registration loss + crashed-shard catch-up, against the
  // serving path itself (would_resolve == what a lookup would answer).
  const auto& regs = driver.dir_registrations();
  core::DirectoryShard* crashed = cluster->shard(kCrashShard);
  std::vector<std::uint32_t> replicas;
  for (std::size_t i = 0; i < driver.dir_renewing(); ++i) {
    if (!regs[i]->acked()) continue;
    ++r.acked;
    if (cluster->resolves(regs[i]->household())) ++r.resolved;
    cluster->ring().replicas(regs[i]->household(),
                             cluster->config().replication, replicas);
    for (const std::uint32_t s : replicas) {
      if (s != kCrashShard) continue;
      ++r.crash_replicated;
      if (crashed != nullptr && crashed->would_resolve(regs[i]->household())) {
        ++r.crash_answers;
      }
    }
  }
  return r;
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t homes = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--homes") == 0 && i + 1 < argc) {
      homes = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--homes N] [--smoke]\n", argv[0]);
      return 2;
    }
  }
  if (homes == 0) homes = smoke ? 1'000 : 10'000;

  constexpr double kSuccessMin = 0.99;
  constexpr double kP99MaxS = 3.0;

  std::fprintf(stderr, "[bench_directory] day (%zu homes)...\n", homes);
  Clock::time_point t0 = Clock::now();
  const DayResult day = run_day(homes, 42);
  std::fprintf(stderr, "[bench_directory] day done in %.2fs\n",
               seconds_since(t0));
  std::printf("bench_directory day %s\n", day.report.c_str());
  std::printf(
      "bench_directory chaos crashes=%llu restarts=%llu partitions=%llu "
      "heals=%llu cut_drops=%llu ae_rounds=%llu sync_applied=%llu\n",
      static_cast<unsigned long long>(day.chaos.crashes),
      static_cast<unsigned long long>(day.chaos.restarts),
      static_cast<unsigned long long>(day.chaos.partitions),
      static_cast<unsigned long long>(day.chaos.partition_heals),
      static_cast<unsigned long long>(day.chaos.partition_drops),
      static_cast<unsigned long long>(day.sync_rounds),
      static_cast<unsigned long long>(day.sync_applied));
  std::printf(
      "bench_directory invariants acked=%zu resolved=%zu "
      "crash_replicated=%zu crash_answers=%zu silent_probes=%llu stale=%llu\n",
      day.acked, day.resolved, day.crash_replicated, day.crash_answers,
      static_cast<unsigned long long>(day.silent_probes),
      static_cast<unsigned long long>(day.stale_served));

  // Same-seed byte-identity, proven in-process on a small day.
  std::fprintf(stderr, "[bench_directory] identity days...\n");
  t0 = Clock::now();
  const DayResult id_a = run_day(500, 7);
  const DayResult id_b = run_day(500, 7);
  std::fprintf(stderr, "[bench_directory] identity done in %.2fs\n",
               seconds_since(t0));

  const bool g_success = day.lookups > 0 && day.success >= kSuccessMin;
  const bool g_p99 = day.p99_s > 0 && day.p99_s <= kP99MaxS;
  const bool g_no_loss = day.acked > 0 && day.resolved == day.acked;
  const bool g_no_stale = day.silent_probes > 0 && day.stale_served == 0;
  const bool g_catchup = day.crash_replicated > 0 &&
                         day.crash_answers == day.crash_replicated &&
                         day.sync_rounds > 0 && day.sync_applied > 0;
  const bool g_chaos = day.chaos.crashes == 1 && day.chaos.restarts == 1 &&
                       day.chaos.partitions == 1 &&
                       day.chaos.partition_heals == 1 &&
                       day.chaos.partition_drops > 0;
  const bool g_identical = id_a.report == id_b.report;
  const bool passed = g_success && g_p99 && g_no_loss && g_no_stale &&
                      g_catchup && g_chaos && g_identical;
  std::printf(
      "bench_directory gates success=%s (%.4f>=%.2f) p99=%s (%.3fs<=%.1fs) "
      "no_loss=%s no_stale=%s catchup=%s chaos=%s identical=%s -> %s\n",
      g_success ? "ok" : "FAIL", day.success, kSuccessMin,
      g_p99 ? "ok" : "FAIL", day.p99_s, kP99MaxS, g_no_loss ? "ok" : "FAIL",
      g_no_stale ? "ok" : "FAIL", g_catchup ? "ok" : "FAIL",
      g_chaos ? "ok" : "FAIL", g_identical ? "ok" : "FAIL",
      passed ? "PASSED" : "FAILED");

  return passed ? 0 : 1;
}
