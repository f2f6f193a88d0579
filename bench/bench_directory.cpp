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

#include "metro/driver.hpp"

namespace {

using namespace hpop;
using util::kSecond;

// Two disjoint windows: crash [18, 26) and partition [32, 44). Never both
// at once: with R=2 that would leave some households with zero live
// replicas, which is a capacity statement, not a robustness one.
constexpr metro::ShardWindow kCrash{1, 18 * kSecond, 8 * kSecond};
constexpr metro::ShardWindow kCut{2, 32 * kSecond, 12 * kSecond};

/// E19's day: the default 60-second service day with one flash crowd for
/// load texture and no uplink outage. The chaos under test is the
/// directory's, and a dead access subtree would charge its unreachable
/// lookups against the directory's success gate.
metro::ServiceDayResult run_day(std::size_t homes, std::uint64_t seed) {
  metro::ServiceDayParams p;
  p.seed = seed;
  p.topology.homes = homes;
  p.driver.active_homes = homes;
  p.driver.peers = std::max<std::size_t>(8, homes / 128);
  p.driver.attic_pairs = 4;
  p.driver.attic_interval = 10 * kSecond;
  p.driver.dir_shards = 6;
  p.driver.dir_lease = 10 * kSecond;  // renew every 5 s
  p.driver.dir_registered_homes = std::min<std::size_t>(2000, homes / 2);
  p.driver.dir_silent_homes = 64;
  p.driver.dir_silent_lease_s = 3;  // expired long before the chaos windows
  p.crash = kCrash;
  p.cut = kCut;
  return metro::run_service_day(p);
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
  const metro::ServiceDayResult day = run_day(homes, 42);
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
      static_cast<unsigned long long>(day.sync.rounds),
      static_cast<unsigned long long>(day.sync.entries_applied));
  std::printf(
      "bench_directory invariants acked=%zu resolved=%zu "
      "crash_replicated=%zu crash_answers=%zu silent_probes=%llu stale=%llu\n",
      day.acked, day.resolved, day.crash_replicated, day.crash_answers,
      static_cast<unsigned long long>(day.stats.dir_silent_probes),
      static_cast<unsigned long long>(day.stats.dir_stale_served));

  // Same-seed byte-identity, proven in-process on a small day.
  std::fprintf(stderr, "[bench_directory] identity days...\n");
  t0 = Clock::now();
  const metro::ServiceDayResult id_a = run_day(500, 7);
  const metro::ServiceDayResult id_b = run_day(500, 7);
  std::fprintf(stderr, "[bench_directory] identity done in %.2fs\n",
               seconds_since(t0));

  const bool g_success =
      day.stats.dir_lookups > 0 && day.dir_success >= kSuccessMin;
  const bool g_p99 = day.dir_p99_s > 0 && day.dir_p99_s <= kP99MaxS;
  const bool g_no_loss = day.acked > 0 && day.resolved == day.acked;
  const bool g_no_stale =
      day.stats.dir_silent_probes > 0 && day.stats.dir_stale_served == 0;
  const bool g_catchup = day.crash_replicated > 0 &&
                         day.crash_answers == day.crash_replicated &&
                         day.sync.rounds > 0 && day.sync.entries_applied > 0;
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
      g_success ? "ok" : "FAIL", day.dir_success, kSuccessMin,
      g_p99 ? "ok" : "FAIL", day.dir_p99_s, kP99MaxS, g_no_loss ? "ok" : "FAIL",
      g_no_stale ? "ok" : "FAIL", g_catchup ? "ok" : "FAIL",
      g_chaos ? "ok" : "FAIL", g_identical ? "ok" : "FAIL",
      passed ? "PASSED" : "FAILED");

  return passed ? 0 : 1;
}
