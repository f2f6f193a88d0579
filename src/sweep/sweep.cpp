#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "attic/store.hpp"
#include "durable/device.hpp"
#include "durable/wal.hpp"
#include "metro/driver.hpp"
#include "psim/day.hpp"
#include "psim/tcp_day.hpp"
#include "sweep/worlds.hpp"
#include "util/hash.hpp"

namespace hpop::sweep {

using util::kMbps;
using util::kMillisecond;
using util::kSecond;

namespace {

// ------------------------------------------- chaos: fetches vs a flapping link

std::string run_chaos(std::uint64_t seed) {
  const FlapResult r = run_flap_fetches(
      {.net_seed = seed,
       .client_seed = seed ^ 0x9e3779b9u,
       .chaos_seed = seed ^ 0x51ed2701u});
  char line[160];
  std::snprintf(line, sizeof line,
                "chaos seed=%llu ok=%d/10 retries=%llu bytes=%llu "
                "last_ok_s=%.6f",
                static_cast<unsigned long long>(seed), r.ok,
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.bytes),
                static_cast<double>(r.last_ok) / kSecond);
  return line;
}

// --------------------------- flash crowd: open loop vs one admission'd peer

std::string run_flash_crowd(std::uint64_t seed) {
  const StampedeResult r = run_stampede({.net_seed = seed,
                                         .origin_seed = seed ^ 99u,
                                         .peer_seed = seed ^ 1000u,
                                         .client_seed = seed * 7919u,
                                         .clients = 8,
                                         .issue_every = 250 * kMillisecond,
                                         .warmup = 3 * kSecond,
                                         .horizon = 12 * kSecond,
                                         .object_kb = 100,
                                         .peer_uplink = 20 * kMbps});
  char line[192];
  std::snprintf(line, sizeof line,
                "flash seed=%llu warmed=%d ok=%d/%d goodput=%llu sheds=%llu "
                "p50_s=%.6f p99_s=%.6f",
                static_cast<unsigned long long>(seed), r.warmed ? 1 : 0, r.ok,
                r.issued, static_cast<unsigned long long>(r.goodput_bytes),
                static_cast<unsigned long long>(r.sheds), r.percentile(0.50),
                r.percentile(0.99));
  return line;
}

// ----------------------------------- rampup: slow start on an empty fat path

std::string run_rampup(std::uint64_t seed) {
  // The seed picks the RTT (the interesting axis) plus the loss RNG stream.
  const double rtt_ms = 10.0 + 10.0 * static_cast<double>(seed % 8);
  const RampResult r =
      measure_ramp({.seed = seed, .rtt = util::milliseconds(rtt_ms)});
  char line[160];
  std::snprintf(line, sizeof line,
                "rampup seed=%llu rtt_ms=%.0f rtts_to_90pct=%d "
                "bytes_at_90pct=%llu",
                static_cast<unsigned long long>(seed), rtt_ms,
                r.rtts_to_saturation,
                static_cast<unsigned long long>(r.bytes_at_saturation));
  return line;
}

// ------------------- metro: a small diurnal metro day with crowd + outage

/// The sweeper's metro: 48 jittered homes on 6 DSLAMs under 2 PoPs, a
/// 20-second day.
metro::ServiceDayParams small_day(std::uint64_t seed) {
  metro::ServiceDayParams p;
  p.seed = seed;
  p.topology.homes = 48;
  p.topology.homes_per_dslam = 8;
  p.topology.dslams_per_pop = 3;
  p.topology.access_rate_jitter = 0.1;
  p.catalog_objects = 64;
  p.base_rate_per_home = 0.5;
  p.driver.peers = 4;
  p.driver.attic_pairs = 2;
  p.driver.attic_interval = 4 * kSecond;
  p.driver.horizon = 20 * kSecond;
  return p;
}

std::string run_metro(std::uint64_t seed) {
  metro::ServiceDayParams p = small_day(seed);
  p.driver.active_homes = 32;
  p.outages = 1;
  const metro::ServiceDayResult r = metro::run_service_day(p);
  char line[320];
  std::snprintf(line, sizeof line,
                "metro seed=%llu fp=%016llx crowds=%zu outages=%zu %s",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.topology_fp),
                r.plan.flash_crowd_count(), r.plan.outage_count(),
                r.report.c_str());
  return line;
}

// ------------- durable: a WAL'd attic through seeded torn crashes

std::string run_durable(std::uint64_t seed) {
  constexpr std::size_t kOps = 240;
  constexpr std::size_t kCrashEvery = 48;
  constexpr std::size_t kPaths = 16;

  durable::StorageDevice dev("sweep-disk", util::Rng(seed ^ 0xD15Cu));
  util::Rng faults(seed ^ 0xFA17u);
  auto wal = std::make_unique<durable::Wal>(dev, "attic.wal");
  auto store = std::make_unique<attic::AtticStore>(1u << 20);
  store->recover_from_wal(*wal);

  // Acked writes carry their etag: after every recovery each one must
  // still resolve — the zero acked-write-loss invariant, per seed.
  std::vector<std::pair<std::string, std::string>> acked;
  std::size_t failed = 0, crashes = 0, missing = 0;
  std::uint64_t replayed = 0, torn = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::string path = "/day/f" + std::to_string(i % kPaths);
    if (faults.uniform_index(19) == 0) dev.arm_partial_flush();
    const auto put = store->put(
        path, http::Body("v" + std::to_string(i) + "@" + std::to_string(seed)),
        static_cast<util::TimePoint>(i));
    if (put.ok()) {
      acked.emplace_back(path, put.value());
    } else {
      ++failed;  // not durable: the client never saw an ack
    }
    if ((i + 1) % kCrashEvery == 0) {
      if (faults.uniform_index(2) == 0) dev.arm_torn_write();
      dev.crash();
      ++crashes;
      wal = std::make_unique<durable::Wal>(dev, "attic.wal");
      store = std::make_unique<attic::AtticStore>(1u << 20);
      const auto stats = store->recover_from_wal(*wal);
      replayed += stats.records;
      if (stats.wall_records_truncated > 0) ++torn;
      for (const auto& [p, etag] : acked) {
        const auto got = store->history(p);
        bool found = false;
        if (got.ok()) {
          for (const auto& v : got.value()) found = found || v.etag == etag;
        }
        if (!found) ++missing;
      }
      if (crashes == 3) store->compact_wal();  // epoch snapshot mid-run
    }
  }

  char line[192];
  std::snprintf(line, sizeof line,
                "durable seed=%llu acked=%zu failed=%zu crashes=%zu "
                "replayed=%llu torn=%llu missing=%zu fp=%016llx",
                static_cast<unsigned long long>(seed), acked.size(), failed,
                crashes, static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(torn), missing,
                static_cast<unsigned long long>(store->fingerprint()));
  return line;
}

// ---- directory: sharded HPoP directory through shard crash + partition

std::string run_directory(std::uint64_t seed) {
  // No uplink outage (lookups need a live edge) but one access-subtree
  // partition, and one shard killed mid-day: the WAL brings it back, and
  // anti-entropy and the renewals close the gap it slept through.
  metro::ServiceDayParams p = small_day(seed);
  p.driver.active_homes = 24;
  p.driver.dir_shards = 3;
  p.driver.dir_lease = 6 * kSecond;
  p.driver.dir_registered_homes = 24;
  p.driver.dir_silent_homes = 4;
  p.driver.dir_silent_lease_s = 2;
  p.driver.dir_warmup = 3 * kSecond;
  p.partitions = 1;
  p.crash = metro::ShardWindow{static_cast<std::uint32_t>(seed % 3),
                               8 * kSecond, 4 * kSecond};
  const metro::ServiceDayResult r = metro::run_service_day(p);
  char line[448];
  std::snprintf(
      line, sizeof line,
      "directory seed=%llu fp=%016llx partitions=%llu heals=%llu "
      "cut_drops=%llu ae_rounds=%llu sync_applied=%llu acked=%zu "
      "resolved=%zu %s",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(r.cluster_fp),
      static_cast<unsigned long long>(r.chaos.partitions),
      static_cast<unsigned long long>(r.chaos.partition_heals),
      static_cast<unsigned long long>(r.chaos.partition_drops),
      static_cast<unsigned long long>(r.sync.rounds),
      static_cast<unsigned long long>(r.sync.entries_applied), r.acked,
      r.resolved, r.report.c_str());
  return line;
}

// ----- psim: the sharded parallel metro day, 2 workers, chaos in shards

std::string run_psim(std::uint64_t seed) {
  // Small world so a sweep over many seeds stays cheap; 2 workers so every
  // seed exercises the real cross-shard path (rings, barriers, drain
  // order), not the degenerate serial mode. The day report itself is
  // worker-count invariant, so its fingerprint is a pure function of the
  // seed — the property the jobs=1-vs-jobs=N CI diff leans on.
  psim::DayConfig cfg;
  cfg.homes = 2'000;
  cfg.workers = 2;
  cfg.seed = seed;
  cfg.day = 5 * kSecond;
  cfg.base_rate_per_home = 0.2;
  const psim::DayResult r = psim::run_day(cfg);

  const std::uint64_t fp =
      util::Fnv1a{}.bytes(r.report.data(), r.report.size()).h;

  char line[256];
  std::snprintf(line, sizeof line,
                "psim seed=%llu requests=%llu chunks=%llu rx_bytes=%llu "
                "epochs=%llu crossings=%llu spilled=%llu crashes=%llu "
                "cut_drops=%llu report_fp=%016llx",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.chunks),
                static_cast<unsigned long long>(r.rx_bytes),
                static_cast<unsigned long long>(r.epochs),
                static_cast<unsigned long long>(r.crossings),
                static_cast<unsigned long long>(r.spilled),
                static_cast<unsigned long long>(r.chaos_crashes),
                static_cast<unsigned long long>(r.partition_drops),
                static_cast<unsigned long long>(fp));
  return line;
}

// ----- psim_tcp: the same sharded day over real TCP/MPTCP transport

std::string run_psim_tcp(std::uint64_t seed) {
  // Endpoint state (cwnd, SACK scoreboards, RTO timers) lives on the
  // shard that owns the endpoint; only serialized segments cross the
  // boundary rings. As with run_psim, the report is worker-count
  // invariant, so its fingerprint depends on the seed alone.
  psim::TcpDayConfig cfg;
  cfg.homes = 2'000;
  cfg.workers = 2;
  cfg.seed = seed;
  cfg.day = 5 * kSecond;
  cfg.base_rate_per_home = 0.2;
  const psim::TcpDayResult r = psim::run_tcp_day(cfg);

  const std::uint64_t fp =
      util::Fnv1a{}.bytes(r.report.data(), r.report.size()).h;

  char line[256];
  std::snprintf(line, sizeof line,
                "psim_tcp seed=%llu conns=%llu completed=%llu mptcp=%llu "
                "rx_bytes=%llu retx=%llu crossings=%llu crashes=%llu "
                "cut_drops=%llu report_fp=%016llx",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.conns),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.mptcp_sessions),
                static_cast<unsigned long long>(r.rx_bytes),
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.crossings),
                static_cast<unsigned long long>(r.chaos_crashes),
                static_cast<unsigned long long>(r.partition_drops),
                static_cast<unsigned long long>(fp));
  return line;
}

}  // namespace

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kChaos: return "chaos";
    case Scenario::kFlashCrowd: return "flash";
    case Scenario::kRampup: return "rampup";
    case Scenario::kMetro: return "metro";
    case Scenario::kDurable: return "durable";
    case Scenario::kDirectory: return "directory";
    case Scenario::kPsim: return "psim";
    case Scenario::kPsimTcp: return "psim_tcp";
  }
  return "?";
}

std::optional<Scenario> scenario_from_string(std::string_view name) {
  for (const Scenario s : kScenarios) {
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

std::string run_scenario(Scenario s, std::uint64_t seed) {
  switch (s) {
    case Scenario::kChaos: return run_chaos(seed);
    case Scenario::kFlashCrowd: return run_flash_crowd(seed);
    case Scenario::kRampup: return run_rampup(seed);
    case Scenario::kMetro: return run_metro(seed);
    case Scenario::kDurable: return run_durable(seed);
    case Scenario::kDirectory: return run_directory(seed);
    case Scenario::kPsim: return run_psim(seed);
    case Scenario::kPsimTcp: return run_psim_tcp(seed);
  }
  return {};
}

std::vector<std::string> run_sweep(Scenario s,
                                   const std::vector<std::uint64_t>& seeds,
                                   std::size_t jobs) {
  // Slot i is owned by seed i; merging is just reading the vector in
  // order, so the schedule can never reorder the report.
  std::vector<std::string> results(seeds.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < seeds.size(); i = next++) {
      results[i] = run_scenario(s, seeds[i]);
    }
  };
  if (jobs <= 1) {
    work();  // every seed inline, in seed order
    return results;
  }
  {
    // jthread joins on destruction, so every worker is done with `results`
    // before it is read, on every exit path.
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < std::min(jobs, seeds.size()); ++t) {
      threads.emplace_back(work);
    }
  }
  return results;
}

}  // namespace hpop::sweep
