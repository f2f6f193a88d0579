#pragma once

#include <cstdint>
#include <string>

#include "util/time.hpp"

namespace hpop::psim {

/// A sharded metro day: build_metro + plan_shards + Engine, with a raw
/// UDP request/response workload (per-home Poisson arrivals shaped by the
/// residential diurnal curve and flash crowds; origins answer each request
/// with a train of 1200-byte chunks). Transport stays packet-level on
/// purpose: every per-home state is owned by the home's shard, so the day
/// parallelizes without sharing anything but the boundary buffers. The same
/// day over TCP/MPTCP is run_tcp_day (psim/tcp_day.hpp), which takes this
/// config plus one field.
struct DayConfig {
  std::size_t homes = 10'000;
  std::size_t workers = 1;
  std::uint64_t seed = 42;
  /// Compressed day length (diurnal shape scaled into it).
  util::Duration day = 20 * util::kSecond;
  /// Requests/sec per home at diurnal multiplier 1.0.
  double base_rate_per_home = 0.05;
  std::size_t catalog_objects = 2'000;
  double zipf_skew = 0.9;
  std::size_t flash_crowds = 2;
  int burst_limit = 8;
  /// Adds a DSLAM crash in PoP 1's shard and a partition cut inside PoP
  /// 2's shard (skipped when the topology has fewer than 3 PoPs).
  bool chaos = true;
};

/// What every sharded day returns, whatever carries its requests.
struct ShardedDayResult {
  /// Deterministic multi-line report: byte-identical for a fixed (config
  /// minus workers) across any worker count.
  std::string report;
  double wall_s = 0;

  std::uint64_t rx_bytes = 0;  // response bytes received by homes
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t crossings = 0;
  /// Always 0: a crossing buffers a whole epoch, so nothing spills. Kept,
  /// with the report's `spilled=` token, because perfbench reads it and
  /// day reports must not change.
  std::uint64_t spilled = 0;
  std::uint64_t chaos_crashes = 0;
  std::uint64_t chaos_restarts = 0;
  std::uint64_t partition_drops = 0;
};

struct DayResult : ShardedDayResult {
  std::uint64_t requests = 0;
  std::uint64_t chunks = 0;  // response packets sent by origins
  std::uint64_t rx_pkts = 0;
};

DayResult run_day(const DayConfig& cfg);

}  // namespace hpop::psim
