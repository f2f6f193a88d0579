#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "hpop/dir_cluster.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "metro/topology.hpp"
#include "metro/workload.hpp"
#include "nocdn/loader.hpp"
#include "nocdn/origin.hpp"
#include "nocdn/peer.hpp"
#include "transport/mux.hpp"
#include "util/rng.hpp"

namespace hpop::metro {

/// Knobs for the metro traffic driver. Roles are disjoint — one
/// TransportMux per host — so the driver lays homes out as
/// [active browsers | idle | peers (spread) | attic pairs (tail)] and
/// clamps the counts to fit the built topology.
struct MetroDriverConfig {
  /// Homes that browse (generate page loads). The rest are dark or hold
  /// one of the other roles.
  std::size_t active_homes = 1000;
  /// Homes recruited as NoCDN peer proxies ("well-connected users").
  std::size_t peers = 16;
  /// Home pairs running attic-style record sync (PUT then read-back GET of
  /// a record between two homes, the §IV-A in-home storage traffic shape).
  std::size_t attic_pairs = 8;
  util::Duration attic_interval = 5 * util::kSecond;
  /// No new arrivals are scheduled at or past the horizon; in-flight page
  /// loads are allowed to finish (run the sim a little longer).
  util::TimePoint horizon = 60 * util::kSecond;

  /// --- Sharded HPoP directory (off while dir_shards == 0) ---
  /// Shard hosts are reserved from the layout between the peer region and
  /// the attic tail. The first dir_registered_homes active homes register
  /// their household ("h<id>") against the cluster and auto-renew; the
  /// LAST dir_silent_homes of those instead register once with a short
  /// lease and go silent — the stale-advertisement probes.
  std::size_t dir_shards = 0;
  std::size_t dir_replication = 2;
  util::Duration dir_lease = 15 * util::kSecond;
  util::Duration dir_anti_entropy = 2 * util::kSecond;
  std::size_t dir_registered_homes = 256;  // clamped to active_homes
  std::size_t dir_silent_homes = 0;
  std::uint32_t dir_silent_lease_s = 2;
  /// Lookups before this settle-in point are issued but not counted, so
  /// the success-rate gate measures steady state, not the registration
  /// storm racing the first arrivals.
  util::TimePoint dir_warmup = 5 * util::kSecond;
};

/// Wires the NoCDN service stack onto a built metro and drives it with a
/// WorkloadModel: the origin on topo.origins[0], peer proxies on a spread
/// of homes, per-home Poisson page-load arrivals (diurnal + flash-crowd
/// modulated), and background attic record sync. Outages are NOT executed
/// here — compose them via model.plan().to_fault_plan(topo) and a
/// ChaosController so chaos stays a separate concern.
///
/// Deterministic: one Rng, consumed in simulator event order. All stats
/// come from per-object counters (never the thread-local telemetry
/// registry), so reports are safe for byte-identity gates.
class MetroDriver {
 public:
  MetroDriver(MetroTopology& topo, WorkloadModel model,
              MetroDriverConfig config, util::Rng rng);
  ~MetroDriver();
  MetroDriver(const MetroDriver&) = delete;
  MetroDriver& operator=(const MetroDriver&) = delete;

  /// Builds the service stack and schedules the first arrivals. Call once;
  /// then run the simulator.
  void start();

  struct Stats {
    std::uint64_t arrivals = 0;
    std::uint64_t loads_ok = 0;
    std::uint64_t loads_failed = 0;
    std::uint64_t bytes_from_peers = 0;
    std::uint64_t bytes_from_origin = 0;
    double load_time_s_total = 0.0;
    std::uint64_t attic_puts = 0;
    std::uint64_t attic_gets = 0;
    std::uint64_t attic_failures = 0;
    // Directory lookups counted after dir_warmup.
    std::uint64_t dir_lookups = 0;
    std::uint64_t dir_ok = 0;
    std::uint64_t dir_busy = 0;
    std::uint64_t dir_failed = 0;  // unreachable or (wrongly) not_found
    std::uint64_t dir_silent_probes = 0;
    // Lookups of a silent household answered found PAST its lease expiry
    // (+1 s grace). The stale-advertisement invariant: must stay 0.
    std::uint64_t dir_stale_served = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Share of content bytes served by peers instead of the origin — the
  /// NoCDN offload the paper's economics rest on.
  double offload() const;
  /// Peer-proxy cache hit rate, summed over all peers.
  double peer_hit_rate() const;
  /// One deterministic summary line (no timings, no addresses-of).
  std::string report() const;

  nocdn::OriginServer& origin() { return *origin_server_; }
  const MetroDriverConfig& config() const { return config_; }

  /// Null while the directory is disabled (dir_shards == 0).
  core::DirectoryCluster* directory() { return cluster_.get(); }
  const core::DirectoryCluster* directory() const { return cluster_.get(); }
  /// The household registrations the driver keeps alive (renewing first,
  /// then the silent ones).
  const std::vector<std::unique_ptr<core::DirectoryRegistration>>&
  dir_registrations() const {
    return dir_regs_;
  }
  std::size_t dir_renewing() const { return dir_renewing_; }
  /// Post-warmup lookup success rate (ok / counted; 1.0 when none).
  double dir_success_rate() const;
  /// p99 of post-warmup lookup completion times, seconds (0 when none).
  double dir_lookup_p99_s() const;
  /// Sum of every per-home lookup client's counters (includes warmup
  /// traffic) — the failure breakdown behind dir_failed: not_found vs
  /// unreachable, plus failover and timeout volume.
  core::DirectoryClient::Stats dir_client_totals() const;

 private:
  struct PeerSlot {
    std::unique_ptr<transport::TransportMux> mux;
    std::unique_ptr<nocdn::PeerProxy> proxy;
  };
  struct ClientSlot {
    std::unique_ptr<transport::TransportMux> mux;
    std::unique_ptr<http::HttpClient> http;
    std::unique_ptr<nocdn::LoaderClient> loader;
    std::unique_ptr<core::DirectoryClient> dir;
  };
  struct AtticPair {
    std::size_t store_home = 0;
    std::size_t client_home = 0;
    std::unique_ptr<transport::TransportMux> store_mux;
    std::unique_ptr<http::HttpServer> store;
    std::unique_ptr<transport::TransportMux> client_mux;
    std::unique_ptr<http::HttpClient> client;
    std::uint64_t seq = 0;
  };

  std::size_t peer_home(std::size_t i) const;
  ClientSlot& ensure_client(std::size_t home);
  void schedule_next(std::size_t home);
  void on_arrival(std::size_t home);
  void attic_tick(std::size_t pair);
  void start_directory();
  void dir_probe(ClientSlot& slot);

  MetroTopology& topo_;
  WorkloadModel model_;
  MetroDriverConfig config_;
  util::Rng rng_;
  sim::Simulator& sim_;

  std::unique_ptr<transport::TransportMux> origin_mux_;
  std::unique_ptr<nocdn::OriginServer> origin_server_;
  std::vector<PeerSlot> peers_;
  std::vector<ClientSlot> clients_;  // [home id], lazily populated
  std::vector<AtticPair> attic_;
  std::size_t peer_region_begin_ = 0;
  std::size_t peer_stride_ = 1;

  std::unique_ptr<core::DirectoryCluster> cluster_;
  std::vector<std::unique_ptr<core::DirectoryRegistration>> dir_regs_;
  std::size_t dir_region_begin_ = 0;  // first shard-host home index
  std::size_t dir_renewing_ = 0;      // dir_regs_[0, dir_renewing_) renew
  std::vector<util::Duration> dir_latencies_;  // post-warmup completions

  Stats stats_;
};

/// A directory shard taken out of service for a window of the day.
struct ShardWindow {
  std::uint32_t shard = 0;
  util::TimePoint at = 0;
  util::Duration length = 0;
};

/// One diurnal NoCDN service day on a freshly built metro, the world behind
/// E17 (bench_metro), E19 (bench_directory), bench_core's directory day and
/// the sweeper's `metro` and `directory` scenarios. Each field is one those
/// callers set differently. What they all share is fixed inside: Zipf skew
/// 0.9, one flash crowd, and the RNG streams derived from `seed`. The
/// defaults are E17's and E19's: a 60 s day (the driver's default horizon),
/// 512 objects and 0.05 page loads per home per second at the base rate.
struct ServiceDayParams {
  std::uint64_t seed = 42;
  MetroParams topology;
  /// Roles and directory. `driver.horizon` is the length of the day: the
  /// diurnal period and the event plan's horizon as well.
  MetroDriverConfig driver;
  std::size_t catalog_objects = 512;
  double base_rate_per_home = 0.05;
  /// Uplink outages and access-subtree partitions in the event plan.
  std::size_t outages = 0;
  std::size_t partitions = 0;
  /// A directory shard crashed (it restarts from its WAL), and one cut off
  /// from the whole metro. Each must name a shard the driver built (after
  /// its clamp to the population); the day stops on an HPOP_CHECK if not.
  std::optional<ShardWindow> crash;
  std::optional<ShardWindow> cut;
  /// How long the simulator runs past the horizon so loads in flight end.
  util::Duration drain = 10 * util::kSecond;
};

struct ServiceDayResult {
  std::string report;  // MetroDriver::report()
  MetroDriver::Stats stats;
  double offload = 0;
  EventPlan plan;
  std::uint64_t topology_fp = 0;
  fault::ChaosController::Stats chaos;
  // The directory's figures; zero while it is off.
  double dir_success = 0;
  double dir_p99_s = 0;
  core::DirectoryClient::Stats dir_clients;
  core::DirectoryShard::SyncStats sync;
  std::uint64_t cluster_fp = 0;
  /// Acked renewing registrations, and those that still resolve at the end.
  std::size_t acked = 0;
  std::size_t resolved = 0;
  /// Of those, the ones the crashed shard replicates, and the ones it
  /// answers for after its recovery.
  std::size_t crash_replicated = 0;
  std::size_t crash_answers = 0;
};

/// Builds the metro, its event plan, workload and driver, wires chaos in
/// (the directory's nodes, then the plan's outages and partitions, then the
/// crash, then the cut), and runs the day to `driver.horizon + drain`.
ServiceDayResult run_service_day(const ServiceDayParams& p);

}  // namespace hpop::metro
