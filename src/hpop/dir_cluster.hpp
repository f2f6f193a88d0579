#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "hpop/directory.hpp"
#include "overload/breaker.hpp"
#include "util/retry.hpp"

namespace hpop::core {

/// Sharded, replicated HPoP directory (ROADMAP item 3, directory half).
///
/// N DirectoryShards sit behind a seeded consistent-hash ring; every
/// household maps to R replicas. Registrations are leases (the HPoP
/// renews; a lapsed lease is never served), each shard has its own WAL,
/// and periodic epoch-stamped anti-entropy lets a shard that recovered
/// from its WAL catch up on the registrations it missed while down. The
/// client-visible namespace (household names) stays decoupled from which
/// shard answers — clients walk the same ring and fail over between
/// replicas with the shared RetryPolicy/CircuitBreaker machinery. A single
/// DirectoryServer is a one-shard ring, served by the same client and
/// registration.

// --- Consistent-hash ring -------------------------------------------------

/// Seeded ring of virtual nodes. Both shards and clients build the same
/// ring from (shards, seed, vnodes), so replica sets agree everywhere
/// without any metadata exchange.
class HashRing {
 public:
  /// The seed and virtual-node count every DirectoryCluster builds its
  /// ring with.
  static constexpr std::uint64_t kSeed = 0x52494e47;  // "RING"
  static constexpr int kVnodes = 16;

  HashRing() = default;
  explicit HashRing(std::size_t shards, std::uint64_t seed = kSeed,
                    int vnodes = kVnodes);

  std::size_t shards() const { return shards_; }

  /// The first `r` distinct shards clockwise from hash(household).
  /// Deterministic; r is clamped to the shard count.
  void replicas(std::string_view household, std::size_t r,
                std::vector<std::uint32_t>& out) const;
  std::vector<std::uint32_t> replicas(std::string_view household,
                                      std::size_t r) const;

  std::uint64_t fingerprint() const;

 private:
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;  // point->shard
  std::size_t shards_ = 0;
};

// --- Replication wire messages --------------------------------------------

struct DirSyncEntry {
  std::string household;
  traversal::Advertisement advertisement;
  std::uint64_t version = 0;
  util::TimePoint expires_at = 0;
};

/// Shard -> shard state push: a single fresh registration (eager
/// replication) or a full anti-entropy round of every entry the receiver
/// replicates. Entries merge last-writer-wins by version.
struct DirSyncBatch : net::Payload {
  std::uint32_t from_shard = 0;
  std::uint64_t epoch = 0;  // sender's anti-entropy round counter
  bool full = false;        // full round (vs eager single-entry push)
  std::vector<DirSyncEntry> entries;
  std::size_t wire_size() const override {
    std::size_t n = 32;
    for (const DirSyncEntry& e : entries) {
      n += 24 + e.household.size() + e.advertisement.wire_bytes();
    }
    return n;
  }
};

struct DirSyncAck : net::Payload {
  std::uint32_t from_shard = 0;
  std::uint64_t epoch = 0;
  std::uint32_t applied = 0;  // LWW-won entries
  std::uint32_t total = 0;
  std::size_t wire_size() const override { return 32; }
};

// --- Shard ----------------------------------------------------------------

struct DirShardConfig {
  std::uint32_t shard_id = 0;
  std::size_t replication = 2;
  /// 0 disables the periodic push (eager replication still runs).
  util::Duration anti_entropy_interval = 5 * util::kSecond;
  util::Duration lease_ttl = DirectoryServer::kDefaultLeaseTtl;
};

/// One directory shard: a DirectoryServer that additionally replicates.
/// A fresh registration is eagerly pushed to the household's other
/// replicas; a periodic anti-entropy round pushes the full relevant state
/// to one peer at a time (round-robin), so a peer that was down — and
/// recovered only its own WAL — converges within a few rounds. Applied
/// sync entries are WAL-logged on the receiver: catch-up is durable.
class DirectoryShard : public DirectoryServer {
 public:
  DirectoryShard(transport::TransportMux& mux, const HashRing* ring,
                 DirShardConfig cfg);
  ~DirectoryShard() override;

  /// Peer endpoints indexed by shard id (the self slot is ignored).
  void set_peers(std::vector<net::Endpoint> peers);
  void start_anti_entropy();

  std::uint32_t shard_id() const { return cfg_.shard_id; }

  struct SyncStats {
    std::uint64_t rounds = 0;            // anti-entropy pushes initiated
    std::uint64_t entries_sent = 0;      // across eager + full pushes
    std::uint64_t eager_pushes = 0;      // fresh registrations replicated
    std::uint64_t batches_received = 0;
    std::uint64_t entries_applied = 0;   // LWW-won upserts from peers
  };
  const SyncStats& sync_stats() const { return sync_stats_; }

 protected:
  void handle_message(const std::shared_ptr<transport::TcpConnection>& conn,
                      const net::PayloadPtr& msg) override;
  void on_registered(const std::string& household,
                     const Registration& reg) override;

 private:
  void anti_entropy_tick();
  void push_full_state(std::uint32_t peer);
  void send_to_peer(std::uint32_t peer, net::PayloadPtr batch);
  void apply_batch(const DirSyncBatch& batch,
                   const std::shared_ptr<transport::TcpConnection>& conn);

  const HashRing* ring_;
  DirShardConfig cfg_;
  std::vector<net::Endpoint> peers_;
  std::vector<std::shared_ptr<transport::TcpConnection>> peer_conns_;
  std::uint32_t rr_next_ = 0;  // next anti-entropy target (round-robin)
  std::uint64_t sync_epoch_ = 0;
  SyncStats sync_stats_;
  sim::TimerId ae_timer_ = 0;
  bool ae_armed_ = false;
  std::vector<std::uint32_t> scratch_;
};

// --- Device-side: lookup with replica failover, and connect ---------------

struct DirClientConfig {
  std::size_t replication = 2;
  /// Per-attempt budget: a connect that hangs (partitioned shard) is
  /// aborted and the next replica tried.
  util::Duration attempt_timeout = 1500 * util::kMillisecond;
  /// Rounds over the whole replica set (max_attempts counts rounds).
  util::RetryPolicy retry{2, 300 * util::kMillisecond, 2.0, 0.5,
                          2 * util::kSecond, 0};
  overload::BreakerConfig breaker{};
};

/// Resolver that walks the household's replica set: per-shard circuit
/// breakers skip known-dead shards, timeouts/resets fail over to the next
/// replica, and whole-set failures back off with the shared RetryPolicy.
/// A found answer wins immediately; not_found is only final once every
/// reachable replica agreed (a freshly recovered shard may genuinely be
/// missing entries its replicas still hold).
class DirectoryClient {
 public:
  DirectoryClient(transport::TransportMux& mux, const HashRing* ring,
                  std::vector<net::Endpoint> shards, DirClientConfig cfg,
                  util::Rng rng);

  using LookupCallback =
      std::function<void(util::Result<traversal::Advertisement>)>;
  void lookup(const std::string& household, LookupCallback cb);

  /// Full flow: resolve the household and produce a TCP connection to its
  /// HPoP service. When the advertisement asks for a rendezvous, the
  /// replica that answered the lookup relays it (its entry holds the
  /// HPoP's control connection), bounded by attempt_timeout. This is the
  /// "connect to home from anywhere" primitive every HPoP application
  /// builds on.
  using ConnectCallback = std::function<void(
      util::Result<std::shared_ptr<transport::TcpConnection>>)>;
  void connect(const std::string& household, ConnectCallback cb);

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t ok = 0;
    std::uint64_t not_found = 0;
    std::uint64_t busy = 0;         // every replica shed
    std::uint64_t unreachable = 0;  // every replica + retry round failed
    std::uint64_t failovers = 0;    // attempts beyond the first replica
    std::uint64_t timeouts = 0;     // per-attempt timer fired
    std::uint64_t breaker_skips = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// lookup, also naming the shard that answered (on success only).
  using ResolveCallback = std::function<void(
      util::Result<traversal::Advertisement>, std::uint32_t shard)>;
  void resolve(const std::string& household, ResolveCallback cb);
  void rendezvous_and_connect(const traversal::Advertisement& adv,
                              const std::string& household,
                              std::uint32_t shard, ConnectCallback cb);

  struct Pending;
  void attempt(const std::shared_ptr<Pending>& p);
  void next_attempt(const std::shared_ptr<Pending>& p);

  transport::TransportMux& mux_;
  const HashRing* ring_;
  std::vector<net::Endpoint> shards_;
  DirClientConfig cfg_;
  util::Rng rng_;
  std::vector<overload::CircuitBreaker> breakers_;  // one per shard
  std::uint64_t next_txn_ = 1;
  Stats stats_;
};

// --- HPoP-side: sharded registration with renewal and failover -------------

struct DirRegistrationConfig {
  std::size_t replication = 2;
  std::uint32_t lease_s = 0;  // 0 asks for the shard's default TTL
  /// Renew at half the granted lease. Off = register once (a silent HPoP
  /// whose lease must lapse — the stale-advertisement probe in benches).
  bool auto_renew = true;
  util::Duration ack_timeout = 2 * util::kSecond;
  util::RetryPolicy retry{6, 500 * util::kMillisecond, 2.0, 0.5,
                          4 * util::kSecond, 0};
};

/// Keeps a household registered against its replica set by running an
/// independent register/renew loop against EVERY replica: each loop treats
/// a missing DirRegisterAck as failure and retries with backoff, and
/// renews at half-lease while auto_renew is on. Client-driven replication
/// keeps each live replica's lease client-fresh, so a lookup never finds
/// only expired copies just because the one replica taking writes got cut
/// off — anti-entropy only has to repair replicas that were down, not
/// carry the steady-state freshness. An ack means the entry is WAL-durable
/// on at least one replica — the zero acked-registration-loss invariant
/// benches gate on. With `reach` set, a rendezvous request arriving on any
/// loop's control connection punches the NAT and is answered ready.
class DirectoryRegistration {
 public:
  DirectoryRegistration(transport::TransportMux& mux, const HashRing* ring,
                        std::vector<net::Endpoint> shards,
                        std::string household, DirRegistrationConfig cfg,
                        util::Rng rng,
                        traversal::ReachabilityManager* reach = nullptr);
  ~DirectoryRegistration();

  void register_advertisement(const traversal::Advertisement& adv);

  struct Stats {
    std::uint64_t acks = 0;
    std::uint64_t renews = 0;
    std::uint64_t failovers = 0;  // retries after a failed/timed-out ack
    std::uint64_t ack_timeouts = 0;
  };
  const Stats& stats() const { return stats_; }
  bool acked() const { return stats_.acks > 0; }
  util::TimePoint last_ack_at() const { return last_ack_at_; }
  std::uint32_t granted_lease_s() const { return granted_lease_s_; }
  const std::string& household() const { return household_; }

 private:
  /// One register/renew loop per replica, failing and retrying alone.
  struct ReplicaLoop {
    std::uint32_t shard = 0;
    std::shared_ptr<transport::TcpConnection> control;
    std::uint64_t awaiting_txn = 0;
    sim::TimerId ack_timer = 0;
    bool ack_armed = false;
    sim::TimerId next_timer = 0;  // renewal or retry backoff
    bool next_armed = false;
    int attempt = 0;  // consecutive failures since the last ack
  };
  void attempt_register(std::size_t li);
  void fail_attempt(std::size_t li);
  void cancel_timers();

  transport::TransportMux& mux_;
  const HashRing* ring_;
  std::vector<net::Endpoint> shards_;
  std::string household_;
  DirRegistrationConfig cfg_;
  util::Rng rng_;
  traversal::ReachabilityManager* reach_;
  std::vector<std::uint32_t> replicas_;
  std::vector<ReplicaLoop> loops_;
  traversal::Advertisement adv_{};
  std::uint64_t next_txn_ = 1;
  util::TimePoint last_ack_at_ = 0;
  std::uint32_t granted_lease_s_ = 0;
  Stats stats_;
};

// --- Cluster owner ---------------------------------------------------------

/// Every shard listens on DirectoryServer::kDefaultPort, and the ring is
/// HashRing(shards) with its default seed and virtual nodes.
struct DirClusterConfig {
  std::size_t shards = 4;
  std::size_t replication = 2;
  util::Duration lease_ttl = 30 * util::kSecond;
  util::Duration anti_entropy_interval = 5 * util::kSecond;
};

/// Owns the shard processes: per shard a StorageDevice, a WAL on it, a
/// TransportMux on the given host, and the DirectoryShard itself. Knows
/// how to die and come back: register_with_chaos() wires crash/restart
/// callbacks that destroy the process image (device crashes first) and
/// rebuild it from the WAL, after which anti-entropy repairs the gap.
class DirectoryCluster {
 public:
  DirectoryCluster(std::vector<net::Host*> hosts, DirClusterConfig cfg,
                   util::Rng rng);
  ~DirectoryCluster() = default;
  DirectoryCluster(const DirectoryCluster&) = delete;
  DirectoryCluster& operator=(const DirectoryCluster&) = delete;

  const HashRing& ring() const { return ring_; }
  const DirClusterConfig& config() const { return cfg_; }
  std::size_t shards() const { return slots_.size(); }
  /// Null while the shard is crashed.
  DirectoryShard* shard(std::size_t i) { return slots_[i].shard.get(); }
  const DirectoryShard* shard(std::size_t i) const {
    return slots_[i].shard.get();
  }
  net::Host& host(std::size_t i) { return *slots_[i].host; }
  durable::StorageDevice& device(std::size_t i) { return *slots_[i].device; }
  std::vector<net::Endpoint> endpoints() const;
  DirClientConfig client_config() const;

  /// Registers every shard host as a crashable node (name = host name)
  /// with its device attached, so a FaultPlan crash against the host
  /// loses the process and recovers from the WAL.
  void register_with_chaos(fault::ChaosController& chaos);

  /// Serving-path oracle, no network: would some live shard in the
  /// household's replica set answer a lookup right now? (Entry present
  /// and lease unexpired.)
  bool resolves(const std::string& household) const;

  std::uint64_t fingerprint() const;
  DirectoryShard::SyncStats sync_totals() const;

 private:
  struct ShardSlot {
    net::Host* host = nullptr;
    std::unique_ptr<durable::StorageDevice> device;
    std::unique_ptr<durable::Wal> wal;
    std::unique_ptr<transport::TransportMux> mux;
    std::unique_ptr<DirectoryShard> shard;
  };
  void build_shard(std::size_t i, bool recover);

  DirClusterConfig cfg_;
  HashRing ring_;
  std::vector<ShardSlot> slots_;
};

}  // namespace hpop::core
