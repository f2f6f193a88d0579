#pragma once

#include <map>
#include <memory>
#include <string>

#include "durable/wal.hpp"
#include "overload/admission.hpp"
#include "traversal/reachability.hpp"
#include "transport/mux.hpp"
#include "util/symbol_map.hpp"

namespace hpop::core {

/// Directory wire messages. The directory is the fixed rendezvous point
/// that lets a household's devices find its HPoP "whether they are inside
/// or outside of their homes" (§III) — dynamic-DNS plus NAT-rendezvous
/// signalling.

struct DirRegister : net::Payload {
  std::string household;
  traversal::Advertisement advertisement;
  /// Requested lease in seconds; 0 asks for the server's default TTL.
  std::uint32_t lease_s = 0;
  /// Echoed in the DirRegisterAck so the HPoP can match its renewal.
  std::uint64_t txn = 0;
  std::size_t wire_size() const override {
    return 32 + household.size() + advertisement.wire_bytes();
  }
};

/// Directory -> HPoP: the registration is durable (WAL-synced) and the
/// lease clock is running. An HPoP that never sees an ack must assume the
/// registration was lost and retry (possibly against another shard).
struct DirRegisterAck : net::Payload {
  std::uint64_t txn = 0;
  bool ok = false;
  std::uint32_t lease_s = 0;  // granted lease (may differ from requested)
  std::size_t wire_size() const override { return 24; }
};

struct DirLookupRequest : net::Payload {
  std::string household;
  std::uint64_t txn = 0;
  std::size_t wire_size() const override { return 24 + household.size(); }
};

struct DirLookupResponse : net::Payload {
  std::uint64_t txn = 0;
  bool found = false;
  /// Overload shed: the directory exists and may know the household, but
  /// refused to answer right now. Retry after retry_after_s seconds.
  bool busy = false;
  std::uint32_t retry_after_s = 0;
  traversal::Advertisement advertisement;
  std::size_t wire_size() const override {
    // The advertisement only rides along on a hit; misses and sheds are
    // header-sized. Metering the payload honestly matters at metro scale
    // where lookup responses dominate directory bytes.
    return 24 + (found ? advertisement.wire_bytes() : 0);
  }
};

/// Client -> directory -> HPoP: "this endpoint is about to connect to you."
struct DirRendezvousRequest : net::Payload {
  std::string household;
  net::Endpoint client;
  std::uint64_t txn = 0;
  std::size_t wire_size() const override { return 40 + household.size(); }
};

/// HPoP -> directory -> client: "punched; connect now."
struct DirRendezvousReady : net::Payload {
  std::uint64_t txn = 0;
  bool ok = false;
  bool busy = false;  // overload shed, not a rendezvous failure
  std::uint32_t retry_after_s = 0;
  std::size_t wire_size() const override { return 24; }
};

/// The public directory service. HPoPs hold persistent registration
/// connections (their always-on presence); lookups and rendezvous requests
/// arrive from anywhere.
///
/// Registrations are leases: each entry carries an absolute expiry and a
/// monotone version (last-writer-wins across replicas). An entry past its
/// expiry is never served — the serving paths treat it as absent and drop
/// it — including entries recovered from the WAL, so a permanently dead
/// HPoP stops resolving one lease after its last renewal.
class DirectoryServer {
 public:
  DirectoryServer(transport::TransportMux& mux,
                  std::uint16_t port = kDefaultPort);
  virtual ~DirectoryServer();
  DirectoryServer(const DirectoryServer&) = delete;
  DirectoryServer& operator=(const DirectoryServer&) = delete;

  std::size_t registered() const { return households_.size(); }

  /// Default lease granted to registrations that don't ask for one.
  /// 0 disables expiry (entries live until replaced).
  void set_lease_ttl(util::Duration ttl) { lease_ttl_ = ttl; }
  util::Duration lease_ttl() const { return lease_ttl_; }

  /// Opt-in periodic sweep that erases expired entries even when nobody
  /// looks them up. Off by default: the lazy serving-path check already
  /// guarantees nothing stale is ever served, and an always-armed timer
  /// would keep run-to-idle simulations alive forever.
  void start_expiry_sweep(util::Duration interval);

  /// Overload admission (off unless called). Registrations are critical —
  /// an HPoP that cannot re-register goes dark for every member of its
  /// household — so only lookups and rendezvous signalling are sheddable.
  void enable_admission(overload::AdmissionConfig config);
  std::uint64_t sheds() const { return sheds_; }

  /// Rendezvous relayed to an HPoP and not yet answered.
  std::size_t rendezvous_pending() const { return rendezvous_waiters_.size(); }

  struct Stats {
    std::uint64_t registrations = 0;  // fresh + renewals, network path
    std::uint64_t lookups = 0;
    std::uint64_t lookup_hits = 0;
    std::uint64_t expired_dropped = 0;  // entries dropped past their lease
  };
  const Stats& stats() const { return stats_; }

  /// Non-mutating serving-path preview: would a lookup answer right now?
  /// (Entry present and lease unexpired.) For invariant checks in benches.
  bool would_resolve(const std::string& household) const;

  /// Attaches a WAL so registrations survive a directory crash. A
  /// recovered entry has a null control connection (the process's sockets
  /// died with it) — lookups answer immediately from the recovered
  /// advertisement while HPoPs re-establish their persistent connections.
  void attach_wal(durable::Wal* wal) { wal_ = wal; }
  durable::Wal* wal() const { return wal_; }
  durable::Wal::RecoveryStats recover_from_wal(durable::Wal& wal);
  bool compact_wal();
  util::Bytes serialize_state() const;
  bool restore_state(const util::Bytes& payload);
  /// Digest over registrations (household, method, endpoint, rendezvous,
  /// version, expiry).
  std::uint64_t fingerprint() const;

  static constexpr std::uint8_t kWalRegister = 1;
  static constexpr util::Duration kDefaultLeaseTtl = util::kHour;
  /// The port a directory listens on unless told otherwise; every
  /// DirectoryCluster shard uses it.
  static constexpr std::uint16_t kDefaultPort = 5300;

 protected:
  struct Registration {
    traversal::Advertisement advertisement;
    std::shared_ptr<transport::TcpConnection> control;
    std::uint64_t version = 0;       // LWW stamp, comparable across shards
    util::TimePoint expires_at = 0;  // absolute; 0 = no expiry
  };

  /// Per-connection message dispatch. Subclasses (DirectoryShard) extend
  /// this with their own message types and fall back to the base handler.
  virtual void handle_message(
      const std::shared_ptr<transport::TcpConnection>& conn,
      const net::PayloadPtr& msg);

  /// Hook: a registration was accepted on the network path (not recovery,
  /// not replication). Shards use it to push the entry to their replicas.
  virtual void on_registered(const std::string& household,
                             const Registration& reg) {
    (void)household;
    (void)reg;
  }

  /// Last-writer-wins upsert: applies iff `reg.version` beats the stored
  /// entry's. A null `reg.control` (recovery / replication) keeps any live
  /// control connection the entry already has. Returns whether it applied;
  /// `wal_log` appends the applied entry to the attached WAL (the caller
  /// decides when to sync — batching syncs is what makes anti-entropy
  /// batches one barrier instead of one per entry).
  bool upsert(const std::string& household, const Registration& reg,
              bool wal_log);

  /// Serving-path find: an entry past its lease is dropped and reported
  /// absent. This is the stale-advertisement fix — it applies equally to
  /// live and WAL-recovered entries.
  const Registration* find_live(const std::string& household);

  bool expired(const Registration& reg) const;
  void wal_append(std::string_view household, const Registration& reg);
  /// Version stamp for a registration accepted now: the current time,
  /// bumped past the stored version so renewals always win locally.
  std::uint64_t next_version(const std::string& household) const;

  transport::TransportMux& mux_;
  std::shared_ptr<transport::TcpListener> listener_;
  std::unique_ptr<overload::AdmissionController> admission_;
  std::uint64_t sheds_ = 0;
  /// Household name -> registration, Symbol-keyed: at metro scale the
  /// directory holds one entry per home, and a std::map's per-node heap
  /// allocations plus string keys dominated its footprint.
  util::SymbolMap<Registration> households_;
  durable::Wal* wal_ = nullptr;
  util::Duration lease_ttl_ = kDefaultLeaseTtl;
  Stats stats_;

 private:
  void apply_record(const durable::WalRecord& rec);
  void expiry_sweep_tick();

  util::Duration sweep_interval_ = 0;
  sim::TimerId sweep_timer_{};
  bool sweep_armed_ = false;
  /// A rendezvous in flight, filed under the relay id the directory
  /// assigned it: every client numbers its txns from 1, so two requesters'
  /// txns can collide, and the relay id is what the HPoP echoes back.
  struct RendezvousWaiter {
    std::weak_ptr<transport::TcpConnection> requester;
    std::uint64_t txn = 0;  // the requester's own, restored on the ready
  };
  std::map<std::uint64_t, RendezvousWaiter> rendezvous_waiters_;
  std::uint64_t next_relay_id_ = 1;
};

}  // namespace hpop::core
