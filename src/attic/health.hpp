#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attic/client.hpp"
#include "attic/grant.hpp"
#include "durable/wal.hpp"
#include "util/retry.hpp"

namespace hpop::attic {

/// One electronic health record, as the provider's EHR system stores it.
struct HealthRecord {
  std::string patient;
  std::string record_id;
  std::string kind;  // "lab", "imaging", "visit-note", ...
  http::Body content;
  util::TimePoint created = 0;
};

/// A medical provider's record system (§IV-A1). Linked patients have
/// handed over a grant ("QR code"); the provider's storage driver then
/// *duplicates* every write — one copy into the provider's own store (the
/// regulatory copy) and one into the patient's home attic.
class HealthProviderSystem {
 public:
  HealthProviderSystem(std::string name, http::HttpClient& http,
                       sim::Simulator& sim)
      : name_(std::move(name)), http_(http), sim_(sim) {}

  /// One-time bootstrapping with a patient's grant.
  util::Status link_patient(const std::string& patient,
                            const std::string& qr_code);

  /// Writes a record: local store always; attic copy when linked. The
  /// callback acks ONLY once the attic copy is durable — a failed write
  /// parks in the pending queue and is retried (exponential backoff), so
  /// an acked record can never be lost to a patient-HPoP crash.
  using WriteCallback = std::function<void(util::Status)>;
  void add_record(HealthRecord record, WriteCallback cb = nullptr);

  /// Attic writes awaiting durability (in flight, backing off, or parked
  /// after exhausting the retry budget).
  std::size_t pending_writes() const { return pending_.size(); }
  /// Restarts delivery of every parked write with a fresh retry budget —
  /// e.g. once the patient's HPoP is known to be back up.
  void flush_pending();

  /// Attaches a WAL so the pending queue survives a provider crash: every
  /// enqueue and completion is logged. A recovered entry is re-attempted
  /// (at-least-once: a completion record torn off by the crash re-ships an
  /// already-landed write, which is safe — the ack only ever fired after
  /// attic durability).
  void attach_wal(durable::Wal* wal) { wal_ = wal; }
  durable::Wal* wal() const { return wal_; }
  /// Rebuilds the pending queue from the WAL (callbacks died with the
  /// process; recovered entries carry a null cb and a fresh retry budget).
  durable::Wal::RecoveryStats recover_from_wal(durable::Wal& wal);
  /// Snapshot-compacts the WAL to the live pending queue.
  bool compact_wal();
  util::Bytes serialize_state() const;
  bool restore_state(const util::Bytes& payload);
  /// Digest of the durable queue state (ids, paths, contents, counters).
  std::uint64_t fingerprint() const;

  static constexpr std::uint8_t kWalEnqueue = 1;
  static constexpr std::uint8_t kWalComplete = 2;

  /// Backoff schedule for attic-copy retries (tunable per deployment).
  util::RetryPolicy retry_policy{/*max_attempts=*/5,
                                 /*initial_backoff=*/500 * util::kMillisecond,
                                 /*multiplier=*/2.0,
                                 /*jitter=*/0.5,
                                 /*max_backoff=*/10 * util::kSecond,
                                 /*deadline=*/0};

  /// The provider-side view (what a records request to this provider
  /// returns, after its administrative release delay).
  std::vector<HealthRecord> local_records(const std::string& patient) const;

  const std::string& name() const { return name_; }
  std::uint64_t attic_writes() const { return attic_writes_; }
  std::uint64_t attic_write_failures() const { return attic_write_failures_; }

  /// Administrative latency of a conventional per-provider records release
  /// (signing forms, faxing, waiting) — §IV-A1's pain point. Exposed so
  /// experiments can model realistic distributions around it.
  util::Duration release_delay = 2 * util::kDay;

 private:
  struct LinkedPatient {
    ProviderGrant grant;
    std::unique_ptr<AtticClient> attic;
  };
  /// One not-yet-durable attic copy (the "durable pending queue": the
  /// record itself already sits in store_, so a provider restart could
  /// rebuild this queue from its own regulatory copies).
  struct PendingWrite {
    std::string patient;
    std::string path;
    http::Body content;
    int attempt = 0;
    util::TimePoint started = 0;
    bool in_flight = false;
    WriteCallback cb;
  };

  void attempt_write(std::uint64_t id);
  void apply_record(const durable::WalRecord& rec);

  std::string name_;
  http::HttpClient& http_;
  sim::Simulator& sim_;
  std::map<std::string, std::vector<HealthRecord>> store_;  // by patient
  std::map<std::string, LinkedPatient> linked_;
  std::map<std::uint64_t, PendingWrite> pending_;
  std::uint64_t next_pending_id_ = 1;
  durable::Wal* wal_ = nullptr;
  util::Rng rng_{0x48454C5448ull};  // jitter source for backoff
  std::uint64_t attic_writes_ = 0;
  std::uint64_t attic_write_failures_ = 0;
  /// Liveness token: backoff timers and put callbacks no-op once the
  /// provider object is gone.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

/// The patient's side: aggregates their complete history from their own
/// attic — one round trip to their HPoP instead of a release form per
/// provider.
class PatientHealthView {
 public:
  explicit PatientHealthView(AtticClient& attic) : attic_(attic) {}

  struct Aggregated {
    /// provider -> record paths found.
    std::map<std::string, std::vector<std::string>> by_provider;
    std::size_t total = 0;
  };
  using AggregateCallback = std::function<void(util::Result<Aggregated>)>;
  /// Walks /records/<provider>/<record>; completes when all listed
  /// directories are enumerated.
  void aggregate(AggregateCallback cb);

 private:
  AtticClient& attic_;
};

}  // namespace hpop::attic
