#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "durable/wal.hpp"
#include "http/message.hpp"
#include "telemetry/metrics.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace hpop::attic {

/// One stored version of a file. The attic keeps history so applications
/// (and reconciliation after offline edits) can reason about change.
struct FileVersion {
  http::Body content;
  std::string etag;
  util::TimePoint modified = 0;
};

/// The attic's versioned object store: a path-keyed namespace with
/// directories, per-file version history, and a byte quota. This is the
/// "application-agnostic interface to user data" of §IV-A — WebDAV, the
/// wrap driver, backup and Internet@home all operate on it.
///
/// Durability (§IV-A "Data Availability", DESIGN.md §13): attach_wal()
/// turns every mutation into a write-ahead-log record synced before the
/// mutator acks. recover_from_wal() rebuilds a store byte-identically from
/// the device after a crash: replay is the same mutation sequence, so
/// etags, quota accounting and version pruning all reproduce exactly.
class AtticStore {
 public:
  explicit AtticStore(std::size_t quota_bytes = 64ull << 30)
      : quota_(quota_bytes) {
    auto& reg = telemetry::registry();
    m_puts_ = reg.counter("attic.puts");
    m_used_bytes_ = reg.gauge("attic.used_bytes");
    m_versions_pruned_ = reg.counter("attic.versions_pruned");
  }

  // The used-bytes gauge is an invariant over live stores: it always equals
  // the sum of used_ across every AtticStore in existence, including replayed
  // and copied ones. Stores therefore adjust it on copy and destruction, so
  // crash/recovery cycles leave no residue and same-seed runs emit
  // byte-identical telemetry.
  ~AtticStore() { m_used_bytes_->add(-static_cast<double>(used_)); }
  AtticStore(const AtticStore& other) {
    copy_fields(other);
    m_used_bytes_->add(static_cast<double>(used_));
  }
  AtticStore& operator=(const AtticStore& other) {
    if (this != &other) {
      m_used_bytes_->add(static_cast<double>(other.used_) -
                         static_cast<double>(used_));
      copy_fields(other);
    }
    return *this;
  }

  /// Bound on per-file version history: the oldest version is pruned (and
  /// its bytes returned to the quota) past this. Unbounded history grows
  /// without limit at metro scale.
  static constexpr std::size_t kMaxVersions = 16;

  /// Attaches a write-ahead log. Subsequent mutations append + sync; a put
  /// whose sync barrier fails returns "not_durable" (the in-memory state
  /// may then run ahead of disk — exactly what recovery replays away).
  void attach_wal(durable::Wal* wal) { wal_ = wal; }
  durable::Wal* wal() const { return wal_; }

  /// Rebuilds this store from the WAL (clearing current contents), then
  /// attaches it for subsequent writes. Returns the recovery scan stats so
  /// callers can assert on torn-tail truncation.
  durable::Wal::RecoveryStats recover_from_wal(durable::Wal& wal);

  /// Epoch-snapshot compaction: writes the full serialized store as a
  /// snapshot record at the WAL's current epoch and truncates the log
  /// prefix. False when no WAL is attached or the snapshot barrier failed.
  bool compact_wal();

  /// Writes a new version; creates parent directories implicitly.
  util::Result<std::string> put(const std::string& path, http::Body content,
                                util::TimePoint now);
  util::Result<FileVersion> get(const std::string& path) const;
  /// Full version history (bounded by kMaxVersions), oldest first.
  util::Result<std::vector<FileVersion>> history(const std::string& path) const;
  util::Status remove(const std::string& path);
  bool exists(const std::string& path) const;
  void mkdir(const std::string& path);
  bool dir_exists(const std::string& path) const;

  /// Immediate children (files and directories) of a directory path.
  std::vector<std::string> list(const std::string& dir_path) const;

  std::size_t used_bytes() const { return used_; }
  std::size_t quota_bytes() const { return quota_; }
  std::size_t file_count() const { return files_.size(); }
  std::uint64_t versions_pruned() const { return versions_pruned_; }

  /// Order-independent digest of the complete store state (paths, version
  /// contents, etags, directories, accounting). Two stores with equal
  /// fingerprints are observably identical — the recovery gates diff this.
  std::uint64_t fingerprint() const;

  /// Full-state snapshot encoding (the WAL snapshot-record payload).
  util::Bytes serialize_state() const;
  /// Replaces the store contents with a serialized snapshot.
  bool restore_state(const util::Bytes& payload);

  /// WAL record types (public so tests and tools can inspect logs).
  static constexpr std::uint8_t kWalPut = 1;
  static constexpr std::uint8_t kWalRemove = 2;
  static constexpr std::uint8_t kWalMkdir = 3;

 private:
  struct FileEntry {
    std::vector<FileVersion> versions;
  };
  static std::string normalize(const std::string& path);
  static std::string parent_of(const std::string& path);
  std::string make_etag();
  /// Applies one replayed WAL record (mutations with logging suppressed);
  /// false when the record could not be applied.
  bool apply_record(const durable::WalRecord& rec);
  void clear();
  bool parse_snapshot(const util::Bytes& payload);
  void copy_fields(const AtticStore& other) {
    quota_ = other.quota_;
    used_ = other.used_;
    etag_counter_ = other.etag_counter_;
    versions_pruned_ = other.versions_pruned_;
    files_ = other.files_;
    dirs_ = other.dirs_;
    wal_ = other.wal_;
    replaying_ = other.replaying_;
    m_puts_ = other.m_puts_;
    m_used_bytes_ = other.m_used_bytes_;
    m_versions_pruned_ = other.m_versions_pruned_;
  }

  std::size_t quota_;
  std::size_t used_ = 0;
  std::uint64_t etag_counter_ = 0;
  std::uint64_t versions_pruned_ = 0;
  std::map<std::string, FileEntry> files_;
  std::set<std::string> dirs_{"/"};
  durable::Wal* wal_ = nullptr;
  bool replaying_ = false;

  // Registry handles (aggregated across all attic stores).
  telemetry::Counter* m_puts_;
  telemetry::Gauge* m_used_bytes_;
  telemetry::Counter* m_versions_pruned_;
};

/// Body <-> bytes codec shared by the attic WAL and incremental backup
/// (synthetic bodies keep their (size, tag) identity; real bodies their
/// bytes).
void encode_body(durable::PayloadWriter& w, const http::Body& body);
bool decode_body(durable::PayloadReader& r, http::Body& body);

}  // namespace hpop::attic
