#pragma once

#include <cstring>
#include <functional>
#include <string>

#include "durable/device.hpp"
#include "telemetry/metrics.hpp"

namespace hpop::durable {

/// On-device WAL record encoding (fixed little-endian header + payload):
///
///   magic   u16  0xA71C  ("attic")
///   type    u8   service-defined; 0xFF reserved for snapshot records
///   flags   u8   0 (reserved)
///   epoch   u64  epoch the record was written under
///   len     u32  payload length
///   crc     u64  FNV-1a over (type, epoch, len, payload)
///
/// The crc makes torn and bit-flipped tails detectable: recovery scans
/// forward and stops at the first record whose header or checksum does not
/// verify, truncating everything from there on (limestone's dblog_scan
/// rule: a WAL is valid up to its last intact record, never beyond).
struct WalRecord {
  std::uint64_t epoch = 0;
  std::uint8_t type = 0;
  util::Bytes payload;
};

constexpr std::uint16_t kWalMagic = 0xA71C;
constexpr std::uint8_t kSnapshotRecordType = 0xFF;
constexpr std::size_t kWalHeaderSize = 2 + 1 + 1 + 8 + 4 + 8;

/// Appends the encoding of one record to `out`.
void encode_record(util::Bytes& out, std::uint8_t type, std::uint64_t epoch,
                   const util::Bytes& payload);

struct ScanStats {
  std::uint64_t records = 0;          // intact records delivered
  std::uint64_t snapshot_records = 0;
  std::uint64_t bytes_scanned = 0;    // bytes of intact records
  std::uint64_t torn_bytes = 0;       // trailing bytes discarded
  bool torn_tail = false;             // scan stopped before end of image
  std::uint64_t max_epoch = 0;
};

/// Scans a raw byte image (a device file, or reassembled backup deltas),
/// calling `fn` for each intact record and stopping at the first torn or
/// corrupt one. Returns what was delivered and what was discarded.
ScanStats scan_records(const util::Bytes& image,
                       const std::function<void(const WalRecord&)>& fn);

/// Per-service write-ahead log over one StorageDevice file.
///
/// Write path: append() buffers records tagged with the current epoch;
/// sync() is the durability barrier — a record is only safely acked once a
/// sync() covering it returned true. advance_epoch() opens a new epoch
/// (the unit of snapshot compaction and incremental backup).
///
/// Compaction: compact(snapshot) writes a fresh log containing a single
/// snapshot record at the current epoch to `<file>.compact`, then
/// atomically renames it over the log — the prefix of records with epoch
/// <= the snapshot's is gone. recover() feeds the snapshot record through
/// the same replay callback (type kSnapshotRecordType), so a service's
/// replay function is its complete recovery story.
class Wal {
 public:
  Wal(StorageDevice& device, std::string file);

  StorageDevice& device() { return device_; }
  const std::string& file() const { return file_; }

  std::uint64_t epoch() const { return epoch_; }
  /// Highest epoch known covered by a successful sync().
  std::uint64_t durable_epoch() const { return durable_epoch_; }
  void advance_epoch() { ++epoch_; }

  /// Buffers one record under the current epoch (not yet durable).
  void append(std::uint8_t type, const util::Bytes& payload);

  /// Durability barrier. False on an injected partial flush: everything
  /// appended since the last successful sync must be treated as volatile.
  bool sync();

  struct RecoveryStats : ScanStats {
    std::uint64_t wall_records_truncated = 0;  // physical tail truncation
    bool compaction_discarded = false;  // stale .compact from a mid-compaction
                                        // crash was thrown away
    /// Intact records the replaying service could not apply (an attic put
    /// over its quota); counted by the service, not by the log.
    std::uint64_t records_failed = 0;
  };
  /// Crash recovery: discards a stale `.compact` temp (a crash before the
  /// rename commit point), scans the durable image, replays every intact
  /// record through `fn`, and physically truncates the torn tail so the
  /// log is append-ready. Resumes the epoch after the highest replayed.
  RecoveryStats recover(const std::function<void(const WalRecord&)>& fn);

  /// Epoch-snapshot compaction: replaces the log with one snapshot record
  /// at the current epoch. Returns false if the temp write failed its
  /// barrier (the old log is untouched — compaction is crash-atomic).
  bool compact(const util::Bytes& snapshot_payload);

  /// Raw encodings of every durable record with epoch > `since`, for
  /// incremental backup sessions. Returns false (and clears `out`) when a
  /// snapshot record newer than `since` exists — the caller must ship a
  /// full snapshot instead, because the delta chain was compacted away.
  bool collect_since(std::uint64_t since, util::Bytes& out) const;

  /// The whole durable image (full-backup payload).
  util::Bytes durable_image() const { return device_.read_durable(file_); }

 private:
  std::string compact_file() const { return file_ + ".compact"; }

  StorageDevice& device_;
  std::string file_;
  std::uint64_t epoch_ = 1;
  std::uint64_t durable_epoch_ = 0;

  telemetry::Counter* m_appends_;
  telemetry::Counter* m_syncs_;
  telemetry::Counter* m_recoveries_;
  telemetry::Counter* m_records_replayed_;
  telemetry::Counter* m_torn_truncations_;
  telemetry::Counter* m_compactions_;
};

/// Length-prefixed payload codec shared by the WAL-backed services: a
/// deliberately boring, versionless encoding (u64s little-endian, byte
/// strings length-prefixed) — the WAL header carries the type tag.
class PayloadWriter {
 public:
  void put_u64(std::uint64_t v);
  void put_u32(std::uint32_t v);
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_bytes(const util::Bytes& b);
  void put_string(std::string_view s);
  util::Bytes take() { return std::move(bytes_); }

 private:
  util::Bytes bytes_;
};

class PayloadReader {
 public:
  explicit PayloadReader(const util::Bytes& bytes) : bytes_(bytes) {}

  bool get_u64(std::uint64_t& v);
  bool get_u32(std::uint32_t& v);
  bool get_u8(std::uint8_t& v);
  bool get_bytes(util::Bytes& b);
  bool get_string(std::string& s);
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  const util::Bytes& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace hpop::durable
