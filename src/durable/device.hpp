#pragma once

#include <map>
#include <string>

#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace hpop::durable {

/// A simulated storage device with *real* crash semantics, so durability
/// claims made by the services above it are falsifiable inside the
/// deterministic simulation (ROADMAP item 3; the limestone exemplar's
/// dblog files reduced to their essentials).
///
/// The model:
///  - append() lands in a volatile write buffer (page cache);
///  - fsync() is the only durability barrier: it moves the buffered suffix
///    into the durable image;
///  - crash() discards every unflushed byte. A node crash must crash its
///    devices BEFORE service teardown runs — power is cut first.
///  - rename()/remove() are journaled-metadata operations: atomic and
///    immediately durable (the guarantee a real filesystem gives fsync'd
///    directories plus atomic rename, which WAL compaction relies on).
///
/// Two injectable faults sharpen the model beyond "clean tail loss":
///  - torn write (arm_torn_write): the next crash persists a *random
///    prefix* of the unflushed tail instead of dropping it entirely —
///    a record can be cut mid-byte, which recovery must detect;
///  - partial flush (arm_partial_flush): the next fsync persists only a
///    random prefix of the buffer and REPORTS FAILURE, so a correct
///    writer must not ack — but the partial bytes are on disk and will
///    look like a torn record if the process dies before a clean fsync.
///
/// Every random cut point comes from the seeded Rng handed in at
/// construction, so chaos runs stay byte-reproducible.
class StorageDevice {
 public:
  explicit StorageDevice(std::string name, util::Rng rng = util::Rng(0x0D15C));

  const std::string& name() const { return name_; }

  /// Appends to `file`'s write buffer, creating the file on first use.
  void append(const std::string& file, const util::Bytes& data);

  /// Durability barrier for `file`. Returns false when an armed partial
  /// flush fired (a prefix persisted, the rest is still buffered) — the
  /// caller must treat the write as not-yet-durable and retry.
  bool fsync(const std::string& file);

  /// Full contents as a reader sees them pre-crash (durable + buffered).
  util::Bytes read(const std::string& file) const;
  /// The durable image only — what a post-crash scan would find.
  util::Bytes read_durable(const std::string& file) const;

  /// Discards every byte (durable or not) past `size`. Recovery uses this
  /// to physically truncate a torn tail so later appends extend a valid
  /// log.
  void truncate_to(const std::string& file, std::size_t size);

  /// Atomic, immediately durable replace of `to` by `from` (the compaction
  /// commit point). Returns false if `from` does not exist.
  bool rename(const std::string& from, const std::string& to);
  bool remove(const std::string& file);
  bool exists(const std::string& file) const;
  std::size_t size(const std::string& file) const;
  std::size_t durable_size(const std::string& file) const;

  /// Power cut: unflushed bytes are gone — except that an armed torn
  /// write keeps a seeded-random prefix of each file's unflushed tail.
  void crash();

  /// The next crash() tears the unflushed tail instead of dropping it.
  void arm_torn_write() { torn_write_armed_ = true; }
  /// The next fsync() persists a random prefix and reports failure.
  void arm_partial_flush() { partial_flush_armed_ = true; }

  struct Stats {
    std::uint64_t appends = 0;
    std::uint64_t bytes_appended = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t bytes_flushed = 0;
    std::uint64_t crashes = 0;
    std::uint64_t bytes_lost_in_crash = 0;  // unflushed bytes discarded
    std::uint64_t torn_writes = 0;          // crashes with a torn tail
    std::uint64_t partial_flushes = 0;      // fsyncs that failed part-way
    std::uint64_t renames = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct File {
    util::Bytes data;          // durable prefix + buffered suffix
    std::size_t durable = 0;   // bytes guaranteed to survive crash()
  };

  std::string name_;
  util::Rng rng_;
  std::map<std::string, File> files_;
  bool torn_write_armed_ = false;
  bool partial_flush_armed_ = false;
  Stats stats_;

  // Registry handles (aggregated across all devices).
  telemetry::Counter* m_fsyncs_;
  telemetry::Counter* m_crashes_;
  telemetry::Counter* m_torn_writes_;
  telemetry::Counter* m_partial_flushes_;
};

}  // namespace hpop::durable
