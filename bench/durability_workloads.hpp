#pragma once

// E18 durability workloads, shared by bench_durability (the full report)
// and bench_core (which records the durability gates in BENCH_CORE.json).
// Three questions, one per workload:
//
//   1. recovery: how fast does WAL replay rebuild a store, and does the
//      rebuilt store match the pre-crash one byte for byte?
//   2. compaction: does an epoch snapshot actually bound recovery to the
//      post-snapshot tail, regardless of lifetime log length?
//   3. incremental backup: for a 1%-churn day, how many bytes does an
//      epoch-delta session ship compared to the whole-object image?
//
// All workloads are pure library (device + WAL + store, no network) and
// fully seeded: every reported count and byte number is deterministic.
// Wall-clock timings are measured but reported separately — gates are on
// the deterministic numbers.

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "attic/store.hpp"
#include "durable/device.hpp"
#include "durable/wal.hpp"
#include "util/rng.hpp"

namespace hpop::benchdur {

namespace detail {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One put of the standard workload: synthetic 2 KiB bodies spread over
/// `files` paths, so long runs exercise version pruning during replay.
/// The store's quota and device are fault-free, so a refused put means the
/// workload itself is broken.
inline void workload_put(attic::AtticStore& store, std::size_t i,
                         std::size_t files) {
  const auto etag =
      store.put("/day/f" + std::to_string(i % files),
                http::Body::synthetic(2048, static_cast<std::uint64_t>(i)),
                static_cast<util::TimePoint>(i));
  if (!etag.ok()) throw std::runtime_error("durability workload: put refused");
}

}  // namespace detail

// ------------------------------------------------- recovery vs log length

struct RecoveryPoint {
  std::size_t log_records = 0;   // records appended before the crash
  std::uint64_t replayed = 0;    // records the recovery scan delivered
  std::size_t log_bytes = 0;     // WAL size on the device at crash
  double recover_s = 0;          // wall time of recover_from_wal
  bool fingerprint_ok = false;   // recovered store == pre-crash store

  double records_per_sec() const {
    return recover_s > 0 ? static_cast<double>(replayed) / recover_s : 0;
  }
};

inline RecoveryPoint run_recovery(std::size_t records, std::size_t files,
                                  std::uint64_t seed) {
  RecoveryPoint r;
  r.log_records = records;
  durable::StorageDevice dev("bench-disk", util::Rng(seed));
  durable::Wal wal(dev, "attic.wal");
  attic::AtticStore store(1ull << 30);
  store.recover_from_wal(wal);
  for (std::size_t i = 0; i < records; ++i) {
    detail::workload_put(store, i, files);
  }
  const std::uint64_t fp = store.fingerprint();
  r.log_bytes = dev.size("attic.wal");
  dev.crash();

  durable::Wal recovered_wal(dev, "attic.wal");
  attic::AtticStore recovered(1ull << 30);
  const auto start = detail::Clock::now();
  const auto stats = recovered.recover_from_wal(recovered_wal);
  r.recover_s = detail::seconds_since(start);
  r.replayed = stats.records;
  r.fingerprint_ok = recovered.fingerprint() == fp;
  return r;
}

// ------------------------------------------- snapshot compaction bounding

struct CompactionResult {
  std::size_t records_before = 0;     // log records at compaction time
  std::uint64_t replayed_before = 0;  // replay cost of a pre-compaction crash
  double recover_before_s = 0;
  std::size_t tail_records = 0;       // records appended after compaction
  std::uint64_t replayed_after = 0;   // replay cost of a post-compaction crash
  double recover_after_s = 0;
  std::size_t log_bytes_before = 0;
  std::size_t log_bytes_after = 0;
  bool fingerprint_ok = false;

  /// The compaction claim: recovery replays the snapshot plus the tail,
  /// never the folded-away history.
  bool bounded() const { return replayed_after <= tail_records + 1; }
};

inline CompactionResult run_compaction(std::size_t records, std::size_t tail,
                                       std::size_t files, std::uint64_t seed) {
  CompactionResult r;
  r.records_before = records;
  r.tail_records = tail;
  durable::StorageDevice dev("bench-disk", util::Rng(seed));
  {
    durable::Wal wal(dev, "attic.wal");
    attic::AtticStore store(1ull << 30);
    store.recover_from_wal(wal);
    for (std::size_t i = 0; i < records; ++i) {
      detail::workload_put(store, i, files);
    }
  }
  r.log_bytes_before = dev.size("attic.wal");
  dev.crash();

  // Crash cost without compaction: the whole history replays.
  durable::Wal wal(dev, "attic.wal");
  attic::AtticStore store(1ull << 30);
  auto start = detail::Clock::now();
  r.replayed_before = store.recover_from_wal(wal).records;
  r.recover_before_s = detail::seconds_since(start);

  // Compact, append a short tail, crash again: only the tail replays.
  store.compact_wal();
  for (std::size_t i = 0; i < tail; ++i) {
    detail::workload_put(store, records + i, files);
  }
  const std::uint64_t fp = store.fingerprint();
  r.log_bytes_after = dev.size("attic.wal");
  dev.crash();

  durable::Wal wal_after(dev, "attic.wal");
  attic::AtticStore recovered(1ull << 30);
  start = detail::Clock::now();
  r.replayed_after = recovered.recover_from_wal(wal_after).records;
  r.recover_after_s = detail::seconds_since(start);
  r.fingerprint_ok = recovered.fingerprint() == fp;
  return r;
}

// ------------------------------- incremental backup bytes for a churn day

struct IncrementalResult {
  std::size_t files = 0;
  std::size_t churned = 0;      // files modified during the day
  std::size_t full_bytes = 0;   // whole-object ship (snapshot image)
  std::size_t delta_bytes = 0;  // epoch-delta ship for the same day
  bool fingerprint_ok = false;  // base image + delta replay == live store

  double ratio() const {
    return full_bytes > 0
               ? static_cast<double>(delta_bytes) /
                     static_cast<double>(full_bytes)
               : 0;
  }
};

inline IncrementalResult run_incremental(std::size_t files, double churn,
                                         std::uint64_t seed) {
  IncrementalResult r;
  r.files = files;
  durable::StorageDevice dev("bench-disk", util::Rng(seed));
  durable::Wal wal(dev, "attic.wal");
  attic::AtticStore store(1ull << 30);
  store.recover_from_wal(wal);
  for (std::size_t i = 0; i < files; ++i) {
    detail::workload_put(store, i, files);
  }
  // Session 0 ships the full image (compacted: one snapshot record).
  store.compact_wal();
  const util::Bytes base_image = wal.durable_image();
  r.full_bytes = base_image.size();

  // One day of churn at `churn` of the namespace, then the delta session.
  const std::uint64_t boundary = wal.epoch();
  wal.advance_epoch();
  r.churned = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(files) * churn));
  util::Rng day(seed ^ 0xDA11u);
  for (std::size_t c = 0; c < r.churned; ++c) {
    detail::workload_put(store, day.uniform_index(files), files);
  }
  util::Bytes delta;
  if (!wal.collect_since(boundary, delta)) return r;
  r.delta_bytes = delta.size();

  // Restore = base image + delta replayed as one log (what BackupManager's
  // restore_session does over the network).
  durable::StorageDevice restore_dev("restore-disk", util::Rng(seed + 1));
  util::Bytes image = base_image;
  image.insert(image.end(), delta.begin(), delta.end());
  restore_dev.append("attic.wal", image);
  restore_dev.fsync("attic.wal");
  durable::Wal restore_wal(restore_dev, "attic.wal");
  attic::AtticStore restored(1ull << 30);
  restored.recover_from_wal(restore_wal);
  r.fingerprint_ok = restored.fingerprint() == store.fingerprint();
  return r;
}

}  // namespace hpop::benchdur
