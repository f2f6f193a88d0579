#include "durable/wal.hpp"

#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hpop::durable {

namespace {

std::uint64_t record_crc(std::uint8_t type, std::uint64_t epoch,
                         std::uint32_t len, const std::uint8_t* payload) {
  util::Fnv1a f{util::Fnv1a::kLegacyBasis};
  f.byte(type);
  f.u64(epoch);
  for (int i = 0; i < 4; ++i) {
    f.byte(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  f.bytes(payload, len);
  return f.h;
}

void put_le(util::Bytes& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t get_le(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void encode_record(util::Bytes& out, std::uint8_t type, std::uint64_t epoch,
                   const util::Bytes& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  put_le(out, kWalMagic, 2);
  out.push_back(type);
  out.push_back(0);  // flags
  put_le(out, epoch, 8);
  put_le(out, len, 4);
  put_le(out, record_crc(type, epoch, len, payload.data()), 8);
  out.insert(out.end(), payload.begin(), payload.end());
}

ScanStats scan_records(const util::Bytes& image,
                       const std::function<void(const WalRecord&)>& fn) {
  ScanStats stats;
  std::size_t pos = 0;
  while (pos + kWalHeaderSize <= image.size()) {
    const std::uint8_t* p = image.data() + pos;
    if (get_le(p, 2) != kWalMagic) break;
    WalRecord rec;
    rec.type = p[2];
    rec.epoch = get_le(p + 4, 8);
    const auto len = static_cast<std::uint32_t>(get_le(p + 12, 4));
    const std::uint64_t crc = get_le(p + 16, 8);
    if (pos + kWalHeaderSize + len > image.size()) break;  // torn payload
    const std::uint8_t* payload = p + kWalHeaderSize;
    if (record_crc(rec.type, rec.epoch, len, payload) != crc) break;
    rec.payload.assign(payload, payload + len);
    ++stats.records;
    if (rec.type == kSnapshotRecordType) ++stats.snapshot_records;
    if (rec.epoch > stats.max_epoch) stats.max_epoch = rec.epoch;
    pos += kWalHeaderSize + len;
    stats.bytes_scanned = pos;
    fn(rec);
  }
  stats.torn_bytes = image.size() - stats.bytes_scanned;
  stats.torn_tail = stats.torn_bytes > 0;
  return stats;
}

Wal::Wal(StorageDevice& device, std::string file)
    : device_(device), file_(std::move(file)) {
  auto& reg = telemetry::registry();
  m_appends_ = reg.counter("durable.wal.appends");
  m_syncs_ = reg.counter("durable.wal.syncs");
  m_recoveries_ = reg.counter("durable.wal.recoveries");
  m_records_replayed_ = reg.counter("durable.wal.records_replayed");
  m_torn_truncations_ = reg.counter("durable.wal.torn_truncations");
  m_compactions_ = reg.counter("durable.wal.compactions");
}

void Wal::append(std::uint8_t type, const util::Bytes& payload) {
  util::Bytes encoded;
  encoded.reserve(kWalHeaderSize + payload.size());
  encode_record(encoded, type, epoch_, payload);
  device_.append(file_, encoded);
  m_appends_->inc();
}

bool Wal::sync() {
  m_syncs_->inc();
  if (!device_.fsync(file_)) return false;
  durable_epoch_ = epoch_;
  return true;
}

Wal::RecoveryStats Wal::recover(
    const std::function<void(const WalRecord&)>& fn) {
  RecoveryStats stats;
  m_recoveries_->inc();
  // A `.compact` temp means the process died between writing the snapshot
  // and the rename commit point: the snapshot never became the log, so it
  // is discarded and the old log (still intact) is recovered instead.
  if (device_.exists(compact_file())) {
    device_.remove(compact_file());
    stats.compaction_discarded = true;
  }
  const util::Bytes image = device_.read_durable(file_);
  static_cast<ScanStats&>(stats) = scan_records(image, fn);
  m_records_replayed_->inc(static_cast<double>(stats.records));
  if (stats.torn_tail) {
    // Physical truncation: the torn tail must not prefix future appends.
    device_.truncate_to(file_, stats.bytes_scanned);
    stats.wall_records_truncated = stats.torn_bytes;
    m_torn_truncations_->inc();
    HPOP_LOG(kWarn, "durable")
        << device_.name() << "/" << file_ << ": truncated torn tail ("
        << stats.torn_bytes << " bytes after " << stats.records
        << " intact records)";
  }
  epoch_ = stats.max_epoch + 1;
  durable_epoch_ = stats.max_epoch;
  return stats;
}

bool Wal::compact(const util::Bytes& snapshot_payload) {
  const std::string temp = compact_file();
  device_.remove(temp);
  util::Bytes encoded;
  encoded.reserve(kWalHeaderSize + snapshot_payload.size());
  encode_record(encoded, kSnapshotRecordType, epoch_, snapshot_payload);
  device_.append(temp, encoded);
  if (!device_.fsync(temp)) {
    // Partial flush during compaction: abandon the temp; the old log is
    // untouched and still authoritative.
    device_.remove(temp);
    return false;
  }
  device_.rename(temp, file_);  // commit point (atomic + durable)
  durable_epoch_ = epoch_;
  m_compactions_->inc();
  return true;
}

bool Wal::collect_since(std::uint64_t since, util::Bytes& out) const {
  out.clear();
  bool need_full = false;
  scan_records(device_.read_durable(file_), [&](const WalRecord& rec) {
    if (rec.type == kSnapshotRecordType && rec.epoch > since) {
      // The records between `since` and this snapshot were compacted away;
      // a delta starting at `since` cannot be reconstructed.
      need_full = true;
    }
    if (need_full) return;
    if (rec.epoch > since) encode_record(out, rec.type, rec.epoch, rec.payload);
  });
  if (need_full) out.clear();
  return !need_full;
}

// ----------------------------------------------------------- payload codec

void PayloadWriter::put_u64(std::uint64_t v) { put_le(bytes_, v, 8); }
void PayloadWriter::put_u32(std::uint32_t v) { put_le(bytes_, v, 4); }

void PayloadWriter::put_bytes(const util::Bytes& b) {
  put_u32(static_cast<std::uint32_t>(b.size()));
  bytes_.insert(bytes_.end(), b.begin(), b.end());
}

void PayloadWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

bool PayloadReader::get_u64(std::uint64_t& v) {
  if (pos_ + 8 > bytes_.size()) return false;
  v = get_le(bytes_.data() + pos_, 8);
  pos_ += 8;
  return true;
}

bool PayloadReader::get_u32(std::uint32_t& v) {
  if (pos_ + 4 > bytes_.size()) return false;
  v = static_cast<std::uint32_t>(get_le(bytes_.data() + pos_, 4));
  pos_ += 4;
  return true;
}

bool PayloadReader::get_u8(std::uint8_t& v) {
  if (pos_ + 1 > bytes_.size()) return false;
  v = bytes_[pos_++];
  return true;
}

bool PayloadReader::get_bytes(util::Bytes& b) {
  std::uint32_t len = 0;
  if (!get_u32(len) || pos_ + len > bytes_.size()) return false;
  b.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
           bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return true;
}

bool PayloadReader::get_string(std::string& s) {
  std::uint32_t len = 0;
  if (!get_u32(len) || pos_ + len > bytes_.size()) return false;
  s.assign(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
           bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return true;
}

}  // namespace hpop::durable
