#include "attic/store.hpp"

#include <set>

#include "util/hash.hpp"

namespace hpop::attic {

void encode_body(durable::PayloadWriter& w, const http::Body& body) {
  if (body.is_real()) {
    w.put_u8(0);
    w.put_bytes(body.bytes());
  } else {
    w.put_u8(1);
    w.put_u64(body.size());
    w.put_u64(body.tag());
  }
}

bool decode_body(durable::PayloadReader& r, http::Body& body) {
  std::uint8_t synthetic = 0;
  if (!r.get_u8(synthetic)) return false;
  if (synthetic == 0) {
    util::Bytes bytes;
    if (!r.get_bytes(bytes)) return false;
    body = http::Body(std::move(bytes));
    return true;
  }
  std::uint64_t size = 0, tag = 0;
  if (!r.get_u64(size) || !r.get_u64(tag)) return false;
  body = http::Body::synthetic(static_cast<std::size_t>(size), tag);
  return true;
}

std::string AtticStore::normalize(const std::string& path) {
  std::string p = path;
  if (p.empty() || p.front() != '/') p.insert(p.begin(), '/');
  while (p.size() > 1 && p.back() == '/') p.pop_back();
  return p;
}

std::string AtticStore::parent_of(const std::string& path) {
  const auto pos = path.find_last_of('/');
  if (pos == 0 || pos == std::string::npos) return "/";
  return path.substr(0, pos);
}

std::string AtticStore::make_etag() {
  return "\"v" + std::to_string(++etag_counter_) + "\"";
}

util::Result<std::string> AtticStore::put(const std::string& path,
                                          http::Body content,
                                          util::TimePoint now) {
  const std::string p = normalize(path);
  const std::size_t incoming = content.size();
  const auto it = files_.find(p);
  const std::size_t replacing =
      it != files_.end() && !it->second.versions.empty()
          ? it->second.versions.back().content.size()
          : 0;
  if (used_ + incoming - replacing > quota_) {
    return util::Result<std::string>::failure("quota_exceeded",
                                              "attic quota exhausted");
  }
  if (wal_ != nullptr && !replaying_) {
    durable::PayloadWriter w;
    w.put_string(p);
    w.put_u64(static_cast<std::uint64_t>(now));
    encode_body(w, content);
    wal_->append(kWalPut, w.take());
  }
  // Auto-create the directory chain.
  for (std::string dir = parent_of(p); dirs_.insert(dir).second && dir != "/";
       dir = parent_of(dir)) {
  }

  FileVersion version;
  version.content = std::move(content);
  version.etag = make_etag();
  version.modified = now;
  used_ += incoming;
  auto& versions = files_[p].versions;
  versions.push_back(version);
  if (versions.size() > kMaxVersions) {
    // Oldest version pruned; its bytes return to the quota.
    const std::size_t freed = versions.front().content.size();
    used_ -= freed;
    versions.erase(versions.begin());
    ++versions_pruned_;
    m_used_bytes_->add(-static_cast<double>(freed));
    if (!replaying_) m_versions_pruned_->inc();
  }
  // The gauge mirrors used_ unconditionally (replays included): it is the
  // live bytes across all stores, and a store subtracts itself on clear()
  // and destruction, so same-seed runs leave byte-identical telemetry.
  m_used_bytes_->add(static_cast<double>(incoming));
  if (!replaying_) m_puts_->inc();
  // Log-ahead ack rule: the record is buffered above; the barrier decides
  // whether this put may be acknowledged. On a partial flush the in-memory
  // mutation stands (disk may hold a prefix) but the caller must not ack.
  if (wal_ != nullptr && !replaying_ && !wal_->sync()) {
    return util::Result<std::string>::failure(
        "not_durable", "WAL sync barrier failed; write not durable");
  }
  return version.etag;
}

util::Result<FileVersion> AtticStore::get(const std::string& path) const {
  const auto it = files_.find(normalize(path));
  if (it == files_.end() || it->second.versions.empty()) {
    return util::Result<FileVersion>::failure("not_found", path);
  }
  return it->second.versions.back();
}

util::Result<std::vector<FileVersion>> AtticStore::history(
    const std::string& path) const {
  const auto it = files_.find(normalize(path));
  if (it == files_.end()) {
    return util::Result<std::vector<FileVersion>>::failure("not_found", path);
  }
  return it->second.versions;
}

util::Status AtticStore::remove(const std::string& path) {
  const auto it = files_.find(normalize(path));
  if (it == files_.end()) {
    return util::Status::failure("not_found", path);
  }
  if (wal_ != nullptr && !replaying_) {
    durable::PayloadWriter w;
    w.put_string(it->first);
    wal_->append(kWalRemove, w.take());
  }
  for (const FileVersion& v : it->second.versions) {
    used_ -= v.content.size();
    m_used_bytes_->add(-static_cast<double>(v.content.size()));
  }
  files_.erase(it);
  if (wal_ != nullptr && !replaying_ && !wal_->sync()) {
    return util::Status::failure("not_durable",
                                 "WAL sync barrier failed; remove not durable");
  }
  return util::Status::success();
}

bool AtticStore::exists(const std::string& path) const {
  return files_.count(normalize(path)) > 0;
}

void AtticStore::mkdir(const std::string& path) {
  const std::string p = normalize(path);
  if (wal_ != nullptr && !replaying_) {
    durable::PayloadWriter w;
    w.put_string(p);
    wal_->append(kWalMkdir, w.take());
    wal_->sync();
  }
  for (std::string dir = p; dirs_.insert(dir).second && dir != "/";
       dir = parent_of(dir)) {
  }
}

bool AtticStore::dir_exists(const std::string& path) const {
  return dirs_.count(normalize(path)) > 0;
}

std::vector<std::string> AtticStore::list(const std::string& dir_path) const {
  const std::string dir = normalize(dir_path);
  const std::string prefix = dir == "/" ? "/" : dir + "/";
  std::set<std::string> children;
  auto collect = [&](const std::string& path) {
    if (path.rfind(prefix, 0) != 0 || path == dir) return;
    const std::string rest = path.substr(prefix.size());
    const auto slash = rest.find('/');
    children.insert(prefix +
                    (slash == std::string::npos ? rest
                                                : rest.substr(0, slash)));
  };
  for (const auto& [path, entry] : files_) {
    (void)entry;
    collect(path);
  }
  for (const auto& d : dirs_) collect(d);
  return {children.begin(), children.end()};
}

// --------------------------------------------------- durability plumbing

void AtticStore::clear() {
  m_used_bytes_->add(-static_cast<double>(used_));
  files_.clear();
  dirs_ = {"/"};
  used_ = 0;
  etag_counter_ = 0;
  versions_pruned_ = 0;
}

bool AtticStore::apply_record(const durable::WalRecord& rec) {
  durable::PayloadReader r(rec.payload);
  switch (rec.type) {
    case kWalPut: {
      std::string path;
      std::uint64_t modified = 0;
      http::Body body;
      if (!r.get_string(path) || !r.get_u64(modified) || !decode_body(r, body))
        return false;
      return put(path, std::move(body), static_cast<util::TimePoint>(modified))
          .ok();
    }
    case kWalRemove: {
      std::string path;
      return r.get_string(path) && remove(path).ok();
    }
    case kWalMkdir: {
      std::string path;
      if (!r.get_string(path)) return false;
      mkdir(path);
      return true;
    }
    case durable::kSnapshotRecordType:
      return restore_state(rec.payload);
    default:
      return false;
  }
}

durable::Wal::RecoveryStats AtticStore::recover_from_wal(durable::Wal& wal) {
  clear();
  wal_ = &wal;
  replaying_ = true;
  std::uint64_t failed = 0;
  auto stats = wal.recover([&](const durable::WalRecord& rec) {
    if (!apply_record(rec)) ++failed;
  });
  stats.records_failed = failed;
  replaying_ = false;
  return stats;
}

bool AtticStore::compact_wal() {
  if (wal_ == nullptr) return false;
  return wal_->compact(serialize_state());
}

util::Bytes AtticStore::serialize_state() const {
  durable::PayloadWriter w;
  w.put_u64(etag_counter_);
  w.put_u64(versions_pruned_);
  w.put_u32(static_cast<std::uint32_t>(dirs_.size()));
  for (const std::string& d : dirs_) w.put_string(d);
  w.put_u32(static_cast<std::uint32_t>(files_.size()));
  for (const auto& [path, entry] : files_) {
    w.put_string(path);
    w.put_u32(static_cast<std::uint32_t>(entry.versions.size()));
    for (const FileVersion& v : entry.versions) {
      w.put_string(v.etag);
      w.put_u64(static_cast<std::uint64_t>(v.modified));
      encode_body(w, v.content);
    }
  }
  return w.take();
}

bool AtticStore::restore_state(const util::Bytes& payload) {
  clear();
  // Re-add whatever used_ the parse accumulated on every exit path (partial
  // state is kept on failure), preserving the gauge == sum-of-used_ invariant.
  const bool ok = parse_snapshot(payload);
  m_used_bytes_->add(static_cast<double>(used_));
  return ok;
}

bool AtticStore::parse_snapshot(const util::Bytes& payload) {
  durable::PayloadReader r(payload);
  std::uint64_t pruned = 0;
  std::uint32_t dir_count = 0, file_count = 0;
  if (!r.get_u64(etag_counter_) || !r.get_u64(pruned) || !r.get_u32(dir_count))
    return false;
  versions_pruned_ = pruned;
  for (std::uint32_t i = 0; i < dir_count; ++i) {
    std::string d;
    if (!r.get_string(d)) return false;
    dirs_.insert(d);
  }
  if (!r.get_u32(file_count)) return false;
  for (std::uint32_t i = 0; i < file_count; ++i) {
    std::string path;
    std::uint32_t version_count = 0;
    if (!r.get_string(path) || !r.get_u32(version_count)) return false;
    FileEntry entry;
    for (std::uint32_t v = 0; v < version_count; ++v) {
      FileVersion version;
      std::uint64_t modified = 0;
      if (!r.get_string(version.etag) || !r.get_u64(modified) ||
          !decode_body(r, version.content)) {
        return false;
      }
      version.modified = static_cast<util::TimePoint>(modified);
      used_ += version.content.size();
      entry.versions.push_back(std::move(version));
    }
    files_[path] = std::move(entry);
  }
  return true;
}

std::uint64_t AtticStore::fingerprint() const {
  util::Fnv1a fnv{util::Fnv1a::kLegacyBasis};
  fnv.u64(etag_counter_);
  fnv.u64(used_);
  fnv.u64(dirs_.size());
  for (const std::string& d : dirs_) fnv.str(d);
  fnv.u64(files_.size());
  for (const auto& [path, entry] : files_) {
    fnv.str(path);
    fnv.u64(entry.versions.size());
    for (const FileVersion& v : entry.versions) {
      fnv.str(v.etag);
      fnv.u64(static_cast<std::uint64_t>(v.modified));
      const http::Body& b = v.content;
      fnv.u64(b.size());
      if (b.is_real()) {
        fnv.bytes(b.bytes().data(), b.bytes().size());
      } else {
        fnv.u64(b.tag());
      }
    }
  }
  return fnv.h;
}

}  // namespace hpop::attic
