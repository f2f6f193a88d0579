#include "attic/health.hpp"

#include "attic/store.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hpop::attic {

util::Status HealthProviderSystem::link_patient(const std::string& patient,
                                                const std::string& qr_code) {
  auto grant = ProviderGrant::decode(qr_code);
  if (!grant.ok()) {
    return util::Status(grant.error());
  }
  LinkedPatient link;
  link.grant = grant.value();
  link.attic = std::make_unique<AtticClient>(
      http_, link.grant.attic_endpoint, link.grant.capability);
  linked_[patient] = std::move(link);
  HPOP_LOG(kInfo, "health") << name_ << " linked patient " << patient
                            << " -> " << grant.value().directory;
  return util::Status::success();
}

void HealthProviderSystem::add_record(HealthRecord record, WriteCallback cb) {
  record.created = sim_.now();
  store_[record.patient].push_back(record);

  const auto it = linked_.find(record.patient);
  if (it == linked_.end()) {
    // Not linked: local copy only (the pre-attic world).
    if (cb) cb(util::Status::success());
    return;
  }
  // The storage driver's duplicated write (§IV-A1): local copy kept for
  // regulatory requirements, attic copy pushed to the patient. The write
  // enters the pending queue first and is acked only once it lands, so a
  // patient-HPoP crash delays durability but never silently drops it.
  PendingWrite pw;
  pw.patient = record.patient;
  pw.path = it->second.grant.directory + "/" + record.record_id;
  pw.content = record.content;
  pw.started = sim_.now();
  pw.cb = std::move(cb);
  const std::uint64_t id = next_pending_id_++;
  if (wal_ != nullptr) {
    durable::PayloadWriter w;
    w.put_u64(id);
    w.put_string(pw.patient);
    w.put_string(pw.path);
    w.put_u64(static_cast<std::uint64_t>(pw.started));
    encode_body(w, pw.content);
    wal_->append(kWalEnqueue, w.take());
    wal_->sync();
  }
  pending_.emplace(id, std::move(pw));
  attempt_write(id);
}

void HealthProviderSystem::attempt_write(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.in_flight) return;
  const auto link = linked_.find(it->second.patient);
  if (link == linked_.end()) return;  // unlinked while pending: park
  it->second.in_flight = true;
  ++it->second.attempt;
  ++attic_writes_;
  const std::weak_ptr<int> alive = alive_;
  link->second.attic->put(
      it->second.path, it->second.content,
      [this, alive, id](util::Result<std::string> etag) {
        if (alive.expired()) return;
        const auto it = pending_.find(id);
        if (it == pending_.end()) return;
        it->second.in_flight = false;
        if (etag.ok()) {
          if (wal_ != nullptr) {
            durable::PayloadWriter w;
            w.put_u64(id);
            wal_->append(kWalComplete, w.take());
            wal_->sync();
          }
          auto cb = std::move(it->second.cb);
          pending_.erase(it);
          if (cb) cb(util::Status::success());
          return;
        }
        ++attic_write_failures_;
        if (retry_policy.may_retry(it->second.attempt, it->second.started,
                                   sim_.now())) {
          const util::Duration delay =
              retry_policy.backoff(it->second.attempt, rng_);
          sim_.schedule(delay, [this, alive, id] {
            if (!alive.expired()) attempt_write(id);
          });
        }
        // Budget exhausted: the write parks in the queue until
        // flush_pending() grants it a fresh budget.
      });
}

void HealthProviderSystem::flush_pending() {
  std::vector<std::uint64_t> parked;
  for (auto& [id, pw] : pending_) {
    if (pw.in_flight) continue;
    pw.attempt = 0;
    pw.started = sim_.now();
    parked.push_back(id);
  }
  for (const std::uint64_t id : parked) attempt_write(id);
}

void HealthProviderSystem::apply_record(const durable::WalRecord& rec) {
  durable::PayloadReader r(rec.payload);
  switch (rec.type) {
    case kWalEnqueue: {
      PendingWrite pw;
      std::uint64_t id = 0, started = 0;
      if (!r.get_u64(id) || !r.get_string(pw.patient) ||
          !r.get_string(pw.path) || !r.get_u64(started) ||
          !decode_body(r, pw.content)) {
        return;
      }
      pw.started = static_cast<util::TimePoint>(started);
      pending_.emplace(id, std::move(pw));
      if (id >= next_pending_id_) next_pending_id_ = id + 1;
      return;
    }
    case kWalComplete: {
      std::uint64_t id = 0;
      if (r.get_u64(id)) pending_.erase(id);
      return;
    }
    case durable::kSnapshotRecordType:
      restore_state(rec.payload);
      return;
    default:
      return;
  }
}

durable::Wal::RecoveryStats HealthProviderSystem::recover_from_wal(
    durable::Wal& wal) {
  pending_.clear();
  next_pending_id_ = 1;
  wal_ = &wal;
  const auto stats =
      wal.recover([this](const durable::WalRecord& rec) { apply_record(rec); });
  return stats;
}

bool HealthProviderSystem::compact_wal() {
  if (wal_ == nullptr) return false;
  return wal_->compact(serialize_state());
}

util::Bytes HealthProviderSystem::serialize_state() const {
  durable::PayloadWriter w;
  w.put_u64(next_pending_id_);
  w.put_u32(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& [id, pw] : pending_) {
    w.put_u64(id);
    w.put_string(pw.patient);
    w.put_string(pw.path);
    w.put_u64(static_cast<std::uint64_t>(pw.started));
    encode_body(w, pw.content);
  }
  return w.take();
}

bool HealthProviderSystem::restore_state(const util::Bytes& payload) {
  pending_.clear();
  durable::PayloadReader r(payload);
  std::uint32_t count = 0;
  if (!r.get_u64(next_pending_id_) || !r.get_u32(count)) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    PendingWrite pw;
    std::uint64_t id = 0, started = 0;
    if (!r.get_u64(id) || !r.get_string(pw.patient) || !r.get_string(pw.path) ||
        !r.get_u64(started) || !decode_body(r, pw.content)) {
      return false;
    }
    pw.started = static_cast<util::TimePoint>(started);
    pending_.emplace(id, std::move(pw));
  }
  return true;
}

std::uint64_t HealthProviderSystem::fingerprint() const {
  util::Fnv1a fnv{util::Fnv1a::kLegacyBasis};
  fnv.u64(next_pending_id_);
  fnv.u64(pending_.size());
  for (const auto& [id, pw] : pending_) {
    fnv.u64(id);
    fnv.str(pw.patient);
    fnv.str(pw.path);
    fnv.u64(static_cast<std::uint64_t>(pw.started));
    fnv.u64(pw.content.size());
    const util::Digest d = pw.content.digest();
    fnv.bytes(d.data(), d.size());
  }
  return fnv.h;
}

std::vector<HealthRecord> HealthProviderSystem::local_records(
    const std::string& patient) const {
  const auto it = store_.find(patient);
  return it == store_.end() ? std::vector<HealthRecord>{} : it->second;
}

void PatientHealthView::aggregate(AggregateCallback cb) {
  attic_.list("/records", [this, cb](
                              util::Result<std::vector<std::string>> dirs) {
    if (!dirs.ok()) {
      cb(util::Result<Aggregated>(dirs.error()));
      return;
    }
    auto result = std::make_shared<Aggregated>();
    auto remaining = std::make_shared<int>(
        static_cast<int>(dirs.value().size()));
    if (*remaining == 0) {
      cb(*result);
      return;
    }
    for (const std::string& dir : dirs.value()) {
      // "/records/<provider>"
      const std::string provider = dir.substr(dir.find_last_of('/') + 1);
      attic_.list(dir, [cb, result, remaining, provider](
                           util::Result<std::vector<std::string>> records) {
        if (records.ok()) {
          result->by_provider[provider] = records.value();
          result->total += records.value().size();
        }
        if (--*remaining == 0) cb(*result);
      });
    }
  });
}

}  // namespace hpop::attic
