#include "hpop/directory.hpp"

#include <algorithm>
#include <vector>

#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hpop::core {

DirectoryServer::DirectoryServer(transport::TransportMux& mux,
                                 std::uint16_t port)
    : mux_(mux), listener_(mux.tcp_listen(port)) {
  listener_->set_on_accept(
      [this](std::shared_ptr<transport::TcpConnection> conn) {
        conn->set_on_message([this, conn](net::PayloadPtr msg) {
          handle_message(conn, msg);
        });
        conn->set_on_remote_close([conn] { conn->close(); });
      });
}

DirectoryServer::~DirectoryServer() {
  if (sweep_armed_) mux_.simulator().cancel(sweep_timer_);
}

bool DirectoryServer::expired(const Registration& reg) const {
  return reg.expires_at != 0 && mux_.simulator().now() >= reg.expires_at;
}

const DirectoryServer::Registration* DirectoryServer::find_live(
    const std::string& household) {
  const Registration* r = households_.find(household);
  if (r == nullptr) return nullptr;
  if (expired(*r)) {
    // The lease lapsed: the HPoP stopped renewing (died for good, or moved
    // to another shard). Serving the stale advertisement would point
    // clients at a dead endpoint forever — drop it instead. This check is
    // what keeps WAL-recovered entries honest too.
    households_.erase(household);
    ++stats_.expired_dropped;
    return nullptr;
  }
  return r;
}

bool DirectoryServer::would_resolve(const std::string& household) const {
  const Registration* r = households_.find(household);
  return r != nullptr && !expired(*r);
}

std::uint64_t DirectoryServer::next_version(
    const std::string& household) const {
  const auto now = static_cast<std::uint64_t>(mux_.simulator().now());
  const Registration* r = households_.find(household);
  return r == nullptr ? std::max<std::uint64_t>(now, 1)
                      : std::max(now, r->version + 1);
}

bool DirectoryServer::upsert(const std::string& household,
                             const Registration& reg, bool wal_log) {
  Registration* existing = households_.find(household);
  if (existing != nullptr && reg.version <= existing->version) return false;
  Registration stored = reg;
  if (!stored.control && existing != nullptr) {
    // Replication / recovery writes carry no socket; keep the live control
    // connection so rendezvous relaying survives an anti-entropy overwrite.
    stored.control = existing->control;
  }
  if (wal_log && wal_ != nullptr) wal_append(household, stored);
  households_.insert_or_assign(household, std::move(stored));
  return true;
}

void DirectoryServer::wal_append(std::string_view household,
                                 const Registration& reg) {
  durable::PayloadWriter w;
  w.put_string(household);
  w.put_u8(static_cast<std::uint8_t>(reg.advertisement.method));
  w.put_u32(reg.advertisement.endpoint.ip.value);
  w.put_u32(reg.advertisement.endpoint.port);
  w.put_u8(reg.advertisement.rendezvous_required ? 1 : 0);
  w.put_u64(reg.version);
  w.put_u64(static_cast<std::uint64_t>(reg.expires_at));
  wal_->append(kWalRegister, w.take());
}

void DirectoryServer::handle_message(
    const std::shared_ptr<transport::TcpConnection>& conn,
    const net::PayloadPtr& msg) {
  if (const auto reg = std::dynamic_pointer_cast<const DirRegister>(msg)) {
    const util::TimePoint now = mux_.simulator().now();
    const util::Duration granted =
        reg->lease_s > 0
            ? static_cast<util::Duration>(reg->lease_s) * util::kSecond
            : lease_ttl_;
    Registration r;
    r.advertisement = reg->advertisement;
    r.control = conn;
    r.version = next_version(reg->household);
    r.expires_at = granted > 0 ? now + granted : 0;
    upsert(reg->household, r, /*wal_log=*/true);
    if (wal_ != nullptr) wal_->sync();
    ++stats_.registrations;
    HPOP_LOG(kInfo, "directory")
        << "registered " << reg->household << " via "
        << traversal::to_string(reg->advertisement.method);
    auto ack = std::make_shared<DirRegisterAck>();
    ack->txn = reg->txn;
    ack->ok = true;
    ack->lease_s = static_cast<std::uint32_t>(granted / util::kSecond);
    conn->send(ack);
    on_registered(reg->household, *households_.find(reg->household));
    return;
  }
  if (const auto lookup =
          std::dynamic_pointer_cast<const DirLookupRequest>(msg)) {
    ++stats_.lookups;
    auto resp = std::make_shared<DirLookupResponse>();
    resp->txn = lookup->txn;
    util::Duration hint = 0;
    if (admission_ && !admission_->try_admit_instant(
                          overload::Class::kThirdParty, &hint)) {
      ++sheds_;
      resp->busy = true;
      resp->retry_after_s = static_cast<std::uint32_t>(
          std::max<util::Duration>(hint, util::kSecond) / util::kSecond);
      conn->send(resp);
      return;
    }
    if (const Registration* r = find_live(lookup->household)) {
      resp->found = true;
      resp->advertisement = r->advertisement;
      ++stats_.lookup_hits;
    }
    conn->send(resp);
    return;
  }
  if (const auto rdv =
          std::dynamic_pointer_cast<const DirRendezvousRequest>(msg)) {
    util::Duration hint = 0;
    if (admission_ && !admission_->try_admit_instant(
                          overload::Class::kOwner, &hint)) {
      ++sheds_;
      auto ready = std::make_shared<DirRendezvousReady>();
      ready->txn = rdv->txn;
      ready->ok = false;
      ready->busy = true;
      ready->retry_after_s = static_cast<std::uint32_t>(
          std::max<util::Duration>(hint, util::kSecond) / util::kSecond);
      conn->send(ready);
      return;
    }
    const Registration* r = find_live(rdv->household);
    if (r == nullptr || !r->control) {
      auto ready = std::make_shared<DirRendezvousReady>();
      ready->txn = rdv->txn;
      ready->ok = false;
      conn->send(ready);
      return;
    }
    // A requester gives up at its attempt timeout and aborts its control
    // connection, so a waiter whose requester is gone will never be
    // answered: drop those before filing the next.
    std::erase_if(rendezvous_waiters_, [](const auto& entry) {
      return entry.second.requester.expired();
    });
    const std::uint64_t relay = next_relay_id_++;
    rendezvous_waiters_[relay] = {conn, rdv->txn};
    auto forward = std::make_shared<DirRendezvousRequest>(*rdv);
    forward->txn = relay;
    r->control->send(forward);
    return;
  }
  if (const auto ready =
          std::dynamic_pointer_cast<const DirRendezvousReady>(msg)) {
    // Relayed back from the HPoP to the waiting requester, under the
    // requester's own txn.
    const auto it = rendezvous_waiters_.find(ready->txn);
    if (it == rendezvous_waiters_.end()) return;
    if (const auto waiter = it->second.requester.lock()) {
      auto relayed = std::make_shared<DirRendezvousReady>(*ready);
      relayed->txn = it->second.txn;
      waiter->send(relayed);
    }
    rendezvous_waiters_.erase(it);
    return;
  }
}

void DirectoryServer::start_expiry_sweep(util::Duration interval) {
  if (sweep_armed_) mux_.simulator().cancel(sweep_timer_);
  sweep_interval_ = interval;
  sweep_timer_ =
      mux_.simulator().schedule(interval, [this] { expiry_sweep_tick(); });
  sweep_armed_ = true;
}

void DirectoryServer::expiry_sweep_tick() {
  std::vector<std::string> dead;
  for (const auto& [household, reg] : households_) {
    if (expired(reg)) dead.emplace_back(household.str());
  }
  for (const std::string& h : dead) {
    households_.erase(h);
    ++stats_.expired_dropped;
  }
  sweep_timer_ = mux_.simulator().schedule(sweep_interval_,
                                           [this] { expiry_sweep_tick(); });
}

void DirectoryServer::apply_record(const durable::WalRecord& rec) {
  if (rec.type == durable::kSnapshotRecordType) {
    restore_state(rec.payload);
    return;
  }
  if (rec.type != kWalRegister) return;
  durable::PayloadReader r(rec.payload);
  std::string household;
  std::uint8_t method = 0, rendezvous = 0;
  std::uint32_t ip = 0, port = 0;
  std::uint64_t version = 0, expires = 0;
  if (!r.get_string(household) || !r.get_u8(method) || !r.get_u32(ip) ||
      !r.get_u32(port) || !r.get_u8(rendezvous) || !r.get_u64(version) ||
      !r.get_u64(expires)) {
    return;
  }
  Registration reg;
  reg.advertisement.method = static_cast<traversal::ReachMethod>(method);
  reg.advertisement.endpoint = {net::IpAddr(ip),
                                static_cast<std::uint16_t>(port)};
  reg.advertisement.rendezvous_required = rendezvous != 0;
  reg.version = version;
  reg.expires_at = static_cast<util::TimePoint>(expires);
  // Replay in version order: the log is append-ordered, so plain LWW
  // upsert (no WAL re-log) reconstructs the latest entry per household.
  upsert(household, reg, /*wal_log=*/false);
}

durable::Wal::RecoveryStats DirectoryServer::recover_from_wal(
    durable::Wal& wal) {
  households_.clear();
  wal_ = &wal;
  return wal.recover(
      [this](const durable::WalRecord& rec) { apply_record(rec); });
}

bool DirectoryServer::compact_wal() {
  if (wal_ == nullptr) return false;
  return wal_->compact(serialize_state());
}

util::Bytes DirectoryServer::serialize_state() const {
  durable::PayloadWriter w;
  w.put_u32(static_cast<std::uint32_t>(households_.size()));
  for (const auto& [household, reg] : households_) {
    w.put_string(household.str());
    w.put_u8(static_cast<std::uint8_t>(reg.advertisement.method));
    w.put_u32(reg.advertisement.endpoint.ip.value);
    w.put_u32(reg.advertisement.endpoint.port);
    w.put_u8(reg.advertisement.rendezvous_required ? 1 : 0);
    w.put_u64(reg.version);
    w.put_u64(static_cast<std::uint64_t>(reg.expires_at));
  }
  return w.take();
}

bool DirectoryServer::restore_state(const util::Bytes& payload) {
  households_.clear();
  durable::PayloadReader r(payload);
  std::uint32_t count = 0;
  if (!r.get_u32(count)) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string household;
    std::uint8_t method = 0, rendezvous = 0;
    std::uint32_t ip = 0, port = 0;
    std::uint64_t version = 0, expires = 0;
    if (!r.get_string(household) || !r.get_u8(method) || !r.get_u32(ip) ||
        !r.get_u32(port) || !r.get_u8(rendezvous) || !r.get_u64(version) ||
        !r.get_u64(expires)) {
      return false;
    }
    Registration reg;
    reg.advertisement.method = static_cast<traversal::ReachMethod>(method);
    reg.advertisement.endpoint = {net::IpAddr(ip),
                                  static_cast<std::uint16_t>(port)};
    reg.advertisement.rendezvous_required = rendezvous != 0;
    reg.version = version;
    reg.expires_at = static_cast<util::TimePoint>(expires);
    households_.insert_or_assign(household, std::move(reg));
  }
  return true;
}

std::uint64_t DirectoryServer::fingerprint() const {
  util::Fnv1a fnv{util::Fnv1a::kLegacyBasis};
  for (const auto& [household, reg] : households_) {
    fnv.str(household.str());
    fnv.u64(static_cast<std::uint64_t>(reg.advertisement.method));
    fnv.u64(reg.advertisement.endpoint.ip.value);
    fnv.u64(reg.advertisement.endpoint.port);
    fnv.u64(reg.advertisement.rendezvous_required ? 1 : 0);
    fnv.u64(reg.version);
    fnv.u64(static_cast<std::uint64_t>(reg.expires_at));
  }
  return fnv.h;
}

void DirectoryServer::enable_admission(overload::AdmissionConfig config) {
  admission_ = std::make_unique<overload::AdmissionController>(
      mux_.simulator(), "hpop.directory", config);
}

}  // namespace hpop::core
