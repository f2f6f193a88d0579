#include "hpop/dir_cluster.hpp"

#include <algorithm>

#include "util/hash.hpp"
#include "util/logging.hpp"

namespace hpop::core {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// --- HashRing --------------------------------------------------------------

HashRing::HashRing(std::size_t shards, std::uint64_t seed, int vnodes)
    : shards_(shards) {
  ring_.reserve(shards * static_cast<std::size_t>(vnodes));
  for (std::size_t s = 0; s < shards; ++s) {
    for (int v = 0; v < vnodes; ++v) {
      const std::uint64_t point = splitmix64(
          seed ^ splitmix64((static_cast<std::uint64_t>(s) << 20) +
                            static_cast<std::uint64_t>(v) + 1));
      ring_.emplace_back(point, static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

void HashRing::replicas(std::string_view household, std::size_t r,
                        std::vector<std::uint32_t>& out) const {
  out.clear();
  if (ring_.empty()) return;
  r = std::min(r, shards_);
  // FNV-1a alone has weak high-bit avalanche on short keys: sequential
  // household names ("home-0", "home-1", ...) land on neighbouring ring
  // points and pile onto a couple of shards. The finalizer scatters them.
  util::Fnv1a key{util::Fnv1a::kLegacyBasis};
  key.bytes(household.data(), household.size());
  const std::uint64_t h = splitmix64(key.h);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& p, std::uint64_t v) { return p.first < v; });
  std::size_t i = static_cast<std::size_t>(it - ring_.begin());
  for (std::size_t step = 0; step < ring_.size() && out.size() < r; ++step) {
    const std::uint32_t shard = ring_[(i + step) % ring_.size()].second;
    if (std::find(out.begin(), out.end(), shard) == out.end()) {
      out.push_back(shard);
    }
  }
}

std::vector<std::uint32_t> HashRing::replicas(std::string_view household,
                                              std::size_t r) const {
  std::vector<std::uint32_t> out;
  replicas(household, r, out);
  return out;
}

std::uint64_t HashRing::fingerprint() const {
  std::uint64_t h = util::Fnv1a::kLegacyBasis;
  for (const auto& [point, shard] : ring_) {
    h = splitmix64(h ^ point ^ shard);
  }
  return h;
}

// --- DirectoryShard --------------------------------------------------------

DirectoryShard::DirectoryShard(transport::TransportMux& mux,
                               const HashRing* ring, DirShardConfig cfg)
    : DirectoryServer(mux), ring_(ring), cfg_(cfg) {
  set_lease_ttl(cfg_.lease_ttl);
  rr_next_ = cfg_.shard_id;  // stagger round-robin starts across shards
}

DirectoryShard::~DirectoryShard() {
  if (ae_armed_) mux_.simulator().cancel(ae_timer_);
}

void DirectoryShard::set_peers(std::vector<net::Endpoint> peers) {
  peers_ = std::move(peers);
  peer_conns_.assign(peers_.size(), nullptr);
}

void DirectoryShard::start_anti_entropy() {
  if (cfg_.anti_entropy_interval <= 0) return;
  if (ae_armed_) mux_.simulator().cancel(ae_timer_);
  // Phase-offset the first tick by shard id so a fleet of shards spreads
  // its rounds instead of pushing in lockstep.
  const util::Duration first =
      cfg_.anti_entropy_interval +
      (cfg_.anti_entropy_interval * (cfg_.shard_id % 8)) / 8;
  ae_timer_ = mux_.simulator().schedule(first, [this] { anti_entropy_tick(); });
  ae_armed_ = true;
}

void DirectoryShard::handle_message(
    const std::shared_ptr<transport::TcpConnection>& conn,
    const net::PayloadPtr& msg) {
  if (const auto batch = std::dynamic_pointer_cast<const DirSyncBatch>(msg)) {
    apply_batch(*batch, conn);
    return;
  }
  if (std::dynamic_pointer_cast<const DirSyncAck>(msg)) {
    return;  // fire-and-forget pushes; the ack only confirms liveness
  }
  DirectoryServer::handle_message(conn, msg);
}

void DirectoryShard::apply_batch(
    const DirSyncBatch& batch,
    const std::shared_ptr<transport::TcpConnection>& conn) {
  ++sync_stats_.batches_received;
  const util::TimePoint now = mux_.simulator().now();
  std::uint32_t applied = 0;
  for (const DirSyncEntry& e : batch.entries) {
    // Never resurrect a lapsed lease: a dead HPoP's entry must stay dead
    // even when a slow peer pushes it after expiry.
    if (e.expires_at != 0 && now >= e.expires_at) continue;
    Registration r;
    r.advertisement = e.advertisement;
    r.version = e.version;
    r.expires_at = e.expires_at;
    if (upsert(e.household, r, /*wal_log=*/true)) ++applied;
  }
  // One durability barrier per batch, not per entry — what makes a full
  // anti-entropy round one fsync instead of thousands.
  if (applied > 0 && wal_ != nullptr) wal_->sync();
  sync_stats_.entries_applied += applied;
  auto ack = std::make_shared<DirSyncAck>();
  ack->from_shard = cfg_.shard_id;
  ack->epoch = batch.epoch;
  ack->applied = applied;
  ack->total = static_cast<std::uint32_t>(batch.entries.size());
  conn->send(ack);
}

void DirectoryShard::on_registered(const std::string& household,
                                   const Registration& reg) {
  if (ring_ == nullptr || peers_.empty()) return;
  ring_->replicas(household, cfg_.replication, scratch_);
  auto batch = std::make_shared<DirSyncBatch>();
  batch->from_shard = cfg_.shard_id;
  batch->epoch = sync_epoch_;
  batch->full = false;
  batch->entries.push_back(
      {household, reg.advertisement, reg.version, reg.expires_at});
  bool pushed = false;
  for (const std::uint32_t peer : scratch_) {
    if (peer == cfg_.shard_id || peer >= peers_.size()) continue;
    send_to_peer(peer, batch);
    ++sync_stats_.entries_sent;
    pushed = true;
  }
  if (pushed) ++sync_stats_.eager_pushes;
}

void DirectoryShard::send_to_peer(std::uint32_t peer, net::PayloadPtr batch) {
  auto& slot = peer_conns_[peer];
  if (!slot) {
    slot = mux_.tcp_connect(peers_[peer]);
    auto conn = slot;
    conn->set_on_message([this, conn](net::PayloadPtr msg) {
      handle_message(conn, msg);
    });
    conn->set_on_reset([this, peer, conn] {
      // Peer crashed or the path is cut: drop the connection so the next
      // push dials fresh (the peer may have restarted with a new mux).
      if (peer_conns_[peer] == conn) peer_conns_[peer] = nullptr;
    });
    conn->set_on_remote_close([this, peer, conn] {
      if (peer_conns_[peer] == conn) peer_conns_[peer] = nullptr;
    });
  }
  slot->send(std::move(batch));
}

void DirectoryShard::anti_entropy_tick() {
  // Next peer in round-robin order, skipping self.
  if (ring_ != nullptr && peers_.size() > 1) {
    for (std::size_t step = 0; step < peers_.size(); ++step) {
      rr_next_ = (rr_next_ + 1) % static_cast<std::uint32_t>(peers_.size());
      if (rr_next_ != cfg_.shard_id) break;
    }
    if (rr_next_ != cfg_.shard_id) push_full_state(rr_next_);
  }
  ae_timer_ = mux_.simulator().schedule(cfg_.anti_entropy_interval,
                                        [this] { anti_entropy_tick(); });
}

void DirectoryShard::push_full_state(std::uint32_t peer) {
  ++sync_epoch_;
  ++sync_stats_.rounds;
  const util::TimePoint now = mux_.simulator().now();
  auto batch = std::make_shared<DirSyncBatch>();
  batch->from_shard = cfg_.shard_id;
  batch->epoch = sync_epoch_;
  batch->full = true;
  for (const auto& [household, reg] : households_) {
    if (reg.expires_at != 0 && now >= reg.expires_at) continue;
    ring_->replicas(household.str(), cfg_.replication, scratch_);
    if (std::find(scratch_.begin(), scratch_.end(), peer) == scratch_.end()) {
      continue;
    }
    batch->entries.push_back({std::string(household.str()), reg.advertisement,
                              reg.version, reg.expires_at});
  }
  if (batch->entries.empty()) return;
  sync_stats_.entries_sent += batch->entries.size();
  send_to_peer(peer, std::move(batch));
}

// --- DirectoryClient -------------------------------------------------------

struct DirectoryClient::Pending {
  std::string household;
  std::vector<std::uint32_t> replicas;
  std::size_t idx = 0;
  int round = 1;
  int attempts_this_round = 0;
  bool forced = false;  // breaker override used (all replicas were open)
  bool any_not_found = false;
  bool any_busy = false;
  util::Duration busy_hint = 0;
  util::TimePoint started = 0;
  ResolveCallback cb;
};

DirectoryClient::DirectoryClient(transport::TransportMux& mux,
                                 const HashRing* ring,
                                 std::vector<net::Endpoint> shards,
                                 DirClientConfig cfg, util::Rng rng)
    : mux_(mux),
      ring_(ring),
      shards_(std::move(shards)),
      cfg_(cfg),
      rng_(rng) {
  breakers_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    breakers_.emplace_back(cfg_.breaker, &rng_);
  }
}

void DirectoryClient::lookup(const std::string& household,
                             LookupCallback cb) {
  resolve(household, [cb = std::move(cb)](
                         util::Result<traversal::Advertisement> r,
                         std::uint32_t) { cb(std::move(r)); });
}

void DirectoryClient::resolve(const std::string& household,
                              ResolveCallback cb) {
  ++stats_.lookups;
  auto p = std::make_shared<Pending>();
  p->household = household;
  ring_->replicas(household, cfg_.replication, p->replicas);
  p->started = mux_.simulator().now();
  p->cb = std::move(cb);
  if (p->replicas.empty()) {
    ++stats_.unreachable;
    p->cb(util::Result<traversal::Advertisement>::failure(
              "directory_unreachable", "no directory shards"),
          0);
    return;
  }
  attempt(p);
}

void DirectoryClient::next_attempt(const std::shared_ptr<Pending>& p) {
  ++p->idx;
  attempt(p);
}

void DirectoryClient::attempt(const std::shared_ptr<Pending>& p) {
  sim::Simulator& sim = mux_.simulator();
  const util::TimePoint now = sim.now();
  // Skip shards whose breaker is open — unless that would skip the whole
  // replica set without a single wire attempt, in which case force the
  // first replica (fail fast is worse than fail certain).
  while (p->idx < p->replicas.size() && !p->forced &&
         !breakers_[p->replicas[p->idx]].allow(now)) {
    ++stats_.breaker_skips;
    ++p->idx;
  }
  if (p->idx >= p->replicas.size()) {
    if (p->attempts_this_round == 0 && !p->forced && !p->any_not_found) {
      p->forced = true;
      p->idx = 0;
      attempt(p);
      return;
    }
    // Round exhausted.
    if (p->any_not_found) {
      // Every replica that answered agreed the household is absent.
      ++stats_.not_found;
      p->cb(util::Result<traversal::Advertisement>::failure(
                "not_found", "household not registered"),
            0);
      return;
    }
    if (cfg_.retry.may_retry(p->round, p->started, now)) {
      const util::Duration delay = cfg_.retry.backoff_with_hint(
          p->round, rng_, p->any_busy ? p->busy_hint : 0);
      ++p->round;
      p->idx = 0;
      p->attempts_this_round = 0;
      p->forced = false;
      sim.schedule(delay, [this, p] { attempt(p); });
      return;
    }
    if (p->any_busy) {
      ++stats_.busy;
      p->cb(util::Result<traversal::Advertisement>::failure(
                "directory_busy", "every replica shed the lookup"),
            0);
    } else {
      ++stats_.unreachable;
      p->cb(util::Result<traversal::Advertisement>::failure(
                "directory_unreachable", "no directory replica reachable"),
            0);
    }
    return;
  }

  const std::uint32_t s = p->replicas[p->idx];
  if (p->idx > 0 || p->round > 1) ++stats_.failovers;
  ++p->attempts_this_round;
  auto conn = mux_.tcp_connect(shards_[s]);
  auto req = std::make_shared<DirLookupRequest>();
  req->household = p->household;
  req->txn = next_txn_++;
  conn->set_on_established([conn, req] { conn->send(req); });
  auto done = std::make_shared<bool>(false);
  auto timer = std::make_shared<sim::TimerId>(
      sim.schedule(cfg_.attempt_timeout, [this, p, conn, done, s] {
        if (*done) return;
        *done = true;
        ++stats_.timeouts;
        breakers_[s].record_failure(mux_.simulator().now());
        conn->abort();
        next_attempt(p);
      }));
  conn->set_on_message([this, p, conn, done, timer, s](net::PayloadPtr msg) {
    const auto resp = std::dynamic_pointer_cast<const DirLookupResponse>(msg);
    if (!resp || *done) return;
    *done = true;
    sim::Simulator& sim2 = mux_.simulator();
    sim2.cancel(*timer);
    conn->close();
    if (resp->busy) {
      const util::Duration hold =
          static_cast<util::Duration>(resp->retry_after_s) * util::kSecond;
      breakers_[s].force_open(sim2.now(), hold);
      p->any_busy = true;
      p->busy_hint = std::max(p->busy_hint, hold);
      next_attempt(p);
      return;
    }
    breakers_[s].record_success(sim2.now());
    if (resp->found) {
      ++stats_.ok;
      p->cb(resp->advertisement, s);
      return;
    }
    p->any_not_found = true;
    next_attempt(p);
  });
  conn->set_on_reset([this, p, done, timer, s] {
    if (*done) return;
    *done = true;
    mux_.simulator().cancel(*timer);
    breakers_[s].record_failure(mux_.simulator().now());
    next_attempt(p);
  });
}

void DirectoryClient::connect(const std::string& household,
                              ConnectCallback cb) {
  resolve(household, [this, household, cb = std::move(cb)](
                         util::Result<traversal::Advertisement> adv,
                         std::uint32_t shard) {
    using Conn = util::Result<std::shared_ptr<transport::TcpConnection>>;
    if (!adv.ok()) {
      cb(Conn::failure(adv.error().code, adv.error().message));
      return;
    }
    if (adv.value().method == traversal::ReachMethod::kUnreachable) {
      cb(Conn::failure("unreachable", "household HPoP is unreachable"));
      return;
    }
    if (adv.value().rendezvous_required) {
      rendezvous_and_connect(adv.value(), household, shard, cb);
    } else {
      cb(mux_.tcp_connect(adv.value().endpoint));
    }
  });
}

void DirectoryClient::rendezvous_and_connect(
    const traversal::Advertisement& adv, const std::string& household,
    std::uint32_t shard, ConnectCallback cb) {
  using Conn = util::Result<std::shared_ptr<transport::TcpConnection>>;
  sim::Simulator& sim = mux_.simulator();
  // Pre-choose our source port and announce it, so the HPoP can punch the
  // exact (address, port) pair even through port-restricted filters.
  const std::uint16_t source_port = mux_.host().allocate_port();
  auto control = mux_.tcp_connect(shards_[shard]);
  auto req = std::make_shared<DirRendezvousRequest>();
  req->household = household;
  req->client = {mux_.host().address(), source_port};
  req->txn = next_txn_++;
  control->set_on_established([control, req] { control->send(req); });
  auto done = std::make_shared<bool>(false);
  // An HPoP that went down after registering never answers: bound the
  // wait like any other directory attempt.
  auto timer = std::make_shared<sim::TimerId>(
      sim.schedule(cfg_.attempt_timeout, [control, cb, done] {
        if (*done) return;
        *done = true;
        control->abort();
        cb(Conn::failure("rendezvous_failed",
                         "HPoP did not answer the rendezvous in time"));
      }));
  control->set_on_message([this, control, adv, source_port, cb, done,
                           timer](net::PayloadPtr msg) {
    const auto ready =
        std::dynamic_pointer_cast<const DirRendezvousReady>(msg);
    if (!ready || *done) return;
    *done = true;
    mux_.simulator().cancel(*timer);
    control->close();
    if (!ready->ok) {
      cb(Conn::failure(ready->busy ? "directory_busy" : "rendezvous_failed",
                       ready->busy ? "directory overloaded; retry after " +
                                         std::to_string(ready->retry_after_s) +
                                         "s"
                                   : "HPoP did not acknowledge rendezvous"));
      return;
    }
    transport::TcpOptions opts;
    opts.local_port = source_port;
    cb(mux_.tcp_connect(adv.endpoint, opts));
  });
  control->set_on_reset([this, cb, done, timer] {
    if (*done) return;
    *done = true;
    mux_.simulator().cancel(*timer);
    cb(Conn::failure("directory_unreachable", "could not reach directory"));
  });
}

// --- DirectoryRegistration -------------------------------------------------

DirectoryRegistration::DirectoryRegistration(
    transport::TransportMux& mux, const HashRing* ring,
    std::vector<net::Endpoint> shards, std::string household,
    DirRegistrationConfig cfg, util::Rng rng,
    traversal::ReachabilityManager* reach)
    : mux_(mux),
      ring_(ring),
      shards_(std::move(shards)),
      household_(std::move(household)),
      cfg_(cfg),
      rng_(rng),
      reach_(reach) {
  ring_->replicas(household_, cfg_.replication, replicas_);
}

DirectoryRegistration::~DirectoryRegistration() {
  cancel_timers();
}

void DirectoryRegistration::cancel_timers() {
  for (ReplicaLoop& loop : loops_) {
    if (loop.ack_armed) {
      mux_.simulator().cancel(loop.ack_timer);
      loop.ack_armed = false;
    }
    if (loop.next_armed) {
      mux_.simulator().cancel(loop.next_timer);
      loop.next_armed = false;
    }
  }
}

void DirectoryRegistration::register_advertisement(
    const traversal::Advertisement& adv) {
  adv_ = adv;
  if (loops_.empty()) {
    loops_.resize(replicas_.size());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      loops_[i].shard = replicas_[i];
    }
  }
  for (std::size_t i = 0; i < loops_.size(); ++i) attempt_register(i);
}

void DirectoryRegistration::attempt_register(std::size_t li) {
  ReplicaLoop& loop = loops_[li];
  if (!loop.control) {
    loop.control = mux_.tcp_connect(shards_[loop.shard]);
    auto conn = loop.control;
    conn->set_on_message([this, conn, li](net::PayloadPtr msg) {
      ReplicaLoop& l = loops_[li];
      if (conn != l.control) return;  // superseded by a retry
      if (const auto ack =
              std::dynamic_pointer_cast<const DirRegisterAck>(msg)) {
        if (!ack->ok || ack->txn != l.awaiting_txn) return;
        l.awaiting_txn = 0;
        if (l.ack_armed) {
          mux_.simulator().cancel(l.ack_timer);
          l.ack_armed = false;
        }
        ++stats_.acks;
        last_ack_at_ = mux_.simulator().now();
        granted_lease_s_ = ack->lease_s;
        l.attempt = 0;
        if (cfg_.auto_renew && ack->lease_s > 0) {
          const util::Duration renew_in =
              static_cast<util::Duration>(ack->lease_s) * util::kSecond / 2;
          if (l.next_armed) mux_.simulator().cancel(l.next_timer);
          l.next_timer = mux_.simulator().schedule(renew_in, [this, li] {
            ++stats_.renews;
            attempt_register(li);
          });
          l.next_armed = true;
        }
        return;
      }
      if (const auto rdv =
              std::dynamic_pointer_cast<const DirRendezvousRequest>(msg)) {
        if (reach_ == nullptr) return;
        reach_->expect_peer(rdv->client);
        auto ready = std::make_shared<DirRendezvousReady>();
        ready->txn = rdv->txn;
        ready->ok = true;
        conn->send(ready);
      }
    });
    conn->set_on_reset([this, conn, li] {
      ReplicaLoop& l = loops_[li];
      if (conn != l.control) return;
      l.control = nullptr;
      if (l.awaiting_txn != 0) fail_attempt(li);
    });
  }
  auto reg = std::make_shared<DirRegister>();
  reg->household = household_;
  reg->advertisement = adv_;
  reg->lease_s = cfg_.lease_s;
  reg->txn = next_txn_++;
  loop.awaiting_txn = reg->txn;
  loop.control->send(reg);
  if (loop.ack_armed) mux_.simulator().cancel(loop.ack_timer);
  loop.ack_timer = mux_.simulator().schedule(cfg_.ack_timeout,
                                             [this, li] { fail_attempt(li); });
  loop.ack_armed = true;
}

void DirectoryRegistration::fail_attempt(std::size_t li) {
  ReplicaLoop& loop = loops_[li];
  if (loop.ack_armed) {
    mux_.simulator().cancel(loop.ack_timer);
    loop.ack_armed = false;
  }
  loop.awaiting_txn = 0;
  ++stats_.ack_timeouts;
  if (loop.control) {
    loop.control->abort();
    loop.control = nullptr;
  }
  ++stats_.failovers;
  ++loop.attempt;
  // Unbounded retries on purpose — an HPoP that stops trying to register
  // goes dark for its whole household on this replica. The policy's
  // max_backoff bounds the pace; max_attempts only bounds how far the
  // exponent climbs.
  const util::Duration delay = cfg_.retry.backoff(
      std::min(loop.attempt, cfg_.retry.max_attempts), rng_);
  if (loop.next_armed) mux_.simulator().cancel(loop.next_timer);
  loop.next_timer =
      mux_.simulator().schedule(delay, [this, li] { attempt_register(li); });
  loop.next_armed = true;
}

// --- DirectoryCluster ------------------------------------------------------

DirectoryCluster::DirectoryCluster(std::vector<net::Host*> hosts,
                                   DirClusterConfig cfg, util::Rng rng)
    : cfg_(cfg) {
  cfg_.shards = hosts.size();
  ring_ = HashRing(cfg_.shards);
  slots_.resize(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    slots_[i].host = hosts[i];
    slots_[i].device = std::make_unique<durable::StorageDevice>(
        hosts[i]->name() + "-dirdisk", rng.fork());
    build_shard(i, /*recover=*/false);
  }
  // Peer endpoints exist only after every slot is built; wire them now.
  const std::vector<net::Endpoint> eps = endpoints();
  for (ShardSlot& slot : slots_) {
    slot.shard->set_peers(eps);
    slot.shard->start_anti_entropy();
  }
}

void DirectoryCluster::build_shard(std::size_t i, bool recover) {
  ShardSlot& slot = slots_[i];
  slot.mux = std::make_unique<transport::TransportMux>(*slot.host);
  slot.wal = std::make_unique<durable::Wal>(*slot.device, "directory.wal");
  DirShardConfig scfg;
  scfg.shard_id = static_cast<std::uint32_t>(i);
  scfg.replication = cfg_.replication;
  scfg.anti_entropy_interval = cfg_.anti_entropy_interval;
  scfg.lease_ttl = cfg_.lease_ttl;
  slot.shard = std::make_unique<DirectoryShard>(*slot.mux, &ring_, scfg);
  slot.shard->recover_from_wal(*slot.wal);
  if (recover) {
    slot.shard->set_peers(endpoints());
    slot.shard->start_anti_entropy();
  }
}

std::vector<net::Endpoint> DirectoryCluster::endpoints() const {
  std::vector<net::Endpoint> eps;
  eps.reserve(slots_.size());
  for (const ShardSlot& slot : slots_) {
    eps.push_back({slot.host->address(), DirectoryServer::kDefaultPort});
  }
  return eps;
}

DirClientConfig DirectoryCluster::client_config() const {
  DirClientConfig c;
  c.replication = cfg_.replication;
  return c;
}

void DirectoryCluster::register_with_chaos(fault::ChaosController& chaos) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ShardSlot& slot = slots_[i];
    chaos.register_node(
        slot.host->name(), slot.host,
        [this, i] {
          // Process death: services, WAL handle, and sockets all go. The
          // device already crashed (chaos crashes attached devices first),
          // so the on-disk image is exactly what recovery will scan.
          slots_[i].shard.reset();
          slots_[i].wal.reset();
          slots_[i].mux.reset();
        },
        [this, i] { build_shard(i, /*recover=*/true); });
    chaos.attach_device(slot.host->name(), slot.device.get());
  }
}

bool DirectoryCluster::resolves(const std::string& household) const {
  std::vector<std::uint32_t> reps;
  ring_.replicas(household, cfg_.replication, reps);
  for (const std::uint32_t s : reps) {
    const DirectoryShard* shard = slots_[s].shard.get();
    if (shard != nullptr && shard->would_resolve(household)) return true;
  }
  return false;
}

std::uint64_t DirectoryCluster::fingerprint() const {
  std::uint64_t h = util::Fnv1a::kLegacyBasis;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::uint64_t fp =
        slots_[i].shard ? slots_[i].shard->fingerprint() : 0;
    h = splitmix64(h ^ splitmix64(i) ^ fp);
  }
  return h;
}

DirectoryShard::SyncStats DirectoryCluster::sync_totals() const {
  DirectoryShard::SyncStats t;
  for (const ShardSlot& slot : slots_) {
    if (!slot.shard) continue;
    const DirectoryShard::SyncStats& s = slot.shard->sync_stats();
    t.rounds += s.rounds;
    t.entries_sent += s.entries_sent;
    t.eager_pushes += s.eager_pushes;
    t.batches_received += s.batches_received;
    t.entries_applied += s.entries_applied;
  }
  return t;
}

}  // namespace hpop::core
