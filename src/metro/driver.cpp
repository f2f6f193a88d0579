#include "metro/driver.hpp"

#include <algorithm>
#include <cstdio>

#include "util/check.hpp"

namespace hpop::metro {

namespace {
/// The one content provider every metro day serves.
constexpr const char* kProvider = "metro-news";
/// Body size of each attic record sync (PUT and read-back GET).
constexpr std::size_t kAtticRecordBytes = 2048;
/// How often each NoCDN peer uploads its signed usage records.
constexpr util::Duration kUsageUploadInterval = 10 * util::kSecond;
/// Probability an arrival also probes a random silent household (stale
/// detection); renewing households are looked up on every arrival.
constexpr double kDirSilentProbeP = 0.25;
}  // namespace

MetroDriver::MetroDriver(MetroTopology& topo, WorkloadModel model,
                         MetroDriverConfig config, util::Rng rng)
    : topo_(topo),
      model_(std::move(model)),
      config_(std::move(config)),
      rng_(rng),
      sim_(topo.homes.empty() ? topo.origins.at(0)->simulator()
                              : topo.homes.front()->simulator()) {
  // Resolve the role layout against the actual home count. Each host gets
  // at most one TransportMux, so the roles must not overlap.
  const std::size_t homes = topo_.homes.size();
  config_.peers = std::clamp<std::size_t>(config_.peers, 1,
                                          std::max<std::size_t>(1, homes / 2));
  const std::size_t after_peers =
      homes > config_.peers ? homes - config_.peers : 0;
  config_.attic_pairs = std::min(config_.attic_pairs, after_peers / 4);
  // Directory shard hosts sit between the peer region and the attic tail.
  config_.dir_shards = std::min(
      config_.dir_shards,
      (after_peers - 2 * config_.attic_pairs) / 2);
  const std::size_t reserved =
      config_.peers + 2 * config_.attic_pairs + config_.dir_shards;
  config_.active_homes =
      std::min(config_.active_homes, homes > reserved ? homes - reserved : 0);

  peer_region_begin_ = config_.active_homes;
  dir_region_begin_ = homes - 2 * config_.attic_pairs - config_.dir_shards;
  const std::size_t peer_region_size = dir_region_begin_ - peer_region_begin_;
  peer_stride_ = std::max<std::size_t>(1, peer_region_size / config_.peers);

  config_.dir_registered_homes =
      std::min(config_.dir_registered_homes, config_.active_homes);
  config_.dir_silent_homes =
      std::min(config_.dir_silent_homes, config_.dir_registered_homes);
}

MetroDriver::~MetroDriver() = default;

std::size_t MetroDriver::peer_home(std::size_t i) const {
  return peer_region_begin_ + i * peer_stride_;
}

void MetroDriver::start() {
  // Origin on the first IXP-side host.
  origin_mux_ = std::make_unique<transport::TransportMux>(*topo_.origins.at(0));
  nocdn::OriginConfig ocfg;
  ocfg.provider = kProvider;
  origin_server_ = std::make_unique<nocdn::OriginServer>(*origin_mux_, ocfg,
                                                         rng_.fork());
  const ZipfCatalog& catalog = model_.catalog();
  for (std::size_t rank = 0; rank < catalog.objects(); ++rank) {
    origin_server_->add_object(
        {catalog.url_of(rank),
         http::Body::synthetic(catalog.bytes_of(rank), rank)});
    // One container object per page, no embeds: each page load fetches
    // exactly its rank's object, so delivered traffic follows the Zipf
    // draw sequence exactly.
    origin_server_->add_page({catalog.page_of(rank), catalog.url_of(rank), {}});
  }
  const net::Endpoint origin_ep{topo_.origins.at(0)->address(), ocfg.port};

  // Peer proxies, spread across the metro so every PoP-ish region has
  // nearby serving capacity.
  peers_.resize(config_.peers);
  for (std::size_t i = 0; i < config_.peers; ++i) {
    net::Host& host = *topo_.homes.at(peer_home(i));
    PeerSlot& slot = peers_[i];
    slot.mux = std::make_unique<transport::TransportMux>(host);
    slot.proxy =
        std::make_unique<nocdn::PeerProxy>(*slot.mux, 8080, rng_.fork());
    const std::uint64_t id =
        origin_server_->recruit_peer({host.address(), 8080});
    slot.proxy->signup({kProvider, id, origin_ep});
    slot.proxy->start_usage_uploads(kUsageUploadInterval);
  }

  // Browsing homes: slots exist up front, stacks are built lazily on the
  // first arrival so dark-quiet homes cost nothing beyond the vector slot.
  clients_.resize(config_.active_homes);
  for (std::size_t h = 0; h < config_.active_homes; ++h) schedule_next(h);

  // Attic-style record sync between tail-home pairs: the store half runs a
  // plain HTTP record endpoint, the client half PUTs a fresh record every
  // interval and reads it back.
  attic_.resize(config_.attic_pairs);
  for (std::size_t i = 0; i < config_.attic_pairs; ++i) {
    AtticPair& pair = attic_[i];
    pair.store_home = topo_.homes.size() - 1 - 2 * i;
    pair.client_home = topo_.homes.size() - 2 - 2 * i;
    net::Host& store_host = *topo_.homes.at(pair.store_home);
    pair.store_mux = std::make_unique<transport::TransportMux>(store_host);
    pair.store = std::make_unique<http::HttpServer>(*pair.store_mux, 8081);
    pair.store->route(http::Method::kPut, "/rec/",
                      [](const http::Request&, http::ResponseWriter& w) {
                        w.respond({204, {}, {}});
                      });
    pair.store->route(http::Method::kGet, "/rec/",
                      [](const http::Request& req, http::ResponseWriter& w) {
                        http::Response resp;
                        resp.body = http::Body::synthetic(
                            kAtticRecordBytes,
                            std::hash<std::string>{}(req.path));
                        w.respond(std::move(resp));
                      });
    pair.client_mux = std::make_unique<transport::TransportMux>(
        *topo_.homes.at(pair.client_home));
    pair.client =
        std::make_unique<http::HttpClient>(*pair.client_mux, rng_.fork());
    // Stagger the pairs across one interval so they don't synchronize.
    const util::Duration offset = static_cast<util::Duration>(
        config_.attic_interval * (i + 1) / (config_.attic_pairs + 1));
    sim_.schedule(offset, [this, i] { attic_tick(i); });
  }

  if (config_.dir_shards > 0) start_directory();
}

void MetroDriver::start_directory() {
  std::vector<net::Host*> hosts;
  hosts.reserve(config_.dir_shards);
  for (std::size_t i = 0; i < config_.dir_shards; ++i) {
    hosts.push_back(topo_.homes.at(dir_region_begin_ + i));
  }
  core::DirClusterConfig dcfg;
  dcfg.shards = config_.dir_shards;
  dcfg.replication = config_.dir_replication;
  dcfg.lease_ttl = config_.dir_lease;
  dcfg.anti_entropy_interval = config_.dir_anti_entropy;
  cluster_ = std::make_unique<core::DirectoryCluster>(std::move(hosts), dcfg,
                                                      rng_.fork());

  // Household registrations ride the registered homes' own muxes — the
  // HPoP keeping itself resolvable is home-side work, like browsing.
  const std::size_t n = config_.dir_registered_homes;
  dir_renewing_ = n - config_.dir_silent_homes;
  dir_regs_.reserve(n);
  for (std::size_t h = 0; h < n; ++h) {
    ClientSlot& slot = ensure_client(h);
    core::DirRegistrationConfig rcfg;
    rcfg.replication = config_.dir_replication;
    const bool silent = h >= dir_renewing_;
    rcfg.auto_renew = !silent;
    if (silent) rcfg.lease_s = config_.dir_silent_lease_s;
    auto reg = std::make_unique<core::DirectoryRegistration>(
        *slot.mux, &cluster_->ring(), cluster_->endpoints(),
        topo_.homes[h]->name(), rcfg, rng_.fork());
    traversal::Advertisement adv;
    adv.method = traversal::ReachMethod::kDirect;
    adv.endpoint = {topo_.homes[h]->address(), 443};
    reg->register_advertisement(adv);
    dir_regs_.push_back(std::move(reg));
  }
}

MetroDriver::ClientSlot& MetroDriver::ensure_client(std::size_t home) {
  ClientSlot& slot = clients_[home];
  if (!slot.mux) {
    slot.mux = std::make_unique<transport::TransportMux>(*topo_.homes[home]);
    slot.http = std::make_unique<http::HttpClient>(*slot.mux, rng_.fork());
    slot.loader = std::make_unique<nocdn::LoaderClient>(
        *slot.http, net::Endpoint{topo_.origins[0]->address(), 80},
        kProvider);
  }
  if (cluster_ && !slot.dir) {
    slot.dir = std::make_unique<core::DirectoryClient>(
        *slot.mux, &cluster_->ring(), cluster_->endpoints(),
        cluster_->client_config(), rng_.fork());
  }
  return slot;
}

void MetroDriver::dir_probe(ClientSlot& slot) {
  // Resolve a random renewing household — the "find my friend's HPoP"
  // traffic every directory serves. Counted post-warmup only.
  const std::size_t target = rng_.uniform_index(dir_renewing_);
  const bool counted = sim_.now() >= config_.dir_warmup;
  const util::TimePoint started = sim_.now();
  slot.dir->lookup(
      topo_.homes[target]->name(),
      [this, counted, started](util::Result<traversal::Advertisement> r) {
        if (!counted) return;
        ++stats_.dir_lookups;
        dir_latencies_.push_back(sim_.now() - started);
        if (r.ok()) {
          ++stats_.dir_ok;
        } else if (r.error().code == "directory_busy") {
          ++stats_.dir_busy;
        } else {
          ++stats_.dir_failed;
        }
      });

  // Occasionally probe a silent household: any found answer past its
  // lease (+1 s grace) is a stale advertisement being served.
  if (config_.dir_silent_homes > 0 &&
      rng_.bernoulli(kDirSilentProbeP)) {
    const std::size_t idx =
        dir_renewing_ + rng_.uniform_index(config_.dir_silent_homes);
    core::DirectoryRegistration* reg = dir_regs_[idx].get();
    ++stats_.dir_silent_probes;
    slot.dir->lookup(
        reg->household(),
        [this, reg](util::Result<traversal::Advertisement> r) {
          if (!r.ok() || !reg->acked()) return;
          const util::TimePoint expiry =
              reg->last_ack_at() +
              static_cast<util::Duration>(reg->granted_lease_s()) *
                  util::kSecond;
          if (sim_.now() > expiry + util::kSecond) ++stats_.dir_stale_served;
        });
  }
}

void MetroDriver::schedule_next(std::size_t home) {
  const util::TimePoint t =
      model_.next_arrival(topo_, home, sim_.now(), rng_);
  if (t >= config_.horizon) return;
  sim_.schedule(t - sim_.now(), [this, home] { on_arrival(home); });
}

void MetroDriver::on_arrival(std::size_t home) {
  ++stats_.arrivals;
  ClientSlot& slot = ensure_client(home);
  const std::size_t rank = model_.draw_object(topo_, home, sim_.now(), rng_);
  slot.loader->load_page(
      model_.catalog().page_of(rank), [this](nocdn::PageLoadResult r) {
        if (r.success) {
          ++stats_.loads_ok;
          stats_.bytes_from_peers += r.bytes_from_peers;
          stats_.bytes_from_origin += r.bytes_from_origin;
          stats_.load_time_s_total +=
              static_cast<double>(r.load_time) / util::kSecond;
        } else {
          ++stats_.loads_failed;
        }
      });
  if (slot.dir && dir_renewing_ > 0) dir_probe(slot);
  schedule_next(home);
}

void MetroDriver::attic_tick(std::size_t pair_idx) {
  AtticPair& pair = attic_[pair_idx];
  const net::Endpoint store_ep{topo_.homes[pair.store_home]->address(), 8081};
  const std::string path = "/rec/" + std::to_string(pair_idx) + "/" +
                           std::to_string(pair.seq++);
  http::Request put;
  put.method = http::Method::kPut;
  put.path = path;
  put.body = http::Body::synthetic(kAtticRecordBytes, pair.seq);
  pair.client->fetch(
      store_ep, std::move(put),
      [this, pair_idx, store_ep, path](util::Result<http::Response> r) {
        if (!r.ok()) {
          ++stats_.attic_failures;
          return;
        }
        ++stats_.attic_puts;
        http::Request get;
        get.method = http::Method::kGet;
        get.path = path;
        attic_[pair_idx].client->fetch(
            store_ep, std::move(get), [this](util::Result<http::Response> g) {
              if (g.ok()) {
                ++stats_.attic_gets;
              } else {
                ++stats_.attic_failures;
              }
            });
      });
  if (sim_.now() + config_.attic_interval < config_.horizon) {
    sim_.schedule(config_.attic_interval,
                  [this, pair_idx] { attic_tick(pair_idx); });
  }
}

double MetroDriver::dir_success_rate() const {
  return stats_.dir_lookups > 0
             ? static_cast<double>(stats_.dir_ok) /
                   static_cast<double>(stats_.dir_lookups)
             : 1.0;
}

core::DirectoryClient::Stats MetroDriver::dir_client_totals() const {
  core::DirectoryClient::Stats total;
  for (const auto& slot : clients_) {
    if (!slot.dir) continue;
    const auto& s = slot.dir->stats();
    total.lookups += s.lookups;
    total.ok += s.ok;
    total.not_found += s.not_found;
    total.busy += s.busy;
    total.unreachable += s.unreachable;
    total.failovers += s.failovers;
    total.timeouts += s.timeouts;
    total.breaker_skips += s.breaker_skips;
  }
  return total;
}

double MetroDriver::dir_lookup_p99_s() const {
  if (dir_latencies_.empty()) return 0.0;
  std::vector<util::Duration> sorted = dir_latencies_;
  const std::size_t k = (sorted.size() * 99) / 100;
  const std::size_t idx = std::min(k, sorted.size() - 1);
  std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
  return static_cast<double>(sorted[idx]) / util::kSecond;
}

double MetroDriver::offload() const {
  const double total = static_cast<double>(stats_.bytes_from_peers) +
                       static_cast<double>(stats_.bytes_from_origin);
  return total > 0 ? static_cast<double>(stats_.bytes_from_peers) / total : 0.0;
}

double MetroDriver::peer_hit_rate() const {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const PeerSlot& slot : peers_) {
    if (!slot.proxy) continue;
    hits += slot.proxy->stats().cache_hits;
    misses += slot.proxy->stats().cache_misses;
  }
  const std::uint64_t total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

std::string MetroDriver::report() const {
  char line[256];
  std::snprintf(
      line, sizeof line,
      "homes=%zu active=%zu peers=%zu arrivals=%llu ok=%llu failed=%llu "
      "offload=%.4f hit=%.4f peer_bytes=%llu origin_bytes=%llu "
      "attic=%llu/%llu/%llu",
      topo_.homes.size(), config_.active_homes, config_.peers,
      static_cast<unsigned long long>(stats_.arrivals),
      static_cast<unsigned long long>(stats_.loads_ok),
      static_cast<unsigned long long>(stats_.loads_failed), offload(),
      peer_hit_rate(),
      static_cast<unsigned long long>(stats_.bytes_from_peers),
      static_cast<unsigned long long>(stats_.bytes_from_origin),
      static_cast<unsigned long long>(stats_.attic_puts),
      static_cast<unsigned long long>(stats_.attic_gets),
      static_cast<unsigned long long>(stats_.attic_failures));
  std::string out = line;
  if (cluster_) {
    char dir[224];
    std::snprintf(
        dir, sizeof dir,
        " dir: shards=%zu regs=%zu lookups=%llu ok=%llu busy=%llu "
        "failed=%llu success=%.4f p99_s=%.4f silent_probes=%llu stale=%llu",
        cluster_->shards(), dir_regs_.size(),
        static_cast<unsigned long long>(stats_.dir_lookups),
        static_cast<unsigned long long>(stats_.dir_ok),
        static_cast<unsigned long long>(stats_.dir_busy),
        static_cast<unsigned long long>(stats_.dir_failed),
        dir_success_rate(), dir_lookup_p99_s(),
        static_cast<unsigned long long>(stats_.dir_silent_probes),
        static_cast<unsigned long long>(stats_.dir_stale_served));
    out += dir;
  }
  return out;
}

ServiceDayResult run_service_day(const ServiceDayParams& p) {
  const util::Duration day = p.driver.horizon;
  sim::Simulator sim;
  net::Network net{sim, util::Rng(p.seed)};
  util::Rng topo_rng(p.seed ^ 0x4d455452u);  // "METR"
  MetroTopology topo = build_metro(net, p.topology, topo_rng);

  ZipfCatalog catalog(p.catalog_objects, 0.9);
  util::Rng plan_rng(p.seed ^ 0x504c414eu);  // "PLAN"
  EventPlan plan = EventPlan::generate(topo, catalog, day, /*flash_crowds=*/1,
                                       p.outages, plan_rng, p.partitions);
  WorkloadModel model(DiurnalCurve::residential(day), catalog, plan,
                      p.base_rate_per_home);
  MetroDriver driver(topo, model, p.driver, util::Rng(p.seed ^ 0xd1ce5u));
  driver.start();

  fault::ChaosController chaos(sim, util::Rng(p.seed ^ 0xfa017u));
  core::DirectoryCluster* cluster = driver.directory();
  // The driver clamps dir_shards to what the population leaves room for.
  const std::size_t shards = cluster != nullptr ? cluster->shards() : 0;
  HPOP_CHECK((!p.crash || p.crash->shard < shards) &&
                 (!p.cut || p.cut->shard < shards),
             "a shard window names a shard past the %zu the driver built",
             shards);
  if (cluster != nullptr) cluster->register_with_chaos(chaos);
  chaos.execute(plan.to_fault_plan(topo));
  if (p.crash) {
    chaos.crash_at(cluster->host(p.crash->shard).name(), p.crash->at,
                   p.crash->length);
  }
  if (p.cut) {
    chaos.partition_at({&cluster->host(p.cut->shard)}, {}, p.cut->at,
                       p.cut->length);
  }

  sim.run_until(day + p.drain);

  ServiceDayResult r;
  r.report = driver.report();
  r.stats = driver.stats();
  r.offload = driver.offload();
  r.plan = std::move(plan);
  r.topology_fp = topo.fingerprint();
  r.chaos = chaos.stats();
  if (cluster == nullptr) return r;
  r.dir_success = driver.dir_success_rate();
  r.dir_p99_s = driver.dir_lookup_p99_s();
  r.dir_clients = driver.dir_client_totals();
  r.sync = cluster->sync_totals();
  r.cluster_fp = cluster->fingerprint();
  // Checked against the serving path itself: would_resolve is what a
  // lookup would answer now.
  const core::DirectoryShard* crashed =
      p.crash ? cluster->shard(p.crash->shard) : nullptr;
  std::vector<std::uint32_t> replicas;
  const auto& regs = driver.dir_registrations();
  for (std::size_t i = 0; i < driver.dir_renewing(); ++i) {
    if (!regs[i]->acked()) continue;
    const std::string& household = regs[i]->household();
    ++r.acked;
    if (cluster->resolves(household)) ++r.resolved;
    if (!p.crash) continue;
    cluster->ring().replicas(household, cluster->config().replication,
                             replicas);
    for (const std::uint32_t s : replicas) {
      if (s != p.crash->shard) continue;
      ++r.crash_replicated;
      if (crashed != nullptr && crashed->would_resolve(household)) {
        ++r.crash_answers;
      }
    }
  }
  return r;
}

}  // namespace hpop::metro
