#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "attic/store.hpp"
#include "durable/device.hpp"
#include "durable/wal.hpp"
#include "fault/fault.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "metro/driver.hpp"
#include "metro/topology.hpp"
#include "metro/workload.hpp"
#include "net/topology.hpp"
#include "nocdn/origin.hpp"
#include "nocdn/peer.hpp"
#include "overload/admission.hpp"
#include "overload/breaker.hpp"
#include "psim/day.hpp"
#include "psim/tcp_day.hpp"
#include "transport/mux.hpp"
#include "util/hash.hpp"
#include "util/retry.hpp"

namespace hpop::sweep {

using util::kGbps;
using util::kMbps;
using util::kMillisecond;
using util::kSecond;

namespace {

// ------------------------------------------- chaos: fetches vs a flapping link

std::string run_chaos(std::uint64_t seed) {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(seed)};
  auto path =
      net::make_two_host_path(net, net::PathParams{}, net::PathParams{});
  transport::TransportMux mux_server(*path.b);
  http::HttpServer server(mux_server, 80);
  server.route(http::Method::kGet, "/",
               [](const http::Request&, http::ResponseWriter& w) {
                 http::Response resp;
                 resp.body = http::Body(std::string(1024, 'x'));
                 w.respond(std::move(resp));
               });
  transport::TransportMux mux_client(*path.a);
  http::HttpClient client(mux_client, util::Rng(seed ^ 0x9e3779b9u));

  fault::ChaosController chaos(sim, util::Rng(seed ^ 0x51ed2701u));
  chaos.flap_link(path.link_b, 5 * kSecond, 2, 5 * kSecond, 5 * kSecond);

  http::FetchOptions options;
  options.timeout = 2 * kSecond;
  options.retry = util::RetryPolicy{6, kSecond, 2.0, 0.5, 8 * kSecond, 0};

  int ok = 0;
  std::uint64_t bytes = 0;
  util::TimePoint last_ok = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(2 * i * kSecond, [&, options] {
      http::Request req;
      req.path = "/";
      client.fetch({path.b->address(), 80}, req,
                   [&](util::Result<http::Response> r) {
                     if (r.ok() && r.value().ok()) {
                       ++ok;
                       bytes += r.value().body.size();
                       last_ok = sim.now();
                     }
                   },
                   options);
    });
  }
  sim.run_until(120 * kSecond);

  char line[160];
  std::snprintf(line, sizeof line,
                "chaos seed=%llu ok=%d/10 retries=%llu bytes=%llu "
                "last_ok_s=%.6f",
                static_cast<unsigned long long>(seed), ok,
                static_cast<unsigned long long>(client.stats().retries),
                static_cast<unsigned long long>(bytes),
                static_cast<double>(last_ok) / kSecond);
  return line;
}

// --------------------------- flash crowd: open loop vs one admission'd peer

std::string run_flash_crowd(std::uint64_t seed) {
  constexpr int kClients = 8;
  constexpr util::Duration kIssueEvery = 250 * kMillisecond;
  constexpr util::Duration kWarmup = 3 * kSecond;
  constexpr util::Duration kHorizon = 12 * kSecond;
  constexpr std::size_t kObjectKb = 100;

  sim::Simulator sim;
  net::Network net{sim, util::Rng(seed)};
  net::Router& core = net.add_router("core");

  net::Host& origin_host = net.add_host("origin", net.next_public_address());
  net.connect(origin_host, origin_host.address(), core, net::IpAddr{},
              net::LinkParams{1 * kGbps, 20 * kMillisecond});
  net::Host& peer_host = net.add_host("peer", net.next_public_address());
  net.connect(peer_host, peer_host.address(), core, net::IpAddr{},
              net::LinkParams{20 * kMbps, 5 * kMillisecond});
  std::vector<net::Host*> client_hosts;
  for (int i = 0; i <= kClients; ++i) {  // [0] warms the cache
    client_hosts.push_back(&net.add_host("client-" + std::to_string(i),
                                         net.next_public_address()));
    net.connect(*client_hosts.back(), client_hosts.back()->address(), core,
                net::IpAddr{}, net::LinkParams{1 * kGbps, 8 * kMillisecond});
  }
  net.auto_route();

  transport::TransportMux mux_origin(origin_host);
  nocdn::OriginConfig oconfig;
  oconfig.provider = "nytimes";
  nocdn::OriginServer origin(mux_origin, oconfig, util::Rng(seed ^ 99u));
  const std::string url = "/news/hot.jpg";
  origin.add_object({url, http::Body::synthetic(kObjectKb * 1024, 0xF1)});

  transport::TransportMux mux_peer(peer_host);
  nocdn::PeerProxy peer(mux_peer, 8080, util::Rng(seed ^ 1000u));
  const std::uint64_t peer_id = origin.recruit_peer(peer.endpoint());
  peer.signup({"nytimes", peer_id, {origin_host.address(), 80}});
  overload::AdmissionConfig admission;
  admission.rate = 10.0;
  admission.burst = 4.0;
  peer.enable_admission(admission);

  struct ClientSlot {
    std::unique_ptr<transport::TransportMux> mux;
    std::unique_ptr<http::HttpClient> http;
  };
  std::vector<ClientSlot> clients(client_hosts.size());
  overload::BreakerConfig bconfig;
  bconfig.window = 8;
  bconfig.min_samples = 4;
  bconfig.open_for = 2 * kSecond;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].mux =
        std::make_unique<transport::TransportMux>(*client_hosts[i]);
    clients[i].http = std::make_unique<http::HttpClient>(
        *clients[i].mux, util::Rng(seed * 7919u + i));
    clients[i].http->enable_breakers(bconfig);
  }

  http::FetchOptions options;
  options.timeout = 1500 * kMillisecond;
  options.retry =
      util::RetryPolicy{2, 400 * kMillisecond, 2.0, 0.3, 2 * kSecond, 0};
  options.retry_on_overload = true;

  const net::Endpoint peer_ep = peer.endpoint();
  auto get_hot = [&](std::size_t c, auto&& done) {
    http::Request req;
    req.path = url;
    req.headers.set("Host", "nytimes");
    clients[c].http->fetch(peer_ep, std::move(req),
                           std::forward<decltype(done)>(done), options);
  };

  bool warmed = false;
  get_hot(0, [&](util::Result<http::Response> r) {
    warmed = r.ok() && r.value().status == 200;
  });
  sim.run_until(kSecond);

  int issued = 0, ok = 0;
  std::uint64_t goodput = 0;
  std::vector<double> latencies;
  const util::Duration stagger = kIssueEvery / kClients;
  for (int c = 1; c <= kClients; ++c) {
    // Each tick schedules a copy of itself: no closure owns itself.
    const auto tick = [&, c](const auto& self) -> void {
      if (sim.now() >= kHorizon) return;
      const util::TimePoint issued_at = sim.now();
      if (issued_at >= kWarmup) ++issued;
      get_hot(static_cast<std::size_t>(c),
              [&, issued_at](util::Result<http::Response> r) {
                if (!r.ok() || r.value().status != 200) return;
                const util::TimePoint done_at = sim.now();
                if (issued_at < kWarmup || done_at > kHorizon) return;
                ++ok;
                goodput += r.value().body.size();
                latencies.push_back(
                    static_cast<double>(done_at - issued_at) / kSecond);
              });
      sim.schedule(kIssueEvery, [self] { self(self); });
    };
    sim.schedule(kSecond + c * stagger, [tick] { tick(tick); });
  }
  sim.run_until(kHorizon + 5 * kSecond);

  const std::uint64_t sheds =
      peer.admission() ? peer.admission()->total_shed() : 0;
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double q) {
    if (latencies.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1) + 0.5);
    return latencies[std::min(rank, latencies.size() - 1)];
  };

  char line[192];
  std::snprintf(line, sizeof line,
                "flash seed=%llu warmed=%d ok=%d/%d goodput=%llu sheds=%llu "
                "p50_s=%.6f p99_s=%.6f",
                static_cast<unsigned long long>(seed), warmed ? 1 : 0, ok,
                issued, static_cast<unsigned long long>(goodput),
                static_cast<unsigned long long>(sheds), pct(0.50), pct(0.99));
  return line;
}

// ----------------------------------- rampup: slow start on an empty fat path

std::string run_rampup(std::uint64_t seed) {
  // The seed picks the RTT (the interesting axis) plus the loss RNG stream.
  const double rtt_ms = 10.0 + 10.0 * static_cast<double>(seed % 8);
  const util::BitRate rate = 1 * kGbps;
  const util::Duration rtt = util::milliseconds(rtt_ms);

  sim::Simulator sim;
  net::Network net(sim, util::Rng(seed));
  const net::PathParams params{rate, rtt / 4, 0.0,
                               static_cast<std::size_t>(64) << 20};
  auto path = net::make_two_host_path(net, params, params);
  transport::TransportMux mux_a(*path.a), mux_b(*path.b);
  auto listener = mux_b.tcp_listen(80);
  std::uint64_t received = 0;
  listener->set_on_accept([&](std::shared_ptr<transport::TcpConnection> c) {
    c->set_on_bytes([&](std::size_t n) { received += n; });
  });
  auto client = mux_a.tcp_connect({path.b->address(), 80});
  util::TimePoint established = 0;
  client->set_on_established([&] {
    established = sim.now();
    client->send_bytes(1u << 30);
  });
  while (established == 0 && !sim.empty()) sim.run(1);

  int rtts_to_saturation = -1;
  std::uint64_t bytes_at_saturation = 0;
  std::uint64_t prev = 0;
  for (int w = 1; w <= 40; ++w) {
    sim.run_until(established + w * rtt);
    const std::uint64_t in_window = received - prev;
    prev = received;
    const double window_rate =
        static_cast<double>(in_window) * 8 / util::to_seconds(rtt);
    if (window_rate >= 0.9 * static_cast<double>(rate)) {
      rtts_to_saturation = w;
      bytes_at_saturation = received;
      break;
    }
  }

  char line[160];
  std::snprintf(line, sizeof line,
                "rampup seed=%llu rtt_ms=%.0f rtts_to_90pct=%d "
                "bytes_at_90pct=%llu",
                static_cast<unsigned long long>(seed), rtt_ms,
                rtts_to_saturation,
                static_cast<unsigned long long>(bytes_at_saturation));
  return line;
}

// ------------------- metro: a small diurnal metro day with crowd + outage

std::string run_metro(std::uint64_t seed) {
  constexpr util::Duration kDayLength = 20 * kSecond;  // compressed day
  const util::TimePoint horizon = kDayLength;

  sim::Simulator sim;
  net::Network net{sim, util::Rng(seed)};

  metro::MetroParams params;
  params.homes = 48;
  params.homes_per_dslam = 8;
  params.dslams_per_pop = 3;  // 6 DSLAMs, 2 PoPs
  params.access_rate_jitter = 0.1;
  util::Rng topo_rng(seed ^ 0x4d455452u);  // "METR"
  metro::MetroTopology topo = metro::build_metro(net, params, topo_rng);

  metro::ZipfCatalog catalog(64, 0.9);
  util::Rng plan_rng(seed ^ 0x504c414eu);  // "PLAN"
  metro::EventPlan plan = metro::EventPlan::generate(
      topo, catalog, horizon, /*flash_crowds=*/1, /*outages=*/1, plan_rng);
  metro::WorkloadModel model(metro::DiurnalCurve::residential(kDayLength),
                             catalog, plan, /*base_rate_per_home=*/0.5);

  metro::MetroDriverConfig dconfig;
  dconfig.active_homes = 32;
  dconfig.peers = 4;
  dconfig.attic_pairs = 2;
  dconfig.attic_interval = 4 * kSecond;
  dconfig.horizon = horizon;
  metro::MetroDriver driver(topo, model, dconfig, util::Rng(seed ^ 0xd1ce5u));
  driver.start();

  fault::ChaosController chaos(sim, util::Rng(seed ^ 0xfa017u));
  chaos.execute(plan.to_fault_plan(topo));

  sim.run_until(horizon + 10 * kSecond);

  char line[320];
  std::snprintf(line, sizeof line,
                "metro seed=%llu fp=%016llx crowds=%zu outages=%zu %s",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(topo.fingerprint()),
                plan.flash_crowd_count(), plan.outage_count(),
                driver.report().c_str());
  return line;
}

// ------------- durable: a WAL'd attic through seeded torn crashes

std::string run_durable(std::uint64_t seed) {
  constexpr std::size_t kOps = 240;
  constexpr std::size_t kCrashEvery = 48;
  constexpr std::size_t kPaths = 16;

  durable::StorageDevice dev("sweep-disk", util::Rng(seed ^ 0xD15Cu));
  util::Rng faults(seed ^ 0xFA17u);
  auto wal = std::make_unique<durable::Wal>(dev, "attic.wal");
  auto store = std::make_unique<attic::AtticStore>(1u << 20);
  store->recover_from_wal(*wal);

  // Acked writes carry their etag: after every recovery each one must
  // still resolve — the zero acked-write-loss invariant, per seed.
  std::vector<std::pair<std::string, std::string>> acked;
  std::size_t failed = 0, crashes = 0, missing = 0;
  std::uint64_t replayed = 0, torn = 0;
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::string path = "/day/f" + std::to_string(i % kPaths);
    if (faults.uniform_index(19) == 0) dev.arm_partial_flush();
    const auto put = store->put(
        path, http::Body("v" + std::to_string(i) + "@" + std::to_string(seed)),
        static_cast<util::TimePoint>(i));
    if (put.ok()) {
      acked.emplace_back(path, put.value());
    } else {
      ++failed;  // not durable: the client never saw an ack
    }
    if ((i + 1) % kCrashEvery == 0) {
      if (faults.uniform_index(2) == 0) dev.arm_torn_write();
      dev.crash();
      ++crashes;
      wal = std::make_unique<durable::Wal>(dev, "attic.wal");
      store = std::make_unique<attic::AtticStore>(1u << 20);
      const auto stats = store->recover_from_wal(*wal);
      replayed += stats.records;
      if (stats.wall_records_truncated > 0) ++torn;
      for (const auto& [p, etag] : acked) {
        const auto got = store->history(p);
        bool found = false;
        if (got.ok()) {
          for (const auto& v : got.value()) found = found || v.etag == etag;
        }
        if (!found) ++missing;
      }
      if (crashes == 3) store->compact_wal();  // epoch snapshot mid-run
    }
  }

  char line[192];
  std::snprintf(line, sizeof line,
                "durable seed=%llu acked=%zu failed=%zu crashes=%zu "
                "replayed=%llu torn=%llu missing=%zu fp=%016llx",
                static_cast<unsigned long long>(seed), acked.size(), failed,
                crashes, static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(torn), missing,
                static_cast<unsigned long long>(store->fingerprint()));
  return line;
}

// ---- directory: sharded HPoP directory through shard crash + partition

std::string run_directory(std::uint64_t seed) {
  constexpr util::Duration kDayLength = 20 * kSecond;
  const util::TimePoint horizon = kDayLength;

  sim::Simulator sim;
  net::Network net{sim, util::Rng(seed)};

  metro::MetroParams params;
  params.homes = 48;
  params.homes_per_dslam = 8;
  params.dslams_per_pop = 3;
  params.access_rate_jitter = 0.1;
  util::Rng topo_rng(seed ^ 0x4d455452u);
  metro::MetroTopology topo = metro::build_metro(net, params, topo_rng);

  metro::ZipfCatalog catalog(64, 0.9);
  util::Rng plan_rng(seed ^ 0x504c414eu);
  // One flash crowd, no uplink outage (lookups need a live edge), one
  // access-subtree partition — the new correlated-failure mode.
  metro::EventPlan plan =
      metro::EventPlan::generate(topo, catalog, horizon, /*flash_crowds=*/1,
                                 /*outages=*/0, plan_rng, /*partitions=*/1);
  metro::WorkloadModel model(metro::DiurnalCurve::residential(kDayLength),
                             catalog, plan, /*base_rate_per_home=*/0.5);

  metro::MetroDriverConfig dconfig;
  dconfig.active_homes = 24;
  dconfig.peers = 4;
  dconfig.attic_pairs = 2;
  dconfig.attic_interval = 4 * kSecond;
  dconfig.horizon = horizon;
  dconfig.dir_shards = 3;
  dconfig.dir_replication = 2;
  dconfig.dir_lease = 6 * kSecond;
  dconfig.dir_anti_entropy = 2 * kSecond;
  dconfig.dir_registered_homes = 24;
  dconfig.dir_silent_homes = 4;
  dconfig.dir_silent_lease_s = 2;
  dconfig.dir_warmup = 3 * kSecond;
  metro::MetroDriver driver(topo, model, dconfig, util::Rng(seed ^ 0xd1ce5u));
  driver.start();

  fault::ChaosController chaos(sim, util::Rng(seed ^ 0xfa017u));
  core::DirectoryCluster* cluster = driver.directory();
  cluster->register_with_chaos(chaos);
  chaos.execute(plan.to_fault_plan(topo));
  // Kill one shard mid-day: the WAL brings it back, anti-entropy and the
  // ongoing renewals close the gap it slept through.
  chaos.crash_at(cluster->host(seed % dconfig.dir_shards).name(),
                 8 * kSecond, 4 * kSecond);

  sim.run_until(horizon + 10 * kSecond);

  std::size_t acked = 0, resolved = 0;
  const auto& regs = driver.dir_registrations();
  for (std::size_t i = 0; i < driver.dir_renewing(); ++i) {
    if (!regs[i]->acked()) continue;
    ++acked;
    if (cluster->resolves(regs[i]->household())) ++resolved;
  }
  const auto sync = cluster->sync_totals();

  char line[448];
  std::snprintf(
      line, sizeof line,
      "directory seed=%llu fp=%016llx partitions=%llu heals=%llu "
      "cut_drops=%llu ae_rounds=%llu sync_applied=%llu acked=%zu "
      "resolved=%zu %s",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(cluster->fingerprint()),
      static_cast<unsigned long long>(chaos.stats().partitions),
      static_cast<unsigned long long>(chaos.stats().partition_heals),
      static_cast<unsigned long long>(chaos.stats().partition_drops),
      static_cast<unsigned long long>(sync.rounds),
      static_cast<unsigned long long>(sync.entries_applied), acked, resolved,
      driver.report().c_str());
  return line;
}

// ----- psim: the sharded parallel metro day, 2 workers, chaos in shards

std::string run_psim(std::uint64_t seed) {
  // Small world so a sweep over many seeds stays cheap; 2 workers so every
  // seed exercises the real cross-shard path (rings, barriers, drain
  // order), not the degenerate serial mode. The day report itself is
  // worker-count invariant, so its fingerprint is a pure function of the
  // seed — the property the jobs=1-vs-jobs=N CI diff leans on.
  psim::DayConfig cfg;
  cfg.homes = 2'000;
  cfg.workers = 2;
  cfg.seed = seed;
  cfg.day = 5 * kSecond;
  cfg.base_rate_per_home = 0.2;
  const psim::DayResult r = psim::run_day(cfg);

  const std::uint64_t fp =
      util::Fnv1a{}.bytes(r.report.data(), r.report.size()).h;

  char line[256];
  std::snprintf(line, sizeof line,
                "psim seed=%llu requests=%llu chunks=%llu rx_bytes=%llu "
                "epochs=%llu crossings=%llu spilled=%llu crashes=%llu "
                "cut_drops=%llu report_fp=%016llx",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.chunks),
                static_cast<unsigned long long>(r.rx_bytes),
                static_cast<unsigned long long>(r.epochs),
                static_cast<unsigned long long>(r.crossings),
                static_cast<unsigned long long>(r.spilled),
                static_cast<unsigned long long>(r.chaos_crashes),
                static_cast<unsigned long long>(r.partition_drops),
                static_cast<unsigned long long>(fp));
  return line;
}

// ----- psim_tcp: the same sharded day over real TCP/MPTCP transport

std::string run_psim_tcp(std::uint64_t seed) {
  // Endpoint state (cwnd, SACK scoreboards, RTO timers) lives on the
  // shard that owns the endpoint; only serialized segments cross the
  // boundary rings. As with run_psim, the report is worker-count
  // invariant, so its fingerprint depends on the seed alone.
  psim::TcpDayConfig cfg;
  cfg.homes = 2'000;
  cfg.workers = 2;
  cfg.seed = seed;
  cfg.day = 5 * kSecond;
  cfg.base_rate_per_home = 0.2;
  const psim::TcpDayResult r = psim::run_tcp_day(cfg);

  const std::uint64_t fp =
      util::Fnv1a{}.bytes(r.report.data(), r.report.size()).h;

  char line[256];
  std::snprintf(line, sizeof line,
                "psim_tcp seed=%llu conns=%llu completed=%llu mptcp=%llu "
                "rx_bytes=%llu retx=%llu crossings=%llu crashes=%llu "
                "cut_drops=%llu report_fp=%016llx",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.conns),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.mptcp_sessions),
                static_cast<unsigned long long>(r.rx_bytes),
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.crossings),
                static_cast<unsigned long long>(r.chaos_crashes),
                static_cast<unsigned long long>(r.partition_drops),
                static_cast<unsigned long long>(fp));
  return line;
}

}  // namespace

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kChaos: return "chaos";
    case Scenario::kFlashCrowd: return "flash";
    case Scenario::kRampup: return "rampup";
    case Scenario::kMetro: return "metro";
    case Scenario::kDurable: return "durable";
    case Scenario::kDirectory: return "directory";
    case Scenario::kPsim: return "psim";
    case Scenario::kPsimTcp: return "psim_tcp";
  }
  return "?";
}

std::optional<Scenario> scenario_from_string(std::string_view name) {
  if (name == "chaos") return Scenario::kChaos;
  if (name == "flash") return Scenario::kFlashCrowd;
  if (name == "rampup") return Scenario::kRampup;
  if (name == "metro") return Scenario::kMetro;
  if (name == "durable") return Scenario::kDurable;
  if (name == "directory") return Scenario::kDirectory;
  if (name == "psim") return Scenario::kPsim;
  if (name == "psim_tcp") return Scenario::kPsimTcp;
  return std::nullopt;
}

std::string run_scenario(Scenario s, std::uint64_t seed) {
  switch (s) {
    case Scenario::kChaos: return run_chaos(seed);
    case Scenario::kFlashCrowd: return run_flash_crowd(seed);
    case Scenario::kRampup: return run_rampup(seed);
    case Scenario::kMetro: return run_metro(seed);
    case Scenario::kDurable: return run_durable(seed);
    case Scenario::kDirectory: return run_directory(seed);
    case Scenario::kPsim: return run_psim(seed);
    case Scenario::kPsimTcp: return run_psim_tcp(seed);
  }
  return {};
}

std::vector<std::string> run_sweep(Scenario s,
                                   const std::vector<std::uint64_t>& seeds,
                                   std::size_t jobs) {
  // Slot i is owned by seed i; merging is just reading the vector in
  // order, so the schedule can never reorder the report.
  std::vector<std::string> results(seeds.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < seeds.size(); i = next++) {
      results[i] = run_scenario(s, seeds[i]);
    }
  };
  if (jobs <= 1) {
    work();  // every seed inline, in seed order
    return results;
  }
  {
    // jthread joins on destruction, so every worker is done with `results`
    // before it is read, on every exit path.
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < std::min(jobs, seeds.size()); ++t) {
      threads.emplace_back(work);
    }
  }
  return results;
}

}  // namespace hpop::sweep
