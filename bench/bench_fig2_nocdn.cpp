// E6 — Fig. 2 + §IV-B: the NoCDN page-download workflow. "This mechanism
// improves scalability of the origin site because it only has to deliver a
// small wrapper page"; integrity and accounting hold against untrusted
// peers ("content integrity despite untrusted peers", "protect content
// providers from [usage inflation]").
//
// Three parts: (1) origin off-load vs serving everything itself, across a
// client sweep; (2) the attack matrix — corruption, inflation, replay —
// and what catches each; (3) the peer-selection ablation.

#include <cstring>

#include "bench/common.hpp"
#include "net/topology.hpp"
#include "nocdn/loader.hpp"
#include "nocdn/origin.hpp"
#include "nocdn/peer.hpp"
#include "telemetry/telemetry.hpp"

using namespace hpop;
using namespace hpop::bench;
using namespace hpop::nocdn;

namespace {

constexpr int kObjects = 6;

struct World {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(61)};
  net::Host* origin_host;
  std::vector<net::Host*> peer_hosts;
  std::vector<net::Host*> client_hosts;
  std::unique_ptr<transport::TransportMux> origin_mux;
  std::unique_ptr<OriginServer> origin;
  std::vector<std::unique_ptr<transport::TransportMux>> peer_muxes;
  std::vector<std::unique_ptr<PeerProxy>> peers;
  std::vector<std::unique_ptr<transport::TransportMux>> client_muxes;
  std::vector<std::unique_ptr<http::HttpClient>> client_https;
  std::vector<std::unique_ptr<LoaderClient>> loaders;
  std::size_t page_bytes = 0;

  World(int n_peers, int n_clients, OriginConfig config) {
    net::Router& core = net.add_router("core");
    origin_host = &net.add_host("origin", net.next_public_address());
    // The origin is far away and modestly provisioned — the situation that
    // makes CDNs necessary in the first place.
    net.connect(*origin_host, origin_host->address(), core, net::IpAddr{},
                net::LinkParams{200 * util::kMbps, 35 * util::kMillisecond,
                                0.0, 4 << 20});
    for (int i = 0; i < n_peers; ++i) {
      peer_hosts.push_back(&net.add_host("peer" + std::to_string(i),
                                         net.next_public_address()));
      // Ultrabroadband households: gigabit, close to the clients.
      net.connect(*peer_hosts.back(), peer_hosts.back()->address(), core,
                  net::IpAddr{},
                  net::LinkParams{1 * util::kGbps, 4 * util::kMillisecond});
    }
    for (int i = 0; i < n_clients; ++i) {
      client_hosts.push_back(&net.add_host("client" + std::to_string(i),
                                           net.next_public_address()));
      net.connect(*client_hosts.back(), client_hosts.back()->address(), core,
                  net::IpAddr{},
                  net::LinkParams{300 * util::kMbps,
                                  5 * util::kMillisecond});
    }
    net.auto_route();

    origin_mux = std::make_unique<transport::TransportMux>(*origin_host);
    origin = std::make_unique<OriginServer>(*origin_mux, config,
                                            util::Rng(99));
    PageSpec page;
    page.path = "/front";
    page.container_url = "/front.html";
    origin->add_object({page.container_url,
                        http::Body::synthetic(40 * 1024, 0xC0)});
    page_bytes += 40 * 1024;
    for (int i = 0; i < kObjects; ++i) {
      const std::string url = "/asset" + std::to_string(i);
      page.embedded_urls.push_back(url);
      const std::size_t size = (60 + 45 * static_cast<std::size_t>(i)) << 10;
      origin->add_object({url, http::Body::synthetic(
                                   size, 0xE0 + static_cast<unsigned>(i))});
      page_bytes += size;
    }
    origin->add_page(page);

    for (int i = 0; i < n_peers; ++i) {
      peer_muxes.push_back(
          std::make_unique<transport::TransportMux>(*peer_hosts[i]));
      peers.push_back(std::make_unique<PeerProxy>(
          *peer_muxes.back(), 8080,
          util::Rng(1000 + static_cast<std::uint64_t>(i))));
      const std::uint64_t id = origin->recruit_peer(peers.back()->endpoint());
      peers.back()->signup(
          ProviderSignup{"site", id, {origin_host->address(), 80}});
    }
    for (int i = 0; i < n_clients; ++i) {
      client_muxes.push_back(
          std::make_unique<transport::TransportMux>(*client_hosts[i]));
      client_https.push_back(
          std::make_unique<http::HttpClient>(*client_muxes.back()));
      loaders.push_back(std::make_unique<LoaderClient>(
          *client_https.back(), net::Endpoint{origin_host->address(), 80},
          "site"));
    }
  }

  /// All clients load the page once, staggered; returns per-view results.
  std::vector<PageLoadResult> load_all() {
    std::vector<PageLoadResult> results;
    auto remaining = std::make_shared<int>(static_cast<int>(loaders.size()));
    for (std::size_t i = 0; i < loaders.size(); ++i) {
      sim.schedule(static_cast<util::Duration>(i) * 50 * util::kMillisecond,
                   [this, i, &results, remaining] {
                     loaders[i]->load_page("/front",
                                           [&results, remaining](
                                               PageLoadResult r) {
                                             results.push_back(r);
                                             --*remaining;
                                           });
                   });
    }
    sim.run_until(sim.now() + 120 * util::kSecond);
    return results;
  }
};

OriginConfig make_config(const std::string& selector = "random") {
  OriginConfig config;
  config.provider = "site";
  config.selector = selector;
  return config;
}

/// Baseline: the origin serves everything itself (no CDN, no NoCDN).
struct DirectWorld {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(61)};
  net::Host* origin_host;
  std::vector<net::Host*> client_hosts;

  explicit DirectWorld(int n_clients) {
    net::Router& core = net.add_router("core");
    origin_host = &net.add_host("origin", net.next_public_address());
    net.connect(*origin_host, origin_host->address(), core, net::IpAddr{},
                net::LinkParams{200 * util::kMbps, 35 * util::kMillisecond,
                                0.0, 4 << 20});
    for (int i = 0; i < n_clients; ++i) {
      client_hosts.push_back(&net.add_host("client" + std::to_string(i),
                                           net.next_public_address()));
      net.connect(*client_hosts.back(), client_hosts.back()->address(), core,
                  net::IpAddr{},
                  net::LinkParams{300 * util::kMbps,
                                  5 * util::kMillisecond});
    }
    net.auto_route();
  }
};

}  // namespace

int main() {
  header("E6", "Fig. 2 — NoCDN workflow: off-load, integrity, accounting",
         "origin only delivers the small wrapper page; hashes catch corrupt "
         "peers; signed usage records + nonces settle payment safely");

  // ---------------- Part 1: origin off-load across a client sweep -------
  std::printf("origin bytes per page view (steady state, 6 peers):\n");
  util::Table offload({"clients", "NoCDN origin B/view", "direct origin B/view",
                       "off-load factor", "median load (ms)"});
  double headline_factor = 0;
  for (const int clients : {5, 15, 30}) {
    World w(6, clients, make_config());
    (void)w.load_all();  // warm peer caches
    // Interval accounting via the metrics registry: snapshot around the
    // measured round so warm-up traffic (and other worlds in this process)
    // subtracts out.
    const auto before = telemetry::registry().snapshot();
    const auto results = w.load_all();
    const auto measured = telemetry::MetricsRegistry::delta(
        before, telemetry::registry().snapshot());
    const double origin_per_view =
        measured.value("nocdn.origin.bytes_served") /
        static_cast<double>(results.size());
    util::Summary load_ms;
    for (const auto& r : results) {
      load_ms.add(util::to_millis(r.load_time));
    }

    // Direct-serve baseline: every client pulls the whole page from the
    // origin.
    DirectWorld d(clients);
    transport::TransportMux origin_mux(*d.origin_host);
    OriginServer direct_origin(origin_mux, make_config(), util::Rng(99));
    // Reuse /obj/ endpoints for direct fetches.
    direct_origin.add_object({"/front.html",
                              http::Body::synthetic(40 * 1024, 0xC0)});
    std::vector<std::string> urls{"/front.html"};
    for (int i = 0; i < kObjects; ++i) {
      const std::string url = "/asset" + std::to_string(i);
      direct_origin.add_object(
          {url, http::Body::synthetic((60 + 45 * static_cast<std::size_t>(i))
                                          << 10,
                                      0xE0 + static_cast<unsigned>(i))});
      urls.push_back(url);
    }
    std::vector<std::unique_ptr<transport::TransportMux>> cm;
    std::vector<std::unique_ptr<http::HttpClient>> ch;
    const auto direct_before = telemetry::registry().snapshot();
    auto outstanding = std::make_shared<int>(clients *
                                             static_cast<int>(urls.size()));
    for (int c = 0; c < clients; ++c) {
      cm.push_back(std::make_unique<transport::TransportMux>(
          *d.client_hosts[static_cast<std::size_t>(c)]));
      ch.push_back(std::make_unique<http::HttpClient>(*cm.back()));
      for (const std::string& url : urls) {
        http::Request req;
        req.path = "/obj" + url;
        ch.back()->fetch({d.origin_host->address(), 80}, std::move(req),
                         [outstanding](util::Result<http::Response>) {
                           --*outstanding;
                         });
      }
    }
    d.sim.run_until(120 * util::kSecond);
    const auto direct_measured = telemetry::MetricsRegistry::delta(
        direct_before, telemetry::registry().snapshot());
    const double direct_per_view =
        direct_measured.value("nocdn.origin.bytes_served") /
        static_cast<double>(clients);
    const double factor = direct_per_view / origin_per_view;
    if (clients == 30) headline_factor = factor;
    offload.add_row({std::to_string(clients), fmt_bytes(origin_per_view),
                     fmt_bytes(direct_per_view), fmt(factor, 1) + "x",
                     fmt(load_ms.median(), 0)});
  }
  std::printf("%s", offload.render().c_str());
  verdict("origin off-load at 30 clients", ">>10x (wrapper only)",
          fmt(headline_factor, 0) + "x", headline_factor > 10);

  // ---------------- Part 2: the attack matrix ---------------------------
  std::printf("\nattack matrix (1 bad peer of 4; 10 views each):\n");
  util::Table attacks({"attack", "defence", "caught", "pages still load"});
  {  // corruption
    World w(4, 1, make_config());
    (void)w.load_all();
    w.peers[1]->set_behavior(PeerBehavior{.corrupt_content = true});
    int failures = 0, successes = 0;
    for (int v = 0; v < 10; ++v) {
      std::optional<PageLoadResult> r;
      w.loaders[0]->load_page("/front",
                              [&](PageLoadResult res) { r = res; });
      w.sim.run_until(w.sim.now() + 30 * util::kSecond);
      if (r) {
        failures += r->verification_failures;
        successes += r->success ? 1 : 0;
      }
    }
    attacks.add_row({"content corruption", "per-object SHA-256 in wrapper",
                     std::to_string(failures) + " bodies rejected",
                     std::to_string(successes) + "/10 (origin fallback)"});
    verdict("corruption detected and survived", "all views load",
            std::to_string(successes) + "/10", successes == 10);
    verdict("corrupt peer's trust collapsed", "<0.5",
            fmt(w.origin->peer_trust(2), 2),
            w.origin->peer_trust(2) < 0.5);
  }
  {  // inflation + replay
    // Watch the ledger through the flow tracer: every verified/rejected
    // usage record emits a typed event carrying the peer id and reason.
    auto& tr = telemetry::tracer();
    tr.clear();
    tr.enable(telemetry::TraceCategory::kNocdn);
    const auto before = telemetry::registry().snapshot();
    World w(4, 1, make_config());
    w.peers[0]->set_behavior(PeerBehavior{.inflate_factor = 5.0});
    w.peers[1]->set_behavior(PeerBehavior{.replay_records = true});
    for (int v = 0; v < 10; ++v) {
      std::optional<PageLoadResult> r;
      w.loaders[0]->load_page("/front",
                              [&](PageLoadResult res) { r = res; });
      w.sim.run_until(w.sim.now() + 30 * util::kSecond);
    }
    for (auto& peer : w.peers) peer->upload_usage_now();
    w.sim.run_until(w.sim.now() + 10 * util::kSecond);
    tr.disable(telemetry::TraceCategory::kNocdn);
    const auto measured = telemetry::MetricsRegistry::delta(
        before, telemetry::registry().snapshot());

    std::uint64_t inflated_rejects = 0, replays = 0, inflated_accepted = 0;
    for (const auto& rec :
         tr.records(telemetry::TraceEvent::kUsageRecordRejected)) {
      if (rec.a == 1.0) ++inflated_rejects;  // a carries the peer id
      if (std::strcmp(rec.detail, "replayed") == 0) ++replays;
    }
    for (const auto& rec :
         tr.records(telemetry::TraceEvent::kUsageRecordVerified)) {
      if (rec.a == 1.0) ++inflated_accepted;
    }
    attacks.add_row({"usage inflation (x5)", "client HMAC signature",
                     std::to_string(inflated_rejects) + " records rejected",
                     "n/a"});
    attacks.add_row({"record replay", "per-key nonce cache",
                     std::to_string(replays) + " replays rejected", "n/a"});
    std::printf("ledger interval totals: %.0f records accepted, %.0f "
                "rejected (registry delta)\n",
                measured.value("nocdn.ledger.records_accepted"),
                measured.value("nocdn.ledger.records_rejected"));
    verdict("inflated claims earn nothing", "0 accepted",
            std::to_string(inflated_accepted) + " accepted",
            inflated_accepted == 0);
    verdict("replays rejected", ">0 caught", std::to_string(replays),
            replays > 0);
  }
  std::printf("%s", attacks.render().c_str());

  // ---------------- Part 3: peer-selection ablation ---------------------
  std::printf("\npeer-selection ablation (8 peers incl. 1 corrupt, 10 "
              "clients):\n");
  util::Table ablation({"selector", "median load (ms)", "hash failures",
                        "bad-peer byte share %"});
  for (const std::string selector :
       {"random", "proximity", "load-aware", "trust-weighted"}) {
    World w(8, 10, make_config(selector));
    const auto world_start = telemetry::registry().snapshot();
    // RTT oracle: peers 0-3 near (5 ms), peers 4-7 far (60 ms); peer 2
    // corrupts.
    w.origin->set_rtt_oracle([](std::uint64_t peer, net::Endpoint) {
      return peer <= 4 ? 0.005 : 0.060;
    });
    (void)w.load_all();  // warm + let trust updates land
    w.peers[2]->set_behavior(PeerBehavior{.corrupt_content = true});
    (void)w.load_all();  // trust decays during this round
    const auto results = w.load_all();
    util::Summary load_ms;
    int failures = 0;
    for (const auto& r : results) {
      load_ms.add(util::to_millis(r.load_time));
      failures += r.verification_failures;
    }
    // Aggregate peer bytes come from the registry (interval since this
    // world started); the bad peer's share still needs its per-peer stat.
    const auto world_total = telemetry::MetricsRegistry::delta(
        world_start, telemetry::registry().snapshot());
    const std::uint64_t bad_bytes = w.peers[2]->stats().bytes_served;
    const double all_bytes = world_total.value("nocdn.peer.bytes_served");
    ablation.add_row({selector, fmt(load_ms.median(), 0),
                      std::to_string(failures),
                      fmt(100.0 * static_cast<double>(bad_bytes) /
                              (all_bytes > 0 ? all_bytes : 1.0),
                          1)});
  }
  std::printf("%s", ablation.render().c_str());
  std::printf("=> trust-weighted selection starves the corrupt peer after "
              "its first offences; proximity wins on latency when all "
              "peers are honest.\n");
  return exit_status();
}
