// E7 — §IV-B "Leveraging Redundancy": "clients could download objects in
// chunks (e.g., using HTTP range requests) from disparate peers instead of
// as entire objects ... These options both spread the load and lower the
// chance that one problematic peer — be it malicious or overloaded — will
// have a large overall impact on the client."
//
// Measures both halves of that sentence: load spread across peers
// (coefficient of variation of bytes served) and the worst-case impact of
// one problematic peer (failing or slow), whole-object vs chunked.

#include <cmath>

#include "bench/common.hpp"
#include "net/topology.hpp"
#include "nocdn/loader.hpp"
#include "nocdn/origin.hpp"
#include "nocdn/peer.hpp"

using namespace hpop;
using namespace hpop::bench;
using namespace hpop::nocdn;

namespace {

struct World {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(61)};
  net::Host* origin_host;
  std::unique_ptr<transport::TransportMux> origin_mux;
  std::unique_ptr<OriginServer> origin;
  std::vector<std::unique_ptr<transport::TransportMux>> peer_muxes;
  std::vector<std::unique_ptr<PeerProxy>> peers;
  std::unique_ptr<transport::TransportMux> client_mux;
  std::unique_ptr<http::HttpClient> client_http;
  std::unique_ptr<LoaderClient> loader;

  World(int n_peers, int chunks) {
    net::Router& core = net.add_router("core");
    origin_host = &net.add_host("origin", net.next_public_address());
    net.connect(*origin_host, origin_host->address(), core, net::IpAddr{},
                net::LinkParams{200 * util::kMbps, 35 * util::kMillisecond});
    net::Host& client = net.add_host("client", net.next_public_address());
    net.connect(client, client.address(), core, net::IpAddr{},
                net::LinkParams{300 * util::kMbps, 5 * util::kMillisecond});
    std::vector<net::Host*> peer_hosts;
    for (int i = 0; i < n_peers; ++i) {
      peer_hosts.push_back(&net.add_host("peer" + std::to_string(i),
                                         net.next_public_address()));
      net.connect(*peer_hosts.back(), peer_hosts.back()->address(), core,
                  net::IpAddr{},
                  net::LinkParams{1 * util::kGbps, 4 * util::kMillisecond});
    }
    net.auto_route();

    origin_mux = std::make_unique<transport::TransportMux>(*origin_host);
    OriginConfig config;
    config.provider = "site";
    config.chunks_per_object = chunks;
    // No alternate peers in the wrapper: this experiment isolates chunking
    // as the redundancy mechanism (alternate-peer failover is E13's).
    config.alternates_per_object = 0;
    origin = std::make_unique<OriginServer>(*origin_mux, config,
                                            util::Rng(99));
    PageSpec page;
    page.path = "/media";
    page.container_url = "/media.html";
    origin->add_object({page.container_url,
                        http::Body::synthetic(30 * 1024, 0xC0)});
    for (int i = 0; i < 4; ++i) {
      const std::string url = "/video" + std::to_string(i);
      page.embedded_urls.push_back(url);
      origin->add_object(
          {url, http::Body::synthetic(std::size_t(400) << 10,
                                      0xE0 + static_cast<unsigned>(i))});
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
    client_mux = std::make_unique<transport::TransportMux>(client);
    client_http = std::make_unique<http::HttpClient>(*client_mux);
    loader = std::make_unique<LoaderClient>(
        *client_http, net::Endpoint{origin_host->address(), 80}, "site");
  }

  PageLoadResult load_once() {
    std::optional<PageLoadResult> result;
    loader->load_page("/media", [&](PageLoadResult r) { result = r; });
    sim.run_until(sim.now() + 60 * util::kSecond);
    return result.value_or(PageLoadResult{});
  }
};

double byte_spread_cv(const World& w) {
  util::Summary bytes;
  for (const auto& peer : w.peers) {
    bytes.add(static_cast<double>(peer->stats().bytes_served));
  }
  return bytes.mean() > 0 ? bytes.stddev() / bytes.mean() : 0;
}

}  // namespace

int main() {
  header("E7", "chunked multi-peer downloads (ref [24] idea)",
         "chunking spreads load across peers and caps the impact of one "
         "problematic peer");

  // ---- Load spread (all peers honest) ----
  std::printf("load spread over 6 peers after 12 views (lower CV = more "
              "even):\n");
  util::Table spread({"mode", "bytes CV across peers", "median load (ms)"});
  for (const int chunks : {1, 3}) {
    World w(6, chunks);
    util::Summary load_ms;
    for (int v = 0; v < 12; ++v) {
      const PageLoadResult r = w.load_once();
      if (v > 0) load_ms.add(util::to_millis(r.load_time));  // skip cold
    }
    spread.add_row({chunks == 1 ? "whole objects" : "3 chunks/object",
                    fmt(byte_spread_cv(w), 3), fmt(load_ms.median(), 0)});
  }
  std::printf("%s", spread.render().c_str());

  // ---- One problematic peer: failing, then overloaded ----
  std::printf("\none problematic peer out of 3 (8 views, warm caches):\n");
  util::Table impact({"bad peer", "mode", "worst view fallback",
                      "worst view load (ms)", "views ok"});
  double worst_fallback[2][2] = {{0, 0}, {0, 0}};
  int mode_index = 0;
  for (const int chunks : {1, 3}) {
    int fault_index = 0;
    for (const char* fault : {"drops all requests", "400 ms overload"}) {
      World w(3, chunks);
      for (int v = 0; v < 3; ++v) (void)w.load_once();  // warm
      PeerBehavior bad;
      if (fault_index == 0) {
        bad.drop_rate = 1.0;
      } else {
        bad.extra_delay = 400 * util::kMillisecond;
      }
      w.peers[0]->set_behavior(bad);
      std::uint64_t worst_bytes = 0;
      double worst_ms = 0;
      int ok = 0;
      for (int v = 0; v < 8; ++v) {
        const PageLoadResult r = w.load_once();
        worst_bytes = std::max(worst_bytes, r.bytes_from_origin);
        worst_ms = std::max(worst_ms, util::to_millis(r.load_time));
        ok += r.success ? 1 : 0;
      }
      worst_fallback[mode_index][fault_index] =
          static_cast<double>(worst_bytes);
      impact.add_row({fault,
                      chunks == 1 ? "whole objects" : "3 chunks/object",
                      fmt_bytes(static_cast<double>(worst_bytes)),
                      fmt(worst_ms, 0), std::to_string(ok) + "/8"});
      ++fault_index;
    }
    ++mode_index;
  }
  std::printf("%s", impact.render().c_str());

  verdict("chunking caps worst-case fallback", "chunked <= whole",
          fmt_bytes(worst_fallback[1][0]) + " vs " +
              fmt_bytes(worst_fallback[0][0]),
          worst_fallback[1][0] <= worst_fallback[0][0] * 1.05);
  std::printf("=> every view still completes (hash-verified fallback), and "
              "chunking bounds how much any single peer's failure costs.\n");
  return exit_status();
}
