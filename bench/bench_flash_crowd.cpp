// E14 — Overload resilience under a flash crowd (DESIGN.md §9).
//
// §IV-B serves provider content from peers on residential uplinks; a
// popular page can point a crowd at a single home. An unprotected peer
// accepts every request: its uplink queue grows without bound, every
// transfer crosses the client timeout, aborted connections waste the
// bytes already committed to the wire, and goodput collapses even though
// the link is saturated — classic congestion collapse. With admission
// control the peer sheds excess requests instantly with a cheap 429 +
// Retry-After; admitted transfers finish fast, and client-side circuit
// breakers + Retry-After pacing stop the crowd from hammering.
//
// This bench stampedes one warmed peer twice with identical seeds and
// client behaviour (retries, breakers on in BOTH runs) — admission off,
// then admission on — and compares goodput and latency percentiles over
// the steady-state window.
//
// Usage: bench_flash_crowd [--smoke]   (--smoke: fewer clients, shorter run)

#include "bench/common.hpp"
#include "net/topology.hpp"
#include "nocdn/origin.hpp"
#include "nocdn/peer.hpp"
#include "telemetry/metrics.hpp"
#include "util/retry.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

using namespace hpop;
using namespace hpop::bench;
using util::kGbps;
using util::kMbps;
using util::kMillisecond;
using util::kSecond;

namespace {

struct Params {
  int clients = 24;
  util::Duration issue_every = 500 * kMillisecond;  // per client, open loop
  util::Duration warmup = 5 * kSecond;    // measurement window start
  util::Duration horizon = 40 * kSecond;  // measurement window end
  std::size_t object_kb = 300;
  double peer_uplink_mbps = 30.0;
  double admission_rate = 10.0;  // only used when admission is on
  double admission_burst = 4.0;
};

struct Outcome {
  int issued = 0;
  int ok = 0;             // 200s completing inside the window
  std::uint64_t goodput_bytes = 0;
  std::uint64_t sheds = 0;
  std::uint64_t client_fast_fails = 0;
  std::uint64_t client_retries = 0;
  std::vector<double> latencies_s;  // successful fetches, issue -> 200

  double goodput_mbps(const Params& p) const {
    const double secs =
        static_cast<double>(p.horizon - p.warmup) / kSecond;
    return static_cast<double>(goodput_bytes) * 8.0 / secs / 1e6;
  }
  double percentile(double q) const {
    if (latencies_s.empty()) return 0.0;
    std::vector<double> sorted = latencies_s;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }
};

Outcome run_stampede(const Params& p, bool admission_on) {
  Outcome out;
  sim::Simulator sim;
  net::Network net{sim, util::Rng(71)};
  net::Router& core = net.add_router("core");

  net::Host& origin_host = net.add_host("origin", net.next_public_address());
  net.connect(origin_host, origin_host.address(), core, net::IpAddr{},
              net::LinkParams{1 * kGbps, 20 * kMillisecond});
  net::Host& peer_host = net.add_host("peer", net.next_public_address());
  net.connect(peer_host, peer_host.address(), core, net::IpAddr{},
              net::LinkParams{
                  static_cast<std::uint64_t>(p.peer_uplink_mbps) * kMbps,
                  5 * kMillisecond});
  std::vector<net::Host*> client_hosts;
  for (int i = 0; i <= p.clients; ++i) {  // [0] is the cache-warming client
    client_hosts.push_back(
        &net.add_host("client-" + std::to_string(i),
                      net.next_public_address()));
    net.connect(*client_hosts.back(), client_hosts.back()->address(), core,
                net::IpAddr{}, net::LinkParams{1 * kGbps, 8 * kMillisecond});
  }
  net.auto_route();

  transport::TransportMux mux_origin(origin_host);
  nocdn::OriginConfig oconfig;
  oconfig.provider = "nytimes";
  nocdn::OriginServer origin(mux_origin, oconfig, util::Rng(99));
  const std::string url = "/news/hot.jpg";
  origin.add_object({url, http::Body::synthetic(p.object_kb * 1024, 0xF1)});

  transport::TransportMux mux_peer(peer_host);
  nocdn::PeerProxy peer(mux_peer, 8080, util::Rng(1000));
  const std::uint64_t peer_id = origin.recruit_peer(peer.endpoint());
  peer.signup({"nytimes", peer_id, {origin_host.address(), 80}});
  if (admission_on) {
    overload::AdmissionConfig admission;
    admission.rate = p.admission_rate;
    admission.burst = p.admission_burst;
    peer.enable_admission(admission);
  }

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
    clients[i].mux = std::make_unique<transport::TransportMux>(
        *client_hosts[i]);
    clients[i].http = std::make_unique<http::HttpClient>(
        *clients[i].mux, util::Rng(7000 + i));
    clients[i].http->enable_breakers(bconfig);
  }

  http::FetchOptions options;
  options.timeout = 1500 * kMillisecond;
  options.retry = util::RetryPolicy{2, 400 * kMillisecond, 2.0, 0.3,
                                    2 * kSecond, 0};
  options.retry_on_overload = true;

  const net::Endpoint peer_ep = peer.endpoint();
  auto get_hot = [&](std::size_t c, auto&& done) {
    http::Request req;
    req.path = url;
    req.headers.set("Host", "nytimes");
    clients[c].http->fetch(peer_ep, std::move(req),
                           std::forward<decltype(done)>(done), options);
  };

  // Warm the peer's cache before the crowd arrives, so both runs measure
  // serving (the uplink bottleneck), not the one-off origin fill.
  bool warmed = false;
  get_hot(0, [&](util::Result<http::Response> r) {
    warmed = r.ok() && r.value().status == 200;
  });
  sim.run_until(kSecond);
  if (!warmed) return out;  // zeroed outcome fails every verdict loudly

  // The stampede: every client issues a GET on a fixed open-loop clock —
  // a crowd does not slow down because the peer is struggling.
  const util::Duration stagger = p.issue_every / p.clients;
  for (int c = 1; c <= p.clients; ++c) {
    // Each tick schedules a copy of itself: no closure owns itself.
    const auto tick = [&, c](const auto& self) -> void {
      if (sim.now() >= p.horizon) return;
      const util::TimePoint issued_at = sim.now();
      if (issued_at >= p.warmup) ++out.issued;
      get_hot(static_cast<std::size_t>(c),
              [&, issued_at](util::Result<http::Response> r) {
                if (!r.ok() || r.value().status != 200) return;
                const util::TimePoint done_at = sim.now();
                if (issued_at < p.warmup || done_at > p.horizon) return;
                ++out.ok;
                out.goodput_bytes += r.value().body.size();
                out.latencies_s.push_back(
                    static_cast<double>(done_at - issued_at) / kSecond);
              });
      sim.schedule(p.issue_every, [self] { self(self); });
    };
    sim.schedule(kSecond + c * stagger, [tick] { tick(tick); });
  }

  sim.run_until(p.horizon + 5 * kSecond);
  if (peer.admission()) out.sheds = peer.admission()->total_shed();
  for (int c = 1; c <= p.clients; ++c) {
    out.client_fast_fails +=
        clients[static_cast<std::size_t>(c)].http->stats().fast_fails;
    out.client_retries +=
        clients[static_cast<std::size_t>(c)].http->stats().retries;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  Params p;
  if (smoke) {
    p.clients = 8;
    p.issue_every = 250 * kMillisecond;
    p.warmup = 3 * kSecond;
    p.horizon = 15 * kSecond;
  }

  header("E14", "flash crowd vs one NoCDN peer: admission control on/off",
         "peers serve provider content from home uplinks (§IV-B); a flash "
         "crowd must degrade a peer gracefully, not collapse it");

  const auto before = telemetry::registry().snapshot();
  const Outcome off = run_stampede(p, /*admission_on=*/false);
  const Outcome on = run_stampede(p, /*admission_on=*/true);
  const auto delta = telemetry::MetricsRegistry::delta(
      before, telemetry::registry().snapshot());

  const double demand_rps =
      static_cast<double>(p.clients) * kSecond /
      static_cast<double>(p.issue_every);
  const double capacity_rps = p.peer_uplink_mbps * 1e6 / 8.0 /
                              static_cast<double>(p.object_kb * 1024);
  std::printf("%d clients, one %.0fKB object every %.0fms each "
              "(demand %.0f req/s, uplink fits ~%.1f req/s)\n",
              p.clients, static_cast<double>(p.object_kb),
              static_cast<double>(p.issue_every) / kMillisecond, demand_rps,
              capacity_rps);
  std::printf("identical clients both runs: timeout 1.5s, retries + "
              "Retry-After + circuit breakers on\n\n");

  util::Table table({"run", "goodput", "ok/issued", "sheds(429)",
                     "fast-fails", "retries", "p50", "p99"});
  auto add_row = [&](const char* name, const Outcome& o) {
    table.add_row({name, fmt(o.goodput_mbps(p)) + "Mbps",
                   std::to_string(o.ok) + "/" + std::to_string(o.issued),
                   std::to_string(o.sheds),
                   std::to_string(o.client_fast_fails),
                   std::to_string(o.client_retries),
                   fmt(o.percentile(0.50)) + "s",
                   fmt(o.percentile(0.99)) + "s"});
  };
  add_row("admission off", off);
  add_row("admission on", on);
  std::printf("%s", table.render().c_str());

  std::printf("\noverload counters (svc=nocdn.peer, both runs):\n");
  util::Table counters({"metric", "value"});
  counters.add_row({"overload.admitted",
                    fmt(delta.value("overload.admitted", "svc=nocdn.peer"),
                        0)});
  counters.add_row({"overload.shed_rate",
                    fmt(delta.value("overload.shed_rate", "svc=nocdn.peer"),
                        0)});
  counters.add_row({"nocdn.peer.requests",
                    fmt(delta.value("nocdn.peer.requests"), 0)});
  std::printf("%s\n", counters.render().c_str());

  const double ratio =
      off.goodput_mbps(p) > 0.0
          ? on.goodput_mbps(p) / off.goodput_mbps(p)
          : (on.goodput_mbps(p) > 0.0 ? 99.0 : 0.0);
  verdict("goodput with admission control", ">=2x of without",
          fmt(ratio, 1) + "x", ratio >= 2.0);
  verdict("p99 latency with admission on", "bounded (<2.5s)",
          fmt(on.percentile(0.99)) + "s",
          on.ok > 0 && on.percentile(0.99) < 2.5);
  verdict("excess load shed, not queued", ">0 sheds, 0 without",
          std::to_string(on.sheds) + " vs " + std::to_string(off.sheds),
          on.sheds > 0 && off.sheds == 0);
  return exit_status();
}
