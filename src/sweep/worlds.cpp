#include "sweep/worlds.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "net/topology.hpp"
#include "nocdn/origin.hpp"
#include "nocdn/peer.hpp"
#include "overload/admission.hpp"
#include "overload/breaker.hpp"
#include "transport/mux.hpp"
#include "util/retry.hpp"

namespace hpop::sweep {

using util::kGbps;
using util::kMillisecond;
using util::kSecond;

FlapResult run_flap_fetches(const FlapParams& p) {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(p.net_seed)};
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
  http::HttpClient client(mux_client, util::Rng(p.client_seed));

  fault::ChaosController chaos(sim, util::Rng(p.chaos_seed));
  chaos.flap_link(path.link_b, 5 * kSecond, 2, 5 * kSecond, 5 * kSecond);

  http::FetchOptions options;
  options.timeout = 2 * kSecond;
  if (p.retry) {
    options.retry = util::RetryPolicy{6, kSecond, 2.0, 0.5, 8 * kSecond, 0};
  }

  FlapResult out;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(2 * i * kSecond, [&, options] {
      http::Request req;
      req.path = "/";
      client.fetch({path.b->address(), 80}, req,
                   [&](util::Result<http::Response> r) {
                     if (r.ok() && r.value().ok()) {
                       ++out.ok;
                       out.bytes += r.value().body.size();
                       out.last_ok = sim.now();
                     }
                   },
                   options);
    });
  }
  sim.run_until(120 * kSecond);
  out.retries = client.stats().retries;
  return out;
}

double StampedeResult::percentile(double q) const {
  if (latencies_s.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(latencies_s.size() - 1) + 0.5);
  return latencies_s[std::min(rank, latencies_s.size() - 1)];
}

StampedeResult run_stampede(const StampedeParams& p) {
  StampedeResult out;
  sim::Simulator sim;
  net::Network net{sim, util::Rng(p.net_seed)};
  net::Router& core = net.add_router("core");

  net::Host& origin_host = net.add_host("origin", net.next_public_address());
  net.connect(origin_host, origin_host.address(), core, net::IpAddr{},
              net::LinkParams{1 * kGbps, 20 * kMillisecond});
  net::Host& peer_host = net.add_host("peer", net.next_public_address());
  net.connect(peer_host, peer_host.address(), core, net::IpAddr{},
              net::LinkParams{p.peer_uplink, 5 * kMillisecond});
  std::vector<net::Host*> client_hosts;
  for (int i = 0; i <= p.clients; ++i) {  // [0] is the cache-warming client
    client_hosts.push_back(&net.add_host("client-" + std::to_string(i),
                                         net.next_public_address()));
    net.connect(*client_hosts.back(), client_hosts.back()->address(), core,
                net::IpAddr{}, net::LinkParams{1 * kGbps, 8 * kMillisecond});
  }
  net.auto_route();

  transport::TransportMux mux_origin(origin_host);
  nocdn::OriginConfig oconfig;
  oconfig.provider = "nytimes";
  nocdn::OriginServer origin(mux_origin, oconfig, util::Rng(p.origin_seed));
  const std::string url = "/news/hot.jpg";
  origin.add_object({url, http::Body::synthetic(p.object_kb * 1024, 0xF1)});

  transport::TransportMux mux_peer(peer_host);
  nocdn::PeerProxy peer(mux_peer, 8080, util::Rng(p.peer_seed));
  const std::uint64_t peer_id = origin.recruit_peer(peer.endpoint());
  peer.signup({"nytimes", peer_id, {origin_host.address(), 80}});
  if (p.admission) {
    overload::AdmissionConfig admission;
    admission.rate = 10.0;
    admission.burst = 4.0;
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
    clients[i].mux =
        std::make_unique<transport::TransportMux>(*client_hosts[i]);
    clients[i].http = std::make_unique<http::HttpClient>(
        *clients[i].mux, util::Rng(p.client_seed + i));
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

  // Warm the peer's cache before the crowd arrives, so a run measures
  // serving (the uplink bottleneck), not the one-off origin fill.
  get_hot(0, [&](util::Result<http::Response> r) {
    out.warmed = r.ok() && r.value().status == 200;
  });
  sim.run_until(kSecond);
  if (!out.warmed) return out;

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
  for (std::size_t c = 1; c < clients.size(); ++c) {
    out.client_fast_fails += clients[c].http->stats().fast_fails;
    out.client_retries += clients[c].http->stats().retries;
  }
  std::sort(out.latencies_s.begin(), out.latencies_s.end());
  return out;
}

RampResult measure_ramp(const RampParams& p) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(p.seed));
  const net::PathParams params{p.rate, p.rtt / 4, 0.0,
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

  RampResult result;
  std::uint64_t prev = 0;
  for (int w = 1; w <= 40; ++w) {
    sim.run_until(established + w * p.rtt);
    const std::uint64_t in_window = received - prev;
    prev = received;
    const double window_rate =
        static_cast<double>(in_window) * 8 / util::to_seconds(p.rtt);
    if (window_rate >= 0.9 * p.rate) {
      result.rtts_to_saturation = w;
      result.bytes_at_saturation = received;
      break;
    }
  }
  return result;
}

}  // namespace hpop::sweep
