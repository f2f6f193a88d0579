// E12 — §III reachability: "UPnP ... for home networks behind a local NAT
// device only; STUN (hole punching) where the NAT behavior allows it;
// relaying-based traversal such as TURN (with limited functionality)
// otherwise."
//
// Sweeps the NAT matrix (type x CGN presence), boots a ReachabilityManager
// per cell, and reports which method won, how long establishment took, and
// the end-to-end cost a client then pays (TURN's relay penalty included).

#include "bench/common.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "net/topology.hpp"
#include "traversal/reachability.hpp"

using namespace hpop;
using namespace hpop::bench;

namespace {

struct Cell {
  const char* label;
  net::NatConfig home;
  bool behind_cgn;
};

struct Outcome {
  traversal::ReachMethod method = traversal::ReachMethod::kUnreachable;
  double establish_s = 0;
  double fetch_ms = -1;  // external client GET through the advertisement
};

Outcome run_cell(const Cell& cell) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(31));
  net::Router& core = net.add_router("core");
  net::Host& infra = net.add_host("infra", net.next_public_address());
  net.connect(infra, infra.address(), core, net::IpAddr{},
              net::LinkParams{10 * util::kGbps, 5 * util::kMillisecond});
  net::Host& outside = net.add_host("outside", net.next_public_address());
  net.connect(outside, outside.address(), core, net::IpAddr{},
              net::LinkParams{1 * util::kGbps, 10 * util::kMillisecond});

  net::Node* attach = &core;
  net::NatBox* cgn = nullptr;
  if (cell.behind_cgn) {
    cgn = &net.add_nat("cgn", net.next_public_address(),
                       net::NatConfig::carrier_grade());
    net.connect(*cgn, cgn->public_ip(), core, net::IpAddr{},
                net::LinkParams{10 * util::kGbps, 2 * util::kMillisecond});
    attach = cgn;
  }
  const net::IpAddr wan =
      cell.behind_cgn ? net::IpAddr(10, 100, 0, 2) : net.next_public_address();
  net::NatBox& home_nat = net.add_nat("home", wan, cell.home);
  net.connect(home_nat, wan, *attach,
              cell.behind_cgn ? net::IpAddr(10, 100, 0, 1) : net::IpAddr{},
              net::LinkParams{1 * util::kGbps, 2 * util::kMillisecond});
  net::Host& hpop = net.add_host("hpop", net::IpAddr(10, 0, 0, 10));
  net.connect(hpop, hpop.address(), home_nat, net::IpAddr(10, 0, 0, 1),
              net::LinkParams{1 * util::kGbps, 100 * util::kMicrosecond});
  net.auto_route();

  transport::TransportMux mux_infra(infra), mux_outside(outside),
      mux_hpop(hpop);
  traversal::StunServer stun(mux_infra, 3478);
  traversal::TurnServer turn(mux_infra, 3479);
  traversal::Reflector reflector(mux_infra, 7100);

  // The HPoP's actual service.
  http::HttpServer service(mux_hpop, 443);
  service.route(http::Method::kGet, "/",
                [](const http::Request&, http::ResponseWriter& w) {
                  http::Response resp;
                  resp.body = http::Body::synthetic(20 * 1024, 5);
                  w.respond(std::move(resp));
                });

  traversal::ReachabilityConfig config;
  config.service_port = 443;
  config.home_gateway = &home_nat;
  config.stun_server = net::Endpoint{infra.address(), 3478};
  config.turn_server = net::Endpoint{infra.address(), 3479};
  config.reflector = net::Endpoint{infra.address(), 7100};
  config.nat_depth = cell.behind_cgn ? 2 : 1;
  traversal::ReachabilityManager reach(mux_hpop, config);

  Outcome outcome;
  bool established = false;
  reach.establish([&](const traversal::Advertisement& adv) {
    outcome.method = adv.method;
    outcome.establish_s = util::to_seconds(sim.now());
    established = true;
  });
  sim.run_until(120 * util::kSecond);
  if (!established ||
      outcome.method == traversal::ReachMethod::kUnreachable) {
    return outcome;
  }

  // An external client fetches through the advertisement (punching via
  // the rendezvous dance when required).
  const traversal::Advertisement adv = reach.advertisement();
  const std::uint16_t client_port = 40000;
  if (adv.rendezvous_required) {
    reach.expect_peer({outside.address(), client_port});
    sim.run_until(sim.now() + util::kSecond);
  }
  http::HttpClient client(mux_outside);
  const util::TimePoint start = sim.now();
  util::TimePoint done = 0;
  http::Request req;
  req.path = "/";
  // Note: punched endpoints require the announced source port; the
  // HttpClient's pool doesn't pin ports, so issue a raw connection fetch.
  transport::TcpOptions copts;
  if (adv.rendezvous_required) copts.local_port = client_port;
  auto conn = mux_outside.tcp_connect(adv.endpoint, copts);
  conn->set_on_established([&] {
    conn->send(std::make_shared<http::RequestPayload>(req));
  });
  conn->set_on_message([&](net::PayloadPtr msg) {
    if (std::dynamic_pointer_cast<const http::ResponsePayload>(msg) &&
        done == 0) {
      done = sim.now();
    }
  });
  sim.run_until(sim.now() + 30 * util::kSecond);
  if (done != 0) outcome.fetch_ms = util::to_millis(done - start);
  return outcome;
}

}  // namespace

int main() {
  header("E12", "HPoP reachability across the NAT matrix",
         "UPnP for home NAT; STUN hole punching through CGNs when NAT "
         "behaviour allows; TURN relaying (limited functionality) otherwise");

  const Cell cells[] = {
      {"full-cone home NAT", net::NatConfig::full_cone(), false},
      {"port-restricted, no UPnP",
       [] {
         auto c = net::NatConfig::port_restricted_cone();
         c.upnp_enabled = false;
         return c;
       }(),
       false},
      {"full-cone home NAT + CGN", net::NatConfig::full_cone(), true},
      {"symmetric, no UPnP",
       [] {
         auto c = net::NatConfig::symmetric();
         c.upnp_enabled = false;
         return c;
       }(),
       false},
      {"symmetric + CGN",
       [] {
         auto c = net::NatConfig::symmetric();
         c.upnp_enabled = false;
         return c;
       }(),
       true},
  };

  util::Table table({"NAT situation", "method", "establish (s)",
                     "client GET 20KB (ms)"});
  std::vector<Outcome> outcomes;
  for (const Cell& cell : cells) {
    const Outcome o = run_cell(cell);
    outcomes.push_back(o);
    table.add_row({cell.label, traversal::to_string(o.method),
                   fmt(o.establish_s, 2),
                   o.fetch_ms < 0 ? "failed" : fmt(o.fetch_ms, 1)});
  }
  std::printf("%s", table.render().c_str());

  verdict("home-NAT-only uses UPnP", "upnp",
          traversal::to_string(outcomes[0].method),
          outcomes[0].method == traversal::ReachMethod::kUpnp);
  verdict("CGN falls back to punching", "stun-punch",
          traversal::to_string(outcomes[2].method),
          outcomes[2].method == traversal::ReachMethod::kStunPunch);
  verdict("symmetric NAT needs the relay", "turn-relay",
          traversal::to_string(outcomes[3].method),
          outcomes[3].method == traversal::ReachMethod::kTurnRelay);
  const bool relay_slower = outcomes[3].fetch_ms > outcomes[0].fetch_ms;
  verdict("relay pays a latency penalty", "limited functionality",
          fmt(outcomes[3].fetch_ms, 1) + " vs " + fmt(outcomes[0].fetch_ms, 1) +
              " ms",
          relay_slower);
  return exit_status();
}
