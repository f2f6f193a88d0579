#include <gtest/gtest.h>

#include "http/client.hpp"
#include "http/server.hpp"
#include "net/topology.hpp"
#include "traversal/reachability.hpp"

namespace hpop::traversal {
namespace {

using util::kSecond;

/// Infrastructure world: public core with STUN/TURN/reflector services,
/// one home whose NAT type is configurable, optionally behind a CGN, and
/// one external public client.
struct World {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(31)};
  net::Router* core = nullptr;
  net::Host* infra = nullptr;   // hosts STUN + TURN + reflector
  net::Host* outside = nullptr; // external client
  net::NatBox* home_nat = nullptr;
  net::NatBox* cgn = nullptr;
  net::Host* hpop_host = nullptr;
  std::unique_ptr<transport::TransportMux> mux_infra;
  std::unique_ptr<transport::TransportMux> mux_outside;
  std::unique_ptr<transport::TransportMux> mux_hpop;
  std::unique_ptr<StunServer> stun;
  std::unique_ptr<TurnServer> turn;
  std::unique_ptr<Reflector> reflector;

  World(net::NatConfig home, bool behind_cgn,
        net::NatConfig cgn_config = net::NatConfig::carrier_grade()) {
    core = &net.add_router("core");
    infra = &net.add_host("infra", net.next_public_address());
    net.connect(*infra, infra->address(), *core, net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 5 * util::kMillisecond});
    outside = &net.add_host("outside", net.next_public_address());
    net.connect(*outside, outside->address(), *core, net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 10 * util::kMillisecond});

    net::Node* isp_attachment = core;
    if (behind_cgn) {
      // The CGN's outside face is public; its inside is the ISP's private
      // realm where home NATs' "public" addresses live.
      cgn = &net.add_nat("cgn", net.next_public_address(), cgn_config);
      net.connect(*cgn, cgn->public_ip(), *core, net::IpAddr{},
                  net::LinkParams{10 * util::kGbps, 2 * util::kMillisecond});
      isp_attachment = cgn;
    }
    const net::IpAddr home_wan =
        behind_cgn ? net::IpAddr(10, 100, 0, 2) : net.next_public_address();
    home_nat = &net.add_nat("home_nat", home_wan, home);
    net.connect(*home_nat, home_wan, *isp_attachment,
                behind_cgn ? net::IpAddr(10, 100, 0, 1) : net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 2 * util::kMillisecond});
    hpop_host = &net.add_host("hpop", net::IpAddr(10, 0, 0, 10));
    net.connect(*hpop_host, hpop_host->address(), *home_nat,
                net::IpAddr(10, 0, 0, 1),
                net::LinkParams{1 * util::kGbps, 100 * util::kMicrosecond});
    net.auto_route();

    mux_infra = std::make_unique<transport::TransportMux>(*infra);
    mux_outside = std::make_unique<transport::TransportMux>(*outside);
    mux_hpop = std::make_unique<transport::TransportMux>(*hpop_host);
    stun = std::make_unique<StunServer>(*mux_infra, 3478);
    turn = std::make_unique<TurnServer>(*mux_infra, 3479);
    reflector = std::make_unique<Reflector>(*mux_infra, 7100);
  }

  ReachabilityConfig reach_config() {
    ReachabilityConfig config;
    config.service_port = 443;
    config.home_gateway = home_nat;
    config.stun_server = net::Endpoint{infra->address(), 3478};
    config.turn_server = net::Endpoint{infra->address(), 3479};
    config.reflector = net::Endpoint{infra->address(), 7100};
    config.nat_depth = cgn != nullptr ? 2 : 1;
    return config;
  }
};

TEST(Stun, DiscoversMappedEndpoint) {
  World w(net::NatConfig::full_cone(), false);
  StunClient client(*w.mux_hpop, {w.infra->address(), 3478});
  std::optional<net::Endpoint> mapped;
  client.discover([&](util::Result<net::Endpoint> r) {
    ASSERT_TRUE(r.ok());
    mapped = r.value();
  });
  w.sim.run_until(5 * kSecond);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->ip, w.home_nat->public_ip());
  EXPECT_NE(mapped->port, client.local_port());  // translated
}

TEST(Stun, TcpMappingDiscovery) {
  World w(net::NatConfig::full_cone(), false);
  std::optional<net::Endpoint> mapped;
  discover_tcp_mapping(*w.mux_hpop, {w.infra->address(), 3478}, 443,
                       [&](util::Result<net::Endpoint> r) {
                         ASSERT_TRUE(r.ok());
                         mapped = r.value();
                       });
  w.sim.run_until(5 * kSecond);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->ip, w.home_nat->public_ip());
}

TEST(Stun, RetriesThroughLoss) {
  World w(net::NatConfig::full_cone(), false);
  // Heavy loss on the infra attachment: the client's retransmissions must
  // still get an answer through (deterministic under the fixed seed).
  w.net.links().front()->set_loss(0.3);
  StunClient client(*w.mux_hpop, {w.infra->address(), 3478});
  bool answered = false;
  client.discover([&](util::Result<net::Endpoint> r) { answered = r.ok(); },
                  8);
  w.sim.run_until(10 * kSecond);
  EXPECT_TRUE(answered);
}

TEST(Upnp, MapsPortOnHomeNat) {
  World w(net::NatConfig::full_cone(), false);
  UpnpClient upnp(w.sim, w.home_nat);
  bool ok = false;
  upnp.add_port_mapping(net::Proto::kTcp, 443,
                        {w.hpop_host->address(), 443},
                        [&](util::Status s) { ok = s.ok(); });
  w.sim.run_until(kSecond);
  EXPECT_TRUE(ok);

  // The mapping admits an unsolicited external TCP connection.
  transport::TcpOptions opts;
  auto listener = w.mux_hpop->tcp_listen(443);
  bool accepted = false;
  listener->set_on_accept(
      [&](std::shared_ptr<transport::TcpConnection>) { accepted = true; });
  auto conn =
      w.mux_outside->tcp_connect({w.home_nat->public_ip(), 443}, opts);
  w.sim.run_until(5 * kSecond);
  EXPECT_TRUE(accepted);
}

TEST(Upnp, CgnRefuses) {
  World w(net::NatConfig::full_cone(), true);
  UpnpClient upnp(w.sim, w.cgn);
  std::string code;
  upnp.add_port_mapping(net::Proto::kTcp, 443,
                        {w.hpop_host->address(), 443},
                        [&](util::Status s) {
                          ASSERT_FALSE(s.ok());
                          code = s.error().code;
                        });
  w.sim.run_until(kSecond);
  EXPECT_EQ(code, "upnp_disabled");
}

TEST(Punch, AdmitsInboundThroughPortRestrictedNat) {
  World w(net::NatConfig::port_restricted_cone(), false);
  auto listener = w.mux_hpop->tcp_listen(443);
  bool accepted = false;
  listener->set_on_accept(
      [&](std::shared_ptr<transport::TcpConnection>) { accepted = true; });

  // Discover the TCP mapping for port 443, then punch toward the exact
  // endpoint the outside client will use.
  std::optional<net::Endpoint> mapped;
  discover_tcp_mapping(*w.mux_hpop, {w.infra->address(), 3478}, 443,
                       [&](util::Result<net::Endpoint> r) {
                         ASSERT_TRUE(r.ok());
                         mapped = r.value();
                       });
  w.sim.run_until(2 * kSecond);
  ASSERT_TRUE(mapped.has_value());

  const std::uint16_t client_port = 40000;
  punch_tcp(*w.hpop_host, 443, {w.outside->address(), client_port}, 2);
  w.sim.run_until(3 * kSecond);

  transport::TcpOptions opts;
  opts.local_port = client_port;
  auto conn = w.mux_outside->tcp_connect(*mapped, opts);
  w.sim.run_until(8 * kSecond);
  EXPECT_TRUE(accepted);
}

TEST(Punch, WithoutPunchInboundIsFiltered) {
  World w(net::NatConfig::port_restricted_cone(), false);
  auto listener = w.mux_hpop->tcp_listen(443);
  bool accepted = false;
  listener->set_on_accept(
      [&](std::shared_ptr<transport::TcpConnection>) { accepted = true; });
  std::optional<net::Endpoint> mapped;
  discover_tcp_mapping(*w.mux_hpop, {w.infra->address(), 3478}, 443,
                       [&](util::Result<net::Endpoint> r) {
                         ASSERT_TRUE(r.ok());
                         mapped = r.value();
                       });
  w.sim.run_until(2 * kSecond);
  ASSERT_TRUE(mapped.has_value());
  auto conn = w.mux_outside->tcp_connect(*mapped);
  w.sim.run_until(8 * kSecond);
  EXPECT_FALSE(accepted);
}

TEST(Turn, RelaysTcpToLocalService) {
  World w(net::NatConfig::symmetric(), false);
  // Local HTTP service on the HPoP.
  http::HttpServer service(*w.mux_hpop, 443);
  service.route(http::Method::kGet, "/",
                [](const http::Request&, http::ResponseWriter& resp) {
                  http::Response r;
                  r.body = http::Body("relayed hello");
                  resp.respond(std::move(r));
                });

  TurnAllocation alloc(*w.mux_hpop, {w.infra->address(), 3479}, 443);
  std::optional<net::Endpoint> relay;
  alloc.allocate([&](util::Result<net::Endpoint> r) {
    ASSERT_TRUE(r.ok());
    relay = r.value();
  });
  w.sim.run_until(3 * kSecond);
  ASSERT_TRUE(relay.has_value());
  EXPECT_EQ(relay->ip, w.infra->address());

  http::HttpClient client(*w.mux_outside);
  std::string got;
  http::Request req;
  req.path = "/";
  client.fetch(*relay, req, [&](util::Result<http::Response> r) {
    ASSERT_TRUE(r.ok());
    got = r.value().body.text();
  });
  w.sim.run_until(10 * kSecond);
  EXPECT_EQ(got, "relayed hello");
  EXPECT_GT(w.turn->bytes_relayed(), 0u);
}

// ------------------------------------------------- Reachability manager

struct ReachCase {
  net::NatConfig home;
  bool behind_cgn;
  ReachMethod expected;
  const char* label;
};

// Names each case by its label. gtest's default printer dumps the raw bytes,
// padding included, so the generated test names would change from run to run.
void PrintTo(const ReachCase& c, std::ostream* os) { *os << c.label; }

class ReachabilitySweep : public ::testing::TestWithParam<ReachCase> {};

TEST_P(ReachabilitySweep, PicksExpectedMethod) {
  const ReachCase& c = GetParam();
  World w(c.home, c.behind_cgn);
  auto listener = w.mux_hpop->tcp_listen(443);  // the HPoP service
  ReachabilityManager reach(*w.mux_hpop, w.reach_config());
  std::optional<Advertisement> adv;
  reach.establish([&](const Advertisement& a) { adv = a; });
  w.sim.run_until(60 * kSecond);
  ASSERT_TRUE(adv.has_value());
  EXPECT_EQ(adv->method, c.expected) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    NatMatrix, ReachabilitySweep,
    ::testing::Values(
        // Home NAT only, UPnP available: the §III happy path.
        ReachCase{net::NatConfig::full_cone(), false, ReachMethod::kUpnp,
                  "home-nat-upnp"},
        // UPnP disabled on the home gateway: punching works on a
        // port-restricted cone.
        ReachCase{[] {
                    auto c = net::NatConfig::port_restricted_cone();
                    c.upnp_enabled = false;
                    return c;
                  }(),
                  false, ReachMethod::kStunPunch, "no-upnp-punch"},
        // Behind a CGN: home UPnP succeeds but is useless (verification
        // catches it); punching through both NATs works.
        ReachCase{net::NatConfig::full_cone(), true,
                  ReachMethod::kStunPunch, "cgn-punch"},
        // Symmetric home NAT without UPnP: only the relay is left.
        ReachCase{[] {
                    auto c = net::NatConfig::symmetric();
                    c.upnp_enabled = false;
                    return c;
                  }(),
                  false, ReachMethod::kTurnRelay, "symmetric-turn"}));

TEST(Reachability, DirectForPublicHost) {
  World w(net::NatConfig::full_cone(), false);
  // A publicly addressed server (no NAT in front).
  transport::TransportMux mux_pub(*w.outside);
  auto listener = mux_pub.tcp_listen(443);
  ReachabilityConfig config;
  config.service_port = 443;
  config.reflector = net::Endpoint{w.infra->address(), 7100};
  ReachabilityManager reach(mux_pub, config);
  std::optional<Advertisement> adv;
  reach.establish([&](const Advertisement& a) { adv = a; });
  w.sim.run_until(20 * kSecond);
  ASSERT_TRUE(adv.has_value());
  EXPECT_EQ(adv->method, ReachMethod::kDirect);
  EXPECT_EQ(adv->endpoint,
            (net::Endpoint{w.outside->address(), 443}));
}

}  // namespace
}  // namespace hpop::traversal
