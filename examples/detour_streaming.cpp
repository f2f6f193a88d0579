// Detour Collective (§IV-C, Fig. 3): a client whose native route to a
// video server is congested and lossy recruits a collective member's HPoP
// as a waypoint. MPTCP makes the detour invisible to the server; the
// client explores, keeps the good path, and the download accelerates.

#include <cstdio>

#include "dcol/client.hpp"
#include "net/topology.hpp"
#include "transport/payloads.hpp"

using namespace hpop;
using namespace hpop::dcol;

namespace {

struct World {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(19)};
  net::Host *client, *server, *waypoint_host;
  std::unique_ptr<transport::TransportMux> mux_client, mux_server,
      mux_waypoint;
  std::unique_ptr<WaypointService> waypoint;

  World() {
    client = &net.add_host("viewer", net.next_public_address());
    server = &net.add_host("video-server", net.next_public_address());
    waypoint_host = &net.add_host("friend-hpop", net.next_public_address());
    net::Router& bad_isp = net.add_router("congested-isp");
    net::Router& good_isp = net.add_router("clean-isp");

    // Native route: 2% loss, modest capacity (an inefficient IP path).
    net.connect(*client, client->address(), bad_isp, net::IpAddr{},
                net::LinkParams{30 * util::kMbps, 35 * util::kMillisecond,
                                0.02, 1 << 21});
    net.connect(bad_isp, net::IpAddr{}, *server, server->address(),
                net::LinkParams{1 * util::kGbps, 5 * util::kMillisecond});
    // The friend's FTTH neighborhood: clean gigabit legs.
    net.connect(*client, client->address(), good_isp, net::IpAddr{},
                net::LinkParams{200 * util::kMbps, 8 * util::kMillisecond});
    net.connect(*waypoint_host, waypoint_host->address(), good_isp,
                net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 2 * util::kMillisecond});
    net.connect(good_isp, net::IpAddr{}, bad_isp, net::IpAddr{},
                net::LinkParams{10 * util::kGbps, 3 * util::kMillisecond});
    net.auto_route();
    client->add_route(net::Prefix{server->address(), 32},
                      client->interfaces()[0].get());

    mux_client = std::make_unique<transport::TransportMux>(*client);
    mux_server = std::make_unique<transport::TransportMux>(*server);
    mux_waypoint = std::make_unique<transport::TransportMux>(*waypoint_host);
    waypoint = std::make_unique<WaypointService>(*mux_waypoint,
                                                 WaypointConfig{},
                                                 util::Rng(5));
  }
};

}  // namespace

int main() {
  const std::size_t kVideo = 24u << 20;  // a 24 MB segment

  for (const bool use_detour : {false, true}) {
    World w;
    // Server: MPTCP + TLS responder, streams the segment on request.
    transport::TcpOptions sopts;
    sopts.mp_capable = true;
    auto listener = w.mux_server->tcp_listen(443, sopts);
    listener->set_on_accept_mptcp(
        [&](std::shared_ptr<transport::MptcpConnection> conn) {
          serve_tls(conn, [conn](net::PayloadPtr) {
            conn->send_bytes(kVideo);
          });
        });

    Collective collective;
    collective.add_member("friend", w.waypoint->vpn_endpoint(),
                          w.waypoint->nat_endpoint());
    DcolOptions options;
    options.max_detours = use_detour ? 1 : 0;
    options.tunnel = TunnelKind::kVpn;
    DcolClient dcol(*w.mux_client, collective, /*self_id=*/0, options,
                    util::Rng(3));

    std::uint64_t received = 0;
    util::TimePoint done = 0;
    std::shared_ptr<DcolSession> session;
    dcol.connect({w.server->address(), 443},
                 [&](std::shared_ptr<DcolSession> s) {
                   session = s;
                   s->connection()->set_on_bytes([&](std::size_t n) {
                     received += n;
                     if (received >= kVideo && done == 0) done = w.sim.now();
                   });
                   w.sim.schedule(util::kSecond, [s] {
                     s->connection()->send(
                         std::make_shared<transport::BytesPayload>(
                             "GET /video/segment"));
                   });
                 });
    w.sim.run_until(600 * util::kSecond);

    std::printf("%-12s 24 MB in %7.2f s (%5.2f Mbit/s)",
                use_detour ? "with DCol:" : "direct:",
                util::to_seconds(done),
                kVideo * 8.0 / 1e6 / util::to_seconds(done));
    if (session != nullptr && use_detour) {
      const auto& sf = session->connection()->subflows();
      std::printf("  [paths: direct + %d detour(s); waypoint relayed "
                  "%.1f MB]",
                  session->active_detours(),
                  w.waypoint->stats().bytes_relayed / 1048576.0);
      (void)sf;
    }
    std::printf("\n");
  }
  std::printf("\nThe server never knew: both subflows looked like ordinary "
              "MPTCP to it (§IV-C).\n");
  return 0;
}
