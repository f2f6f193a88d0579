// E9 — §IV-C client-to-waypoint tunneling trade-offs: "Once a client
// establishes a VPN tunnel with a waypoint, this tunnel may be reused to
// create a detour for any TCP connection to any server, without any
// additional setup. The NAT mechanism requires signaling with the waypoint
// for every new server ... On the other hand, VPN adds 36 bytes of
// per-packet overhead ... while NAT adds no extra bytes to a packet."
//
// Measures both axes: exact per-packet overhead on the relay legs, and the
// setup cost when a client talks to K successive servers.

#include "bench/common.hpp"
#include "dcol/tunnel.hpp"
#include "net/topology.hpp"
#include "transport/payloads.hpp"

using namespace hpop;
using namespace hpop::bench;
using namespace hpop::dcol;

namespace {

struct World {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(67)};
  net::Host* client;
  net::Host* waypoint_host;
  std::vector<net::Host*> servers;
  std::unique_ptr<transport::TransportMux> mux_client, mux_waypoint;
  std::vector<std::unique_ptr<transport::TransportMux>> mux_servers;
  std::vector<std::shared_ptr<transport::TcpListener>> listeners;
  std::unique_ptr<WaypointService> waypoint;

  explicit World(int n_servers) {
    net::Router& r = net.add_router("r");
    client = &net.add_host("client", net.next_public_address());
    net.connect(*client, client->address(), r, net::IpAddr{},
                net::LinkParams{100 * util::kMbps, 10 * util::kMillisecond});
    waypoint_host = &net.add_host("wp", net.next_public_address());
    net.connect(*waypoint_host, waypoint_host->address(), r, net::IpAddr{},
                net::LinkParams{1 * util::kGbps, 5 * util::kMillisecond});
    for (int i = 0; i < n_servers; ++i) {
      servers.push_back(&net.add_host("server" + std::to_string(i),
                                      net.next_public_address()));
      net.connect(*servers.back(), servers.back()->address(), r,
                  net::IpAddr{},
                  net::LinkParams{1 * util::kGbps, 15 * util::kMillisecond});
    }
    net.auto_route();
    mux_client = std::make_unique<transport::TransportMux>(*client);
    mux_waypoint = std::make_unique<transport::TransportMux>(*waypoint_host);
    waypoint = std::make_unique<WaypointService>(*mux_waypoint,
                                                 WaypointConfig{},
                                                 util::Rng(5));
    for (int i = 0; i < n_servers; ++i) {
      mux_servers.push_back(
          std::make_unique<transport::TransportMux>(*servers[i]));
      listeners.push_back(mux_servers.back()->tcp_listen(443));
      listeners.back()->set_on_accept(
          [](std::shared_ptr<transport::TcpConnection> c) {
            // Echo server: bounce back whatever arrives (by size).
            c->set_on_bytes([c](std::size_t n) { c->send_bytes(n); });
            static std::vector<std::shared_ptr<transport::TcpConnection>>
                keep;
            keep.push_back(c);
          });
    }
  }
};

struct TunnelCost {
  double overhead_bytes_per_packet = 0;
  double first_byte_ms_per_server = 0;  // mean across servers
  std::uint64_t signal_messages = 0;    // tunnel-control round trips
};

TunnelCost run(TunnelKind kind, int n_servers, std::size_t bytes_per_server) {
  World w(n_servers);
  TunnelCost cost;

  std::unique_ptr<VpnTunnel> vpn;
  if (kind == TunnelKind::kVpn) {
    vpn = std::make_unique<VpnTunnel>(*w.mux_client,
                                      w.waypoint->vpn_endpoint());
    bool joined = false;
    vpn->join([&](util::Result<net::IpAddr> r) { joined = r.ok(); });
    w.sim.run_until(5 * util::kSecond);
    if (!joined) return cost;
    ++cost.signal_messages;  // the single join
  }

  util::Summary first_byte_ms;
  std::uint64_t baseline_packets = 0;
  for (int s = 0; s < n_servers; ++s) {
    const net::Endpoint server{w.servers[static_cast<std::size_t>(s)]
                                   ->address(),
                               443};
    const util::TimePoint start = w.sim.now();
    util::TimePoint first_byte = 0;
    std::uint64_t echoed = 0;

    auto start_transfer = [&](transport::TcpOptions opts) {
      auto conn = w.mux_client->tcp_connect(server, opts);
      conn->set_on_established(
          [conn, bytes_per_server] { conn->send_bytes(bytes_per_server); });
      conn->set_on_bytes([&, conn](std::size_t n) {
        if (first_byte == 0) first_byte = w.sim.now();
        echoed += n;
      });
      static std::vector<std::shared_ptr<transport::TcpConnection>> keep;
      keep.push_back(conn);
    };

    if (kind == TunnelKind::kVpn) {
      start_transfer(vpn->subflow_options());
    } else {
      auto nat = std::make_shared<NatTunnel>(*w.mux_client,
                                             w.waypoint->nat_endpoint());
      ++cost.signal_messages;  // per-server signalling
      nat->open(server, [&, nat, start_transfer](util::Status status) {
        if (!status.ok()) return;
        const std::uint16_t port = w.mux_client->host().allocate_port();
        nat->attach_local_port(port);
        start_transfer(nat->subflow_options(port));
      });
      static std::vector<std::shared_ptr<NatTunnel>> keep;
      keep.push_back(nat);
    }
    w.sim.run_until(w.sim.now() + 30 * util::kSecond);
    if (first_byte != 0) {
      first_byte_ms.add(util::to_millis(first_byte - start));
    }
    (void)echoed;
    (void)baseline_packets;
  }
  cost.first_byte_ms_per_server = first_byte_ms.mean();
  cost.overhead_bytes_per_packet =
      w.waypoint->stats().packets_relayed == 0
          ? 0
          : static_cast<double>(w.waypoint->stats().bytes_relayed) /
                static_cast<double>(w.waypoint->stats().packets_relayed);
  return cost;
}

}  // namespace

int main() {
  header("E9", "VPN vs NAT tunneling to the waypoint",
         "VPN: +36 B/packet, reusable for any server. NAT: 0 extra bytes, "
         "but per-destination signalling");

  const int kServers = 6;
  const std::size_t kBytes = 256 << 10;
  const TunnelCost vpn = run(TunnelKind::kVpn, kServers, kBytes);
  const TunnelCost nat = run(TunnelKind::kNat, kServers, kBytes);

  util::Table table({"mechanism", "mean relayed B/packet",
                     "signalling ops for 6 servers",
                     "mean time-to-first-echo (ms)"});
  table.add_row({"VPN tunnel", fmt(vpn.overhead_bytes_per_packet, 1),
                 std::to_string(vpn.signal_messages) + " (one join)",
                 fmt(vpn.first_byte_ms_per_server, 1)});
  table.add_row({"NAT tunnel", fmt(nat.overhead_bytes_per_packet, 1),
                 std::to_string(nat.signal_messages) + " (one per server)",
                 fmt(nat.first_byte_ms_per_server, 1)});
  std::printf("%s", table.render().c_str());

  const double delta =
      vpn.overhead_bytes_per_packet - nat.overhead_bytes_per_packet;
  verdict("VPN per-packet overhead vs NAT", "+36 B exactly (per §IV-C)",
          "+" + fmt(delta, 1) + " B", delta > 20 && delta < 40);
  verdict("NAT signals per destination", std::to_string(kServers),
          std::to_string(nat.signal_messages),
          nat.signal_messages == kServers);
  verdict("VPN signals once, reuses for all servers", "1",
          std::to_string(vpn.signal_messages), vpn.signal_messages == 1);
  std::printf("note: the measured delta is averaged over data + ack "
              "packets; 36 B is added to every encapsulated packet, acks "
              "included (see net.Packet.WireSizes for the exact "
              "per-packet check).\n");
  return exit_status();
}
