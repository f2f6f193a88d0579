// Property-style parameterized sweeps: the transport and NAT layers must
// uphold their invariants across the whole parameter grid, not just the
// scenarios the service tests happen to exercise.

#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "transport/mux.hpp"
#include "transport/payloads.hpp"

namespace hpop {
namespace {

using net::PathParams;
using util::kMbps;
using util::kMillisecond;
using util::kSecond;

// ----------------------------------------------------------- TCP torture

struct TcpCase {
  double loss;
  double rtt_ms;
  std::size_t kilobytes;
  std::uint64_t seed;
};

std::string tcp_case_name(const ::testing::TestParamInfo<TcpCase>& info) {
  return "loss" + std::to_string(static_cast<int>(info.param.loss * 1000)) +
         "_rtt" + std::to_string(static_cast<int>(info.param.rtt_ms)) +
         "_kb" + std::to_string(info.param.kilobytes) + "_s" +
         std::to_string(info.param.seed);
}

class TcpTorture : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpTorture, EveryByteAndMessageArrivesInOrder) {
  const TcpCase& c = GetParam();
  sim::Simulator sim;
  net::Network net(sim, util::Rng(c.seed));
  const PathParams params{20 * kMbps, util::milliseconds(c.rtt_ms / 4),
                          c.loss, 1 << 20};
  auto path = net::make_two_host_path(net, params, params);
  transport::TransportMux mux_a(*path.a), mux_b(*path.b);

  auto listener = mux_b.tcp_listen(80);
  std::uint64_t received = 0;
  std::vector<int> message_order;
  bool closed = false;
  listener->set_on_accept(
      [&](std::shared_ptr<transport::TcpConnection> conn) {
        conn->set_on_bytes([&](std::size_t n) { received += n; });
        conn->set_on_message([&](net::PayloadPtr msg) {
          message_order.push_back(static_cast<int>(std::stoi(
              std::static_pointer_cast<const transport::BytesPayload>(msg)
                  ->text())));
        });
        conn->set_on_remote_close([conn] { conn->close(); });
        conn->set_on_closed([&] { closed = true; });
      });

  const std::size_t total = c.kilobytes << 10;
  auto client = mux_a.tcp_connect({path.b->address(), 80});
  client->set_on_established([&] {
    // Interleave bulk with framed markers every quarter.
    const std::size_t quarter = total / 4;
    for (int q = 0; q < 4; ++q) {
      client->send(
          std::make_shared<transport::BytesPayload>(std::to_string(q)));
      client->send_bytes(quarter);
    }
    client->close();
  });

  sim.run_until(600 * kSecond);
  const std::size_t marker_bytes = 4;  // four 1-byte markers
  EXPECT_EQ(received, total + marker_bytes)
      << "loss=" << c.loss << " rtt=" << c.rtt_ms;
  ASSERT_EQ(message_order.size(), 4u);
  for (int q = 0; q < 4; ++q) EXPECT_EQ(message_order[q], q);
  EXPECT_TRUE(closed);  // FIN handshake survived the loss too
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpTorture,
    ::testing::Values(
        TcpCase{0.0, 10, 256, 1}, TcpCase{0.0, 100, 256, 2},
        TcpCase{0.01, 10, 256, 3}, TcpCase{0.01, 100, 256, 4},
        TcpCase{0.03, 20, 256, 5}, TcpCase{0.05, 20, 128, 6},
        TcpCase{0.01, 40, 1024, 7}, TcpCase{0.03, 40, 512, 8},
        TcpCase{0.08, 30, 64, 9}, TcpCase{0.02, 10, 2048, 10}),
    tcp_case_name);

// ---------------------------------------------------------- MPTCP torture

class MptcpTorture : public ::testing::TestWithParam<TcpCase> {};

TEST_P(MptcpTorture, TwoLossySubflowsDeliverEverything) {
  const TcpCase& c = GetParam();
  sim::Simulator sim;
  net::Network net(sim, util::Rng(c.seed));
  const PathParams params{20 * kMbps, util::milliseconds(c.rtt_ms / 4),
                          c.loss, 1 << 20};
  auto path = net::make_two_host_path(net, params, params);
  transport::TransportMux mux_a(*path.a), mux_b(*path.b);

  transport::TcpOptions sopts;
  sopts.mp_capable = true;
  auto listener = mux_b.tcp_listen(80, sopts);
  std::uint64_t received = 0;
  listener->set_on_accept_mptcp(
      [&](std::shared_ptr<transport::MptcpConnection> conn) {
        conn->set_on_bytes([&](std::size_t n) { received += n; });
      });
  const std::size_t total = c.kilobytes << 10;
  auto client = mux_a.mptcp_connect({path.b->address(), 80});
  client->set_on_established([&] {
    client->add_subflow(transport::TcpOptions{});
    client->send_bytes(total);
  });
  sim.run_until(600 * kSecond);
  EXPECT_EQ(received, total) << "loss=" << c.loss << " rtt=" << c.rtt_ms;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MptcpTorture,
    ::testing::Values(TcpCase{0.0, 20, 512, 11}, TcpCase{0.01, 20, 512, 12},
                      TcpCase{0.03, 40, 256, 13},
                      TcpCase{0.05, 20, 128, 14},
                      TcpCase{0.02, 80, 512, 15}),
    tcp_case_name);

// --------------------------------------------------- NAT behaviour matrix

struct NatCase {
  net::NatBehavior mapping;
  net::NatBehavior filtering;
  // Expected observable properties (RFC 4787 semantics):
  bool same_mapping_across_destinations;
  bool third_party_inbound_allowed;
  bool same_host_other_port_allowed;
};

// Names each case by its behaviours (ctest shows e.g. ".../mapEI_filterAD").
// gtest's default printer dumps the raw bytes, padding included, so the
// generated test names would change from build to build.
void PrintTo(const NatCase& c, std::ostream* os) {
  auto name = [](net::NatBehavior b) {
    switch (b) {
      case net::NatBehavior::kEndpointIndependent: return "EI";
      case net::NatBehavior::kAddressDependent: return "AD";
      case net::NatBehavior::kAddressAndPortDependent: return "APD";
    }
    return "?";
  };
  *os << "map" << name(c.mapping) << "_filter" << name(c.filtering);
}

class NatMatrix : public ::testing::TestWithParam<NatCase> {};

TEST_P(NatMatrix, Rfc4787ObservablesHold) {
  const NatCase& c = GetParam();
  sim::Simulator sim;
  net::Network net(sim, util::Rng(3));
  net::NatConfig config;
  config.mapping = c.mapping;
  config.filtering = c.filtering;

  net::NatBox& nat = net.add_nat("nat", net::IpAddr(100, 64, 0, 1), config);
  net::Router& core = net.add_router("core");
  net.connect(nat, nat.public_ip(), core, net::IpAddr{});
  net::Host& inside = net.add_host("inside", net::IpAddr(10, 0, 0, 10));
  net.connect(inside, inside.address(), nat, net::IpAddr(10, 0, 0, 1));
  net::Host& s1 = net.add_host("s1", net::IpAddr(100, 64, 0, 9));
  net::Host& s2 = net.add_host("s2", net::IpAddr(100, 64, 0, 8));
  net::Host& s3 = net.add_host("s3", net::IpAddr(100, 64, 0, 7));  // never contacted
  net.connect(s1, s1.address(), core, net::IpAddr{});
  net.connect(s2, s2.address(), core, net::IpAddr{});
  net.connect(s3, s3.address(), core, net::IpAddr{});
  net.auto_route();

  std::vector<net::Packet> at_s1, at_s2, at_inside;
  s1.set_transport_handler(
      [&](net::PooledPacket pkt, net::Interface&) { at_s1.push_back(*pkt); });
  s2.set_transport_handler(
      [&](net::PooledPacket pkt, net::Interface&) { at_s2.push_back(*pkt); });
  inside.set_transport_handler([&](net::PooledPacket pkt, net::Interface&) {
    at_inside.push_back(*pkt);
  });

  auto udp_from_inside = [&](net::Endpoint dst) {
    net::Packet pkt;
    pkt.src = inside.address();
    pkt.dst = dst.ip;
    pkt.proto = net::Proto::kUdp;
    pkt.udp.src_port = 5000;
    pkt.udp.dst_port = dst.port;
    pkt.payload_len = 64;
    inside.send_packet(std::move(pkt));
    sim.run();
  };

  udp_from_inside({s1.address(), 53});
  udp_from_inside({s2.address(), 53});
  ASSERT_EQ(at_s1.size(), 1u);
  ASSERT_EQ(at_s2.size(), 1u);
  const net::Endpoint mapped1 = at_s1[0].src_endpoint();
  const net::Endpoint mapped2 = at_s2[0].src_endpoint();

  EXPECT_EQ(mapped1 == mapped2, c.same_mapping_across_destinations);

  auto udp_to_mapping = [&](net::Host& from, std::uint16_t src_port) {
    net::Packet pkt;
    pkt.src = from.address();
    pkt.dst = mapped1.ip;
    pkt.proto = net::Proto::kUdp;
    pkt.udp.src_port = src_port;
    pkt.udp.dst_port = mapped1.port;
    pkt.payload_len = 64;
    from.send_packet(std::move(pkt));
    sim.run();
  };

  // Contacted endpoint always passes.
  at_inside.clear();
  udp_to_mapping(s1, 53);
  EXPECT_EQ(at_inside.size(), 1u);

  // Same host, different source port.
  at_inside.clear();
  udp_to_mapping(s1, 54);
  EXPECT_EQ(!at_inside.empty(), c.same_host_other_port_allowed);

  // A genuinely third party: s3 was never contacted through any mapping.
  at_inside.clear();
  udp_to_mapping(s3, 99);
  EXPECT_EQ(!at_inside.empty(), c.third_party_inbound_allowed);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc4787, NatMatrix,
    ::testing::Values(
        // Full cone.
        NatCase{net::NatBehavior::kEndpointIndependent,
                net::NatBehavior::kEndpointIndependent, true, true, true},
        // Restricted cone.
        NatCase{net::NatBehavior::kEndpointIndependent,
                net::NatBehavior::kAddressDependent, true, false, true},
        // Port-restricted cone.
        NatCase{net::NatBehavior::kEndpointIndependent,
                net::NatBehavior::kAddressAndPortDependent, true, false,
                false},
        // Address-dependent mapping, EI filter (uncommon but legal).
        NatCase{net::NatBehavior::kAddressDependent,
                net::NatBehavior::kEndpointIndependent, false, true, true},
        // Symmetric.
        NatCase{net::NatBehavior::kAddressAndPortDependent,
                net::NatBehavior::kAddressAndPortDependent, false, false,
                false}));

}  // namespace
}  // namespace hpop
