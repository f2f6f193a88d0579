#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace hpop::net {
namespace {

using util::kGbps;
using util::kMbps;
using util::kMicrosecond;
using util::kMillisecond;

struct Seen {
  Packet pkt;
  util::TimePoint at;
};

/// Records every packet a host's transport layer would receive.
std::vector<Seen>* capture(Host& host, sim::Simulator& sim) {
  auto* seen = new std::vector<Seen>();  // owned by the test body
  host.set_transport_handler([seen, &sim](PooledPacket pkt, Interface&) {
    seen->push_back({std::move(*pkt), sim.now()});
  });
  return seen;
}

Packet make_udp(Endpoint src, Endpoint dst, std::size_t payload = 100) {
  Packet pkt;
  pkt.src = src.ip;
  pkt.dst = dst.ip;
  pkt.proto = Proto::kUdp;
  pkt.udp.src_port = src.port;
  pkt.udp.dst_port = dst.port;
  pkt.payload_len = payload;
  return pkt;
}

TEST(Address, ParseFormatRoundTrip) {
  const IpAddr a = IpAddr::parse("192.168.1.200");
  EXPECT_EQ(a.to_string(), "192.168.1.200");
  EXPECT_EQ(IpAddr(10, 0, 0, 1).to_string(), "10.0.0.1");
  EXPECT_THROW(IpAddr::parse("300.1.1.1"), std::invalid_argument);
  EXPECT_THROW(IpAddr::parse("1.2.3"), std::invalid_argument);
}

TEST(Address, PrefixContains) {
  const Prefix p{IpAddr(10, 1, 2, 0), 24};
  EXPECT_TRUE(p.contains(IpAddr(10, 1, 2, 200)));
  EXPECT_FALSE(p.contains(IpAddr(10, 1, 3, 1)));
  EXPECT_TRUE((Prefix{IpAddr{}, 0}).contains(IpAddr(1, 2, 3, 4)));
}

TEST(Packet, WireSizes) {
  Packet tcp;
  tcp.proto = Proto::kTcp;
  tcp.payload_len = 1000;
  EXPECT_EQ(tcp.wire_size(), 1040u);  // 20 IP + 20 TCP + payload

  Packet udp;
  udp.proto = Proto::kUdp;
  udp.payload_len = 100;
  EXPECT_EQ(udp.wire_size(), 128u);  // 20 IP + 8 UDP + payload

  // VPN encapsulation adds exactly the paper's 36 bytes (§IV-C).
  Packet outer;
  outer.proto = Proto::kUdp;
  outer.encapsulated = std::make_shared<const Packet>(tcp);
  EXPECT_EQ(outer.wire_size(), 1040u + 36u);
}

TEST(Packet, WireSizeNestedEncapsulation) {
  // Tunnel-in-tunnel: each layer adds kVpnOverhead on top of the inner
  // packet's full size.
  Packet inner;
  inner.proto = Proto::kTcp;
  inner.payload_len = 1000;
  auto wrap = [](const Packet& p) {
    Packet outer;
    outer.proto = Proto::kUdp;
    outer.encapsulated = std::make_shared<const Packet>(p);
    return outer;
  };
  const Packet twice = wrap(wrap(inner));
  EXPECT_EQ(twice.wire_size(), 1040u + 2 * Packet::kVpnOverhead);
  const Packet thrice = wrap(twice);
  EXPECT_EQ(thrice.wire_size(), 1040u + 3 * Packet::kVpnOverhead);
}

TEST(Packet, WireSizeBoundedOnRunawayEncapChain) {
  // A chain far deeper than any real tunnel stack must neither crash nor
  // count overhead past the depth bound.
  Packet p;
  p.proto = Proto::kTcp;
  p.payload_len = 100;
  std::shared_ptr<const Packet> chain = std::make_shared<const Packet>(p);
  const int layers = 4 * Packet::kMaxEncapDepth;
  for (int i = 0; i < layers; ++i) {
    Packet outer;
    outer.proto = Proto::kUdp;
    outer.encapsulated = chain;
    chain = std::make_shared<const Packet>(outer);
  }
  // Depth capped: overhead for kMaxEncapDepth layers, then the packet at
  // the cap counted as-is (a UDP wrapper with no own payload).
  const std::size_t expect =
      Packet::kMaxEncapDepth * Packet::kVpnOverhead + 20u + 8u;
  EXPECT_EQ(chain->wire_size(), expect);
}

TEST(Packet, CowBodySharedAcrossCopiesUntilMutated) {
  Packet a;
  a.messages.push_back({100, nullptr});
  a.tcp.sack.push_back({5, 9});
  Packet b = a;  // per-hop copy: headers copied, body shared
  EXPECT_EQ(&a.messages.view(), &b.messages.view());
  EXPECT_EQ(&a.tcp.sack.view(), &b.tcp.sack.view());

  // Writer clones; the other copy is untouched.
  b.messages.mutate().push_back({200, nullptr});
  EXPECT_NE(&a.messages.view(), &b.messages.view());
  EXPECT_EQ(a.messages.size(), 1u);
  EXPECT_EQ(b.messages.size(), 2u);

  b.tcp.sack.mutate().clear();
  EXPECT_EQ(a.tcp.sack.size(), 1u);
  EXPECT_TRUE(b.tcp.sack.empty());
}

TEST(Packet, CowMutateWithoutOtherOwnersDoesNotClone) {
  Packet a;
  a.messages.push_back({1, nullptr});
  const auto* before = &a.messages.view();
  a.messages.mutate().push_back({2, nullptr});
  EXPECT_EQ(before, &a.messages.view());
  EXPECT_EQ(a.messages.size(), 2u);
}

TEST(Packet, CowEmptyBodyHoldsNoStorage) {
  Packet a;
  EXPECT_TRUE(a.messages.empty());
  EXPECT_EQ(a.messages.size(), 0u);
  // assign() of an empty vector releases storage entirely.
  a.tcp.sack.push_back({1, 2});
  a.tcp.sack.assign({});
  EXPECT_TRUE(a.tcp.sack.empty());
  EXPECT_EQ(a.tcp.sack.view().size(), 0u);
  // Views of empty bodies alias one shared static vector per type.
  Packet b;
  EXPECT_EQ(&a.tcp.sack.view(), &b.tcp.sack.view());
}

TEST(Link, SerializationPlusPropagation) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  // 1 Mbps, 5 ms: a 1028-byte wire packet takes 8.224 ms to serialize.
  net.connect(a, b, LinkParams{1 * kMbps, 5 * kMillisecond, 0.0, 1 << 20});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  a.send_packet(make_udp({a.address(), 10}, {b.address(), 20}, 1000));
  sim.run();
  ASSERT_EQ(seen->size(), 1u);
  EXPECT_EQ(seen->front().at,
            util::transmission_delay(1028, 1 * kMbps) + 5 * kMillisecond);
}

TEST(Link, FifoQueueing) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  net.connect(a, b, LinkParams{1 * kMbps, 0, 0.0, 1 << 20});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));  // 1000B
  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  sim.run();
  ASSERT_EQ(seen->size(), 2u);
  EXPECT_EQ(seen->at(0).at, util::transmission_delay(1000, 1 * kMbps));
  EXPECT_EQ(seen->at(1).at, 2 * util::transmission_delay(1000, 1 * kMbps));
}

TEST(Link, DropTailOnQueueOverflow) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  Link& link =
      net.connect(a, b, LinkParams{1 * kMbps, 0, 0.0, 2000});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  for (int i = 0; i < 5; ++i) {
    a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  }
  sim.run();
  // 2000-byte buffer: the first packet moves straight into the serializer
  // (vacating the buffer), two more queue; the remaining two drop.
  EXPECT_EQ(seen->size(), 3u);
  EXPECT_EQ(link.stats(0).queue_drops, 2u);
}

TEST(Link, RandomLossDropsAndCounts) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  Link& link = net.connect(a, b, LinkParams{1 * kGbps, 0, 0.5, 1 << 20});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(seen->size()) / n, 0.5, 0.05);
  EXPECT_EQ(seen->size() + link.stats(0).loss_drops, static_cast<size_t>(n));
}

TEST(Link, RateChangeAppliesAtNextDequeue) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  Link& link = net.connect(a, b, LinkParams{1 * kMbps, 0, 0.0, 1 << 20});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));  // 1000B
  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  // Mid-serialization of the first packet, a 10x rate upgrade: the packet
  // already on the wire keeps the rate it started with, the queued one
  // picks up the new rate at its dequeue.
  sim.schedule(1 * kMillisecond, [&] { link.set_rate(10 * kMbps); });
  sim.run();
  ASSERT_EQ(seen->size(), 2u);
  EXPECT_EQ(seen->at(0).at, util::transmission_delay(1000, 1 * kMbps));
  EXPECT_EQ(seen->at(1).at, util::transmission_delay(1000, 1 * kMbps) +
                                util::transmission_delay(1000, 10 * kMbps));
}

TEST(Link, LossChangeDoesNotAffectInFlightPacket) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  Link& link = net.connect(a, b, LinkParams{1 * kMbps, 0, 0.0, 1 << 20});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  // The first packet passed its loss draw when it was dequeued at t=0;
  // switching to loss=1 mid-serialization must not claw it back. The
  // second packet dequeues after the change and is lost.
  sim.schedule(1 * kMillisecond, [&] { link.set_loss(1.0); });
  sim.run();
  ASSERT_EQ(seen->size(), 1u);
  EXPECT_EQ(link.stats(0).loss_drops, 1u);
}

TEST(Link, MidBurstParamChangeKeepsClaimedSchedules) {
  // The documented contract (link.hpp): packets already claimed by a
  // service burst keep the schedule (and loss draw) they were dequeued
  // with; staged rate/loss apply at the next burst boundary. Regression
  // guard for the burst dequeue: a change landing while a multi-packet
  // burst is on the wire must not reschedule or retro-lose its packets.
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  Link& link = net.connect(a, b, LinkParams{1 * kMbps, 0, 0.0, 1 << 20});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  const util::Duration tx = util::transmission_delay(1000, 1 * kMbps);  // 8ms
  // p1 starts a single-packet burst; p2-p4 queue behind it and are all
  // claimed together by the second burst at t=tx.
  for (int i = 0; i < 4; ++i) {
    a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  }
  // Mid-burst-2 (p2 serializing, p3/p4 claimed): a 10x rate hike plus
  // loss=1. Neither may touch p3/p4 — they keep the 1 Mbps schedule and
  // their already-passed loss draws.
  sim.schedule(tx + 2 * kMillisecond, [&] {
    link.set_rate(10 * kMbps);
    link.set_loss(1.0);
  });
  sim.run();
  ASSERT_EQ(seen->size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(seen->at(i).at, (i + 1) * tx) << "packet " << i;
  }
  EXPECT_EQ(link.stats(0).loss_drops, 0u);

  // The next burst picks up the staged params: p5 is drawn against
  // loss=1 and dropped.
  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  sim.run();
  EXPECT_EQ(seen->size(), 4u);
  EXPECT_EQ(link.stats(0).loss_drops, 1u);

  // And the staged rate is live too: with loss back off, a packet now
  // serializes at 10 Mbps. run() returned when p5 was dropped, while p5
  // still held the transmitter, so first let its serialization end.
  link.set_loss(0.0);
  sim.run_until(sim.now() + util::transmission_delay(1000, 10 * kMbps));
  const util::TimePoint sent_at = sim.now();
  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  sim.run();
  ASSERT_EQ(seen->size(), 5u);
  EXPECT_EQ(seen->back().at,
            sent_at + util::transmission_delay(1000, 10 * kMbps));
}

TEST(Link, DelayDecreaseOvertakesAndKeepsEqualInstantsInOrder) {
  // Two staged delay cuts, one per service burst: p2 overtakes p1 on the
  // wire, and p3 then lands on p2's exact delivery instant. Each must be
  // delivered at its own deliver_at, and p3 after p2, the older of the two.
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  LinkParams lp{1 * kMbps, 20 * kMillisecond, 0.0, 1 << 20};
  Link& link = net.connect(a, b, lp);
  link.set_burst_limit(1);  // one packet, and one parameter set, per burst
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  const util::Duration tx = util::transmission_delay(1000, 1 * kMbps);  // 8ms
  for (std::uint16_t port = 1; port <= 3; ++port) {
    a.send_packet(make_udp({a.address(), port}, {b.address(), 9}, 972));
  }
  // p1 serializes in [0, tx) at 20 ms, p2 in [tx, 2tx) at 10 ms and p3 in
  // [2tx, 3tx) at 2 ms: due at tx + 20, 2tx + 10 and 3tx + 2 ms.
  sim.schedule(1 * kMillisecond, [&] {
    lp.delay = 10 * kMillisecond;
    link.set_params(lp);
  });
  sim.schedule(tx + 1 * kMillisecond, [&] {
    lp.delay = 2 * kMillisecond;
    link.set_params(lp);
  });
  sim.run();
  ASSERT_EQ(seen->size(), 3u);
  EXPECT_EQ(seen->at(0).pkt.udp.src_port, 2);
  EXPECT_EQ(seen->at(0).at, 2 * tx + 10 * kMillisecond);
  EXPECT_EQ(seen->at(1).pkt.udp.src_port, 3);
  EXPECT_EQ(seen->at(1).at, 3 * tx + 2 * kMillisecond);
  EXPECT_EQ(seen->at(2).pkt.udp.src_port, 1);
  EXPECT_EQ(seen->at(2).at, tx + 20 * kMillisecond);
}

TEST(Link, BurstLimitDoesNotChangeDeliveryTimes) {
  // Burst servicing is a dispatch-count optimization, not a model change:
  // delivery instants must be identical at burst_limit 1 (strict
  // per-packet) and the default 8.
  auto run = [](int burst_limit) {
    sim::Simulator sim;
    Network net(sim, util::Rng(1));
    Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
    Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
    Link& link = net.connect(a, b, LinkParams{5 * kMbps, 3 * kMillisecond,
                                              0.0, 1 << 20});
    link.set_burst_limit(burst_limit);
    net.auto_route();
    std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));
    for (int i = 0; i < 12; ++i) {
      a.send_packet(
          make_udp({a.address(), 1}, {b.address(), 2}, 100 + 137 * i));
    }
    sim.run();
    std::vector<util::TimePoint> at;
    for (const Seen& s : *seen) at.push_back(s.at);
    return at;
  };
  const auto serial = run(1);
  const auto burst = run(8);
  ASSERT_EQ(serial.size(), 12u);
  EXPECT_EQ(serial, burst);
}

TEST(Link, AdminDownDrainsQueueAndBlocksTraffic) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  Link& link = net.connect(a, b, LinkParams{1 * kMbps, 0, 0.0, 1 << 20});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  for (int i = 0; i < 3; ++i) {
    a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  }
  // One packet is serializing, two are queued. Admin-down drains the queue
  // and drops the in-flight packet at its delivery instant.
  link.set_admin_up(false);
  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  sim.run();
  EXPECT_TRUE(seen->empty());
  EXPECT_EQ(link.stats(0).admin_drops, 4u);

  // Back up: traffic flows again.
  link.set_admin_up(true);
  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  sim.run();
  EXPECT_EQ(seen->size(), 1u);
}

TEST(Link, IdleTransmitterStartsAtBusyUntilOrAtOnce) {
  // A burst that empties the queue schedules nothing. A packet sent in
  // its serialization tail still starts exactly when the transmitter
  // frees up, and one sent at that instant or later starts at once.
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  net.connect(a, b, LinkParams{1 * kMbps, 2 * kMillisecond, 0.0, 1 << 20});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));
  auto send = [&] {
    a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  };

  const util::Duration tx = util::transmission_delay(1000, 1 * kMbps);  // 8ms
  const util::Duration delay = 2 * kMillisecond;
  send();                                     // p1: [0, tx)
  sim.schedule(3 * kMillisecond, send);       // p2: in p1's tail
  sim.schedule(2 * tx, send);                 // p3: at p2's end
  sim.schedule(4 * tx, send);                 // p4: idle again
  sim.run();
  ASSERT_EQ(seen->size(), 4u);
  EXPECT_EQ(seen->at(0).at, tx + delay);
  EXPECT_EQ(seen->at(1).at, 2 * tx + delay);  // waited for p1
  EXPECT_EQ(seen->at(2).at, 3 * tx + delay);  // started at once
  EXPECT_EQ(seen->at(3).at, 5 * tx + delay);
  // Three send events, one service event (p2 waiting at tx), and one
  // delivery per packet.
  EXPECT_EQ(sim.events_executed(), 3u + 1u + 4u);
}

TEST(Link, DownAndUpInsideTailMatchesPerPacketService) {
  // Cycling the link while the last packet still serializes neither
  // frees the transmitter early nor delays the next packet past it.
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(1, 0, 0, 2));
  Link& link = net.connect(a, b, LinkParams{1 * kMbps, 0, 0.0, 1 << 20});
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));
  auto send = [&] {
    a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}, 972));
  };

  const util::Duration tx = util::transmission_delay(1000, 1 * kMbps);  // 8ms
  send();  // p1: [0, tx)
  sim.schedule(2 * kMillisecond, [&] { link.set_admin_up(false); });
  sim.schedule(4 * kMillisecond, [&] { link.set_admin_up(true); });
  sim.schedule(5 * kMillisecond, send);  // p2 waits for p1's last bit
  sim.run();
  ASSERT_EQ(seen->size(), 2u);
  EXPECT_EQ(seen->at(0).at, tx);  // the link was back up when p1 landed
  EXPECT_EQ(seen->at(1).at, 2 * tx);
  EXPECT_EQ(link.stats(0).admin_drops, 0u);
}

TEST(Link, IdlePathCostsOneEventPerHop) {
  // a - r1 - r2 - b: a packet that finds every link idle costs exactly
  // its three deliveries.
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(2, 0, 0, 1));
  Router& r1 = net.add_router("r1");
  Router& r2 = net.add_router("r2");
  net.connect(a, a.address(), r1, IpAddr{});
  net.connect(r1, IpAddr{}, r2, IpAddr{});
  net.connect(r2, IpAddr{}, b, b.address());
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  for (int i = 0; i < 5; ++i) {
    const std::uint64_t before = sim.events_executed();
    a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}));
    sim.run();
    EXPECT_EQ(sim.events_executed() - before, 3u) << "packet " << i;
  }
  EXPECT_EQ(seen->size(), 5u);
}

TEST(Routing, MultiHopThroughRouters) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(2, 0, 0, 1));
  Router& r1 = net.add_router("r1");
  Router& r2 = net.add_router("r2");
  net.connect(a, a.address(), r1, IpAddr{});
  net.connect(r1, IpAddr{}, r2, IpAddr{});
  net.connect(r2, IpAddr{}, b, b.address());
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}));
  sim.run();
  ASSERT_EQ(seen->size(), 1u);
  EXPECT_EQ(seen->front().pkt.ttl, 62);
}

TEST(Routing, TtlExpiryDrops) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& b = net.add_host("b", IpAddr(2, 0, 0, 1));
  Router& r1 = net.add_router("r1");
  net.connect(a, a.address(), r1, IpAddr{});
  net.connect(r1, IpAddr{}, b, b.address());
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));

  Packet pkt = make_udp({a.address(), 1}, {b.address(), 2});
  pkt.ttl = 1;
  a.send_packet(std::move(pkt));
  sim.run();
  EXPECT_TRUE(seen->empty());
}

TEST(Routing, HostsDoNotForwardTransit) {
  sim::Simulator sim;
  Network net(sim, util::Rng(1));
  Host& a = net.add_host("a", IpAddr(1, 0, 0, 1));
  Host& mid = net.add_host("mid", IpAddr(1, 0, 0, 2));
  Host& c = net.add_host("c", IpAddr(1, 0, 0, 3));
  net.connect(a, mid);
  net.connect(mid, c);
  net.auto_route();
  std::unique_ptr<std::vector<Seen>> seen(capture(c, sim));

  a.send_packet(make_udp({a.address(), 1}, {c.address(), 2}));
  sim.run();
  EXPECT_TRUE(seen->empty());  // no route: hosts are not transit nodes
}

TEST(Routing, LongestPrefixMatchOverSortedTable) {
  sim::Simulator sim;
  Router r(sim, "r");
  std::vector<Interface*> out;
  for (int i = 0; i < 7; ++i) out.push_back(&r.add_interface(IpAddr{}));
  // Added out of order: the table sorts itself.
  r.add_route({IpAddr(10, 1, 0, 0), 16}, out[2]);
  r.add_route({IpAddr(10, 1, 2, 3), 32}, out[4]);
  r.set_default_route(out[0]);
  r.add_route({IpAddr(10, 0, 0, 0), 8}, out[1]);
  r.add_route({IpAddr(10, 1, 2, 0), 24}, out[3]);

  EXPECT_EQ(r.route_lookup(IpAddr(10, 1, 2, 3)), out[4]);
  EXPECT_EQ(r.route_lookup(IpAddr(10, 1, 2, 4)), out[3]);
  EXPECT_EQ(r.route_lookup(IpAddr(10, 1, 3, 1)), out[2]);
  EXPECT_EQ(r.route_lookup(IpAddr(10, 2, 0, 1)), out[1]);
  EXPECT_EQ(r.route_lookup(IpAddr(11, 0, 0, 1)), out[0]);

  // Re-adding a prefix replaces its interface.
  r.add_route({IpAddr(10, 1, 0, 0), 16}, out[5]);
  EXPECT_EQ(r.route_lookup(IpAddr(10, 1, 3, 1)), out[5]);

  // A base with host bits set is keyed by its masked form: it replaces
  // 10.1.2.0/24, and a new one matches as its masked prefix would.
  r.add_route({IpAddr(10, 1, 2, 99), 24}, out[6]);
  EXPECT_EQ(r.route_lookup(IpAddr(10, 1, 2, 4)), out[6]);
  r.add_route({IpAddr(172, 16, 5, 5), 12}, out[6]);
  EXPECT_EQ(r.route_lookup(IpAddr(172, 31, 0, 1)), out[6]);
  EXPECT_EQ(r.route_lookup(IpAddr(172, 32, 0, 1)), out[0]);

  r.clear_routes();
  for (const IpAddr dst : {IpAddr(10, 1, 2, 3), IpAddr(10, 1, 2, 4),
                           IpAddr(172, 16, 0, 1), IpAddr(11, 0, 0, 1)}) {
    EXPECT_EQ(r.route_lookup(dst), nullptr) << dst.to_string();
  }
}

// ------------------------------------------------------------------- NAT

struct NatFixture {
  sim::Simulator sim;
  Network net{sim, util::Rng(3)};
  Host* inside = nullptr;
  NatBox* nat = nullptr;
  Host* server1 = nullptr;
  Host* server2 = nullptr;
  std::unique_ptr<std::vector<Seen>> seen_inside;
  std::unique_ptr<std::vector<Seen>> seen1;
  std::unique_ptr<std::vector<Seen>> seen2;

  explicit NatFixture(NatConfig config) {
    nat = &net.add_nat("nat", IpAddr(100, 64, 0, 1), config);
    Router& core = net.add_router("core");
    net.connect(*nat, nat->public_ip(), core, IpAddr{});
    inside = &net.add_host("inside", IpAddr(10, 0, 0, 10));
    net.connect(*inside, inside->address(), *nat, IpAddr(10, 0, 0, 1));
    server1 = &net.add_host("s1", IpAddr(100, 64, 0, 9));
    server2 = &net.add_host("s2", IpAddr(100, 64, 0, 8));
    net.connect(*server1, server1->address(), core, IpAddr{});
    net.connect(*server2, server2->address(), core, IpAddr{});
    net.auto_route();
    seen_inside.reset(capture(*inside, sim));
    seen1.reset(capture(*server1, sim));
    seen2.reset(capture(*server2, sim));
  }
};

TEST(Nat, OutboundTranslationAndReply) {
  NatFixture f(NatConfig::full_cone());
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  f.sim.run();
  ASSERT_EQ(f.seen1->size(), 1u);
  const Packet& at_server = f.seen1->front().pkt;
  EXPECT_EQ(at_server.src, f.nat->public_ip());
  EXPECT_NE(at_server.udp.src_port, 5000);  // translated

  // Reply to the translated endpoint reaches the inside host.
  f.server1->send_packet(
      make_udp({f.server1->address(), 53}, at_server.src_endpoint()));
  f.sim.run();
  ASSERT_EQ(f.seen_inside->size(), 1u);
  EXPECT_EQ(f.seen_inside->front().pkt.dst_endpoint(),
            (Endpoint{f.inside->address(), 5000}));
}

TEST(Nat, FullConeAcceptsThirdPartyInbound) {
  NatFixture f(NatConfig::full_cone());
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  f.sim.run();
  const Endpoint mapped = f.seen1->front().pkt.src_endpoint();
  // An unrelated server can reach the mapping (endpoint-independent filter).
  f.server2->send_packet(make_udp({f.server2->address(), 99}, mapped));
  f.sim.run();
  EXPECT_EQ(f.seen_inside->size(), 1u);
}

TEST(Nat, PortRestrictedRejectsThirdParty) {
  NatFixture f(NatConfig::port_restricted_cone());
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  f.sim.run();
  const Endpoint mapped = f.seen1->front().pkt.src_endpoint();

  f.server2->send_packet(make_udp({f.server2->address(), 99}, mapped));
  f.sim.run();
  EXPECT_TRUE(f.seen_inside->empty());
  EXPECT_EQ(f.nat->nat_counters().filtered, 1u);

  // Same server, different source port: still rejected.
  f.server1->send_packet(make_udp({f.server1->address(), 54}, mapped));
  f.sim.run();
  EXPECT_TRUE(f.seen_inside->empty());

  // The contacted endpoint passes.
  f.server1->send_packet(make_udp({f.server1->address(), 53}, mapped));
  f.sim.run();
  EXPECT_EQ(f.seen_inside->size(), 1u);
}

TEST(Nat, AddressRestrictedAllowsSameHostOtherPort) {
  NatFixture f(NatConfig::restricted_cone());
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  f.sim.run();
  const Endpoint mapped = f.seen1->front().pkt.src_endpoint();
  f.server1->send_packet(make_udp({f.server1->address(), 54}, mapped));
  f.sim.run();
  EXPECT_EQ(f.seen_inside->size(), 1u);
}

TEST(Nat, EndpointIndependentMappingReusesPort) {
  NatFixture f(NatConfig::full_cone());
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server2->address(), 53}));
  f.sim.run();
  ASSERT_EQ(f.seen1->size(), 1u);
  ASSERT_EQ(f.seen2->size(), 1u);
  EXPECT_EQ(f.seen1->front().pkt.udp.src_port,
            f.seen2->front().pkt.udp.src_port);
}

TEST(Nat, SymmetricMappingDiffersPerDestination) {
  NatFixture f(NatConfig::symmetric());
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server2->address(), 53}));
  f.sim.run();
  ASSERT_EQ(f.seen1->size(), 1u);
  ASSERT_EQ(f.seen2->size(), 1u);
  EXPECT_NE(f.seen1->front().pkt.udp.src_port,
            f.seen2->front().pkt.udp.src_port);
}

TEST(Nat, StaticForwardAdmitsUnsolicited) {
  NatFixture f(NatConfig::full_cone());
  ASSERT_TRUE(f.nat
                  ->add_port_mapping(Proto::kUdp, 8080,
                                     {f.inside->address(), 80})
                  .ok());
  f.server1->send_packet(make_udp({f.server1->address(), 1000},
                                  {f.nat->public_ip(), 8080}));
  f.sim.run();
  ASSERT_EQ(f.seen_inside->size(), 1u);
  EXPECT_EQ(f.seen_inside->front().pkt.dst_endpoint(),
            (Endpoint{f.inside->address(), 80}));
}

TEST(Nat, UpnpRefusedWhenDisabled) {
  NatFixture f(NatConfig::carrier_grade());
  const auto status =
      f.nat->add_port_mapping(Proto::kUdp, 8080, {f.inside->address(), 80});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "upnp_disabled");
}

TEST(Nat, PortMappingConflictRejected) {
  NatFixture f(NatConfig::full_cone());
  ASSERT_TRUE(
      f.nat->add_port_mapping(Proto::kUdp, 8080, {f.inside->address(), 80})
          .ok());
  EXPECT_FALSE(
      f.nat->add_port_mapping(Proto::kUdp, 8080, {f.inside->address(), 81})
          .ok());
  ASSERT_TRUE(f.nat->remove_port_mapping(Proto::kUdp, 8080).ok());
  EXPECT_TRUE(
      f.nat->add_port_mapping(Proto::kUdp, 8080, {f.inside->address(), 81})
          .ok());
}

TEST(Nat, MappingExpiresAfterTimeout) {
  NatConfig config = NatConfig::full_cone();
  config.udp_mapping_timeout = 1 * util::kSecond;
  NatFixture f(config);
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  f.sim.run();
  const Endpoint mapped = f.seen1->front().pkt.src_endpoint();

  f.sim.run_until(f.sim.now() + 2 * util::kSecond);
  f.server1->send_packet(make_udp({f.server1->address(), 53}, mapped));
  f.sim.run();
  EXPECT_TRUE(f.seen_inside->empty());
  EXPECT_GE(f.nat->nat_counters().expired + f.nat->nat_counters().unmatched,
            1u);
}

TEST(Nat, HairpinOnlyWhenEnabled) {
  for (const bool hairpin : {false, true}) {
    NatConfig config = NatConfig::full_cone();
    config.hairpinning = hairpin;
    NatFixture f(config);
    // Create a mapping for a second inside port to target.
    f.inside->send_packet(
        make_udp({f.inside->address(), 7000}, {f.server1->address(), 53}));
    f.sim.run();
    const Endpoint mapped = f.seen1->front().pkt.src_endpoint();
    // The same host now addresses its own public mapping.
    f.inside->send_packet(make_udp({f.inside->address(), 7001}, mapped));
    f.sim.run();
    EXPECT_EQ(f.seen_inside->size(), hairpin ? 1u : 0u);
  }
}

TEST(Nat, SweepEvictsIdleMappings) {
  NatConfig config = NatConfig::full_cone();
  config.udp_mapping_timeout = 1 * util::kSecond;
  NatFixture f(config);
  f.nat->enable_mapping_sweep(500 * kMillisecond);

  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  f.sim.run();  // sweep timer self-terminates once the table is empty
  EXPECT_EQ(f.nat->mapping_count(), 0u);
  EXPECT_GE(f.nat->nat_counters().expired, 1u);
  // The eviction happened proactively — within a sweep period of the
  // timeout — not lazily at the next inbound packet.
  EXPECT_LE(f.sim.now(), 2 * util::kSecond);
}

TEST(Nat, SweepKeepsRefreshedMappings) {
  NatConfig config = NatConfig::full_cone();
  config.udp_mapping_timeout = 5 * util::kSecond;
  NatFixture f(config);
  f.nat->enable_mapping_sweep(1 * util::kSecond);

  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  // Keep the mapping warm past several sweeps.
  for (int i = 1; i <= 3; ++i) {
    f.sim.schedule(i * 2 * util::kSecond, [&] {
      f.inside->send_packet(
          make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
    });
  }
  f.sim.run_until(7 * util::kSecond);
  EXPECT_EQ(f.nat->mapping_count(), 1u);
  EXPECT_EQ(f.nat->nat_counters().expired, 0u);
}

TEST(Nat, FlushDropsDynamicKeepsStaticForwards) {
  NatFixture f(NatConfig::full_cone());
  ASSERT_TRUE(
      f.nat->add_port_mapping(Proto::kUdp, 8080, {f.inside->address(), 80})
          .ok());
  f.inside->send_packet(
      make_udp({f.inside->address(), 5000}, {f.server1->address(), 53}));
  f.sim.run();
  ASSERT_EQ(f.nat->mapping_count(), 1u);
  const Endpoint mapped = f.seen1->front().pkt.src_endpoint();

  f.nat->flush_mappings();
  EXPECT_EQ(f.nat->mapping_count(), 0u);
  EXPECT_EQ(f.nat->nat_counters().flushed, 1u);

  // The dynamic mapping is gone...
  f.server1->send_packet(make_udp({f.server1->address(), 53}, mapped));
  f.sim.run();
  EXPECT_TRUE(f.seen_inside->empty());
  // ...but the static UPnP forward survived the flush.
  f.server1->send_packet(make_udp({f.server1->address(), 1000},
                                  {f.nat->public_ip(), 8080}));
  f.sim.run();
  EXPECT_EQ(f.seen_inside->size(), 1u);
}

TEST(Nat, FlushMidBurstAllocatesFreshMapping) {
  // A flush_mappings() landing mid-way through a back-to-back burst from
  // one flow gives the tail of the burst a FRESH mapping — never a stale
  // translation through the dead one.
  NatFixture f(NatConfig::full_cone());
  const Endpoint from{f.inside->address(), 5000};
  const Endpoint to{f.server1->address(), 53};
  for (int i = 0; i < 8; ++i) {
    f.sim.schedule(i * kMillisecond,
                   [&] { f.inside->send_packet(make_udp(from, to)); });
  }
  f.sim.schedule(3 * kMillisecond + kMillisecond / 2,
                 [&] { f.nat->flush_mappings(); });
  f.sim.run();
  ASSERT_EQ(f.seen1->size(), 8u);
  EXPECT_EQ(f.nat->nat_counters().flushed, 1u);

  const std::uint16_t pre = f.seen1->front().pkt.udp.src_port;
  const std::uint16_t post = f.seen1->back().pkt.udp.src_port;
  // The burst splits into exactly two runs: the pre-flush mapping, then a
  // re-allocated one. No packet may straddle the two or revert.
  EXPECT_NE(pre, post);
  bool flipped = false;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint16_t port = f.seen1->at(i).pkt.udp.src_port;
    if (!flipped && port == post) flipped = true;
    EXPECT_EQ(port, flipped ? post : pre) << i;
  }
  EXPECT_TRUE(flipped);

  // Only the live mapping accepts replies: the stale public port is dead.
  f.server1->send_packet(make_udp(to, {f.nat->public_ip(), post}));
  f.server1->send_packet(make_udp(to, {f.nat->public_ip(), pre}));
  f.sim.run();
  EXPECT_EQ(f.seen_inside->size(), 1u);
  EXPECT_EQ(f.seen_inside->front().pkt.dst_endpoint(), from);
}

// ------------------------------------------------------------- Topologies

TEST(Topology, NeighborhoodShape) {
  sim::Simulator sim;
  Network net(sim, util::Rng(5));
  NeighborhoodParams params;
  params.n_homes = 3;
  params.hosts_per_home = 2;
  const Neighborhood hood = make_neighborhood(net, params);
  EXPECT_EQ(hood.homes.size(), 3u);
  EXPECT_EQ(hood.homes[0].hosts.size(), 2u);
  ASSERT_EQ(hood.servers.size(), 1u);

  // A home host can reach the server through NAT + aggregation + core.
  std::unique_ptr<std::vector<Seen>> seen(capture(*hood.servers[0], sim));
  Host& h = *hood.homes[1].hosts[0];
  h.send_packet(make_udp({h.address(), 1234},
                         {hood.servers[0]->address(), 80}));
  sim.run();
  ASSERT_EQ(seen->size(), 1u);
  EXPECT_EQ(seen->front().pkt.src, hood.homes[1].nat->public_ip());
}

TEST(Topology, LateralTrafficStaysOffAggregate) {
  sim::Simulator sim;
  Network net(sim, util::Rng(5));
  NeighborhoodParams params;
  params.n_homes = 2;
  params.with_nat = false;
  const Neighborhood hood = make_neighborhood(net, params);

  Host& a = *hood.homes[0].hosts[0];
  Host& b = *hood.homes[1].hosts[0];
  std::unique_ptr<std::vector<Seen>> seen(capture(b, sim));
  a.send_packet(make_udp({a.address(), 1}, {b.address(), 2}));
  sim.run();
  ASSERT_EQ(seen->size(), 1u);
  // §II "Lateral Bandwidth": neighbor-to-neighbor traffic bypasses the
  // shared aggregate link entirely.
  EXPECT_EQ(hood.aggregate_link->stats(0).pkts +
                hood.aggregate_link->stats(1).pkts,
            0u);
}

}  // namespace
}  // namespace hpop::net
