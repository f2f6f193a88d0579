#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "transport/mux.hpp"
#include "transport/payloads.hpp"

namespace hpop::transport {
namespace {

using net::Endpoint;
using net::IpAddr;
using net::PathParams;
using net::TwoHostPath;
using util::kGbps;
using util::kMbps;
using util::kMillisecond;
using util::kSecond;

struct PathFixture {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(11)};
  TwoHostPath path;
  std::unique_ptr<TransportMux> mux_a;
  std::unique_ptr<TransportMux> mux_b;

  explicit PathFixture(PathParams a = {}, PathParams b = {}) {
    path = net::make_two_host_path(net, a, b);
    mux_a = std::make_unique<TransportMux>(*path.a);
    mux_b = std::make_unique<TransportMux>(*path.b);
  }
  Endpoint b_endpoint(std::uint16_t port) const {
    return {path.b->address(), port};
  }
};

TEST(Tcp, HandshakeAndMessageExchange) {
  PathFixture f;
  std::string server_got;
  std::string client_got;
  bool server_closed = false;
  bool client_closed = false;

  auto listener = f.mux_b->tcp_listen(80);
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_message([&, conn](net::PayloadPtr msg) {
      server_got =
          std::static_pointer_cast<const BytesPayload>(msg)->text();
      conn->send(std::make_shared<BytesPayload>("pong"));
      conn->close();
    });
    conn->set_on_closed([&] { server_closed = true; });
  });

  auto client = f.mux_a->tcp_connect(f.b_endpoint(80));
  client->set_on_established(
      [&] { client->send(std::make_shared<BytesPayload>("ping")); });
  client->set_on_message([&](net::PayloadPtr msg) {
    client_got = std::static_pointer_cast<const BytesPayload>(msg)->text();
  });
  client->set_on_remote_close([&] { client->close(); });
  client->set_on_closed([&] { client_closed = true; });

  f.sim.run();
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
}

TEST(Tcp, ConnectToClosedPortResets) {
  PathFixture f;
  bool reset = false;
  auto client = f.mux_a->tcp_connect(f.b_endpoint(81));
  client->set_on_reset([&] { reset = true; });
  f.sim.run();
  EXPECT_TRUE(reset);
  EXPECT_EQ(client->state(), TcpConnection::State::kClosed);
}

TEST(Tcp, HandshakeRttIsTwoPaths) {
  // Establishment should take exactly one RTT (SYN + SYN-ACK) plus
  // negligible serialization.
  PathFixture f(PathParams{1 * kGbps, 10 * kMillisecond},
                PathParams{1 * kGbps, 10 * kMillisecond});
  auto listener = f.mux_b->tcp_listen(80);
  util::TimePoint established_at = -1;
  auto client = f.mux_a->tcp_connect(f.b_endpoint(80));
  client->set_on_established([&] { established_at = f.sim.now(); });
  f.sim.run_until(kSecond);
  ASSERT_GE(established_at, 0);
  EXPECT_NEAR(util::to_millis(established_at), 40.0, 1.0);
}

TEST(Tcp, BulkTransferSaturatesBottleneck) {
  // 100 Mbps bottleneck, 20 ms RTT: 20 MB should take ~1.6s + ramp-up.
  PathFixture f(PathParams{100 * kMbps, 5 * kMillisecond, 0.0, 1 << 21},
                PathParams{100 * kMbps, 5 * kMillisecond, 0.0, 1 << 21});
  auto listener = f.mux_b->tcp_listen(80);
  std::uint64_t received = 0;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_bytes([&](std::size_t n) { received += n; });
  });
  auto client = f.mux_a->tcp_connect(f.b_endpoint(80));
  const std::size_t total = 20u << 20;
  client->set_on_established([&] { client->send_bytes(total); });
  f.sim.run_until(10 * kSecond);
  EXPECT_EQ(received, total);

  // Wait for full delivery time bound: ideal = 20 MiB / 100 Mbps = 1.68 s.
  // Allow ramp-up slack but catch gross under-utilization.
  std::uint64_t done_at = 0;
  PathFixture g(PathParams{100 * kMbps, 5 * kMillisecond, 0.0, 1 << 21},
                PathParams{100 * kMbps, 5 * kMillisecond, 0.0, 1 << 21});
  auto listener2 = g.mux_b->tcp_listen(80);
  std::uint64_t received2 = 0;
  listener2->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_bytes([&](std::size_t n) {
      received2 += n;
      if (received2 >= total) done_at = g.sim.now();
    });
  });
  auto client2 = g.mux_a->tcp_connect(g.b_endpoint(80));
  client2->set_on_established([&] { client2->send_bytes(total); });
  g.sim.run_until(10 * kSecond);
  ASSERT_GT(done_at, 0u);
  EXPECT_LT(util::to_seconds(done_at), 2.6);
  EXPECT_GT(util::to_seconds(done_at), 1.6);
}

TEST(Tcp, SlowStartMatchesPaperRampUpMath) {
  // §IV-D: "over a 1 Gbps network path with a 50 msec RTT a TCP connection
  // will require 10 RTTs and over 14 MB of data before utilizing the
  // available capacity."
  PathFixture g(PathParams{1 * kGbps, 12'500'000, 0.0, 32 << 20},
                PathParams{1 * kGbps, 12'500'000, 0.0, 32 << 20});
  auto listener2 = g.mux_b->tcp_listen(80);
  std::uint64_t received2 = 0;
  util::TimePoint established2 = 0;
  listener2->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_bytes([&](std::size_t n) { received2 += n; });
  });
  auto client2 = g.mux_a->tcp_connect(g.b_endpoint(80));
  client2->set_on_established([&] {
    established2 = g.sim.now();
    client2->send_bytes(100u << 20);
  });
  // Step one event at a time until establishment so the sampling windows
  // below start exactly there.
  while (established2 == 0 && !g.sim.empty()) g.sim.run(1);
  ASSERT_GT(established2, 0);

  const util::Duration rtt = 50 * kMillisecond;
  int saturation_rtt = -1;
  std::uint64_t bytes_at_saturation = 0;
  std::uint64_t prev = 0;
  for (int w = 1; w <= 20; ++w) {
    g.sim.run_until(established2 + w * rtt);
    const std::uint64_t in_window = received2 - prev;
    prev = received2;
    const double rate = static_cast<double>(in_window) * 8 /
                        util::to_seconds(rtt);
    if (rate >= 0.9 * 1e9 && saturation_rtt < 0) {
      saturation_rtt = w;
      bytes_at_saturation = received2;
    }
  }
  ASSERT_GT(saturation_rtt, 0) << "never reached 90% of capacity";
  EXPECT_GE(saturation_rtt, 8);
  EXPECT_LE(saturation_rtt, 12);
  // "over 14 MB" before full utilization (cumulative ~2x what was
  // delivered by the start of the saturating RTT; accept >= 7 MB there).
  EXPECT_GE(bytes_at_saturation, 7u << 20);
}

TEST(Tcp, RecoversFromRandomLoss) {
  PathFixture f(PathParams{50 * kMbps, 5 * kMillisecond, 0.005, 1 << 21},
                PathParams{50 * kMbps, 5 * kMillisecond, 0.005, 1 << 21});
  auto listener = f.mux_b->tcp_listen(80);
  std::uint64_t received = 0;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_bytes([&](std::size_t n) { received += n; });
  });
  auto client = f.mux_a->tcp_connect(f.b_endpoint(80));
  const std::size_t total = 2u << 20;
  client->set_on_established([&] { client->send_bytes(total); });
  f.sim.run_until(60 * kSecond);
  EXPECT_EQ(received, total);
  EXPECT_GT(client->retransmits(), 0u);
}

TEST(Tcp, MessagesArriveInOrderUnderLoss) {
  PathFixture f(PathParams{10 * kMbps, 5 * kMillisecond, 0.02, 1 << 21},
                PathParams{10 * kMbps, 5 * kMillisecond, 0.02, 1 << 21});
  auto listener = f.mux_b->tcp_listen(80);
  std::vector<int> got;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_message([&](net::PayloadPtr msg) {
      got.push_back(std::stoi(
          std::static_pointer_cast<const BytesPayload>(msg)->text()));
    });
  });
  auto client = f.mux_a->tcp_connect(f.b_endpoint(80));
  const int n = 60;
  client->set_on_established([&] {
    util::Rng rng(3);
    for (int i = 0; i < n; ++i) {
      client->send(std::make_shared<BytesPayload>(std::to_string(i)));
      // Interleave some bulk filler of random size to stress framing.
      client->send_bytes(rng.uniform_index(40000));
    }
  });
  f.sim.run_until(120 * kSecond);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[i], i);
}

TEST(Tcp, WorksThroughNat) {
  sim::Simulator sim;
  net::Network net(sim, util::Rng(17));
  net::Router& core = net.add_router("core");
  net::Host& server = net.add_host("server", net.next_public_address());
  net.connect(server, server.address(), core, IpAddr{},
              net::LinkParams{1 * kGbps, 5 * kMillisecond});
  const net::Home home = net::make_home(net, "home", core, 1,
                                        net::NatConfig::full_cone(),
                                        PathParams{});
  net.auto_route();
  TransportMux mux_server(server);
  TransportMux mux_client(*home.hosts[0]);

  auto listener = mux_server.tcp_listen(443);
  std::string got;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_message([&, conn](net::PayloadPtr msg) {
      got = std::static_pointer_cast<const BytesPayload>(msg)->text();
      conn->send(std::make_shared<BytesPayload>("hello home"));
    });
  });
  auto client = mux_client.tcp_connect({server.address(), 443});
  std::string reply;
  client->set_on_established(
      [&] { client->send(std::make_shared<BytesPayload>("from the attic")); });
  client->set_on_message([&](net::PayloadPtr msg) {
    reply = std::static_pointer_cast<const BytesPayload>(msg)->text();
  });
  sim.run_until(5 * kSecond);
  EXPECT_EQ(got, "from the attic");
  EXPECT_EQ(reply, "hello home");
}

// ------------------------------------------------------------------ MPTCP

TEST(Mptcp, SingleSubflowActsLikeTcp) {
  PathFixture f;
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  std::string got;
  std::shared_ptr<MptcpConnection> server_conn;
  listener->set_on_accept_mptcp([&](std::shared_ptr<MptcpConnection> conn) {
    server_conn = conn;
    conn->set_on_message([&, conn](net::PayloadPtr msg) {
      got = std::static_pointer_cast<const BytesPayload>(msg)->text();
      conn->send(std::make_shared<BytesPayload>("multi-pong"));
    });
  });

  auto client = f.mux_a->mptcp_connect(f.b_endpoint(80));
  std::string reply;
  client->set_on_established(
      [&] { client->send(std::make_shared<BytesPayload>("multi-ping")); });
  client->set_on_message([&](net::PayloadPtr msg) {
    reply = std::static_pointer_cast<const BytesPayload>(msg)->text();
  });
  f.sim.run_until(5 * kSecond);
  EXPECT_EQ(got, "multi-ping");
  EXPECT_EQ(reply, "multi-pong");
  ASSERT_TRUE(server_conn);
  EXPECT_EQ(server_conn->subflows().size(), 1u);
}

TEST(Mptcp, JoinAttachesSecondSubflow) {
  PathFixture f;
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  std::shared_ptr<MptcpConnection> server_conn;
  listener->set_on_accept_mptcp(
      [&](std::shared_ptr<MptcpConnection> conn) { server_conn = conn; });

  auto client = f.mux_a->mptcp_connect(f.b_endpoint(80));
  client->set_on_established([&] { client->add_subflow(TcpOptions{}); });
  f.sim.run_until(5 * kSecond);
  ASSERT_TRUE(server_conn);
  EXPECT_EQ(client->subflows().size(), 2u);
  EXPECT_EQ(server_conn->subflows().size(), 2u);
}

TEST(Mptcp, BulkTransferCompletesOverTwoSubflows) {
  PathFixture f(PathParams{50 * kMbps, 10 * kMillisecond, 0.0, 1 << 21},
                PathParams{50 * kMbps, 10 * kMillisecond, 0.0, 1 << 21});
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  std::shared_ptr<MptcpConnection> server_conn;
  std::uint64_t received = 0;
  listener->set_on_accept_mptcp([&](std::shared_ptr<MptcpConnection> conn) {
    server_conn = conn;
    conn->set_on_bytes([&](std::size_t n) { received += n; });
  });
  auto client = f.mux_a->mptcp_connect(f.b_endpoint(80));
  const std::size_t total = 8u << 20;
  client->set_on_established([&] {
    client->add_subflow(TcpOptions{});
    client->send_bytes(total);
  });
  f.sim.run_until(30 * kSecond);
  EXPECT_EQ(received, total);
  // Both subflows carried traffic.
  ASSERT_EQ(client->subflows().size(), 2u);
  EXPECT_GT(client->subflows()[0].bytes_scheduled, 0u);
  EXPECT_GT(client->subflows()[1].bytes_scheduled, 0u);
}

TEST(Mptcp, SubflowDeathReinjectsAndCompletes) {
  PathFixture f(PathParams{20 * kMbps, 10 * kMillisecond, 0.0, 1 << 21},
                PathParams{20 * kMbps, 10 * kMillisecond, 0.0, 1 << 21});
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  std::uint64_t received = 0;
  listener->set_on_accept_mptcp([&](std::shared_ptr<MptcpConnection> conn) {
    conn->set_on_bytes([&](std::size_t n) { received += n; });
  });
  auto client = f.mux_a->mptcp_connect(f.b_endpoint(80));
  const std::size_t total = 4u << 20;
  std::shared_ptr<TcpConnection> second;
  client->set_on_established([&] {
    second = client->add_subflow(TcpOptions{});
    client->send_bytes(total);
  });
  // Abort the second subflow mid-transfer; its chunks must be reinjected.
  f.sim.schedule(2 * kSecond, [&] {
    if (second) second->abort();
  });
  f.sim.run_until(60 * kSecond);
  EXPECT_EQ(received, total);
}

TEST(Mptcp, AckDelaySteersMinRttSchedulerAway) {
  // Two subflows on identical paths; the receiver deliberately delays
  // subflow-level ACKs on the second one (§IV-C steering). The server's
  // min-RTT scheduler should then prefer the first.
  PathFixture f(PathParams{50 * kMbps, 10 * kMillisecond, 0.0, 1 << 21},
                PathParams{50 * kMbps, 10 * kMillisecond, 0.0, 1 << 21});
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  std::shared_ptr<MptcpConnection> server_conn;
  listener->set_on_accept_mptcp([&](std::shared_ptr<MptcpConnection> conn) {
    server_conn = conn;
  });
  auto client = f.mux_a->mptcp_connect(f.b_endpoint(80));
  std::uint64_t received = 0;
  client->set_on_bytes([&](std::size_t n) { received += n; });
  std::shared_ptr<TcpConnection> delayed;
  client->set_on_established([&] {
    TcpOptions slow;
    slow.ack_delay = 60 * kMillisecond;  // inflate apparent RTT 4x
    delayed = client->add_subflow(slow);
  });
  // Server streams data down once the join lands.
  f.sim.schedule(kSecond, [&] {
    ASSERT_TRUE(server_conn);
    server_conn->send_bytes(16u << 20);
  });
  f.sim.run_until(60 * kSecond);
  EXPECT_EQ(received, 16u << 20);
  ASSERT_TRUE(server_conn);
  ASSERT_EQ(server_conn->subflows().size(), 2u);
  const auto& sf = server_conn->subflows();
  // The steered-away subflow should carry a clear minority of the bytes.
  const double total_sched = static_cast<double>(sf[0].bytes_scheduled +
                                                 sf[1].bytes_scheduled);
  const double delayed_share =
      static_cast<double>(sf[1].bytes_scheduled) / total_sched;
  EXPECT_LT(delayed_share, 0.35);
}

TEST(Mptcp, SchedulersSplitTraffic) {
  for (const auto kind :
       {SchedulerKind::kRoundRobin, SchedulerKind::kWeighted}) {
    PathFixture f(PathParams{50 * kMbps, 10 * kMillisecond, 0.0, 1 << 21},
                  PathParams{50 * kMbps, 10 * kMillisecond, 0.0, 1 << 21});
    TcpOptions server_opts;
    server_opts.mp_capable = true;
    auto listener = f.mux_b->tcp_listen(80, server_opts);
    std::uint64_t received = 0;
    listener->set_on_accept_mptcp([&](std::shared_ptr<MptcpConnection> conn) {
      conn->set_on_bytes([&](std::size_t n) { received += n; });
    });
    MptcpOptions opts;
    opts.scheduler = kind;
    auto client = f.mux_a->mptcp_connect(f.b_endpoint(80), opts);
    client->set_on_established([&] {
      client->add_subflow(TcpOptions{});
      client->send_bytes(4u << 20);
    });
    f.sim.run_until(30 * kSecond);
    EXPECT_EQ(received, 4u << 20);
    const auto& sf = client->subflows();
    ASSERT_EQ(sf.size(), 2u);
    EXPECT_GT(sf[0].bytes_scheduled, 0u);
    EXPECT_GT(sf[1].bytes_scheduled, 0u);
  }
}

TEST(Mptcp, CloseTearsDownSubflows) {
  PathFixture f;
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  bool server_closed = false;
  listener->set_on_accept_mptcp([&](std::shared_ptr<MptcpConnection> conn) {
    conn->set_on_closed([&] { server_closed = true; });
  });
  auto client = f.mux_a->mptcp_connect(f.b_endpoint(80));
  bool client_closed = false;
  client->set_on_closed([&] { client_closed = true; });
  client->set_on_established([&] {
    client->send(std::make_shared<BytesPayload>("bye"));
    client->close();
  });
  f.sim.run_until(10 * kSecond);
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
}

}  // namespace
}  // namespace hpop::transport

namespace hpop::transport {
namespace {

TEST(Mptcp, WeightedSchedulerHonorsWeightsWhenAppLimited) {
  // Weights steer the scheduler's choice, not congestion control: on a
  // shared bottleneck under full load, per-subflow cwnd dictates the split.
  // So test in the application-limited regime (offered load well below
  // capacity, both subflows established), where the deficit scheduler's
  // choices are unconstrained and the split should approach the weights.
  PathFixture f(PathParams{100 * kMbps, 10 * kMillisecond, 0.0, 1 << 21},
                PathParams{100 * kMbps, 10 * kMillisecond, 0.0, 1 << 21});
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  std::uint64_t received = 0;
  listener->set_on_accept_mptcp([&](std::shared_ptr<MptcpConnection> conn) {
    conn->set_on_bytes([&](std::size_t n) { received += n; });
  });
  MptcpOptions opts;
  opts.scheduler = SchedulerKind::kWeighted;
  auto client = f.mux_a->mptcp_connect(f.b_endpoint(80), opts);
  std::shared_ptr<TcpConnection> second;
  client->set_on_established(
      [&] { second = client->add_subflow(TcpOptions{}); });
  f.sim.run_until(kSecond);  // both subflows up, windows open
  ASSERT_TRUE(second != nullptr);
  client->set_subflow_weight(second, 3.0);

  const int kBursts = 100;
  const std::size_t kBurst = 10 * 1460;  // fits the initial window
  for (int i = 0; i < kBursts; ++i) {
    f.sim.schedule(i * 50 * kMillisecond,
                   [&, i] { client->send_bytes(kBurst); });
  }
  f.sim.run_until(30 * kSecond);
  ASSERT_EQ(received, kBursts * kBurst);
  const auto& sf = client->subflows();
  ASSERT_EQ(sf.size(), 2u);
  const double ratio = static_cast<double>(sf[1].bytes_scheduled) /
                       static_cast<double>(sf[0].bytes_scheduled + 1);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(Tcp, LargeMessagesFrameCorrectlyAcrossSegments) {
  PathFixture f;
  auto listener = f.mux_b->tcp_listen(80);
  std::vector<std::size_t> sizes;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    conn->set_on_message([&](net::PayloadPtr msg) {
      sizes.push_back(msg->wire_size());
    });
  });
  auto client = f.mux_a->tcp_connect(f.b_endpoint(80));
  client->set_on_established([&] {
    // Messages far larger than one MSS must arrive exactly once, in order.
    client->send(std::make_shared<FillerPayload>(100'000));
    client->send(std::make_shared<FillerPayload>(1'000'000));
    client->send(std::make_shared<FillerPayload>(10'000));
  });
  f.sim.run_until(30 * kSecond);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 100'000u);
  EXPECT_EQ(sizes[1], 1'000'000u);
  EXPECT_EQ(sizes[2], 10'000u);
}

TEST(Tcp, AbortSendsRstToPeer) {
  PathFixture f;
  auto listener = f.mux_b->tcp_listen(80);
  std::shared_ptr<TcpConnection> server_side;
  bool server_reset = false;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    server_side = conn;
    conn->set_on_reset([&] { server_reset = true; });
  });
  auto client = f.mux_a->tcp_connect(f.b_endpoint(80));
  client->set_on_established([&] {
    client->send(std::make_shared<BytesPayload>("hello"));
  });
  f.sim.run_until(kSecond);
  ASSERT_TRUE(server_side != nullptr);
  client->abort();
  f.sim.run_until(2 * kSecond);
  EXPECT_TRUE(server_reset);
  EXPECT_EQ(client->state(), TcpConnection::State::kClosed);
}

TEST(Tcp, SackBlocksNeverExceedCapUnderLongOooBurst) {
  // Regression for the RFC 2018 cap: a long burst of alternating drops
  // leaves the receiver holding far more out-of-order ranges than a real
  // TCP header could advertise. Every ACK on the wire must carry at most
  // kMaxSackBlocks blocks — and the capped advertisement (most recent
  // block first, remainder rotated) must still let recovery deliver
  // every byte.
  PathFixture f({1 * kGbps, 5 * kMillisecond, 0.0, 16 << 20},
                {1 * kGbps, 5 * kMillisecond, 0.0, 16 << 20});
  auto listener = f.mux_b->tcp_listen(80);
  std::uint64_t received = 0;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> c) {
    c->set_on_bytes([&](std::size_t n) { received += n; });
  });
  int data_seen = 0;
  int dropped = 0;
  f.path.a->add_egress_hook([&](net::Packet& pkt) {
    if (pkt.proto != net::Proto::kTcp || pkt.payload_len == 0) return false;
    ++data_seen;
    if (data_seen >= 12 && data_seen < 52 && data_seen % 2 == 0) {
      ++dropped;
      return true;  // every other segment of a 40-segment burst vanishes
    }
    return false;
  });
  std::size_t max_sack_blocks = 0;
  f.path.b->add_egress_hook([&](net::Packet& pkt) {
    if (pkt.proto == net::Proto::kTcp && pkt.tcp.ack_flag) {
      max_sack_blocks = std::max(max_sack_blocks, pkt.tcp.sack.size());
    }
    return false;
  });
  const std::uint64_t total = 400ull * 1460;
  auto client = f.mux_a->tcp_connect(f.b_endpoint(80));
  client->set_on_established([&] { client->send_bytes(total); });
  f.sim.run_until(30 * kSecond);
  EXPECT_EQ(received, total);
  EXPECT_GE(dropped, 20);
  // The cap binds (the burst creates ~20 ranges) and is never exceeded.
  EXPECT_EQ(max_sack_blocks, net::TcpHeader::kMaxSackBlocks);
}

// ------------------------------------------------------- Endpoint lifetime
// The mux holds every connection and session until it closes, and a closed
// endpoint drops its handlers, so callers keep nothing alive themselves.

TEST(EndpointLifetime, FirstSessionsOfTwoClientsStaySeparate) {
  sim::Simulator sim;
  net::Network net{sim, util::Rng(11)};
  net::Host& a = net.add_host("client_a", net.next_public_address());
  net::Host& c = net.add_host("client_c", net.next_public_address());
  net::Host& s = net.add_host("server", net.next_public_address());
  net::Router& r = net.add_router("router");
  for (net::Host* h : {&a, &c, &s}) {
    net.connect(*h, h->address(), r, IpAddr{}, PathParams{}.link());
  }
  net.auto_route();
  TransportMux mux_a(a);
  TransportMux mux_c(c);
  TransportMux mux_s(s);
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = mux_s.tcp_listen(80, server_opts);
  std::vector<std::shared_ptr<MptcpConnection>> accepted;
  listener->set_on_accept_mptcp(
      [&](std::shared_ptr<MptcpConnection> conn) { accepted.push_back(conn); });

  // Each client's first session: the same session counter on both hosts.
  const Endpoint server{s.address(), 80};
  auto from_a = mux_a.mptcp_connect(server);
  auto from_c = mux_c.mptcp_connect(server);
  EXPECT_NE(from_a->token(), from_c->token());
  for (MptcpConnection* client : {from_a.get(), from_c.get()}) {
    client->set_on_established(
        [client] { client->add_subflow(TcpOptions{}); });
  }
  sim.run_until(5 * kSecond);
  ASSERT_EQ(accepted.size(), 2u);
  for (const auto& session : accepted) {
    const auto& sf = session->subflows();
    ASSERT_EQ(sf.size(), 2u);
    EXPECT_EQ(sf[0].conn->remote().ip, session->remote().ip);
    EXPECT_EQ(sf[1].conn->remote().ip, session->remote().ip);
  }
  EXPECT_NE(accepted[0]->remote().ip, accepted[1]->remote().ip);
}

TEST(EndpointLifetime, SessionsNobodyHoldsAreFreedWhenTheyClose) {
  constexpr std::uint64_t kBytes = 256u << 10;
  PathFixture f;
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  std::weak_ptr<MptcpConnection> server;
  bool accepted = false;
  listener->set_on_accept_mptcp([&](std::shared_ptr<MptcpConnection> conn) {
    server = conn;
    accepted = true;
    conn->set_on_message([c = conn.get()](net::PayloadPtr) {
      c->send_bytes(kBytes);
      c->close();
    });
  });

  const std::weak_ptr<MptcpConnection> client =
      f.mux_a->mptcp_connect(f.b_endpoint(80));
  std::uint64_t received = 0;
  bool closed = false;
  {
    const auto c = client.lock();
    ASSERT_NE(c, nullptr);  // the mux holds the open session
    c->set_on_established([c = c.get()] {
      c->add_subflow(TcpOptions{});
      c->send(std::make_shared<BytesPayload>("get"));
    });
    c->set_on_bytes([&, c = c.get()](std::size_t n) {
      received += n;
      if (received == kBytes) c->close();
    });
    c->set_on_closed([&] { closed = true; });
  }
  f.sim.run_until(10 * kSecond);
  EXPECT_EQ(received, kBytes);
  EXPECT_TRUE(closed);
  EXPECT_TRUE(accepted);
  EXPECT_TRUE(server.expired());
  EXPECT_TRUE(client.expired());
}

TEST(EndpointLifetime, SelfCapturingTcpConnectionsAreFreedAfterClose) {
  PathFixture f;
  auto listener = f.mux_b->tcp_listen(80);
  std::weak_ptr<TcpConnection> server;
  listener->set_on_accept([&](std::shared_ptr<TcpConnection> conn) {
    server = conn;
    conn->set_on_message([conn](net::PayloadPtr) {
      conn->send(std::make_shared<BytesPayload>("pong"));
      conn->close();
    });
  });
  std::weak_ptr<TcpConnection> client;
  bool got_pong = false;
  {
    auto conn = f.mux_a->tcp_connect(f.b_endpoint(80));
    client = conn;
    conn->set_on_established(
        [conn] { conn->send(std::make_shared<BytesPayload>("ping")); });
    conn->set_on_message([conn, &got_pong](net::PayloadPtr) {
      got_pong = true;
      conn->close();
    });
  }
  f.sim.run_until(5 * kSecond);
  EXPECT_TRUE(got_pong);
  EXPECT_TRUE(server.expired());
  EXPECT_TRUE(client.expired());
}

TEST(EndpointLifetime, ServerSessionOfAnUnfinishedHandshakeIsFreed) {
  PathFixture f;
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  bool accepted = false;
  listener->set_on_accept_mptcp(
      [&](std::shared_ptr<MptcpConnection>) { accepted = true; });
  const long baseline = listener.use_count();
  auto client = f.mux_a->mptcp_connect(f.b_endpoint(80));
  // The SYN is in (one-way delay 10 ms); the SYN-ACK is not back yet.
  f.sim.run_until(15 * kMillisecond);
  // The half-open subflow's establishment hook owns the listener reference
  // and the server session, and nothing else owns the session.
  EXPECT_EQ(listener.use_count(), baseline + 1);
  f.path.a->set_up(false);  // the client never answers the SYN-ACK
  f.sim.run_until(600 * kSecond);
  EXPECT_FALSE(accepted);
  EXPECT_EQ(listener.use_count(), baseline);
}

TEST(EndpointLifetime, TcpHandlerMayAbortItsOwnConnection) {
  PathFixture f;
  auto listener = f.mux_b->tcp_listen(80);
  auto conn = f.mux_a->tcp_connect(f.b_endpoint(80));
  bool reset = false;
  std::string seen;
  conn->set_on_reset([&] { reset = true; });
  conn->set_on_established(
      [c = conn.get(), &seen, tag = std::string(64, 'x')] {
        c->abort();
        seen = tag;  // the running handler's captures survive the abort
      });
  conn.reset();  // only the mux holds the connection
  f.sim.run_until(kSecond);
  EXPECT_TRUE(reset);
  EXPECT_EQ(seen, std::string(64, 'x'));
}

TEST(EndpointLifetime, MptcpHandlerMayEndItsOwnSession) {
  PathFixture f;
  TcpOptions server_opts;
  server_opts.mp_capable = true;
  auto listener = f.mux_b->tcp_listen(80, server_opts);
  auto session = f.mux_a->mptcp_connect(f.b_endpoint(80));
  bool reset = false;
  std::string seen;
  session->set_on_reset([&] { reset = true; });
  session->set_on_established(
      [s = session.get(), &seen, tag = std::string(64, 'x')] {
        s->remove_subflow(s->subflows()[0].conn);  // the only subflow
        seen = tag;
      });
  session.reset();
  f.sim.run_until(kSecond);
  EXPECT_TRUE(reset);
  EXPECT_EQ(seen, std::string(64, 'x'));
}

}  // namespace
}  // namespace hpop::transport
