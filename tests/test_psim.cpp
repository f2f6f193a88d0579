#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "metro/partition.hpp"
#include "metro/topology.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "psim/day.hpp"
#include "psim/tcp_day.hpp"
#include "psim/engine.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hpop {
namespace {

// --- Shard partitioner ---

TEST(ShardPlan, OnePartitionPerPopPlusCore) {
  sim::Simulator sim;
  util::Rng rng(7);
  net::Network net(sim, rng.fork());
  metro::MetroParams mp;
  mp.homes = 1024;  // 32 dslams -> 2 pops
  metro::MetroTopology topo = metro::build_metro(net, mp, rng);
  ASSERT_EQ(topo.pops.size(), 2u);

  metro::ShardPlan plan = metro::plan_shards(topo);
  EXPECT_EQ(plan.partitions, 3u);
  EXPECT_EQ(plan.core_partition, 2u);
  EXPECT_EQ(plan.lookahead, mp.pop_uplink.delay);
  ASSERT_EQ(plan.fingerprints.size(), 3u);
  EXPECT_NE(plan.fingerprints[0], plan.fingerprints[1]);

  // Every home and dslam lands in its PoP's partition.
  for (std::size_t h = 0; h < mp.homes; h += 97) {
    EXPECT_EQ(plan.of_home(topo, h), topo.pop_of_home(h));
    EXPECT_LT(plan.of_home(topo, h), plan.core_partition);
  }
  EXPECT_EQ(plan.of_dslam(topo, 31), topo.pop_of_dslam(31));
}

// --- Deterministic cross-shard delivery ---

struct Seen {
  util::TimePoint at;
  std::uint16_t src_port;
};

/// Two senders in different shards, one receiver in a third. Link delays
/// and packet sizes are identical, so both packets cross their boundary
/// buffers stamped with the SAME deliver_time; the drain must order them by
/// crossing registration order, regardless of sender identity.
class BoundaryFifoTest : public ::testing::Test {
 protected:
  void run(bool register_c_first, std::vector<Seen>& seen) {
    sim::Simulator build_sim;
    util::Rng rng(3);
    net::Network net(build_sim, rng.fork());
    net::Host& a = net.add_host("a", net::IpAddr(10, 0, 0, 1));
    net::Host& b = net.add_host("b", net::IpAddr(10, 0, 0, 2));
    net::Host& c = net.add_host("c", net::IpAddr(10, 0, 0, 3));
    net::LinkParams lp;
    lp.rate = 1 * util::kGbps;
    lp.delay = 2 * util::kMillisecond;
    net::Link& ab = net.connect(a, b, lp);
    net::Link& cb = net.connect(c, b, lp);
    net.auto_route();

    psim::Engine::Config ec;
    ec.lookahead = lp.delay;
    psim::Engine eng(ec);
    const std::size_t pa = eng.add_partition();  // 0: a
    const std::size_t pb = eng.add_partition();  // 1: b
    const std::size_t pc = eng.add_partition();  // 2: c
    if (register_c_first) {
      eng.crossing(pc, pb);
      eng.crossing(pa, pb);
    }
    eng.bind_boundary(&ab, 0, pa, pb);
    eng.bind_boundary(&ab, 1, pb, pa);
    eng.bind_boundary(&cb, 0, pc, pb);
    eng.bind_boundary(&cb, 1, pb, pc);

    b.set_transport_handler(
        [&seen, &eng, pb](net::PooledPacket pkt, net::Interface&) {
          seen.push_back({eng.sim(pb).now(), pkt->udp.src_port});
        });

    auto send = [&eng](net::Host& from, net::Host& to, std::size_t part,
                       std::uint16_t port) {
      eng.sim(part).schedule_at(0, [&eng, part, &from, &to, port] {
        net::PooledPacket q = eng.pool(part).acquire();
        q->src = from.address();
        q->dst = to.address();
        q->proto = net::Proto::kUdp;
        q->udp.src_port = port;
        q->udp.dst_port = 7000;
        q->payload_len = 400;
        from.send_packet(std::move(q));
      });
    };
    send(a, b, pa, 1111);
    send(c, b, pc, 2222);
    eng.run_until(50 * util::kMillisecond);
    EXPECT_EQ(eng.stats().crossings, 2u);
  }
};

TEST_F(BoundaryFifoTest, EqualTimestampsDrainInRegistrationOrder) {
  std::vector<Seen> seen;
  run(/*register_c_first=*/false, seen);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].at, seen[1].at);  // identical arrival instants
  // a's crossing was registered first (bind order), so its packet wins the
  // equal-timestamp tie.
  EXPECT_EQ(seen[0].src_port, 1111);
  EXPECT_EQ(seen[1].src_port, 2222);
}

TEST_F(BoundaryFifoTest, TieBreakFollowsRegistrationNotSenderId) {
  std::vector<Seen> seen;
  run(/*register_c_first=*/true, seen);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].at, seen[1].at);
  EXPECT_EQ(seen[0].src_port, 2222);  // c's crossing registered first
  EXPECT_EQ(seen[1].src_port, 1111);
}

// --- The engine on its own, no metro ---

/// (arrival time, packet id, hops left) for one delivery.
using Delivery = std::tuple<util::TimePoint, std::uint16_t, std::uint16_t>;

constexpr std::uint16_t kTrain = 20;  // packets each host launches
constexpr std::uint16_t kHops = 6;    // forwards per packet after launch
constexpr std::size_t kDeliveries = 3 * kTrain * (kHops + 1);

/// Three hosts, one per partition, on a triangle of boundary links. Each
/// host launches a train of packets at the next host; every receiver sends
/// a packet on until its hop budget (carried in dst_port) runs out, to the
/// next host on an even budget and back to the previous one on an odd
/// budget, so both directions of every link carry traffic. run_until is
/// called in several steps, one of them repeated and several landing
/// mid-flight. With `burst` > 0, the links run at 10 Gbps and host 0 also
/// sends `burst` single-hop packets to host 1 at t = 0, all of which cross
/// in the first epoch: one crossing buffer grows by thousands of packets
/// mid-epoch. Returns each partition's deliveries, in the order that
/// partition saw them.
std::vector<std::vector<Delivery>> run_triangle(std::size_t workers,
                                                std::uint16_t burst = 0) {
  constexpr util::Duration ms = util::kMillisecond;
  constexpr std::uint16_t kBurstId = 10'000;  // above every train id
  psim::Engine::Config ec;
  ec.workers = workers;
  ec.lookahead = 2 * ms;
  psim::Engine eng(ec);
  for (int i = 0; i < 3; ++i) eng.add_partition();  // partition i: host i

  // Declared after the engine so the network (whose links may still hold
  // pooled packets) is destroyed first.
  sim::Simulator build_sim;
  util::Rng rng(5);
  net::Network net(build_sim, rng.fork());
  std::vector<net::Host*> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(&net.add_host("h" + std::to_string(i),
                                  net::IpAddr(10, 0, 0, 1 + i)));
  }
  std::vector<net::Link*> links;  // links[i]: host i -> host (i + 1) % 3
  for (int i = 0; i < 3; ++i) {
    net::LinkParams lp;
    lp.rate = burst > 0 ? 10 * util::kGbps : 100 * util::kMbps;
    lp.delay = (2 + i) * ms;  // 2, 3 and 4 ms, all >= the lookahead
    lp.queue_bytes = 4 << 20;  // holds the whole burst
    links.push_back(&net.connect(*hosts[i], *hosts[(i + 1) % 3], lp));
  }
  net.auto_route();
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t next = (i + 1) % 3;
    eng.bind_boundary(links[i], 0, i, next);
    eng.bind_boundary(links[i], 1, next, i);
  }

  auto send = [&eng, &hosts](std::size_t from, std::uint16_t id,
                             std::uint16_t hops) {
    const std::size_t to = hops % 2 == 0 ? (from + 1) % 3 : (from + 2) % 3;
    net::PooledPacket q = eng.pool(from).acquire();
    q->src = hosts[from]->address();
    q->dst = hosts[to]->address();
    q->proto = net::Proto::kUdp;
    q->udp.src_port = id;
    q->udp.dst_port = hops;
    q->payload_len = 200 + 100 * hops;
    hosts[from]->send_packet(std::move(q));
  };
  std::vector<std::vector<Delivery>> trace(3);
  for (std::size_t i = 0; i < 3; ++i) {
    hosts[i]->set_transport_handler(
        [&eng, &trace, &send, i](net::PooledPacket pkt, net::Interface&) {
          const std::uint16_t id = pkt->udp.src_port;
          const std::uint16_t hops = pkt->udp.dst_port;
          trace[i].emplace_back(eng.sim(i).now(), id, hops);
          if (hops > 0) send(i, id, static_cast<std::uint16_t>(hops - 1));
        });
    for (std::uint16_t k = 0; k < kTrain; ++k) {
      const auto id = static_cast<std::uint16_t>(1000 * (i + 1) + k);
      eng.sim(i).schedule_at(k * 700 * util::kMicrosecond,
                             [&send, i, id] { send(i, id, kHops); });
    }
  }
  eng.sim(0).schedule_at(0, [&send, burst] {
    for (std::uint16_t k = 0; k < burst; ++k) {
      send(0, static_cast<std::uint16_t>(kBurstId + k), 0);
    }
  });
  for (const util::TimePoint h :
       {5 * ms, 17 * ms, 17 * ms, 41 * ms, 200 * ms}) {
    eng.run_until(h);
  }
  EXPECT_EQ(eng.stats().crossings, kDeliveries + burst);
  // The first epoch is [0, lookahead), so a burst packet pushed in it is
  // due before lookahead + link 0's 2 ms delay.
  std::size_t burst_seen = 0;
  for (const auto& [at, id, hops] : trace[1]) {
    if (id < kBurstId) continue;
    ++burst_seen;
    EXPECT_LT(at, 4 * ms) << "burst packet " << id;
  }
  EXPECT_EQ(burst_seen, burst);
  return trace;
}

TEST(PsimEngine, DeliveryTraceIdenticalAcrossWorkerCounts) {
  // 5000 packets in one epoch also outgrow any fixed-size hand-off.
  for (const std::uint16_t burst : {0, 5'000}) {
    const std::vector<std::vector<Delivery>> ref = run_triangle(1, burst);
    std::size_t deliveries = 0;
    for (const auto& t : ref) deliveries += t.size();
    EXPECT_EQ(deliveries, kDeliveries + burst);
    // 0 runs inline like 1; 8 leaves workers 3..7 with no partition at all.
    for (const std::size_t w : {0, 2, 3, 8}) {
      EXPECT_EQ(run_triangle(w, burst), ref)
          << "workers=" << w << " burst=" << burst;
    }
  }
}

TEST(PsimEngine, DestroysIdleAndParkedEngines) {
  psim::Engine::Config ec;
  ec.workers = 4;
  ec.lookahead = util::kMillisecond;
  { psim::Engine never_ran(ec); }

  psim::Engine eng(ec);
  struct Tick {
    sim::Simulator* sim;
    void operator()() const { sim->schedule(util::kMillisecond, Tick{sim}); }
  };
  for (int i = 0; i < 6; ++i) {
    const std::size_t p = eng.add_partition();
    eng.sim(p).schedule_at(0, Tick{&eng.sim(p)});
  }
  eng.run_until(20 * util::kMillisecond);
  EXPECT_GT(eng.stats().epochs, 10u);
  // Outlast the spin window so every worker is parked when the engine is
  // destroyed; the destructor must wake and join them.
  std::this_thread::sleep_for(20 * psim::Engine::kSpinWindow);
}

TEST(PsimEngine, EventExceptionRethrownOnCaller) {
  psim::Engine::Config ec;
  ec.workers = 2;
  ec.lookahead = util::kMillisecond;
  psim::Engine eng(ec);
  eng.add_partition();
  eng.add_partition();  // runs on worker 1, not the caller
  eng.sim(1).schedule_at(3 * util::kMillisecond,
                         [] { throw std::runtime_error("event in shard 1"); });
  EXPECT_THROW(eng.run_until(10 * util::kMillisecond), std::runtime_error);
}

TEST(PsimEngineDeathTest, NonPositiveLookaheadAborts) {
  psim::Engine::Config ec;
  ec.workers = 2;
  ec.lookahead = 0;
  EXPECT_DEATH(psim::Engine eng(ec), "lookahead 0 ns must be > 0");
}

TEST(PsimEngineDeathTest, BoundaryDelayBelowLookaheadAborts) {
  sim::Simulator build_sim;
  util::Rng rng(3);
  net::Network net(build_sim, rng.fork());
  net::Host& a = net.add_host("a", net::IpAddr(10, 0, 0, 1));
  net::Host& b = net.add_host("b", net::IpAddr(10, 0, 0, 2));
  net::LinkParams lp;
  lp.delay = util::kMillisecond;
  net::Link& ab = net.connect(a, b, lp);
  psim::Engine::Config ec;
  ec.lookahead = 2 * util::kMillisecond;
  psim::Engine eng(ec);
  eng.add_partition();
  eng.add_partition();
  EXPECT_DEATH(eng.bind_boundary(&ab, 1, 1, 0),
               "boundary 1->0 delay 1000000 ns < lookahead 2000000 ns");
}

TEST(PsimEngineDeathTest, BoundaryDelayLoweredBelowLookaheadAborts) {
  sim::Simulator build_sim;
  util::Rng rng(3);
  net::Network net(build_sim, rng.fork());
  net::Host& a = net.add_host("a", net::IpAddr(10, 0, 0, 1));
  net::Host& b = net.add_host("b", net::IpAddr(10, 0, 0, 2));
  net::LinkParams lp;
  lp.delay = 2 * util::kMillisecond;
  net::Link& ab = net.connect(a, b, lp);
  psim::Engine::Config ec;
  ec.lookahead = 2 * util::kMillisecond;
  psim::Engine eng(ec);
  eng.add_partition();
  eng.add_partition();
  eng.bind_boundary(&ab, 0, 0, 1);
  eng.bind_boundary(&ab, 1, 1, 0);
  lp.delay = 3 * util::kMillisecond;
  ab.set_params(lp);  // raising the delay keeps the epoch bound
  lp.delay = util::kMillisecond;
  EXPECT_DEATH(ab.set_params(lp),
               "net::Link a->b: staged delay 1000000 ns < delay floor "
               "2000000 ns");
}

// --- Worker-count invariance + chaos in non-zero shards ---

psim::DayConfig small_day(std::size_t workers, bool chaos = true) {
  psim::DayConfig cfg;
  cfg.homes = 2'000;  // 63 dslams -> 4 pops -> 5 partitions
  cfg.workers = workers;
  cfg.seed = 42;
  cfg.day = 5 * util::kSecond;
  cfg.base_rate_per_home = 0.2;
  cfg.chaos = chaos;
  return cfg;
}

TEST(PsimDay, ByteIdenticalAcrossWorkerCounts) {
  psim::DayResult w1 = psim::run_day(small_day(1));
  psim::DayResult w2 = psim::run_day(small_day(2));
  psim::DayResult w4 = psim::run_day(small_day(4));
  EXPECT_GT(w1.requests, 0u);
  EXPECT_GT(w1.rx_bytes, 0u);
  EXPECT_GT(w1.crossings, 0u);
  EXPECT_GT(w1.epochs, 1u);
  EXPECT_EQ(w1.report, w2.report);
  EXPECT_EQ(w1.report, w4.report);
}

TEST(PsimDay, ChaosFiresInsideNonZeroShards) {
  // The day scripts a DSLAM crash in PoP 1's shard and a partition cut in
  // PoP 2's shard; both must actually fire and eat traffic, and must not
  // break worker-count invariance (checked above on the same config).
  psim::DayResult r = psim::run_day(small_day(2));
  EXPECT_EQ(r.chaos_crashes, 1u);
  EXPECT_EQ(r.chaos_restarts, 1u);
  EXPECT_GT(r.partition_drops, 0u);
}

TEST(PsimDay, ChaosOffScriptsNoFaultsAndStaysWorkerInvariant) {
  psim::DayResult w1 = psim::run_day(small_day(1, /*chaos=*/false));
  psim::DayResult w2 = psim::run_day(small_day(2, /*chaos=*/false));
  EXPECT_EQ(w1.chaos_crashes, 0u);
  EXPECT_EQ(w1.chaos_restarts, 0u);
  EXPECT_EQ(w1.partition_drops, 0u);
  EXPECT_GT(w1.rx_bytes, 0u);
  EXPECT_EQ(w1.report, w2.report);
}

// --- TCP day: cross-shard transport ---

psim::TcpDayConfig small_tcp_day(std::size_t workers, bool chaos = true,
                                 std::size_t mptcp_every = 16) {
  psim::TcpDayConfig cfg;
  cfg.homes = 2'000;  // 63 dslams -> 4 pops -> 5 partitions
  cfg.workers = workers;
  cfg.seed = 42;
  cfg.day = 5 * util::kSecond;
  cfg.base_rate_per_home = 0.2;
  cfg.chaos = chaos;
  cfg.mptcp_every = mptcp_every;
  return cfg;
}

TEST(PsimTcpDay, ByteIdenticalAcrossWorkerCountsWithChaos) {
  // Real transport across the shard cut: endpoint state (cwnd, SACK
  // scoreboards, RTO timers) is shard-local, only serialized segments
  // cross, and the chaos faults (DSLAM crash, home partition) land
  // mid-transfer — the composition must still be worker-count invariant
  // byte for byte.
  psim::TcpDayResult w1 = psim::run_tcp_day(small_tcp_day(1));
  psim::TcpDayResult w2 = psim::run_tcp_day(small_tcp_day(2));
  psim::TcpDayResult w4 = psim::run_tcp_day(small_tcp_day(4));
  EXPECT_GT(w1.conns, 0u);
  EXPECT_GT(w1.completed, 0u);
  EXPECT_GT(w1.mptcp_sessions, 0u);
  EXPECT_GT(w1.rx_bytes, 0u);
  EXPECT_GT(w1.crossings, 0u);
  EXPECT_EQ(w1.chaos_crashes, 1u);
  EXPECT_EQ(w1.chaos_restarts, 1u);
  EXPECT_GT(w1.partition_drops, 0u);
  EXPECT_EQ(w1.report, w2.report);
  EXPECT_EQ(w1.report, w4.report);
}

TEST(PsimTcpDay, ServesRequestsEndToEnd) {
  psim::TcpDayResult r = psim::run_tcp_day(small_tcp_day(2));
  // Every served request maps to a connection; the handful of connections
  // initiated right at the day horizon may be neither served nor failed
  // (SYN or request still in flight), hence <= rather than ==.
  EXPECT_GT(r.origin_served, 0u);
  EXPECT_LE(r.origin_served + r.failed, r.conns);
  EXPECT_LE(r.completed, r.origin_served);
  EXPECT_LE(r.rx_bytes, r.origin_tx_bytes);
  EXPECT_GT(r.rx_bytes, r.origin_tx_bytes / 2);
}

TEST(PsimTcpDay, ChaosOffScriptsNoFaultsAndStaysWorkerInvariant) {
  psim::TcpDayResult w1 = psim::run_tcp_day(small_tcp_day(1, /*chaos=*/false));
  psim::TcpDayResult w2 = psim::run_tcp_day(small_tcp_day(2, /*chaos=*/false));
  EXPECT_EQ(w1.chaos_crashes, 0u);
  EXPECT_EQ(w1.chaos_restarts, 0u);
  EXPECT_EQ(w1.partition_drops, 0u);
  EXPECT_GT(w1.completed, 0u);
  EXPECT_EQ(w1.report, w2.report);
}

TEST(PsimTcpDay, MptcpSliceOffServesOverPlainTcpOnly) {
  psim::TcpDayResult r = psim::run_tcp_day(
      small_tcp_day(2, /*chaos=*/true, /*mptcp_every=*/0));
  EXPECT_EQ(r.mptcp_sessions, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_LE(r.origin_served + r.failed, r.conns);
}

}  // namespace
}  // namespace hpop
